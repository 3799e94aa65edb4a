// E5 — update time under growth (Theorems 3.2 vs 3.3/3.4 foils).
//
// (a) q-hierarchical star query: dyncq's per-update time stays flat as n
//     grows; delta-IVM also maintains it but pays the delta join.
// (b) non-q-hierarchical ϕ_{S-E-T}: no dyncq engine exists; delta-IVM's
//     per-update cost grows with n (Θ(n) deltas on S/T updates), and
//     recompute pays Θ(||D||) per refresh — the behaviour the OMv lower
//     bound says is unavoidable up to n^{1-ε}.
// (c) engine hot-path tracking on arity-2 chain/star queries: per-update
//     latency of the single-tuple path, ApplyBatch throughput, and
//     enumeration delay, written to BENCH_e5.json together with the
//     recorded pre-refactor baseline so the perf trajectory is
//     machine-checkable across PRs.
#include <algorithm>
#include <iostream>
#include <span>
#include <tuple>

#include "bench_util.h"
#include "omv/bitmatrix.h"
#include "util/rng.h"
#include "workload/matrix_workload.h"
#include "workload/stream_gen.h"

namespace dyncq::bench {
namespace {

double MeasureUpdates(DynamicQueryEngine& engine,
                      workload::StreamGenerator& gen, std::size_t count,
                      std::size_t num_rels, bool count_after_update) {
  UpdateStream stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.push_back(gen.Next(static_cast<RelId>(i % num_rels)));
  }
  Timer t;
  for (const UpdateCmd& cmd : stream) {
    engine.Apply(cmd);
    if (count_after_update) {
      volatile bool sink = engine.Count() > 0;
      (void)sink;
    }
  }
  return t.ElapsedNs() / static_cast<double>(count);
}

void PartA() {
  std::cout << "-- (a) q-hierarchical star Q(x,y,z) :- R(x,y), S(x,z) --\n";
  Query q = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  TablePrinter t(
      {"n (adom)", "dyncq ns/update", "delta-ivm ns/update", "ratio"});
  for (std::size_t n : {1000u, 4000u, 16000u, 64000u}) {
    workload::StreamOptions preload_opts;
    preload_opts.seed = 1;
    preload_opts.domain_size = n;
    preload_opts.insert_ratio = 1.0;  // grow phase
    workload::StreamOptions churn_opts = preload_opts;
    churn_opts.seed = 99;
    churn_opts.insert_ratio = 0.5;  // measured churn phase

    auto engine = MustCreateEngine(q);
    {
      workload::StreamGenerator preload(q.schema_ptr(), preload_opts);
      for (const UpdateCmd& c : preload.Take(4 * n)) engine->Apply(c);
    }
    workload::StreamGenerator gen1(q.schema_ptr(), churn_opts);
    double dyncq_ns = MeasureUpdates(*engine, gen1, 20000, 2, false);

    baseline::DeltaIvmEngine ivm(q);
    {
      workload::StreamGenerator preload(q.schema_ptr(), preload_opts);
      for (const UpdateCmd& c : preload.Take(4 * n)) ivm.Apply(c);
    }
    workload::StreamGenerator gen2(q.schema_ptr(), churn_opts);
    double ivm_ns = MeasureUpdates(ivm, gen2, 2000, 2, false);

    t.AddRow({std::to_string(engine->db().ActiveDomainSize()),
              FormatDouble(dyncq_ns, 1), FormatDouble(ivm_ns, 1),
              FormatDouble(ivm_ns / dyncq_ns, 2)});
  }
  t.Print();
  std::cout << "Expected: dyncq column flat (constant update time).\n\n";
}

void PartB() {
  std::cout << "-- (b) non-q-hierarchical phi_S-E-T "
               "Q(x,y) :- S(x), E(x,y), T(y) on the OuMv gadget --\n";
  Query q = MustParse("Q(x, y) :- S(x), E(x, y), T(y).",
                      workload::MakeSETSchema());
  DYNCQ_CHECK(!core::Engine::Create(q).ok());
  std::cout << "dyncq engine: rejected (not q-hierarchical), as per "
               "Theorem 3.3.\n";

  // The lower-bound workload: E is a dense n x n matrix, S/T membership
  // bits flip per round. An S(x) toggle forces Θ(n) delta work — exactly
  // the update cost the OMv conjecture says cannot be avoided.
  RelId s_rel = q.schema().FindRelation("S");
  RelId e_rel = q.schema().FindRelation("E");
  RelId t_rel = q.schema().FindRelation("T");

  TablePrinter t({"n", "|E|", "ivm ns/S-toggle", "ivm ns/E-update",
                  "recompute ns/(update+count)"});
  for (std::size_t n : {128u, 256u, 512u, 1024u}) {
    Rng rng(n);
    omv::BitMatrix m = omv::BitMatrix::Random(n, n, 0.2, rng);

    baseline::DeltaIvmEngine ivm(q);
    for (const UpdateCmd& c : workload::EncodeMatrix(e_rel, m)) {
      ivm.Apply(c);
    }
    for (std::size_t j = 0; j < n; j += 2) {
      ivm.Apply(UpdateCmd::Insert(t_rel, {workload::RightValue(j)}));
    }
    // Measure S-bit toggles (the per-round updates of Lemma 5.3).
    Timer st;
    std::size_t toggles = 0;
    for (std::size_t rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < n; i += 4, ++toggles) {
        Tuple tup{workload::LeftValue(i)};
        ivm.Apply(rep % 2 == 0 ? UpdateCmd::Insert(s_rel, tup)
                               : UpdateCmd::Delete(s_rel, tup));
      }
    }
    double s_ns = st.ElapsedNs() / static_cast<double>(toggles);

    // E updates stay cheap for delta-IVM (S/T are small filters).
    Timer et;
    for (std::size_t i = 0; i < 1000; ++i) {
      Tuple tup{workload::LeftValue(rng.Below(n)),
                workload::RightValue(rng.Below(n))};
      if (rng.Chance(0.5)) {
        ivm.Apply(UpdateCmd::Insert(e_rel, tup));
      } else {
        ivm.Apply(UpdateCmd::Delete(e_rel, tup));
      }
    }
    double e_ns = et.ElapsedNs() / 1000.0;

    baseline::RecomputeEngine rec(q);
    for (const UpdateCmd& c : workload::EncodeMatrix(e_rel, m)) {
      rec.Apply(c);
    }
    for (std::size_t j = 0; j < n; j += 2) {
      rec.Apply(UpdateCmd::Insert(t_rel, {workload::RightValue(j)}));
    }
    Timer rt;
    for (std::size_t i = 0; i < 20; ++i) {
      rec.Apply(UpdateCmd::Insert(s_rel, {workload::LeftValue(i % n)}));
      volatile bool sink = rec.Count() > 0;
      (void)sink;
    }
    double rec_ns = rt.ElapsedNs() / 20.0;

    t.AddRow({std::to_string(n), std::to_string(ivm.db().relation(e_rel).size()),
              FormatDouble(s_ns, 1), FormatDouble(e_ns, 1),
              FormatDouble(rec_ns, 1)});
  }
  t.Print();
  std::cout << "Expected: S-toggle and recompute columns grow linearly "
               "with n (the OMv conjecture rules out O(n^{1-eps}));\n"
               "E-updates stay cheap — the hard part of maintaining "
               "phi_S-E-T is the vector side, exactly as in Lemma 5.3.\n";
}

// ---------------------------------------------------------------------------
// Part C: hot-path tracking for the dynamic engine.
//
// The pre-refactor baseline below was measured on the seed engine
// (commit b31d933: per-node OpenHashMap<PathKey, Item*> indexes, eager
// adom maintenance, SmallVector relation storage) with exactly the
// parameters used here: preload 4n inserts (seed 1), then 200k churn
// commands (seed 99, insert ratio 0.5) timed through Apply.
// ---------------------------------------------------------------------------

struct BaselineNs {
  std::size_t n;
  double chain_ns;  // Q(x,y,z) :- R(x,y), S(y,z)
  double star_ns;   // Q(x,y,z) :- R(x,y), S(x,z)
};

// Medians of repeated runs on the benchmark host (see PR notes).
constexpr BaselineNs kPreRefactorBaseline[] = {
    {16000, 431.0, 426.0},
    {64000, 644.0, 652.0},
};

std::unique_ptr<core::Engine> MakePreloaded(const Query& q, std::size_t n) {
  auto engine = MustCreateEngine(q);
  workload::StreamOptions opts;
  opts.seed = 1;
  opts.domain_size = n;
  opts.insert_ratio = 1.0;
  workload::StreamGenerator preload(q.schema_ptr(), opts);
  for (const UpdateCmd& c : preload.Take(4 * n)) engine->Apply(c);
  return engine;
}

UpdateStream ChurnStream(const Query& q, std::size_t n, std::size_t ops) {
  workload::StreamOptions opts;
  opts.seed = 99;
  opts.domain_size = n;
  opts.insert_ratio = 0.5;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  UpdateStream out;
  out.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    out.push_back(gen.Next(static_cast<RelId>(i % 2)));
  }
  return out;
}

double MedianSingleNs(const Query& q, std::size_t n, std::size_t ops,
                      int reps) {
  Samples samples;
  for (int r = 0; r < reps; ++r) {
    auto engine = MakePreloaded(q, n);
    UpdateStream stream = ChurnStream(q, n, ops);
    Timer t;
    for (const UpdateCmd& c : stream) engine->Apply(c);
    samples.Add(t.ElapsedNs() / static_cast<double>(ops));
  }
  return samples.Median();
}

void PartC(JsonWriter* json) {
  std::cout << "-- (c) engine hot path: arity-2 chain/star, single vs "
               "batch (BENCH_e5.json) --\n";
  Query chain = MustParse("Q(x, y, z) :- R(x, y), S(y, z).");
  Query star = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  const std::size_t kOps = 200000;
  const std::size_t kBatchOps = 100000;
  const std::size_t kBatchSize = 8192;

  TablePrinter t({"query", "n (adom)", "ns/update", "baseline ns",
                  "speedup", "batch ns/update", "enum ns/tuple"});
  for (const BaselineNs& base : kPreRefactorBaseline) {
    for (const auto& [name, q, base_ns] :
         {std::tuple<const char*, const Query*, double>{"chain", &chain,
                                                        base.chain_ns},
          std::tuple<const char*, const Query*, double>{"star", &star,
                                                        base.star_ns}}) {
      double single_ns = MedianSingleNs(*q, base.n, kOps, 3);

      // Batch pipeline on a fresh engine over a 100k-update stream.
      auto batch_engine = MakePreloaded(*q, base.n);
      UpdateStream stream = ChurnStream(*q, base.n, kBatchOps);
      Timer bt;
      for (std::size_t off = 0; off < stream.size(); off += kBatchSize) {
        std::size_t len = std::min(kBatchSize, stream.size() - off);
        batch_engine->ApplyBatch(
            std::span<const UpdateCmd>(stream.data() + off, len));
      }
      double batch_ns =
          bt.ElapsedNs() / static_cast<double>(stream.size());

      // Enumeration delay: one full scan of the maintained result.
      double enum_ns = 0.0;
      {
        auto en = batch_engine->NewCursor();
        Tuple tup;
        std::size_t tuples = 0;
        Timer et;
        while (en->Next(&tup) == CursorStatus::kOk) ++tuples;
        enum_ns = tuples > 0
                      ? et.ElapsedNs() / static_cast<double>(tuples)
                      : 0.0;
      }

      std::string prefix =
          std::string(name) + ".n" + std::to_string(base.n);
      json->Add(prefix + ".single_ns_per_update", single_ns);
      json->Add(prefix + ".pre_refactor_single_ns_per_update", base_ns);
      json->Add(prefix + ".single_speedup_vs_pre_refactor",
                base_ns / single_ns);
      json->Add(prefix + ".batch_ns_per_update", batch_ns);
      json->Add(prefix + ".batch_speedup_vs_single",
                single_ns / batch_ns);
      json->Add(prefix + ".batch_speedup_vs_pre_refactor",
                base_ns / batch_ns);
      json->Add(prefix + ".enum_ns_per_tuple", enum_ns);

      t.AddRow({name, std::to_string(base.n), FormatDouble(single_ns, 1),
                FormatDouble(base_ns, 1),
                FormatDouble(base_ns / single_ns, 2),
                FormatDouble(batch_ns, 1),
                FormatDouble(enum_ns, 1)});
    }
  }
  t.Print();
  json->Add("batch.ops_per_batch", kBatchSize);
  json->Add("batch.stream_len", kBatchOps);
  json->AddString("baseline.provenance",
                  "seed engine (commit b31d933) + identical workload, "
                  "median of repeated runs");
  json->Write("BENCH_e5.json");
  std::cout << "Expected: >=2x single-update speedup vs the recorded "
               "pre-refactor baseline; ApplyBatch at or above "
               "single-tuple throughput.\n";
}

void Run() {
  Banner("E5", "constant vs growing update time",
         "q-hierarchical: tu = poly(phi) (flat); otherwise tu grows "
         "with n for every known algorithm");
  // Part C first: the tracked hot-path numbers are measured on a clean
  // heap, before the baselines allocate their large delta states.
  JsonWriter json;
  PartC(&json);
  PartA();
  PartB();
}

}  // namespace
}  // namespace dyncq::bench

int main() { dyncq::bench::Run(); }
