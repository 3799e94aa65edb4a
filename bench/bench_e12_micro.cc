// E12 — google-benchmark micro suite: the primitive operations behind
// the paper's constant-time bounds (hash map ops, relation updates,
// single engine updates, batched updates, enumerator steps, count
// calls). Without arguments the suite writes BENCH_e12.json
// (--benchmark_out), so ns/update and enumeration-delay numbers are
// machine-readable across PRs.
#include <benchmark/benchmark.h>

#include <span>
#include <unordered_map>
#include <vector>

#include "baseline/delta_ivm.h"
#include "core/engine.h"
#include "core/item_pool.h"
#include "cq/parser.h"
#include "storage/relation.h"
#include "util/check.h"
#include "util/open_hash_map.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

Query Parse(const char* text) {
  auto q = ParseQuery(text);
  DYNCQ_CHECK_MSG(q.ok(), q.error());
  return q.value();
}

void BM_OpenHashMapInsertErase(benchmark::State& state) {
  OpenHashMap<std::uint64_t, std::uint64_t, U64Hash> m;
  Rng rng(1);
  for (auto _ : state) {
    std::uint64_t k = rng.Below(1 << 16);
    m.Insert(k, k);
    m.Erase(rng.Below(1 << 16));
  }
}
BENCHMARK(BM_OpenHashMapInsertErase);

void BM_OpenHashMapLookupHit(benchmark::State& state) {
  OpenHashMap<std::uint64_t, std::uint64_t, U64Hash> m;
  for (std::uint64_t i = 0; i < 100000; ++i) m.Insert(i, i);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Find(rng.Below(100000)));
  }
}
BENCHMARK(BM_OpenHashMapLookupHit);

// Ablation: the custom open-addressing map vs std::unordered_map (the
// design choice DESIGN.md calls out for the item index / relations).
void BM_Ablation_StdUnorderedMapInsertErase(benchmark::State& state) {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  Rng rng(1);
  for (auto _ : state) {
    std::uint64_t k = rng.Below(1 << 16);
    m.emplace(k, k);
    m.erase(rng.Below(1 << 16));
  }
}
BENCHMARK(BM_Ablation_StdUnorderedMapInsertErase);

void BM_Ablation_StdUnorderedMapLookupHit(benchmark::State& state) {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 100000; ++i) m.emplace(i, i);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.find(rng.Below(100000)));
  }
}
BENCHMARK(BM_Ablation_StdUnorderedMapLookupHit);

void BM_RelationInsertContains(benchmark::State& state) {
  Relation r(2);
  Rng rng(3);
  for (auto _ : state) {
    // Value 0 is reserved (util/types.h), so draw from [1, 2^12].
    Tuple t{rng.Below(1 << 12) + 1, rng.Below(1 << 12) + 1};
    r.Insert(t);
    benchmark::DoNotOptimize(r.Contains(t));
  }
}
BENCHMARK(BM_RelationInsertContains);

// ---------------------------------------------------------------------
// Relation probe micro: the swiss-table's per-probe cost by outcome at
// 4k / 64k active-domain sizes (the per-command relation probe is the
// dominant surviving cost of ordered-replay batches). Hits confirm one
// H2 metadata match against tuple words; misses usually terminate on
// the metadata group alone; erase+reinsert cycles the tombstone /
// group-reclaim path. Report-only in the trajectory gate for now — see
// E12_RELATION_PROBE in scripts/check_bench_trajectory.py, which the
// next PR can promote to gated once this baseline has been committed.
// ---------------------------------------------------------------------

std::vector<Tuple> FillRelation(Relation* r, std::size_t n,
                                std::uint64_t seed) {
  // Distinct arity-2 tuples over an n-value domain ([1, n]: Value 0 is
  // reserved engine-wide).
  Rng rng(seed);
  std::vector<Tuple> stored;
  stored.reserve(n);
  r->Reserve(n);
  while (stored.size() < n) {
    Tuple t{rng.Below(n) + 1, rng.Below(n) + 1};
    if (r->Insert(t)) stored.push_back(t);
  }
  return stored;
}

void BM_RelationProbeHit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation r(2);
  std::vector<Tuple> stored = FillRelation(&r, n, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Contains(stored[i]));
    if (++i == stored.size()) i = 0;
  }
}
BENCHMARK(BM_RelationProbeHit)->Arg(4096)->Arg(65536);

void BM_RelationProbeMiss(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation r(2);
  FillRelation(&r, n, 11);
  // Probe tuples from the disjoint value range (n, 2n]: never stored.
  Rng rng(12);
  std::vector<Tuple> absent;
  absent.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    absent.push_back(Tuple{n + rng.Below(n) + 1, n + rng.Below(n) + 1});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Contains(absent[i]));
    if (++i == absent.size()) i = 0;
  }
}
BENCHMARK(BM_RelationProbeMiss)->Arg(4096)->Arg(65536);

void BM_RelationProbeEraseInsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Relation r(2);
  std::vector<Tuple> stored = FillRelation(&r, n, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    // Steady-state churn: one effective erase + one effective reinsert
    // per iteration, at constant live size.
    benchmark::DoNotOptimize(r.Erase(stored[i]));
    benchmark::DoNotOptimize(r.Insert(stored[i]));
    if (++i == stored.size()) i = 0;
  }
}
BENCHMARK(BM_RelationProbeEraseInsert)->Arg(4096)->Arg(65536);

void BM_EngineUpdate(benchmark::State& state) {
  Query q = Parse("Q(x, y, z) :- R(x, y), S(x, z).");
  auto engine = core::Engine::Create(q);
  DYNCQ_CHECK(engine.ok());
  workload::StreamOptions opts;
  opts.domain_size = static_cast<std::size_t>(state.range(0));
  opts.insert_ratio = 0.5;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(4 * opts.domain_size)) {
    (*engine)->Apply(c);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    (*engine)->Apply(gen.Next(static_cast<RelId>(i++ % 2)));
  }
}
BENCHMARK(BM_EngineUpdate)->Arg(1000)->Arg(16000)->Arg(64000);

// The batched pipeline over the same churn stream; reported per update
// so the ratio to BM_EngineUpdate is the batch speedup.
void BM_EngineApplyBatch(benchmark::State& state) {
  Query q = Parse("Q(x, y, z) :- R(x, y), S(x, z).");
  auto engine = core::Engine::Create(q);
  DYNCQ_CHECK(engine.ok());
  workload::StreamOptions opts;
  opts.domain_size = static_cast<std::size_t>(state.range(0));
  opts.insert_ratio = 0.5;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(4 * opts.domain_size)) {
    (*engine)->Apply(c);
  }
  constexpr std::size_t kBatch = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    UpdateStream batch = gen.Take(kBatch);
    state.ResumeTiming();
    (*engine)->ApplyBatch(std::span<const UpdateCmd>(batch));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_EngineApplyBatch)->Arg(1000)->Arg(16000)->Arg(64000);

// ---------------------------------------------------------------------
// Structure micros: single-update churn on the shapes generalized leaf
// inlining and path compression target. Gated in the trajectory check —
// see E12_STRUCTURE_MICROS in scripts/check_bench_trajectory.py.
// ---------------------------------------------------------------------

void RunEngineChurn(benchmark::State& state, const char* text,
                    std::size_t domain, std::size_t num_rels) {
  Query q = Parse(text);
  auto engine = core::Engine::Create(q);
  DYNCQ_CHECK(engine.ok());
  workload::StreamOptions opts;
  opts.domain_size = domain;
  opts.insert_ratio = 0.5;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(4 * domain)) (*engine)->Apply(c);
  std::size_t i = 0;
  for (auto _ : state) {
    (*engine)->Apply(gen.Next(static_cast<RelId>(i++ % num_rels)));
  }
}

// 3-level chain R(x), S(x,y), T(x,y,z): fanout-1 runs dominate, so the
// engine allocates one item per path (the y item is absorbed into its
// head) and walks one level fewer of hash probes.
void BM_EngineUpdateChain3Compressed(benchmark::State& state) {
  RunEngineChurn(state, "Q(x, y, z) :- R(x), S(x, y), T(x, y, z).",
                 static_cast<std::size_t>(state.range(0)), 3);
}
BENCHMARK(BM_EngineUpdateChain3Compressed)->Arg(4096)->Arg(65536);

// k=2 leaf R(x,y), S(x,y): strided count records in the root tables
// instead of allocated leaf items.
void BM_EngineUpdateMultiLeafStrided(benchmark::State& state) {
  RunEngineChurn(state, "Q(x, y) :- R(x, y), S(x, y).",
                 static_cast<std::size_t>(state.range(0)), 2);
}
BENCHMARK(BM_EngineUpdateMultiLeafStrided)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------------------
// Hive ItemPool micros: the allocator under the whole item forest.
// Steady-state churn exercises the skipfield free-run alloc/free path
// at a fixed live size; the reclaim sawtooth fills hundreds of blocks
// and drains them, timing the fill+drain cycle whose cost includes
// returning emptied blocks to the reuse pool (the delete-storm shape).
// Registered report-only — see E12_POOL_MICROS in
// scripts/check_bench_trajectory.py for the promotion path.
// ---------------------------------------------------------------------

void BM_ItemPoolChurn(benchmark::State& state) {
  // One q-tree node shape, one tracked atom, one child slot.
  core::ItemPool pool({1}, {1});
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ItemHandle> live;
  live.reserve(n);
  for (std::size_t k = 0; k < n; ++k) live.push_back(pool.Alloc(0)->self);
  Rng rng(7);
  for (auto _ : state) {
    // Free a random live slot and refill: erased runs form and collapse
    // mid-block, the worst case for the skipfield bookkeeping.
    const std::size_t pick = rng.Below(live.size());
    pool.Free(pool.Resolve(live[pick]));
    live[pick] = pool.Alloc(0)->self;
  }
}
BENCHMARK(BM_ItemPoolChurn)->Arg(4096)->Arg(65536);

void BM_PoolBlockReclaim(benchmark::State& state) {
  core::ItemPool pool({1}, {1});
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ItemHandle> live;
  live.reserve(n);
  for (auto _ : state) {
    for (std::size_t k = 0; k < n; ++k) {
      live.push_back(pool.Alloc(0)->self);
    }
    for (const core::ItemHandle h : live) pool.Free(pool.Resolve(h));
    live.clear();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * n));
  // The number must measure a pool that actually reclaims: after the
  // final drain, at most the kept-hot head block may remain active.
  DYNCQ_CHECK(pool.GetStats().active_blocks <= 1);
}
BENCHMARK(BM_PoolBlockReclaim)->Arg(4096)->Arg(65536);

void BM_EngineCount(benchmark::State& state) {
  Query q = Parse("Q(x) :- R(x, y), S(x, z).");
  auto engine = core::Engine::Create(q);
  DYNCQ_CHECK(engine.ok());
  workload::StreamOptions opts;
  opts.domain_size = 10000;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(40000)) (*engine)->Apply(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*engine)->Count());
  }
}
BENCHMARK(BM_EngineCount);

void BM_CursorNext(benchmark::State& state) {
  Query q = Parse("Q(x, y, z) :- R(x, y), S(x, z).");
  auto engine = core::Engine::Create(q);
  DYNCQ_CHECK(engine.ok());
  workload::StreamOptions opts;
  opts.domain_size = 2000;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(20000)) (*engine)->Apply(c);
  auto en = (*engine)->NewCursor();
  Tuple t;
  for (auto _ : state) {
    if (en->Next(&t) != CursorStatus::kOk) en->Reset();
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CursorNext);

void BM_DeltaIvmUpdate(benchmark::State& state) {
  Query q = Parse("Q(x, y, z) :- R(x, y), S(x, z).");
  baseline::DeltaIvmEngine engine(q);
  workload::StreamOptions opts;
  opts.domain_size = static_cast<std::size_t>(state.range(0));
  opts.insert_ratio = 0.5;
  workload::StreamGenerator gen(q.schema_ptr(), opts);
  for (const UpdateCmd& c : gen.Take(4 * opts.domain_size)) {
    engine.Apply(c);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    engine.Apply(gen.Next(static_cast<RelId>(i++ % 2)));
  }
}
BENCHMARK(BM_DeltaIvmUpdate)->Arg(1000)->Arg(16000);

}  // namespace
}  // namespace dyncq

// BENCHMARK_MAIN, plus a default --benchmark_out=BENCH_e12.json when the
// caller passes no flags of their own.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_e12.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (argc == 1) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
