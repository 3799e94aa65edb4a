// End-to-end serving benchmark: one workload per process, driven through
// the public API only — serve::QueryRegistry / QueryHandle, cursors and
// epoch pins, Database, ParseQuery / CanonicalQueryKey / AnalyzeQuery —
// and checked against baseline::Evaluate / CountDistinct.
//
//   serving_bench --workload ingest_large|pinned_scan|mixed_storm
//                 --seed N --seconds S --trace 0|1
//                 [--trace-out PATH] [--inject-mismatch]
//
// Prints a metric table and then, as the last line of stdout, one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when a correctness checkpoint fails, 2 on a
// usage error. perfbench/README.md describes workloads and metrics.
#include <linux/perf_event.h>
#include <pthread.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/evaluator.h"
#include "core/auto_engine.h"
#include "core/engine.h"
#include "cq/canonical.h"
#include "cq/dichotomy.h"
#include "cq/parser.h"
#include "serve/query_registry.h"
#include "storage/database.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/u128.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

#include "hist.h"
#include "trace.h"

namespace dyncq::perfbench {
namespace {

using serve::QueryHandle;
using serve::QueryRegistry;
using workload::TemporalPattern;

// Keeps computed values alive so reads are not optimised away.
std::atomic<std::uint64_t> g_sink{0};
void Sink(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

// ------------------------------------------------------------------ plan

/// Everything a workload needs, generated from the seed before any
/// timing starts. The program under test only ever sees the query texts
/// and the update commands.
struct Plan {
  std::string name;
  std::shared_ptr<Schema> schema;
  std::vector<std::string> texts;  // registration order
  std::vector<bool> fallback;      // per text: no q-hierarchical core
  workload::StreamOptions stream;
  std::uint64_t rel_seed = 0;
  std::size_t initial_cmds = 0;   // commands in the initial load
  std::size_t singles = 64;       // ApplyDelta calls per timed run
  std::size_t batch = 256;        // commands per ApplyBatch
  bool pinned_readers = false;    // pinned_scan's writer/reader threads
  int setups = 3;                 // set-ups per run (setup_s is the median)
  std::size_t checkpoint_every = 0;  // commands between checkpoints
  // Checkpoints skip results above this. Beyond pinned_scan's single
  // ~16k-tuple result, a larger cap only adds the oracle's transient
  // memory to peak_rss_mb: with 2^16, checkpoints raised mixed_storm's
  // peak RSS by 4-7 MiB (10-15%), by an amount that varied by seed.
  Weight max_checked = Weight{1} << 12;
  std::size_t replay_cmds = 0;       // commands per partition replay
  std::size_t probe_every = 0;       // commands between pinned reads
};

void Classify(Plan* p) {
  for (const std::string& text : p->texts) {
    auto q = ParseQuery(text, p->schema);
    DYNCQ_CHECK_MSG(q.ok(), "generated query does not parse: " + text);
    const DichotomyReport r = AnalyzeQuery(*q);
    p->fallback.push_back(!r.q_hierarchical && !r.core_q_hierarchical);
  }
}

/// Instantiates a shape template: A, B and C stand for rels[0..2].
std::string FillRelations(const char* tmpl,
                          const std::vector<std::string>& rels) {
  std::string out;
  for (const char* c = tmpl; *c != '\0'; ++c) {
    if (*c >= 'A' && *c <= 'C') {
      out += rels[static_cast<std::size_t>(*c - 'A')];
    } else {
      out += *c;
    }
  }
  return out;
}

// Query shapes and the schema come from this fixed seed, so every
// --seed serves the same query mix: the cost per command depends far
// more on the mix than on the data, and a per-seed mix would make runs
// with different seeds incomparable. --seed drives everything else: the
// variants' renaming and atom order, and the whole update stream.
constexpr std::uint64_t kShapeSeed = 20170514;

// 2048 registrations of 256 random q-hierarchical shapes over ~240
// relations; ~1M live tuples in a sliding window.
Plan IngestLarge(std::uint64_t seed) {
  Plan p;
  p.name = "ingest_large";
  Rng shape_rng(kShapeSeed);
  Rng rng(seed);
  workload::SchemaPool pool(/*reuse_prob=*/0.5);
  workload::QueryGenOptions qo;
  qo.max_components = 1;
  qo.max_component_vars = 4;
  std::vector<Query> shapes;
  for (int i = 0; i < 256; ++i) {
    shapes.push_back(workload::RandomQHierarchicalQuery(qo, shape_rng, &pool));
  }
  for (int i = 0; i < 2048; ++i) {
    p.texts.push_back(
        workload::AlphaRenameShuffle(shapes[static_cast<std::size_t>(i % 256)],
                                     rng)
            .ToString());
  }
  p.schema = pool.schema;
  p.stream.seed = rng.Next();
  p.stream.domain_size = 4096;
  p.stream.pattern = TemporalPattern::kSlidingWindow;
  p.stream.window = 4096;
  p.rel_seed = rng.Next();
  p.initial_cmds = p.schema->NumRelations() * p.stream.window;
  p.setups = 3;
  p.checkpoint_every = std::size_t{1} << 21;
  p.replay_cmds = std::size_t{1} << 18;
  // A fork here takes tens of ms (it recounts the active domain of the
  // whole shared database), so pinned writes are rare enough to leave
  // most of the run to ingest.
  p.probe_every = std::size_t{1} << 18;
  return p;
}

// E6's star query under a 2n sliding window, read by two pinned readers.
Plan PinnedScan(std::uint64_t seed) {
  Plan p;
  p.name = "pinned_scan";
  p.schema = std::make_shared<Schema>();
  DYNCQ_CHECK(p.schema->AddRelation("R", 2).ok());
  DYNCQ_CHECK(p.schema->AddRelation("S", 2).ok());
  p.texts = {"Q(x, y, z) :- R(x, y), S(x, z)."};
  Rng rng(seed);
  constexpr std::size_t kN = 4000;
  p.stream.seed = rng.Next();
  p.stream.domain_size = kN;
  p.stream.pattern = TemporalPattern::kSlidingWindow;
  p.stream.window = 2 * kN;
  p.rel_seed = rng.Next();
  p.initial_cmds = 2 * p.stream.window;
  p.singles = 32;
  p.batch = 32;
  p.pinned_readers = true;
  p.setups = 15;
  p.checkpoint_every = std::size_t{1} << 18;
  p.max_checked = Weight{1} << 16;
  p.replay_cmds = std::size_t{1} << 17;
  return p;
}

// 128 standing queries: random q-hierarchical shapes, hand-written
// core-rewrite shapes and delta-IVM fallbacks, under a delete storm.
Plan MixedStorm(std::uint64_t seed) {
  Plan p;
  p.name = "mixed_storm";
  Rng shape_rng(kShapeSeed);
  Rng rng(seed);
  workload::SchemaPool pool(/*reuse_prob=*/0.7);
  workload::QueryGenOptions qo;
  qo.max_components = 2;
  qo.max_component_vars = 3;
  for (int i = 0; i < 108; ++i) {
    p.texts.push_back(workload::AlphaRenameShuffle(
                          workload::RandomQHierarchicalQuery(qo, shape_rng,
                                                             &pool),
                          rng)
                          .ToString());
  }
  // The hand-written shapes below need at least three binary relations.
  if (pool.rels_by_arity.size() < 3) pool.rels_by_arity.resize(3);
  while (pool.rels_by_arity[2].size() < 3) {
    auto id = pool.schema->AddRelation("R" + std::to_string(pool.next_rel++), 2);
    DYNCQ_CHECK(id.ok());
    pool.rels_by_arity[2].push_back(*id);
  }
  const std::vector<RelId>& bin = pool.rels_by_arity[2];
  auto pick = [&](int k) {
    std::vector<std::string> names;
    for (int i = 0; i < k; ++i) {
      names.push_back(pool.schema->name(bin[shape_rng.Below(bin.size())]));
    }
    return names;
  };
  // Non-q-hierarchical queries whose core is q-hierarchical (Theorem
  // 1.3's rewrite; the first is the paper's ∃x∃y(Exx ∧ Exy ∧ Eyy)).
  const char* kCoreShapes[] = {
      "Q() :- A(x, x), A(x, y), A(y, y).",
      "Q(x) :- A(x, x), A(x, y), A(y, y).",
      "Q(x) :- A(x, x), A(x, y), A(y, z).",
      "Q() :- A(x, x), A(x, y), A(y, z), A(z, z).",
  };
  // Non-q-hierarchical queries with a non-q-hierarchical core.
  const char* kFallbackShapes[] = {
      "Q(x) :- A(x, y), B(y, z).",
      "Q() :- A(x, y), B(y, z), C(z, w).",
      "Q(x, z) :- A(x, y), B(y, z).",
      "Q() :- A(x, y), B(y, z), C(z, x).",
  };
  for (const char* shape : kCoreShapes) {
    p.texts.push_back(FillRelations(shape, pick(1)));
  }
  for (int i = 0; i < 16; ++i) {
    for (;;) {
      std::string text = FillRelations(kFallbackShapes[i % 4], pick(3));
      auto q = ParseQuery(text, pool.schema);
      DYNCQ_CHECK(q.ok());
      const DichotomyReport r = AnalyzeQuery(*q);
      if (!r.q_hierarchical && !r.core_q_hierarchical) {
        p.texts.push_back(text);
        break;
      }
    }
  }
  p.schema = pool.schema;
  p.stream.seed = rng.Next();
  p.stream.domain_size = 1000;
  p.stream.insert_ratio = 0.7;
  p.stream.pattern = TemporalPattern::kDeleteStorm;
  p.stream.storm_period = 65536;
  p.stream.storm_len = 32768;
  p.rel_seed = rng.Next();
  p.initial_cmds = 16384;
  p.setups = 9;
  p.checkpoint_every = std::size_t{1} << 19;
  p.replay_cmds = std::size_t{1} << 18;
  p.probe_every = std::size_t{1} << 14;
  return p;
}

// ------------------------------------------------------------ commands

/// The update stream: the initial load round-robins over relations, the
/// measured phase picks a uniformly random relation per command.
class Feed {
 public:
  explicit Feed(const Plan& p)
      : gen_(p.schema, p.stream),
        rng_(p.rel_seed),
        nrels_(p.schema->NumRelations()) {}

  UpdateCmd Initial(std::size_t i) {
    return gen_.Next(static_cast<RelId>(i % nrels_));
  }
  UpdateCmd NextFor(RelId rel) { return gen_.Next(rel); }
  void Fill(std::vector<UpdateCmd>* out, std::size_t n) {
    out->clear();
    for (std::size_t i = 0; i < n; ++i) {
      out->push_back(gen_.Next(static_cast<RelId>(rng_.Below(nrels_))));
    }
  }

 private:
  workload::StreamGenerator gen_;
  Rng rng_;
  std::size_t nrels_;
};

// ------------------------------------------------------------- measures

enum OpKind { kOpRegister, kOpWrite, kOpRead, kOpPin, kOpDrain,
              kOpCheckpoint, kNumOpKinds };
constexpr const char* kOpNames[kNumOpKinds] = {
    "register", "write", "read", "pin", "snapshot_drain", "checkpoint"};

struct Measure {
  LogHistogram delta_ns;         // per command, one sample per run
  LogHistogram delta_traced_ns;  // same, runs recorded with spans on
  LogHistogram batch_ns;         // per command, one sample per batch
  LogHistogram read_open_ns;
  LogHistogram pinned_open_ns;   // PinEpoch + NewSnapshotCursor + first Next
  LogHistogram enum_ns;          // per tuple, one sample per snapshot drain
  LogHistogram pinned_write_ns;
  LogHistogram register_ns;
  LogHistogram count_ns;         // per Count(), runs of 16 calls
  LogHistogram first_tuple_ns;
  LogHistogram live_tuple_ns;    // per tuple, one sample per live read
  LogHistogram pin_ns;
  LogHistogram unpin_ns;
  LogHistogram reader_wait_ns;
  std::vector<double> setup_s;
  double preload_s = 0;
  double write_ns = 0;           // inside delta runs and batches
  std::uint64_t write_cmds = 0;
  double pinned_write_total_ns = 0;
  std::size_t retired_max = 0;
  std::size_t pinned_epochs_max = 0;
  std::array<std::uint64_t, kNumOpKinds> attempted{};
  std::array<std::uint64_t, kNumOpKinds> failed{};
  bool mismatch = false;
  std::vector<std::string> errors;

  void Fail(OpKind k, const std::string& why) {
    ++failed[k];
    if (errors.size() < 8) errors.push_back(std::string(kOpNames[k]) + ": " + why);
  }
  void Mismatch(const std::string& why) {
    mismatch = true;
    Fail(kOpCheckpoint, why);
  }
  /// Adds what a pinned_scan reader thread records (DrainPinned and its
  /// wait for work).
  void Merge(const Measure& o) {
    enum_ns.Merge(o.enum_ns);
    reader_wait_ns.Merge(o.reader_wait_ns);
    for (int k = 0; k < kNumOpKinds; ++k) {
      attempted[k] += o.attempted[k];
      failed[k] += o.failed[k];
    }
    mismatch = mismatch || o.mismatch;
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --------------------------------------------------------------- set-up

enum class Subset { kAll, kQTreeOnly, kFallbackOnly, kNone };

bool Included(Subset s, bool fallback) {
  switch (s) {
    case Subset::kAll: return true;
    case Subset::kQTreeOnly: return !fallback;
    case Subset::kFallbackOnly: return fallback;
    case Subset::kNone: return false;
  }
  return false;
}

/// One served state: the registry, its handles and the stream feeding
/// it. Members destruct in reverse order, so handles go before the
/// registry they point into.
struct Served {
  std::unique_ptr<QueryRegistry> reg;
  std::vector<QueryHandle> handles;
  std::unique_ptr<Feed> feed;
};

/// Parses and registers the plan's queries (those in `subset`), then
/// applies the initial load through ApplyBatch. Adds the timed part —
/// parse, Register and the load, not command generation — to
/// `m->setup_s`. With a lane (the traced run) each query also goes
/// through CanonicalQueryKey and AnalyzeQuery, outside the set-up time.
std::unique_ptr<Served> SetUp(const Plan& p, Subset subset, Measure* m,
                              TraceLane* lane) {
  auto s = std::make_unique<Served>();
  s->reg = std::make_unique<QueryRegistry>(p.schema);
  std::int64_t timed = 0;
  for (std::size_t i = 0; i < p.texts.size(); ++i) {
    if (!Included(subset, p.fallback[i])) continue;
    Span req(lane, kReqSetup, i + 1);
    ++m->attempted[kOpRegister];
    std::int64_t t0 = NowNs();
    Result<Query> q = [&] {
      Span sp(lane, kCqParse);
      return ParseQuery(p.texts[i], p.schema);
    }();
    std::int64_t t1 = NowNs();
    timed += t1 - t0;
    if (!q.ok()) {
      m->Fail(kOpRegister, "parse: " + q.error());
      continue;
    }
    if (lane != nullptr) {
      {
        Span sp(lane, kCqCanonical);
        Sink(CanonicalQueryKey(*q).size());
      }
      Span sp(lane, kCqClassify);
      Sink(AnalyzeQuery(*q).q_hierarchical ? 1 : 0);
    }
    t0 = NowNs();
    Result<QueryHandle> h = [&] {
      Span sp(lane, kServeRegister);
      return s->reg->Register(*q);
    }();
    t1 = NowNs();
    timed += t1 - t0;
    m->register_ns.Add(static_cast<double>(t1 - t0));
    if (!h.ok()) {
      m->Fail(kOpRegister, h.error());
      continue;
    }
    s->handles.push_back(std::move(*h));
  }
  s->feed = std::make_unique<Feed>(p);
  std::vector<UpdateCmd> chunk;
  std::int64_t load = 0;
  for (std::size_t done = 0; done < p.initial_cmds;) {
    const std::size_t n = std::min<std::size_t>(65536, p.initial_cmds - done);
    chunk.clear();
    for (std::size_t i = 0; i < n; ++i) chunk.push_back(s->feed->Initial(done + i));
    done += n;
    Span sp(lane, kServePreload);
    const std::int64_t t0 = NowNs();
    s->reg->ApplyBatch(chunk);
    load += NowNs() - t0;
  }
  m->preload_s = Seconds(load);
  m->setup_s.push_back(Seconds(timed + load));
  return s;
}

// ------------------------------------------------------------ checking

bool TupleLess(const Tuple& a, const Tuple& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

std::string W(Weight w) { return U128ToString(w); }

/// Checks one handle against the recompute oracle on the shared
/// database: Count() against CountDistinct, and the sorted drain of a
/// fresh cursor against the sorted Evaluate.
void CheckHandle(QueryRegistry& reg, QueryHandle& h, std::size_t index,
                 bool inject, Measure* m, TraceLane* lane) {
  ++m->attempted[kOpCheckpoint];
  const Weight count = h.Count();
  std::vector<Tuple> want;
  {
    Span sp(lane, kBaselineEvaluate);
    want = baseline::Evaluate(reg.db(), h.query());
  }
  Weight want_count = baseline::CountDistinct(reg.db(), h.query());
  if (inject) want_count += 1;
  if (count != want_count || want.size() != want_count - (inject ? 1 : 0)) {
    m->Mismatch("handle " + std::to_string(index) + " (" +
                h.query().ToString() + "): Count() " + W(count) +
                ", CountDistinct " + W(want_count));
    return;
  }
  std::vector<Tuple> got;
  std::unique_ptr<Cursor> cur = h.NewCursor();
  Tuple t;
  CursorStatus st;
  while ((st = cur->Next(&t)) == CursorStatus::kOk) got.push_back(t);
  if (st == CursorStatus::kInvalidated) {
    m->Mismatch("handle " + std::to_string(index) + ": live drain invalidated");
    return;
  }
  std::sort(got.begin(), got.end(), TupleLess);
  std::sort(want.begin(), want.end(), TupleLess);
  if (got != want) {
    m->Mismatch("handle " + std::to_string(index) + " (" +
                h.query().ToString() + "): drained " +
                std::to_string(got.size()) + " tuples, Evaluate " +
                std::to_string(want.size()) + ", sets differ");
  }
}

/// A checkpoint: `k` handles from a rotating cursor, skipping results
/// above `max_result` tuples (their Count() is O(1) to read).
class Checkpointer {
 public:
  Checkpointer(bool inject, Weight max_result)
      : inject_(inject), max_result_(max_result) {}

  void Run(Served& s, std::size_t k, Measure* m, TraceLane* lane) {
    std::size_t checked = 0;
    for (std::size_t tries = 0;
         checked < k && tries < s.handles.size(); ++tries) {
      const std::size_t i = next_++ % s.handles.size();
      if (s.handles[i].Count() > max_result_) continue;
      CheckHandle(*s.reg, s.handles[i], i, inject_, m, lane);
      inject_ = false;
      ++checked;
    }
  }

 private:
  bool inject_;
  Weight max_result_;
  std::size_t next_ = 0;
};

// ------------------------------------------------------- measured phase

/// Per-run write timing: a run of single deltas is one sample of
/// (run time ÷ run length); sub-µs calls are never timed alone.
void TimedSingles(QueryRegistry& reg, std::span<const UpdateCmd> cmds,
                  Measure* m, TraceLane* lane, std::uint64_t request) {
  if (cmds.empty()) return;
  const bool traced = lane != nullptr && lane->enabled();
  Span req(lane, kReqWriteRun, request);
  const std::int64_t t0 = NowNs();
  for (const UpdateCmd& c : cmds) {
    Span sp(lane, kServeApplyDelta);
    Sink(reg.ApplyDelta(c) ? 1 : 0);
  }
  const std::int64_t dt = NowNs() - t0;
  const double per = static_cast<double>(dt) / static_cast<double>(cmds.size());
  (traced ? m->delta_traced_ns : m->delta_ns).Add(per);
  m->write_ns += static_cast<double>(dt);
  m->write_cmds += cmds.size();
  m->attempted[kOpWrite] += cmds.size();
}

void TimedBatch(QueryRegistry& reg, std::span<const UpdateCmd> cmds,
                Measure* m, TraceLane* lane, std::uint64_t request) {
  Span req(lane, kReqBatch, request);
  const std::int64_t t0 = NowNs();
  {
    Span sp(lane, kServeApplyBatch);
    Sink(reg.ApplyBatch(cmds));
  }
  const std::int64_t dt = NowNs() - t0;
  m->batch_ns.Add(static_cast<double>(dt) / static_cast<double>(cmds.size()));
  m->write_ns += static_cast<double>(dt);
  m->write_cmds += cmds.size();
  ++m->attempted[kOpWrite];
}

/// Count() on 16 handles from `next`, timed as one run.
void TimedCounts(std::vector<QueryHandle>& hs, std::size_t* next, Measure* m,
                 TraceLane* lane) {
  Span sp(lane, kCoreCount);  // one span per run: Count() is O(1)
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < 16; ++i) {
    Sink(static_cast<std::uint64_t>(hs[(*next)++ % hs.size()].Count()));
  }
  m->count_ns.Add(static_cast<double>(NowNs() - t0) / 16.0);
  m->attempted[kOpRead] += 16;
}

/// Opens a live cursor and reads up to `limit` tuples (0: drain).
/// Records the open-through-first-tuple time as read_open when
/// `open_is_read` and returns the tuples read, or -1 when invalidated.
long LiveRead(QueryHandle& h, std::size_t limit, bool open_is_read,
              Measure* m, TraceLane* lane) {
  ++m->attempted[kOpRead];
  const std::int64_t t0 = NowNs();
  std::unique_ptr<Cursor> cur;
  {
    Span sp(lane, kCoreNewCursor);
    cur = h.NewCursor();
  }
  Tuple t;
  const std::int64_t t1 = NowNs();
  CursorStatus st;
  {
    Span sp(lane, kCoreCursorNext);
    st = cur->Next(&t);
  }
  const std::int64_t t2 = NowNs();
  m->first_tuple_ns.Add(static_cast<double>(t2 - t1));
  if (open_is_read) m->read_open_ns.Add(static_cast<double>(t2 - t0));
  long n = st == CursorStatus::kOk ? 1 : 0;
  if (st == CursorStatus::kOk) {
    Span sp(lane, kCoreDrain);
    while ((limit == 0 || static_cast<std::size_t>(n) < limit) &&
           (st = cur->Next(&t)) == CursorStatus::kOk) {
      ++n;
    }
  }
  if (n > 1) {
    m->live_tuple_ns.Add(static_cast<double>(NowNs() - t1) /
                         static_cast<double>(n));
  }
  if (st == CursorStatus::kInvalidated) {
    m->Fail(kOpRead, "live cursor invalidated during a read");
    return -1;
  }
  return n;
}

/// One pinned read: the epoch, the Count() at pin time and the open
/// snapshot cursor, handed from the writer (pin, open, first tuple) to
/// the thread that drains it.
struct PinnedRead {
  std::uint64_t epoch = 0;
  Weight expected = 0;
  std::unique_ptr<Cursor> cur;
  CursorStatus first = CursorStatus::kEnd;
  std::uint64_t request = 0;
};

/// Pins `h`, records its Count(), opens a snapshot cursor and reads the
/// first tuple. The whole step is pinned_open_ns; PinEpoch alone is
/// pin_ns. Returns false on failure.
bool OpenPinned(QueryHandle& h, Measure* m, TraceLane* lane, PinnedRead* r) {
  ++m->attempted[kOpPin];
  const std::int64_t t0 = NowNs();
  auto ep = [&] {
    Span sp(lane, kCorePin);
    return h.PinEpoch();
  }();
  const std::int64_t t1 = NowNs();
  if (!ep.ok()) {
    m->Fail(kOpPin, "PinEpoch: " + ep.error());
    return false;
  }
  m->pin_ns.Add(static_cast<double>(t1 - t0));
  r->epoch = *ep;
  const std::int64_t t2 = NowNs();
  auto cur = [&] {
    Span sp(lane, kCoreSnapshotOpen);
    return h.NewSnapshotCursor(r->epoch);
  }();
  if (!cur.ok()) {
    m->Fail(kOpPin, "NewSnapshotCursor: " + cur.error());
    const Status st = h.UnpinEpoch(r->epoch);
    if (!st.ok()) m->Fail(kOpPin, "UnpinEpoch: " + st.message());
    return false;
  }
  r->cur = std::move(*cur);
  Tuple t;
  const std::int64_t t3 = NowNs();
  r->first = r->cur->Next(&t);
  const std::int64_t t4 = NowNs();
  m->first_tuple_ns.Add(static_cast<double>(t4 - t3));
  m->pinned_open_ns.Add(static_cast<double>((t1 - t0) + (t4 - t2)));
  r->expected = h.Count();  // a pin is taken between writes
  return true;
}

/// The first write after a pin, which pays the fork.
void PinnedWrite(QueryRegistry& reg, QueryHandle& h, const UpdateCmd& cmd,
                 Measure* m, TraceLane* lane) {
  // Blocks retired by earlier versions wait for this write to reclaim
  // them, so sample before it as well as after.
  m->retired_max = std::max(m->retired_max, reg.RetiredBlocks());
  ++m->attempted[kOpWrite];
  const std::int64_t t0 = NowNs();
  {
    Span sp(lane, kServeApplyDelta);
    Sink(reg.ApplyDelta(cmd) ? 1 : 0);
  }
  const std::int64_t dt = NowNs() - t0;
  m->pinned_write_ns.Add(static_cast<double>(dt));
  m->pinned_write_total_ns += static_cast<double>(dt);
  m->retired_max = std::max(m->retired_max, reg.RetiredBlocks());
  m->pinned_epochs_max =
      std::max(m->pinned_epochs_max, h.engine().num_pinned_epochs());
}

/// Drains the rest of a pinned read and checks that the snapshot emitted
/// exactly the Count() recorded at pin time.
void DrainPinned(PinnedRead* r, Measure* m, TraceLane* lane) {
  ++m->attempted[kOpDrain];
  Tuple t;
  CursorStatus st = r->first;
  Weight n = st == CursorStatus::kOk ? 1 : 0;
  if (st == CursorStatus::kOk) {
    Span sp(lane, kCoreDrain);
    const std::int64_t t0 = NowNs();
    while ((st = r->cur->Next(&t)) == CursorStatus::kOk) ++n;
    if (n > 1) {
      m->enum_ns.Add(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(n - 1));
    }
  }
  if (st == CursorStatus::kInvalidated) {
    m->Fail(kOpDrain, "snapshot cursor reported kInvalidated");
  } else if (n != r->expected) {
    m->Mismatch("snapshot drain of epoch " + std::to_string(r->epoch) +
                " emitted " + W(n) + " tuples, Count() at pin was " +
                W(r->expected));
  }
}

/// Destroys a pinned read's cursor and unpins its epoch.
void ReleasePinned(QueryHandle& h, PinnedRead* r, Measure* m,
                   TraceLane* lane) {
  const std::int64_t t0 = NowNs();
  {
    Span sp(lane, kCoreUnpin);
    r->cur.reset();
    const Status s = h.UnpinEpoch(r->epoch);
    if (!s.ok()) m->Fail(kOpPin, "UnpinEpoch: " + s.message());
  }
  m->unpin_ns.Add(static_cast<double>(NowNs() - t0));
}

/// Frees the version a forked pin left retired, once no pin is held on
/// `h`'s engine. Otherwise the engine reclaims it inside its next write,
/// and that O(engine) reclaim would land in a timed write run or batch.
void Reclaim(QueryHandle& h, Measure* m, TraceLane* lane) {
  Span sp(lane, kCoreReclaim);
  const Status st = h.engine().DropAllSnapshots();
  if (!st.ok()) m->Fail(kOpPin, "DropAllSnapshots: " + st.message());
}

/// The next handle, in rotation over `candidates`, whose result has 1 to
/// `max_result` tuples; null if none has.
QueryHandle* NextProbe(Served& s, const std::vector<std::size_t>& candidates,
                       Weight max_result, std::size_t* next) {
  for (std::size_t tries = 0; tries < candidates.size(); ++tries) {
    QueryHandle& h = s.handles[candidates[(*next)++ % candidates.size()]];
    const Weight c = h.Count();
    if (c >= 1 && c <= max_result) return &h;
  }
  return nullptr;
}

/// ingest_large and mixed_storm: runs of single deltas alternate with
/// batches; every 4096 commands a reader step (Count() on 16 rotating
/// handles, live cursors on 4, a snapshot drain of one q-tree handle);
/// every plan.probe_every commands a pinned read of one q-tree handle
/// with a write under the pin; checkpoints every plan.checkpoint_every.
void RunServing(const Plan& p, Served& s, double seconds, Checkpointer* ck,
                Measure* m, TraceLane* lane) {
  constexpr std::size_t kUnitsPerChunk = 16;
  constexpr std::size_t kReadEvery = 4096;
  constexpr Weight kMaxProbeResult = 1 << 16;
  constexpr Weight kMaxReadResult = 1 << 11;
  const std::size_t unit = p.singles + p.batch;
  std::vector<std::size_t> probe_handles;
  for (std::size_t i = 0; i < s.handles.size(); ++i) {
    if (s.handles[i].strategy() != core::EngineStrategy::kDeltaIvm) {
      probe_handles.push_back(i);
    }
  }
  std::size_t next_count = 0, next_cursor = 0, next_probe = 0, next_read = 0;
  std::size_t since_read = 0, since_probe = 0, since_check = 0;
  std::uint64_t request = 0;
  std::vector<UpdateCmd> chunk;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  bool tracing = lane != nullptr;
  while (NowNs() < deadline) {
    s.feed->Fill(&chunk, kUnitsPerChunk * unit);
    for (std::size_t u = 0; u < kUnitsPerChunk; ++u) {
      const std::span<const UpdateCmd> cmds(chunk.data() + u * unit, unit);
      if (tracing) lane->set_enabled(request % 4 < 2);  // overhead A/B
      TimedSingles(*s.reg, cmds.first(p.singles), m, lane, ++request);
      TimedBatch(*s.reg, cmds.subspan(p.singles), m, lane, ++request);
      if (tracing) lane->set_enabled(true);
      since_read += unit;
      since_probe += unit;
      since_check += unit;
      if (since_read >= kReadEvery) {
        since_read = 0;
        Span req(lane, kReqReadStep, ++request);
        TimedCounts(s.handles, &next_count, m, lane);
        for (int i = 0; i < 4; ++i) {
          LiveRead(s.handles[next_cursor++ % s.handles.size()], 16, true, m,
                   lane);
        }
        // A snapshot drain with no write under the pin: no fork.
        if (QueryHandle* h = NextProbe(s, probe_handles, kMaxReadResult,
                                       &next_read)) {
          PinnedRead r;
          if (OpenPinned(*h, m, lane, &r)) {
            DrainPinned(&r, m, lane);
            ReleasePinned(*h, &r, m, lane);
          }
        }
      }
      if (since_probe >= p.probe_every && !probe_handles.empty()) {
        since_probe = 0;
        if (QueryHandle* h = NextProbe(s, probe_handles, kMaxProbeResult,
                                       &next_probe)) {
          const UpdateCmd cmd =
              s.feed->NextFor(h->engine().query().atoms()[0].rel);
          Span req(lane, kReqPin, ++request);
          PinnedRead r;
          if (OpenPinned(*h, m, lane, &r)) {
            PinnedWrite(*s.reg, *h, cmd, m, lane);
            DrainPinned(&r, m, lane);
            ReleasePinned(*h, &r, m, lane);
            Reclaim(*h, m, lane);
          }
        }
      }
      if (since_check >= p.checkpoint_every) {
        since_check = 0;
        ck->Run(s, 4, m, lane);
      }
    }
  }
}

/// Pins the calling thread to the `i`-th CPU, counting down from the
/// last one it may run on, if there is one. Unpinned, the writer and
/// pinned_scan's readers land on different cores from run to run, and
/// which cores share what changes the cross-thread costs.
void PinThreadToCpu(std::size_t i) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::size_t seen = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

/// pinned_scan's reader side: one slot per reader thread. The writer
/// fills an idle slot with a freshly pinned, opened snapshot cursor; the
/// reader drains it, checks the count and hands it back; the writer
/// destroys the cursor and unpins. Every allocation and free of the pin
/// path stays on the writer thread.
struct PinHandoff {
  enum State { kIdle, kDraining, kDrained };
  util::Mutex mu;
  util::CondVar cv;
  struct Slot {
    State state = kIdle;
    PinnedRead read;
  };
  std::array<Slot, 2> slots DYNCQ_GUARDED_BY(mu);
  bool stop DYNCQ_GUARDED_BY(mu) = false;
};

void ReaderLoop(PinHandoff* hand, std::size_t r, Measure* m,
                TraceLane* lane) {
  PinThreadToCpu(r + 1);
  std::int64_t idle_since = NowNs();
  for (;;) {
    PinnedRead read;
    {
      util::MutexLock l(&hand->mu);
      while (hand->slots[r].state != PinHandoff::kDraining && !hand->stop) {
        hand->cv.Wait(&hand->mu);
      }
      if (hand->slots[r].state != PinHandoff::kDraining) return;
      read = std::move(hand->slots[r].read);
    }
    m->reader_wait_ns.Add(static_cast<double>(NowNs() - idle_since));
    {
      Span req(lane, kReqPin, read.request);
      DrainPinned(&read, m, lane);
    }
    idle_since = NowNs();
    util::MutexLock l(&hand->mu);
    hand->slots[r].read = std::move(read);
    hand->slots[r].state = PinHandoff::kDrained;
  }
}

/// Releases (on the writer thread) every pinned read a reader has
/// drained, and returns an idle slot, or -1 if both readers are busy.
int ReleaseDrained(QueryHandle& h, PinHandoff* hand, Measure* m,
                   TraceLane* lane) {
  int idle = -1;
  for (std::size_t r = 0; r < hand->slots.size(); ++r) {
    PinnedRead done;
    {
      util::MutexLock l(&hand->mu);
      PinHandoff::Slot& slot = hand->slots[r];
      if (slot.state == PinHandoff::kDraining) continue;
      if (idle < 0) idle = static_cast<int>(r);
      if (slot.state == PinHandoff::kIdle) continue;
      done = std::move(slot.read);
      slot.state = PinHandoff::kIdle;
    }
    ReleasePinned(h, &done, m, lane);
  }
  return idle;
}

/// pinned_scan: each writer cycle releases the pinned reads the readers
/// have drained, pins an epoch for an idle reader, opens its snapshot
/// cursor through the first tuple, times the fork-paying first write and
/// hands the cursor over; then it times the remaining single deltas as
/// one run, and one batch, and reads 16 tuples from a fresh live
/// cursor. Every 8th cycle the writer also times 16 Count() calls and
/// drains a live cursor.
void RunPinned(const Plan& p, Served& s, double seconds, Checkpointer* ck,
               Measure* m, TraceLane* lane,
               std::array<TraceLane*, 2> reader_lanes) {
  QueryHandle& h = s.handles.at(0);
  PinHandoff hand;
  std::array<Measure, 2> reader_m;
  std::vector<std::thread> readers;
  // Stops and joins the readers on every way out of this function,
  // including an exception from the writer.
  struct Joiner {
    PinHandoff* hand;
    std::vector<std::thread>* readers;
    void Stop() {
      {
        util::MutexLock l(&hand->mu);
        hand->stop = true;
      }
      hand->cv.NotifyAll();
      for (std::thread& t : *readers) {
        if (t.joinable()) t.join();
      }
    }
    ~Joiner() { Stop(); }
  } joiner{&hand, &readers};
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back(ReaderLoop, &hand, r, &reader_m[r],
                         reader_lanes[r]);
  }
  std::vector<UpdateCmd> cmds;
  std::size_t since_check = 0, next = 0;
  std::uint64_t request = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t cycle = 0; NowNs() < deadline; ++cycle) {
    s.feed->Fill(&cmds, p.singles + p.batch);
    const std::span<const UpdateCmd> all(cmds);
    if (lane != nullptr) lane->set_enabled(cycle % 4 < 2);  // overhead A/B
    const int slot = ReleaseDrained(h, &hand, m, lane);
    std::size_t first = 0;
    if (slot >= 0) {
      PinnedRead r;
      r.request = ++request;
      Span req(lane, kReqPin, r.request);
      if (OpenPinned(h, m, lane, &r)) {
        PinnedWrite(*s.reg, h, all[0], m, lane);
        first = 1;
        util::MutexLock l(&hand.mu);
        hand.slots[static_cast<std::size_t>(slot)] = {PinHandoff::kDraining,
                                                       std::move(r)};
        hand.cv.NotifyAll();
      }
    }
    TimedSingles(*s.reg, all.subspan(first, p.singles - first), m, lane,
                 ++request);
    TimedBatch(*s.reg, all.subspan(p.singles), m, lane, ++request);
    if (lane != nullptr) lane->set_enabled(true);
    LiveRead(h, 16, true, m, lane);
    if (cycle % 8 == 7) {
      Span req(lane, kReqReadStep, ++request);
      TimedCounts(s.handles, &next, m, lane);
      const long n = LiveRead(h, 0, false, m, lane);
      if (n >= 0 && static_cast<Weight>(n) != h.Count()) {
        m->Mismatch("live drain emitted " + std::to_string(n) +
                    " tuples, Count() is " + W(h.Count()));
      }
    }
    since_check += all.size();
    if (since_check >= p.checkpoint_every) {
      since_check = 0;
      ck->Run(s, 1, m, lane);
    }
  }
  joiner.Stop();
  ReleaseDrained(h, &hand, m, lane);
  for (const Measure& rm : reader_m) m->Merge(rm);
}

// --------------------------------------------------- partition replay

struct Replay {
  double ns_per_cmd = 0;
  // Exact counts, filled for the full registry only.
  std::uint64_t probes = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t notifications = 0;
  std::uint64_t effective = 0;
  std::size_t cmds = 0;
};

/// Replays the measured phase's first plan.replay_cmds commands (same
/// seed, same runs and batches) through one configuration: a bare
/// Database when `bare`, else a registry holding `subset`. Commands are
/// generated before the timer starts.
Replay RunReplay(const Plan& p, bool bare, Subset subset,
                 std::unique_ptr<Served>* keep) {
  Measure scratch;
  std::unique_ptr<Served> s;
  std::unique_ptr<Database> db;
  std::unique_ptr<Feed> feed;
  if (bare) {
    db = std::make_unique<Database>(*p.schema);
    feed = std::make_unique<Feed>(p);
    for (std::size_t i = 0; i < p.initial_cmds; ++i) db->Apply(feed->Initial(i));
  } else {
    s = SetUp(p, subset, &scratch, nullptr);
  }
  Feed& f = bare ? *feed : *s->feed;
  std::vector<UpdateCmd> cmds;
  f.Fill(&cmds, p.replay_cmds);
  Replay r;
  r.cmds = cmds.size();
  const std::size_t unit = p.singles + p.batch;
  if (s != nullptr) {
    r.probes = s->reg->db().TotalRelationProbes();
    r.deltas_applied = s->reg->stats().deltas_applied;
    r.notifications = s->reg->stats().notifications;
  }
  const std::int64_t t0 = NowNs();
  for (std::size_t at = 0; at < cmds.size(); at += unit) {
    const std::size_t n = std::min(unit, cmds.size() - at);
    const std::span<const UpdateCmd> u(cmds.data() + at, n);
    const std::size_t singles = std::min(p.singles, n);
    if (bare) {
      for (const UpdateCmd& c : u) Sink(db->Apply(c) ? 1 : 0);
      continue;
    }
    for (const UpdateCmd& c : u.first(singles)) {
      r.effective += s->reg->ApplyDelta(c) ? 1 : 0;
    }
    if (n > singles) r.effective += s->reg->ApplyBatch(u.subspan(singles));
  }
  r.ns_per_cmd = static_cast<double>(NowNs() - t0) /
                 static_cast<double>(cmds.size());
  if (s != nullptr) {
    r.probes = s->reg->db().TotalRelationProbes() - r.probes;
    r.deltas_applied = s->reg->stats().deltas_applied - r.deltas_applied;
    r.notifications = s->reg->stats().notifications - r.notifications;
  }
  if (keep != nullptr) *keep = std::move(s);
  return r;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool json = true;   // part of the machine-readable result line
  std::string note;   // samples, or why the value is N/A
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string Samples(const LogHistogram& h, double q) {
  return "n=" + std::to_string(h.count()) + ", beyond=" +
         std::to_string(h.Beyond(q));
}

/// Median and p99 of `h` (scaled by `div`). Only a gated median goes
/// into the result line: p99s spread too far between runs to gate. The
/// p99 is marked N/A when fewer than ten samples lie beyond it.
void AddPercentiles(std::vector<Metric>* out, const std::string& base,
                    const std::string& unit, const LogHistogram& h,
                    double div, bool gated = true) {
  out->push_back({base + "_p50", h.Percentile(0.5) / div, unit, gated,
                  Samples(h, 0.5)});
  Metric p99{base + "_p99", h.Percentile(0.99) / div, unit, false,
             Samples(h, 0.99)};
  if (h.Beyond(0.99) < 10) {
    p99.note += "; N/A: fewer than 10 samples beyond p99";
  }
  out->push_back(p99);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct ProcUsage {
  long minflt = 0;
  long nivcsw = 0;
  long maxrss_kb = 0;
  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {ru.ru_minflt, ru.ru_nivcsw, ru.ru_maxrss};
  }
};

/// Hardware instruction counter, if the host exposes a PMU.
class InstructionCounter {
 public:
  InstructionCounter() {
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof attr;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
    if (fd_ < 0) why_ = std::strerror(errno);
  }
  ~InstructionCounter() {
    if (fd_ >= 0) close(fd_);
  }
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& why() const { return why_; }
  void Start() {
    if (fd_ < 0) return;
    ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
  }
  std::uint64_t Stop() {
    if (fd_ < 0) return 0;
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    std::uint64_t v = 0;
    if (read(fd_, &v, sizeof v) != sizeof v) return 0;
    return v;
  }

 private:
  int fd_ = -1;
  std::string why_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_mismatch = false;
  std::string trace_out;
};

int Usage(const std::string& why) {
  std::cerr << "serving_bench: " << why << "\n"
            << "usage: serving_bench --workload ingest_large|pinned_scan|"
               "mixed_storm --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--inject-mismatch]\n";
  return 2;
}

int Run(const Options& o) {
  Plan p = o.workload == "ingest_large"  ? IngestLarge(o.seed)
           : o.workload == "pinned_scan" ? PinnedScan(o.seed)
                                         : MixedStorm(o.seed);
  Classify(&p);
  std::cout << "workload " << p.name << ", seed " << o.seed << ": "
            << p.texts.size() << " queries over "
            << p.schema->NumRelations() << " relations, "
            << p.initial_cmds << " initial commands, "
            << (o.trace ? "traced" : "untraced") << " run\n";

  Measure m;
  std::vector<Metric> out;
  std::vector<SpanStats> spans;  // traced run: merged over lanes
  // Partition replay first: it runs before any timing-dependent work,
  // so its exact counts are a pure function of the seed.
  Replay bare, empty, qtree, fallback, full;
  const bool has_fallbacks =
      std::find(p.fallback.begin(), p.fallback.end(), true) != p.fallback.end();
  std::unique_ptr<Served> replayed;
  if (o.trace) {
    bare = RunReplay(p, true, Subset::kNone, nullptr);
    empty = RunReplay(p, false, Subset::kNone, nullptr);
    qtree = RunReplay(p, false, Subset::kQTreeOnly, nullptr);
    if (has_fallbacks) {
      fallback = RunReplay(p, false, Subset::kFallbackOnly, nullptr);
    }
    full = RunReplay(p, false, Subset::kAll, &replayed);
  }
  // Exact structure counts of the replayed full registry.
  std::size_t items = 0, slab = 0, occupied = 0, active = 0, released = 0;
  std::size_t strategies[3] = {0, 0, 0};
  double live_tuples = 0, engines_per_reg = 0;
  if (replayed != nullptr) {
    std::set<const DynamicQueryEngine*> seen;
    for (QueryHandle& h : replayed->handles) {
      ++strategies[static_cast<int>(h.strategy())];
      if (!seen.insert(&h.engine()).second) continue;
      auto* e = dynamic_cast<core::Engine*>(&h.engine());
      if (e == nullptr) continue;
      items += e->NumItems();
      for (std::size_t c = 0; c < e->NumComponents(); ++c) {
        const auto st = e->component(c).pool().GetStats();
        slab += st.slab_bytes;
        occupied += st.occupied_slots;
        active += st.active_blocks;
        released += st.released_blocks;
      }
    }
    live_tuples = static_cast<double>(replayed->reg->db().NumTuples());
    engines_per_reg = static_cast<double>(replayed->reg->NumEngines()) /
                      static_cast<double>(replayed->reg->NumRegistered());
    replayed.reset();
  }

  // Lane 0 is the writer's; pinned_scan's readers record on lanes 1-2.
  std::array<TraceLane, 3> lanes{TraceLane(0, o.trace), TraceLane(1, o.trace),
                                 TraceLane(2, o.trace)};
  TraceLane* lp = o.trace ? &lanes[0] : nullptr;
  std::unique_ptr<Served> s;
  for (int i = 0; i < p.setups; ++i) {
    s.reset();
    s = SetUp(p, Subset::kAll, &m, lp);
  }
  Checkpointer ck(o.inject_mismatch, p.max_checked);
  ck.Run(*s, 4, &m, lp);
  PinThreadToCpu(0);  // the writer; pinned_scan's readers take the next two

  InstructionCounter pmu;
  const ProcUsage u0 = ProcUsage::Now();
  pmu.Start();
  if (p.pinned_readers) {
    RunPinned(p, *s, o.seconds, &ck, &m, lp,
              {o.trace ? &lanes[1] : nullptr, o.trace ? &lanes[2] : nullptr});
  } else {
    RunServing(p, *s, o.seconds, &ck, &m, lp);
  }
  const std::uint64_t instructions = pmu.Stop();
  const ProcUsage u1 = ProcUsage::Now();
  ck.Run(*s, 4, &m, lp);
  s.reset();

  const double kcmds = static_cast<double>(m.write_cmds) / 1e3;
  std::uint64_t attempted = 0, failed = 0;
  for (int k = 0; k < kNumOpKinds; ++k) {
    attempted += m.attempted[k];
    failed += m.failed[k];
  }
  const double failed_ratio =
      attempted == 0 ? 0 : static_cast<double>(failed) / attempted;

  if (!o.trace) {
    out.push_back({"setup_s", Median(m.setup_s), "s", true,
                   std::to_string(m.setup_s.size()) + " set-ups, median"});
    out.push_back({"ingest_cmds_per_s",
                   static_cast<double>(m.write_cmds) / (m.write_ns / 1e9),
                   "1/s", true,
                   std::to_string(m.write_cmds) + " commands"});
    AddPercentiles(&out, "delta_ns", "ns", m.delta_ns, 1);
    AddPercentiles(&out, "batch_ns_per_cmd", "ns", m.batch_ns, 1);
    AddPercentiles(&out, "read_open_us", "us", m.read_open_ns, 1e3);
    AddPercentiles(&out, "pinned_open_us", "us", m.pinned_open_ns, 1e3,
                   /*gated=*/false);
    out.push_back({"enum_ns_per_tuple", m.enum_ns.Percentile(0.5), "ns", true,
                   Samples(m.enum_ns, 0.5) + " snapshot drains"});
    AddPercentiles(&out, "pinned_write_us", "us", m.pinned_write_ns, 1e3);
    out.push_back({"peak_rss_mb", static_cast<double>(u1.maxrss_kb) / 1024.0,
                   "MiB", true, "getrusage ru_maxrss"});
    out.push_back({"failed_op_ratio", failed_ratio, "1", false,
                   std::to_string(failed) + "/" + std::to_string(attempted)});
  } else {
    std::vector<SpanStats> st(kNumSpanNames);
    for (const TraceLane& l : lanes) {
      for (int n = 0; n < kNumSpanNames; ++n) {
        st[n].count += l.stats()[n].count;
        st[n].total_ns += l.stats()[n].total_ns;
        st[n].self_ns += l.stats()[n].self_ns;
        st[n].duration.Merge(l.stats()[n].duration);
      }
    }
    spans = st;
    auto span_med_us = [&](SpanName n) {
      return st[n].duration.Percentile(0.5) / 1e3;
    };
    out.push_back({"cq.parse_us", span_med_us(kCqParse), "us", true,
                   Samples(st[kCqParse].duration, 0.5)});
    out.push_back({"cq.canonical_us", span_med_us(kCqCanonical), "us", true,
                   Samples(st[kCqCanonical].duration, 0.5)});
    out.push_back({"cq.classify_us", span_med_us(kCqClassify), "us", true,
                   Samples(st[kCqClassify].duration, 0.5)});
    AddPercentiles(&out, "serve.register_us", "us", m.register_ns, 1e3);
    out.push_back({"serve.preload_s", m.preload_s, "s", true, "last set-up"});
    out.push_back({"serve.notifications_per_delta",
                   full.deltas_applied == 0
                       ? 0
                       : static_cast<double>(full.notifications) /
                             static_cast<double>(full.deltas_applied),
                   "1", true, "exact, full-registry replay"});
    out.push_back({"serve.effective_ratio",
                   static_cast<double>(full.effective) /
                       static_cast<double>(full.cmds),
                   "1", true, "exact, full-registry replay"});
    out.push_back({"serve.engines_per_registration", engines_per_reg, "1",
                   true, "exact"});
    out.push_back({"serve.strategy_qtree", static_cast<double>(strategies[0]),
                   "count", true, "exact"});
    out.push_back({"serve.strategy_core", static_cast<double>(strategies[1]),
                   "count", true, "exact"});
    out.push_back({"serve.strategy_delta_ivm",
                   static_cast<double>(strategies[2]), "count", true, "exact"});
    out.push_back({"serve.routing_ns_per_cmd",
                   empty.ns_per_cmd - bare.ns_per_cmd, "ns", true,
                   "empty registry - bare Database replay"});
    out.push_back({"storage.probes_per_cmd",
                   static_cast<double>(full.probes) /
                       static_cast<double>(full.cmds),
                   "1", true, "exact, full-registry replay"});
    out.push_back({"storage.apply_ns_per_cmd", bare.ns_per_cmd, "ns", true,
                   "bare Database replay"});
    out.push_back({"storage.live_tuples", live_tuples, "count", true,
                   "exact, after the full-registry replay"});
    out.push_back({"core.update_ns_per_cmd",
                   qtree.ns_per_cmd - empty.ns_per_cmd, "ns", true,
                   "q-tree-only - empty registry replay"});
    out.push_back({"core.items", static_cast<double>(items), "count", true,
                   "exact"});
    out.push_back({"core.pool_slab_mb", static_cast<double>(slab) / 1048576.0,
                   "MiB", true, "exact"});
    out.push_back({"core.pool_occupancy",
                   active == 0 ? 0
                               : static_cast<double>(occupied) /
                                     static_cast<double>(
                                         active * core::ItemPool::kItemsPerBlock),
                   "1", true, "exact"});
    out.push_back({"core.pool_released_blocks", static_cast<double>(released),
                   "count", true, "exact"});
    out.push_back({"core.pin_us_p50", m.pin_ns.Percentile(0.5) / 1e3, "us",
                   true, Samples(m.pin_ns, 0.5)});
    out.push_back({"core.unpin_us_p50", m.unpin_ns.Percentile(0.5) / 1e3, "us",
                   true, Samples(m.unpin_ns, 0.5)});
    out.push_back({"core.retired_blocks_max",
                   static_cast<double>(m.retired_max), "count", true,
                   "after pinned writes"});
    out.push_back({"core.pinned_epochs_max",
                   static_cast<double>(m.pinned_epochs_max), "count", true,
                   "after pinned writes"});
    out.push_back({"core.fork_write_share",
                   m.pinned_write_total_ns /
                       (m.pinned_write_total_ns + m.write_ns),
                   "1", true, "pinned-write time / all write time"});
    out.push_back({"core.count_ns", m.count_ns.Percentile(0.5), "ns", true,
                   Samples(m.count_ns, 0.5) + " runs of 16"});
    out.push_back({"core.first_tuple_ns", m.first_tuple_ns.Percentile(0.5),
                   "ns", true, Samples(m.first_tuple_ns, 0.5)});
    out.push_back({"core.live_ns_per_tuple", m.live_tuple_ns.Percentile(0.5),
                   "ns", true, Samples(m.live_tuple_ns, 0.5)});
    out.push_back({"core.snapshot_ns_per_tuple", m.enum_ns.Percentile(0.5),
                   "ns", true, Samples(m.enum_ns, 0.5)});
    Metric wait{"core.reader_wait_us", m.reader_wait_ns.Percentile(0.5) / 1e3,
                "us", false, Samples(m.reader_wait_ns, 0.5)};
    if (!p.pinned_readers) {
      wait.note = "N/A: single-threaded, the writer reads its own pins";
    }
    out.push_back(wait);
    // Without fallback registrations the fallback-only registry is the
    // empty one, and the difference would be timing noise around 0.
    out.push_back(
        has_fallbacks
            ? Metric{"baseline.update_ns_per_cmd",
                     fallback.ns_per_cmd - empty.ns_per_cmd, "ns", true,
                     "fallback-only - empty registry replay"}
            : Metric{"baseline.update_ns_per_cmd", 0, "ns", true,
                     "N/A: no fallback registrations, so no delta-IVM work"});
    out.push_back({"proc.minor_faults_per_kcmd",
                   static_cast<double>(u1.minflt - u0.minflt) / kcmds, "1",
                   true, "measured phase"});
    out.push_back({"proc.invol_ctx_switches",
                   static_cast<double>(u1.nivcsw - u0.nivcsw), "count", true,
                   "measured phase"});
    out.push_back({"trace.overhead_ratio",
                   m.delta_traced_ns.Percentile(0.5) / m.delta_ns.Percentile(0.5),
                   "1", true,
                   "median delta run, spans on / spans off, alternating"});
  }
  Metric inst{"instructions_per_cmd", 0, "1", false, ""};
  if (pmu.ok()) {
    inst.value = static_cast<double>(instructions) / (kcmds * 1e3);
    inst.note = "measured phase / ingest commands";
  } else {
    inst.note = "N/A: no hardware PMU (perf_event_open: " + pmu.why() + ")";
  }
  out.push_back(inst);

  std::cout << "\n";
  for (const Metric& x : out) {
    std::printf("  %-34s %14s %-6s %s\n", x.name.c_str(), Fmt(x.value).c_str(),
                x.unit.c_str(), x.note.c_str());
  }
  std::printf("  ops:");
  for (int k = 0; k < kNumOpKinds; ++k) {
    std::printf(" %s %llu/%llu failed", kOpNames[k],
                static_cast<unsigned long long>(m.failed[k]),
                static_cast<unsigned long long>(m.attempted[k]));
  }
  std::printf("\n");
  for (const std::string& e : m.errors) std::printf("  error: %s\n", e.c_str());

  if (o.trace) {
    std::printf("\n  %-24s %10s %12s %12s %12s\n", "span", "count",
                "total_ms", "self_ms", "p50_us");
    for (int n = 0; n < kNumSpanNames; ++n) {
      if (spans[n].count == 0) continue;
      std::printf("  %-24s %10llu %12.3f %12.3f %12.3f\n", kSpanNames[n],
                  static_cast<unsigned long long>(spans[n].count),
                  spans[n].total_ns / 1e6, spans[n].self_ns / 1e6,
                  spans[n].duration.Percentile(0.5) / 1e3);
    }
  }
  if (o.trace && !o.trace_out.empty()) {
    std::ofstream os(o.trace_out);
    WriteTrace(os, {&lanes[0], &lanes[1], &lanes[2]});
    std::printf("  trace: spans written to %s\n", o.trace_out.c_str());
  }

  std::string json = "{\"correct\": ";
  json += m.mismatch ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : out) {
    if (!x.json) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + x.name + "\": {\"value\": " + Fmt(x.value) +
            ", \"unit\": \"" + x.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return m.mismatch ? 1 : 0;
}

}  // namespace
}  // namespace dyncq::perfbench

int main(int argc, char** argv) {
  using dyncq::perfbench::Usage;
  dyncq::perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage("missing value for " + a);
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::string(v) == "1";
        if (!o.trace && std::string(v) != "0") return Usage("--trace takes 0 or 1");
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        return Usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload || (o.workload != "ingest_large" &&
                         o.workload != "pinned_scan" &&
                         o.workload != "mixed_storm")) {
    return Usage("--workload must be ingest_large, pinned_scan or mixed_storm");
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) return Usage("--seconds out of range");
  return dyncq::perfbench::Run(o);
}
