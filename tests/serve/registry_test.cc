// QueryRegistry tests (serve/query_registry.h).
//
// The load-bearing one is the randomized differential: a registry serving
// k queries off one shared database must answer exactly like k
// independent QuerySessions fed the same stream — under churn, batches,
// no-op traffic, and register/unregister mid-stream. The rest pin down
// the dedup refcounting, the shared-write protocol's misuse guards, leak
// counters, and snapshot pinning through handles.
#include "serve/query_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "cq/parser.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dyncq::serve {
namespace {

using workload::AlphaRenameShuffle;
using workload::QueryGenOptions;
using workload::RandomCQ;
using workload::RandomQHierarchicalQuery;
using workload::SchemaPool;
using workload::StreamGenerator;
using workload::StreamOptions;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.error();
  return q.value();
}

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Draws k queries over one schema pool, mixing q-hierarchical shapes
// (shared-storage engines) with unconstrained CQs (fallback engines).
std::vector<Query> DrawQueries(std::size_t k, Rng& rng, SchemaPool* pool) {
  QueryGenOptions opts;
  opts.max_components = 1;
  std::vector<Query> qs;
  for (std::size_t i = 0; i < k; ++i) {
    qs.push_back(i % 3 == 2 ? RandomCQ(opts, rng, pool)
                            : RandomQHierarchicalQuery(opts, rng, pool));
  }
  return qs;
}

void ExpectSameResult(QueryHandle& h, QuerySession& s, const char* what) {
  ASSERT_EQ(h.Count(), s.Count()) << what << ": " << h.query().ToString();
  auto got = h.Materialize();
  auto want = s.Materialize();
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_TRUE(want.ok()) << want.error();
  ASSERT_EQ(Sorted(*got), Sorted(*want))
      << what << ": " << h.query().ToString();
}

TEST(RegistryTest, DifferentialSingleDeltas) {
  Rng rng(21);
  SchemaPool pool(/*reuse_prob=*/0.6);
  std::vector<Query> queries = DrawQueries(12, rng, &pool);

  QueryRegistry reg(pool.schema);
  std::vector<QueryHandle> handles;
  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (const Query& q : queries) {
    auto h = reg.Register(q);
    ASSERT_TRUE(h.ok()) << h.error();
    handles.push_back(std::move(*h));
    sessions.push_back(std::make_unique<QuerySession>(q));
  }

  StreamOptions sopts;
  sopts.seed = 77;
  sopts.domain_size = 12;  // small domain: dense joins, real deletes
  sopts.insert_ratio = 0.7;
  sopts.noop_ratio = 0.1;
  StreamGenerator gen(pool.schema, sopts);

  for (int step = 0; step < 2000; ++step) {
    UpdateCmd cmd = gen.Next(
        static_cast<RelId>(step % pool.schema->NumRelations()));
    const bool effective = reg.ApplyDelta(cmd);
    bool any = false;
    for (auto& s : sessions) any |= s->Apply(cmd);
    // The shared db and every private session db hold the same tuples,
    // so effectiveness must agree.
    ASSERT_EQ(effective, any);
    if (step % 250 == 249) {
      for (std::size_t i = 0; i < handles.size(); ++i) {
        ExpectSameResult(handles[i], *sessions[i], "single-delta churn");
      }
    }
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ExpectSameResult(handles[i], *sessions[i], "final");
  }
  EXPECT_GT(reg.stats().deltas_applied, 0u);
  EXPECT_GE(reg.stats().notifications, reg.stats().deltas_applied);
}

TEST(RegistryTest, DifferentialBatches) {
  Rng rng(22);
  SchemaPool pool(/*reuse_prob=*/0.7);
  std::vector<Query> queries = DrawQueries(9, rng, &pool);

  QueryRegistry reg(pool.schema);
  std::vector<QueryHandle> handles;
  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (const Query& q : queries) {
    auto h = reg.Register(q);
    ASSERT_TRUE(h.ok()) << h.error();
    handles.push_back(std::move(*h));
    sessions.push_back(std::make_unique<QuerySession>(q));
  }

  StreamOptions sopts;
  sopts.seed = 78;
  sopts.domain_size = 10;
  sopts.insert_ratio = 0.65;
  sopts.noop_ratio = 0.15;  // exercises the fold + no-op filtering
  StreamGenerator gen(pool.schema, sopts);

  for (int round = 0; round < 25; ++round) {
    UpdateStream batch = gen.Take(120);
    reg.ApplyBatch(batch);
    for (auto& s : sessions) s->ApplyBatch(batch);
    for (std::size_t i = 0; i < handles.size(); ++i) {
      ExpectSameResult(handles[i], *sessions[i], "batch churn");
    }
  }
}

TEST(RegistryTest, RegisterUnregisterMidStream) {
  Rng rng(23);
  SchemaPool pool(/*reuse_prob=*/0.6);
  std::vector<Query> queries = DrawQueries(10, rng, &pool);

  QueryRegistry reg(pool.schema);
  StreamOptions sopts;
  sopts.seed = 79;
  sopts.domain_size = 10;
  sopts.insert_ratio = 0.7;
  StreamGenerator gen(pool.schema, sopts);

  std::vector<QueryHandle> handles(queries.size());  // invalid slots ok
  Rng coin(24);
  for (int step = 0; step < 3000; ++step) {
    reg.ApplyDelta(gen.Next(
        static_cast<RelId>(step % pool.schema->NumRelations())));
    if (step % 100 == 99) {
      const std::size_t i = coin.Below(queries.size());
      if (handles[i].valid()) {
        handles[i].Release();
      } else {
        // Late registration: the engine must be built from the CURRENT
        // shared database (preprocessing over live data).
        auto h = reg.Register(queries[i]);
        ASSERT_TRUE(h.ok()) << h.error();
        handles[i] = std::move(*h);
        QuerySession fresh(queries[i], reg.db());
        ExpectSameResult(handles[i], fresh, "late registration");
      }
      ASSERT_EQ(reg.NumRegistered(),
                static_cast<std::size_t>(std::count_if(
                    handles.begin(), handles.end(),
                    [](const QueryHandle& h) { return h.valid(); })));
    }
  }
  // Everything still live must agree with a fresh session over the
  // final database.
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (!handles[i].valid()) continue;
    QuerySession fresh(queries[i], reg.db());
    ExpectSameResult(handles[i], fresh, "final mid-stream");
  }
  for (auto& h : handles) h.Release();
  EXPECT_EQ(reg.NumRegistered(), 0u);
  EXPECT_EQ(reg.NumEngines(), 0u);
  EXPECT_EQ(reg.RetiredBlocks(), 0u);
}

TEST(RegistryTest, DedupSharesOneEngine) {
  Rng rng(25);
  Query q = Parse("Q(x) :- R(x, y), S(y).");
  QueryRegistry reg(q.schema_ptr());

  auto h1 = reg.Register(q);
  ASSERT_TRUE(h1.ok()) << h1.error();
  auto h2 = reg.Register(AlphaRenameShuffle(q, rng));
  ASSERT_TRUE(h2.ok()) << h2.error();
  auto h3 = reg.Register(AlphaRenameShuffle(q, rng));
  ASSERT_TRUE(h3.ok()) << h3.error();

  EXPECT_EQ(reg.NumRegistered(), 3u);
  EXPECT_EQ(reg.NumEngines(), 1u);
  EXPECT_EQ(&h1->engine(), &h2->engine());
  EXPECT_EQ(&h1->engine(), &h3->engine());

  // A structurally different query gets its own engine.
  Query other = Parse("P(x) :- R(x, y).");
  // `other` was parsed against a fresh schema; rebuild it on the
  // registry's schema via the pool-free route: R/S already exist there.
  auto h4 = reg.Register(q);  // same shape again, still one engine
  ASSERT_TRUE(h4.ok());
  EXPECT_EQ(reg.NumEngines(), 1u);
  (void)other;

  // Refcounted teardown: the engine survives until the LAST handle goes.
  h1->Release();
  h2->Release();
  EXPECT_EQ(reg.NumEngines(), 1u);
  reg.ApplyDelta(UpdateCmd::Insert(0, {1, 2}));
  reg.ApplyDelta(UpdateCmd::Insert(1, {2}));
  EXPECT_EQ(h3->Count(), Weight{1});
  h3->Release();
  h4->Release();
  EXPECT_EQ(reg.NumEngines(), 0u);
  EXPECT_EQ(reg.NumRegistered(), 0u);

  // Registering after teardown rebuilds from live storage.
  auto h5 = reg.Register(q);
  ASSERT_TRUE(h5.ok());
  EXPECT_EQ(h5->Count(), Weight{1});
}

TEST(RegistryTest, DedupOffGivesPrivateEngines) {
  Rng rng(26);
  Query q = Parse("Q(x) :- R(x, y), S(y).");
  RegistryOptions opts;
  opts.dedup = false;
  QueryRegistry reg(q.schema_ptr(), opts);
  auto h1 = reg.Register(q);
  auto h2 = reg.Register(AlphaRenameShuffle(q, rng));
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(reg.NumRegistered(), 2u);
  EXPECT_EQ(reg.NumEngines(), 2u);
  EXPECT_NE(&h1->engine(), &h2->engine());
}

TEST(RegistryTest, ForeignSchemaRejected) {
  Query q = Parse("Q(x) :- R(x, y).");
  Query other = Parse("Q(x) :- R(x, y), S(y).");  // different Schema object
  QueryRegistry reg(q.schema_ptr());
  auto h = reg.Register(other);
  EXPECT_FALSE(h.ok());
}

TEST(RegistryTest, SharedEngineRejectsDirectWrites) {
  // Shared-storage engines are fed through the registry's write
  // protocol; the session-style entry points must refuse loudly.
  Query q = Parse("Q(x) :- R(x, y).");
  Database db(q.schema());
  auto eng = core::Engine::CreateShared(q, &db);
  ASSERT_TRUE(eng.ok()) << eng.error();
  UpdateCmd cmd = UpdateCmd::Insert(0, {1, 2});
  EXPECT_THROW((*eng)->Apply(cmd), std::logic_error);
  EXPECT_THROW((*eng)->ApplyBatch(std::span<const UpdateCmd>(&cmd, 1)),
               std::logic_error);
  Database other(q.schema());
  EXPECT_THROW((*eng)->Preload(other), std::logic_error);
}

TEST(RegistryTest, SharedWriteProtocolByHand) {
  // The protocol the registry drives, exercised directly: prepare
  // affected engines, mutate the one database, hand over the delta.
  Query q = Parse("Q(x) :- R(x, y), S(x).");
  Database db(q.schema());
  db.Insert(0, {1, 2});
  auto eng = core::Engine::CreateShared(q, &db);  // preprocessing sync
  ASSERT_TRUE(eng.ok()) << eng.error();
  EXPECT_EQ((*eng)->Count(), Weight{0});

  UpdateCmd cmd = UpdateCmd::Insert(1, {1});
  (*eng)->PrepareSharedWrite();
  ASSERT_TRUE(db.Apply(cmd));
  core::PendingDelta d{cmd.rel, &cmd.tuple, true};
  (*eng)->ApplySharedDeltas(&d, 1);
  EXPECT_EQ((*eng)->Count(), Weight{1});
  EXPECT_TRUE((*eng)->shares_storage());
  EXPECT_EQ(&(*eng)->db(), &db);
}

TEST(RegistryTest, SnapshotPinningThroughHandles) {
  Query q = Parse("Q(x) :- R(x, y).");
  QueryRegistry reg(q.schema_ptr());
  auto h = reg.Register(q);
  ASSERT_TRUE(h.ok()) << h.error();
  reg.ApplyDelta(UpdateCmd::Insert(0, {1, 10}));
  reg.ApplyDelta(UpdateCmd::Insert(0, {2, 20}));

  auto epoch = h->PinEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.error();
  reg.ApplyDelta(UpdateCmd::Insert(0, {3, 30}));
  reg.ApplyDelta(UpdateCmd::Delete(0, {1, 10}));

  // Live result moved on; the pinned snapshot still reads the old one.
  EXPECT_EQ(h->Count(), Weight{2});
  auto cur = h->NewSnapshotCursor(*epoch);
  ASSERT_TRUE(cur.ok()) << cur.error();
  std::vector<Tuple> snap;
  Tuple t;
  while ((*cur)->Next(&t) == CursorStatus::kOk) snap.push_back(t);
  EXPECT_EQ(Sorted(snap), (std::vector<Tuple>{{1}, {2}}));
  EXPECT_TRUE(h->UnpinEpoch(*epoch).ok());

  // Once unpinned, subsequent writes reclaim the forked blocks.
  reg.ApplyDelta(UpdateCmd::Insert(0, {4, 40}));
  reg.ApplyDelta(UpdateCmd::Delete(0, {4, 40}));
  EXPECT_EQ(reg.RetiredBlocks(), 0u);
}

TEST(RegistryTest, StatsCountOnlyAffectedSubscribers) {
  // Two queries over disjoint relations: each delta notifies exactly
  // one engine, and storage no-ops notify nobody.
  Rng rng(27);
  SchemaPool pool(/*reuse_prob=*/0.0);  // force distinct relations
  QueryGenOptions opts;
  opts.max_components = 1;
  opts.max_component_vars = 2;
  Query a = RandomQHierarchicalQuery(opts, rng, &pool);
  Query b = RandomQHierarchicalQuery(opts, rng, &pool);

  QueryRegistry reg(pool.schema);
  auto ha = reg.Register(a);
  auto hb = reg.Register(b);
  ASSERT_TRUE(ha.ok() && hb.ok());

  StreamOptions sopts;
  sopts.seed = 91;
  sopts.domain_size = 50;
  StreamGenerator gen(pool.schema, sopts);
  std::uint64_t expected_notifications = 0;
  for (int i = 0; i < 400; ++i) {
    const RelId rel = static_cast<RelId>(i % pool.schema->NumRelations());
    UpdateCmd cmd = gen.Next(rel);
    const std::uint64_t before = reg.stats().notifications;
    if (reg.ApplyDelta(cmd)) {
      // Count subscribers of this relation by hand.
      std::uint64_t subs = 0;
      for (const Query* q : {&a, &b}) {
        for (const Atom& atom : q->atoms()) {
          if (atom.rel == rel) {
            ++subs;
            break;
          }
        }
      }
      expected_notifications += subs;
      ASSERT_EQ(reg.stats().notifications, before + subs);
    } else {
      ASSERT_EQ(reg.stats().notifications, before);
    }
  }
  EXPECT_EQ(reg.stats().notifications, expected_notifications);
}

TEST(RegistryTest, StatsReturnsASnapshotNotALiveReference) {
  // stats() returns by value: the counters are mutex-guarded, and the
  // old const-reference return handed callers a pointer into guarded
  // state they could read while a writer advanced it. A held snapshot
  // must therefore stay frozen as the registry moves on.
  Query q = Parse("Q(x) :- R(x, y).");
  QueryRegistry reg(q.schema_ptr());
  auto h = reg.Register(q);
  ASSERT_TRUE(h.ok()) << h.error();

  ASSERT_TRUE(reg.ApplyDelta(UpdateCmd::Insert(0, {1, 2})));
  const RegistryStats snap = reg.stats();
  EXPECT_EQ(snap.deltas_applied, 1u);

  ASSERT_TRUE(reg.ApplyDelta(UpdateCmd::Insert(0, {3, 4})));
  EXPECT_EQ(snap.deltas_applied, 1u);  // the snapshot is frozen
  EXPECT_EQ(reg.stats().deltas_applied, 2u);
}

TEST(RegistryTest, SlidingWindowAndFlashCrowdStreams) {
  // The new temporal patterns drive the registry differential too —
  // windows exercise delete-heavy steady state, flash crowds hammer one
  // hot key across every subscriber.
  for (auto pattern : {workload::TemporalPattern::kSlidingWindow,
                       workload::TemporalPattern::kFlashCrowd}) {
    Rng rng(28);
    SchemaPool pool(/*reuse_prob=*/0.6);
    std::vector<Query> queries = DrawQueries(6, rng, &pool);
    QueryRegistry reg(pool.schema);
    std::vector<QueryHandle> handles;
    std::vector<std::unique_ptr<QuerySession>> sessions;
    for (const Query& q : queries) {
      auto h = reg.Register(q);
      ASSERT_TRUE(h.ok()) << h.error();
      handles.push_back(std::move(*h));
      sessions.push_back(std::make_unique<QuerySession>(q));
    }
    StreamOptions sopts;
    sopts.seed = 92;
    sopts.domain_size = 20;
    sopts.pattern = pattern;
    sopts.window = 64;
    sopts.flash_period = 256;
    sopts.flash_len = 64;
    sopts.flash_hot_values = 3;
    StreamGenerator gen(pool.schema, sopts);
    for (int round = 0; round < 10; ++round) {
      UpdateStream batch = gen.Take(200);
      reg.ApplyBatch(batch);
      for (auto& s : sessions) s->ApplyBatch(batch);
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      ExpectSameResult(handles[i], *sessions[i], "temporal pattern");
    }
  }
}

}  // namespace
}  // namespace dyncq::serve
