// QuerySession facade: strategy/capability reporting, status-returning
// cursors, the UpdateBatch net-delta pre-pass (including the zero-probe
// guarantee for fully-cancelling batches), and MaterializeResult.
#include "core/session.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "baseline/evaluator.h"
#include "util/rng.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

TEST(QuerySessionTest, ReportsStrategyAndCapabilitiesAtConstruction) {
  QuerySession session(MustParse("Q(x, y) :- R(x, y), S(x, z)."));
  EXPECT_EQ(session.strategy(), core::EngineStrategy::kQTree);
  EXPECT_FALSE(session.rationale().empty());
  const Capabilities caps = session.capabilities();
  EXPECT_TRUE(caps.constant_delay_enumeration);
  EXPECT_TRUE(caps.batch_pipeline);
  EXPECT_TRUE(caps.constant_time_count);
  EXPECT_TRUE(caps.partitionable);
}

TEST(QuerySessionTest, OpensPreloadedFromInitialDatabase) {
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  Database init(q.schema());
  init.Insert(0, {1, 2});
  init.Insert(0, {3, 2});
  init.Insert(1, {2});
  QuerySession session(q, init);
  EXPECT_EQ(session.Count(), Weight{2});
  EXPECT_TRUE(
      SameTupleSet(MaterializeResult(session.engine()), {{1, 2}, {3, 2}}));
}

TEST(QuerySessionTest, RevisionAdvancesOnEffectiveUpdatesOnly) {
  QuerySession session(MustParse("Q(x) :- R(x)."));
  Revision r0 = session.revision();
  EXPECT_TRUE(session.Apply(UpdateCmd::Insert(0, {1})));
  EXPECT_FALSE(session.revision() == r0);
  Revision r1 = session.revision();
  EXPECT_FALSE(session.Apply(UpdateCmd::Insert(0, {1})));  // no-op
  EXPECT_EQ(session.revision(), r1);
}

TEST(QuerySessionTest, CursorReportsInvalidationInsteadOfAborting) {
  QuerySession session(MustParse("Q(x) :- R(x)."));
  session.Apply(UpdateCmd::Insert(0, {1}));
  auto cur = session.NewCursor();
  Tuple t;
  ASSERT_EQ(cur->Next(&t), CursorStatus::kOk);
  session.Apply(UpdateCmd::Insert(0, {2}));
  EXPECT_EQ(cur->Next(&t), CursorStatus::kInvalidated);
  EXPECT_EQ(cur->Reset(), CursorStatus::kInvalidated);
}

TEST(QuerySessionTest, FallbackSessionHasSameSurface) {
  // Non-q-hierarchical: lands on delta-IVM; the session API is identical.
  QuerySession session(testing::paper::PhiSET());
  EXPECT_EQ(session.strategy(), core::EngineStrategy::kDeltaIvm);
  session.Apply(UpdateCmd::Insert(0, {1}));
  session.Apply(UpdateCmd::Insert(1, {1, 2}));
  session.Apply(UpdateCmd::Insert(2, {2}));
  EXPECT_EQ(session.Count(), Weight{1});
  auto cur = session.NewCursor();
  Tuple t;
  EXPECT_EQ(cur->Next(&t), CursorStatus::kOk);
  EXPECT_EQ(t, (Tuple{1, 2}));
  // Partitions degrade to one cursor for non-partitionable engines.
  auto parts = session.Partitions(4);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts.value().size(), 1u);
}

TEST(QuerySessionTest, PartitionsRejectZero) {
  QuerySession session(MustParse("Q(x) :- R(x)."));
  EXPECT_FALSE(session.Partitions(0).ok());
}

// ---------------------------------------------------------------------------
// UpdateBatch: net-delta pre-pass.
// ---------------------------------------------------------------------------

TEST(UpdateBatchTest, NetDeltaPrePassCancelsInversePairsWithZeroProbes) {
  // Satellite contract: a batch of N inserts followed by the same N
  // deletes performs ZERO Relation probes beyond the builder's own
  // staging table — the annihilation happens before the engine or the
  // database ever see a command.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, z).");
  QuerySession session(q);
  session.Apply(UpdateCmd::Insert(0, {500, 501}));  // some resident state
  session.Apply(UpdateCmd::Insert(1, {500, 502}));

  const std::uint64_t probes_before = session.db().TotalRelationProbes();
  const Revision rev_before = session.revision();

  constexpr Value kN = 256;
  UpdateBatch batch = session.NewBatch();
  for (Value v = 1; v <= kN; ++v) {
    batch.Insert(0, {v, v + 1});
    batch.Insert(1, {v, v + 2});
  }
  for (Value v = 1; v <= kN; ++v) {
    batch.Delete(0, {v, v + 1});
    batch.Delete(1, {v, v + 2});
  }
  EXPECT_EQ(batch.pending(), 0u);
  EXPECT_EQ(batch.annihilated(), 2u * kN);
  EXPECT_EQ(batch.Commit(), 0u);

  EXPECT_EQ(session.db().TotalRelationProbes(), probes_before);
  EXPECT_EQ(session.revision(), rev_before);  // nothing reached the engine
  EXPECT_EQ(session.Count(), Weight{1});      // resident state untouched
}

TEST(UpdateBatchTest, DedupsSameDirectionCommands) {
  QuerySession session(MustParse("Q(x) :- R(x)."));
  UpdateBatch batch = session.NewBatch();
  batch.Insert(0, {7}).Insert(0, {7}).Insert(0, {8});
  EXPECT_EQ(batch.pending(), 2u);
  EXPECT_EQ(batch.deduped(), 1u);
  EXPECT_EQ(batch.Commit(), 2u);
  EXPECT_EQ(session.Count(), Weight{2});
}

TEST(UpdateBatchTest, CancelThenRestageApplies) {
  // I, D cancel; a third I of the same tuple starts fresh and commits.
  QuerySession session(MustParse("Q(x) :- R(x)."));
  UpdateBatch batch = session.NewBatch();
  batch.Insert(0, {5}).Delete(0, {5}).Insert(0, {5});
  EXPECT_EQ(batch.pending(), 1u);
  EXPECT_EQ(batch.annihilated(), 1u);
  EXPECT_EQ(batch.Commit(), 1u);
  EXPECT_TRUE(session.Answer());
}

TEST(UpdateBatchTest, NetDeltaSemanticsAreUnorderedIntentions) {
  // Documented difference from sequential replay: with t resident, a
  // staged insert+delete pair annihilates and leaves t alone (replay
  // would delete it).
  QuerySession session(MustParse("Q(x) :- R(x)."));
  session.Apply(UpdateCmd::Insert(0, {9}));
  UpdateBatch batch = session.NewBatch();
  batch.Insert(0, {9}).Delete(0, {9});
  EXPECT_EQ(batch.Commit(), 0u);
  EXPECT_TRUE(session.Answer());  // 9 still present

  // A lone delete in a batch still deletes.
  UpdateBatch batch2 = session.NewBatch();
  batch2.Delete(0, {9});
  EXPECT_EQ(batch2.Commit(), 1u);
  EXPECT_FALSE(session.Answer());
}

TEST(UpdateBatchTest, AbortDropsEverything) {
  QuerySession session(MustParse("Q(x) :- R(x)."));
  UpdateBatch batch = session.NewBatch();
  batch.Insert(0, {1}).Insert(0, {2});
  batch.Abort();
  EXPECT_EQ(batch.pending(), 0u);
  EXPECT_EQ(batch.Commit(), 0u);
  EXPECT_FALSE(session.Answer());
}

TEST(UpdateBatchTest, RandomizedNetDeltaMatchesShadowSemantics) {
  // Differential: committing a random batch must equal applying its net
  // delta (inverse pairs removed, same-direction duplicates collapsed)
  // to a shadow database.
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  QuerySession session(q);
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    UpdateBatch batch = session.NewBatch();
    Database shadow(q.schema());
    for (RelId r = 0; r < q.schema().NumRelations(); ++r) {
      for (const Tuple& t : session.db().relation(r)) shadow.Insert(r, t);
    }
    // Track net intentions per key to drive the shadow.
    std::map<std::pair<RelId, std::vector<Value>>, int> net;
    for (int i = 0; i < 60; ++i) {
      RelId rel = static_cast<RelId>(rng.Below(2));
      Tuple t = rel == 0 ? Tuple{rng.Range(1, 5), rng.Range(1, 5)}
                         : Tuple{rng.Range(1, 5)};
      bool ins = rng.Chance(0.5);
      auto key = std::make_pair(rel,
                                std::vector<Value>(t.begin(), t.end()));
      int& state = net[key];
      const int want = ins ? 1 : -1;
      if (state == 0) {
        state = want;
      } else if (state != want) {
        state = 0;  // annihilated (same-direction restage = dedup)
      }
      if (ins) {
        batch.Insert(rel, t);
      } else {
        batch.Delete(rel, t);
      }
    }
    for (const auto& [key, state] : net) {
      Tuple t(key.second.begin(), key.second.end());
      if (state == 1) shadow.Insert(key.first, t);
      if (state == -1) shadow.Delete(key.first, t);
    }
    batch.Commit();
    auto expected = baseline::Evaluate(shadow, q);
    ASSERT_TRUE(SameTupleSet(MaterializeResult(session.engine()), expected))
        << "round " << round;
  }
}

TEST(MaterializeResultTest, ReservesFromCountAndDrainsFully) {
  QuerySession session(MustParse("Q(x, y, z) :- R(x, y), S(x, z)."));
  for (Value x = 1; x <= 10; ++x) {
    for (Value k = 1; k <= 8; ++k) {
      session.Apply(UpdateCmd::Insert(0, {x, 100 + k}));
      session.Apply(UpdateCmd::Insert(1, {x, 200 + k}));
    }
  }
  std::vector<Tuple> result = MaterializeResult(session.engine());
  EXPECT_EQ(result.size(), 10u * 8u * 8u);
  EXPECT_GE(result.capacity(), result.size());  // one up-front reserve
  EXPECT_EQ(session.Count(), Weight{result.size()});
}

}  // namespace
}  // namespace dyncq
