// QuerySession facade: strategy/capability reporting, status-returning
// cursors, ordered batch replay on q-tree and fallback sessions, and
// MaterializeResult.
#include "core/session.h"

#include <gtest/gtest.h>

#include <set>
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
// ApplyBatch: ordered replay.
// ---------------------------------------------------------------------------

// Commits random batches through QuerySession::ApplyBatch and checks each
// against a shadow database that replays the batch command by command:
// same result set, and the returned effective count is the number of
// tuples whose presence the batch changed (the fold keeps one command per
// tuple, which changes the database iff the tuple's final presence
// differs from its pre-batch one).
void ExpectOrderedReplayMatchesShadow(QuerySession& session) {
  const Query& q = session.query();
  std::set<std::pair<RelId, Tuple>> shadow;
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    const std::set<std::pair<RelId, Tuple>> before = shadow;
    UpdateStream batch;
    for (int i = 0; i < 60; ++i) {
      RelId rel = static_cast<RelId>(rng.Below(2));
      Tuple t = rel == 0 ? Tuple{rng.Range(1, 5), rng.Range(1, 5)}
                         : Tuple{rng.Range(1, 5)};
      if (rng.Chance(0.5)) {
        shadow.emplace(rel, t);
        batch.push_back(UpdateCmd::Insert(rel, std::move(t)));
      } else {
        shadow.erase({rel, t});
        batch.push_back(UpdateCmd::Delete(rel, std::move(t)));
      }
    }
    std::size_t changed = 0;
    for (const auto& key : shadow) changed += before.count(key) == 0;
    for (const auto& key : before) changed += shadow.count(key) == 0;
    EXPECT_EQ(session.ApplyBatch(batch), changed) << "round " << round;

    Database expected_db(q.schema());
    for (const auto& [rel, t] : shadow) expected_db.Insert(rel, t);
    auto expected = baseline::Evaluate(expected_db, q);
    ASSERT_TRUE(SameTupleSet(MaterializeResult(session.engine()), expected))
        << "round " << round;
  }
}

TEST(ApplyBatchTest, RandomizedOrderedReplayMatchesShadowOnQTree) {
  QuerySession session(testing::paper::PhiETJoin());
  ASSERT_EQ(session.strategy(), core::EngineStrategy::kQTree);
  ExpectOrderedReplayMatchesShadow(session);
}

TEST(ApplyBatchTest, RandomizedOrderedReplayMatchesShadowOnFallback) {
  // ϕ_{E-T} is not q-hierarchical: the session lands on delta-IVM,
  // whose ApplyBatch is the base-class fold.
  QuerySession session(testing::paper::PhiET());
  ASSERT_EQ(session.strategy(), core::EngineStrategy::kDeltaIvm);
  ExpectOrderedReplayMatchesShadow(session);
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
