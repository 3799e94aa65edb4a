// Differential stress test for the batched update pipeline: randomized
// mixed single/batch insert/delete streams (with deliberate no-ops)
// applied to core::Engine, DeltaIvmEngine, and RecomputeEngine must
// produce identical Count()/enumeration results at every checkpoint, and
// the engine's CheckInvariants() must hold after every round.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "../test_util.h"
#include "baseline/delta_ivm.h"
#include "baseline/recompute.h"
#include "core/engine.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

void RunDifferential(const Query& q, std::uint64_t seed,
                     std::size_t rounds, std::size_t domain) {
  SCOPED_TRACE(q.ToString());
  auto dyn = core::Engine::Create(q);
  ASSERT_TRUE(dyn.ok()) << dyn.error();
  core::Engine& engine = *dyn.value();
  baseline::DeltaIvmEngine ivm(q);
  baseline::RecomputeEngine rec(q);

  workload::StreamOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.insert_ratio = 0.55;
  opts.noop_ratio = 0.15;  // exercise set-semantics dedup in batches
  workload::StreamGenerator gen(
      std::const_pointer_cast<const Schema>(q.schema_ptr()), opts);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  for (std::size_t round = 0; round < rounds; ++round) {
    // Alternate between single-tuple updates and batches of varying size
    // (including batches with internal insert/delete toggles).
    if (rng.Chance(0.4)) {
      UpdateCmd cmd = gen.Next(static_cast<RelId>(
          rng.Below(q.schema().NumRelations())));
      bool a = engine.Apply(cmd);
      bool b = ivm.Apply(cmd);
      bool c = rec.Apply(cmd);
      ASSERT_EQ(a, b) << "effectiveness diverged at round " << round;
      ASSERT_EQ(a, c) << "effectiveness diverged at round " << round;
    } else {
      UpdateStream batch = gen.Take(1 + rng.Below(64));
      std::size_t a =
          engine.ApplyBatch(std::span<const UpdateCmd>(batch));
      std::size_t b = ivm.ApplyBatch(std::span<const UpdateCmd>(batch));
      std::size_t c = rec.ApplyBatch(std::span<const UpdateCmd>(batch));
      ASSERT_EQ(a, b) << "batch effective count diverged at round "
                      << round;
      ASSERT_EQ(a, c) << "batch effective count diverged at round "
                      << round;
    }

    for (std::size_t comp = 0; comp < engine.NumComponents(); ++comp) {
      engine.component(comp).CheckInvariants();
    }

    if (round % 7 == 0) {
      Weight count = engine.Count();
      ASSERT_EQ(count, ivm.Count()) << "round " << round;
      ASSERT_EQ(count, rec.Count()) << "round " << round;
      ASSERT_EQ(engine.Answer(), ivm.Answer()) << "round " << round;
      auto result = MaterializeResult(engine);
      ASSERT_EQ(Weight{result.size()}, count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(ivm)))
          << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(rec)))
          << "round " << round;
    }
  }
}

TEST(BatchDifferentialTest, Arity2Chain) {
  RunDifferential(MustParse("Q(x, y, z) :- R(x, y), S(y, z)."), 11, 260,
                  18);
}

TEST(BatchDifferentialTest, Arity2Star) {
  RunDifferential(MustParse("Q(x, y, z) :- R(x, y), S(x, z)."), 22, 260,
                  18);
}

TEST(BatchDifferentialTest, ProjectedStar) {
  // Bound leaf (z projected away): the unit-leaf level is non-free.
  RunDifferential(MustParse("Q(x, y) :- R(x, y), S(x, z)."), 33, 260, 14);
}

TEST(BatchDifferentialTest, SelfJoinWithRepeatedVarsAndDepth3) {
  // Example 6.1-shaped: self-joins, depth-3 paths, multi-atom leaves.
  RunDifferential(
      MustParse("Q(x, y, z, y2, z2) :- R(x, y, z), R(x, y, z2), "
                "E(x, y), E(x, y2), S(x, y, z)."),
      44, 160, 7);
}

TEST(BatchDifferentialTest, BooleanComponent) {
  RunDifferential(MustParse("Q() :- E(x, y), T(y)."), 55, 220, 10);
}

TEST(BatchDifferentialTest, DisconnectedComponentsCrossProduct) {
  RunDifferential(MustParse("Q(x, y) :- R(x), S(y)."), 66, 220, 12);
}

TEST(BatchDifferentialTest, ConstantsAndRepeatedVariables) {
  RunDifferential(MustParse("Q(x, y) :- E(x, x), R(x, y, 3)."), 77, 220,
                  9);
}

// ---------------------------------------------------------------------------
// Ordered-batch fold: commands superseded within the batch never reach
// the database.
// ---------------------------------------------------------------------------

TEST(OrderedBatchFoldTest, InBatchInversePairsCostZeroProbes) {
  // A batch of N insert-then-delete pairs on fresh tuples folds to N
  // no-op deletes: zero relation probes are charged, the revision does
  // not move, and the resident state is untouched.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, z).");
  auto e = core::Engine::Create(q);
  ASSERT_TRUE(e.ok());
  core::Engine& engine = *e.value();
  engine.Apply(UpdateCmd::Insert(0, {500, 501}));  // resident state
  engine.Apply(UpdateCmd::Insert(1, {500, 502}));

  const std::uint64_t probes_before = engine.db().TotalRelationProbes();
  const Revision rev_before = engine.revision();

  UpdateStream batch;
  for (Value v = 1; v <= 128; ++v) {
    batch.push_back(UpdateCmd::Insert(0, {v, v + 1}));
    batch.push_back(UpdateCmd::Delete(0, {v, v + 1}));
    batch.push_back(UpdateCmd::Insert(1, {v, v + 2}));
    batch.push_back(UpdateCmd::Delete(1, {v, v + 2}));
  }
  EXPECT_EQ(engine.ApplyBatch(std::span<const UpdateCmd>(batch)), 0u);
  EXPECT_EQ(engine.db().TotalRelationProbes(), probes_before);
  EXPECT_TRUE(engine.revision() == rev_before);
  EXPECT_EQ(engine.Count(), Weight{1});
  engine.component(0).CheckInvariants();
}

TEST(OrderedBatchFoldTest, FoldKeepsOrderedReplaySemantics) {
  // The ordered fold keeps the pair's FINAL command: "insert t; delete
  // t" on a resident t must still delete t.
  Query q = MustParse("Q(x) :- R(x).");
  auto e = core::Engine::Create(q);
  ASSERT_TRUE(e.ok());
  core::Engine& engine = *e.value();
  engine.Apply(UpdateCmd::Insert(0, {7}));

  UpdateStream batch{UpdateCmd::Insert(0, {7}), UpdateCmd::Delete(0, {7})};
  EXPECT_EQ(engine.ApplyBatch(std::span<const UpdateCmd>(batch)), 1u);
  EXPECT_FALSE(engine.Answer());  // replay semantics: 7 is gone

  // Conversely "delete t; insert t" on a resident t folds to a no-op
  // re-insert: state unchanged and no probe charged.
  engine.Apply(UpdateCmd::Insert(0, {9}));
  const std::uint64_t probes_before = engine.db().TotalRelationProbes();
  UpdateStream batch2{UpdateCmd::Delete(0, {9}), UpdateCmd::Insert(0, {9})};
  EXPECT_EQ(engine.ApplyBatch(std::span<const UpdateCmd>(batch2)), 0u);
  EXPECT_TRUE(engine.Answer());
  EXPECT_EQ(engine.db().TotalRelationProbes(), probes_before);
}

TEST(OrderedBatchFoldTest, LaterCommandOnTupleSupersedesEarlierOnes) {
  // Per-key fold keeps only the last command even across interleavings:
  // [I a, I b, D a, D b, I a] nets to {a present, b absent}.
  Query q = MustParse("Q(x) :- R(x).");
  auto e = core::Engine::Create(q);
  ASSERT_TRUE(e.ok());
  core::Engine& engine = *e.value();
  UpdateStream batch{UpdateCmd::Insert(0, {1}), UpdateCmd::Insert(0, {2}),
                     UpdateCmd::Delete(0, {1}), UpdateCmd::Delete(0, {2}),
                     UpdateCmd::Insert(0, {1})};
  EXPECT_EQ(engine.ApplyBatch(std::span<const UpdateCmd>(batch)), 1u);
  EXPECT_EQ(engine.Count(), Weight{1});
  EXPECT_TRUE(engine.db().relation(0).Contains({1}));
  EXPECT_FALSE(engine.db().relation(0).Contains({2}));
}

// Applies `batch` once as a folded ApplyBatch and once command by
// command, on top of the same `resident` state, and expects the same
// relations and result.
void ExpectFoldMatchesReplay(const Query& q, const UpdateStream& resident,
                             const UpdateStream& batch) {
  SCOPED_TRACE(q.ToString());
  auto folded = core::Engine::Create(q);
  auto replayed = core::Engine::Create(q);
  ASSERT_TRUE(folded.ok() && replayed.ok());
  core::Engine& a = *folded.value();
  core::Engine& b = *replayed.value();
  a.ApplyAll(resident);
  b.ApplyAll(resident);
  a.ApplyBatch(std::span<const UpdateCmd>(batch));
  for (const UpdateCmd& cmd : batch) b.Apply(cmd);
  for (RelId r = 0; r < q.schema().NumRelations(); ++r) {
    std::vector<Tuple> ta, tb;
    for (const Tuple& t : a.db().relation(r)) ta.push_back(t);
    for (const Tuple& t : b.db().relation(r)) tb.push_back(t);
    EXPECT_TRUE(SameTupleSet(ta, tb)) << "relation " << r;
  }
  EXPECT_EQ(a.Count(), b.Count());
  EXPECT_TRUE(SameTupleSet(MaterializeResult(a), MaterializeResult(b)));
  a.component(0).CheckInvariants();
}

TEST(OrderedBatchFoldTest, ArityFourAndArityOneTuples) {
  // Arity 4 fills a tuple's inline storage; arity 1 is the shortest key.
  // Keys repeat across inserts and deletes in both relations.
  Query q = MustParse("Q(a, b, c, d) :- R(a, b, c, d), S(a).");
  const RelId r = q.schema().FindRelation("R");
  const RelId s = q.schema().FindRelation("S");
  UpdateStream resident{UpdateCmd::Insert(r, {1, 2, 3, 4}),
                        UpdateCmd::Insert(s, {1}),
                        UpdateCmd::Insert(s, {2})};
  Rng rng(4);
  UpdateStream batch;
  for (int i = 0; i < 400; ++i) {
    const bool del = rng.Chance(0.4);
    if (rng.Chance(0.5)) {
      Tuple t{1 + rng.Below(2), 2 + rng.Below(2), 3, 4 + rng.Below(2)};
      batch.push_back(del ? UpdateCmd::Delete(r, t) : UpdateCmd::Insert(r, t));
    } else {
      Tuple t{1 + rng.Below(3)};
      batch.push_back(del ? UpdateCmd::Delete(s, t) : UpdateCmd::Insert(s, t));
    }
  }
  ExpectFoldMatchesReplay(q, resident, batch);
}

TEST(OrderedBatchFoldTest, SameTupleInTwoRelationsDoesNotFold) {
  // R(5, 6) and S(5, 6) have equal tuples but are different keys: the
  // delete on S must not supersede the insert on R, nor the reverse.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, y).");
  const RelId r = q.schema().FindRelation("R");
  const RelId s = q.schema().FindRelation("S");
  auto e = core::Engine::Create(q);
  ASSERT_TRUE(e.ok());
  core::Engine& engine = *e.value();
  engine.Apply(UpdateCmd::Insert(s, {5, 6}));
  engine.Apply(UpdateCmd::Insert(r, {7, 8}));
  UpdateStream batch{UpdateCmd::Insert(r, {5, 6}), UpdateCmd::Delete(s, {5, 6}),
                     UpdateCmd::Insert(s, {7, 8}), UpdateCmd::Delete(r, {7, 8})};
  EXPECT_EQ(engine.ApplyBatch(std::span<const UpdateCmd>(batch)), 4u);
  EXPECT_TRUE(engine.db().relation(r).Contains({5, 6}));
  EXPECT_FALSE(engine.db().relation(s).Contains({5, 6}));
  EXPECT_TRUE(engine.db().relation(s).Contains({7, 8}));
  EXPECT_FALSE(engine.db().relation(r).Contains({7, 8}));
  EXPECT_EQ(engine.Count(), Weight{0});
  ExpectFoldMatchesReplay(q, {UpdateCmd::Insert(s, {5, 6}),
                              UpdateCmd::Insert(r, {7, 8})},
                          batch);
}

TEST(OrderedBatchFoldTest, BatchLargerThan65536Commands) {
  // 70000 commands: every delete sits 35000 places after its insert, so
  // the pairs that fold span command indices past 65535. Every tenth
  // tuple is resident before the batch and must still end absent.
  Query q = MustParse("Q(x) :- R(x).");
  constexpr Value kPairs = 35000;
  UpdateStream resident, batch;
  for (Value v = 1; v <= kPairs; v += 10) {
    resident.push_back(UpdateCmd::Insert(0, {v}));
  }
  for (Value v = 1; v <= kPairs; ++v) {
    batch.push_back(UpdateCmd::Insert(0, {v}));
  }
  for (Value v = 1; v <= kPairs; ++v) {
    batch.push_back(UpdateCmd::Delete(0, {v}));
  }
  batch.push_back(UpdateCmd::Insert(0, {kPairs}));
  ASSERT_GT(batch.size(), 65536u);
  ExpectFoldMatchesReplay(q, resident, batch);

  auto e = core::Engine::Create(q);
  ASSERT_TRUE(e.ok());
  core::Engine& engine = *e.value();
  engine.ApplyAll(resident);
  engine.ApplyBatch(std::span<const UpdateCmd>(batch));
  EXPECT_EQ(engine.Count(), Weight{1});
  EXPECT_TRUE(engine.db().relation(0).Contains({kPairs}));
  EXPECT_FALSE(engine.db().relation(0).Contains({1}));
}

TEST(BatchDifferentialTest, LargeSingleBatchOnEmptyEngine) {
  // Whole-stream ingestion as one batch (the bulk-load path).
  Query q = MustParse("Q(x, y, z) :- R(x, y), S(y, z).");
  auto dyn = core::Engine::Create(q);
  ASSERT_TRUE(dyn.ok());
  core::Engine& engine = *dyn.value();
  baseline::DeltaIvmEngine ivm(q);

  workload::StreamOptions opts;
  opts.seed = 88;
  opts.domain_size = 40;
  opts.insert_ratio = 0.6;
  opts.noop_ratio = 0.2;
  workload::StreamGenerator gen(
      std::const_pointer_cast<const Schema>(q.schema_ptr()), opts);
  UpdateStream stream = gen.Take(5000);

  std::size_t a = engine.ApplyBatch(std::span<const UpdateCmd>(stream));
  std::size_t b = ivm.ApplyBatch(std::span<const UpdateCmd>(stream));
  EXPECT_EQ(a, b);
  engine.component(0).CheckInvariants();
  EXPECT_EQ(engine.Count(), ivm.Count());
  EXPECT_TRUE(
      SameTupleSet(MaterializeResult(engine), MaterializeResult(ivm)));

  // Tear everything down through one delete-only batch: the structure
  // must drain to zero items.
  UpdateStream teardown;
  for (RelId r = 0; r < q.schema().NumRelations(); ++r) {
    for (const Tuple& t : engine.db().relation(r)) {
      teardown.push_back(UpdateCmd::Delete(r, t));
    }
  }
  engine.ApplyBatch(std::span<const UpdateCmd>(teardown));
  engine.component(0).CheckInvariants();
  EXPECT_EQ(engine.Count(), Weight{0});
  EXPECT_EQ(engine.NumItems(), 0u);
}

}  // namespace
}  // namespace dyncq
