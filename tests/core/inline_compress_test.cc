// Differential test for the item-forest layout: generalized leaf
// inlining (stride-(k+2) count records for k>1-atom leaves) and path
// compression (fanout-1 heads absorbing their single child as a run
// record). An engine fed single updates and batches, a batch-only
// engine, and the DeltaIvm/Recompute oracles must agree on counts,
// enumeration (full cursors AND partitioned cursors), and the internal
// invariants under randomized insert/delete churn that forces records to
// split, re-merge, and drain. Deterministic single-update and batch
// walks pin the split / re-merge transitions, and two bulk loads pin the
// exact number of live ItemPool items the layout allocates.
#include <gtest/gtest.h>

#include <algorithm>
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

std::unique_ptr<core::Engine> MakeEngine(const Query& q) {
  auto r = core::Engine::Create(q);
  EXPECT_TRUE(r.ok()) << r.error();
  return std::move(r.value());
}

void CheckAllInvariants(core::Engine& engine) {
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }
}

std::vector<Tuple> DrainPartitions(core::Engine& engine, std::size_t k) {
  auto parts = engine.NewPartitions(k);
  EXPECT_TRUE(parts.ok()) << parts.error();
  std::vector<Tuple> out;
  Tuple t;
  for (auto& c : parts.value()) {
    while (c->Next(&t) == CursorStatus::kOk) out.push_back(t);
  }
  return out;
}

/// The same randomized stream through the engine, a batch-only engine,
/// and both oracles. Small domains force key collisions, so run records
/// split (second child value) and re-merge (deletion back to one)
/// constantly.
void RunLayoutDifferential(const Query& q, std::uint64_t seed,
                           std::size_t rounds, std::size_t domain) {
  SCOPED_TRACE(q.ToString());
  auto engine = MakeEngine(q);
  // Takes every round as one batch, so on single-update rounds it checks
  // batches of one against a batch of the whole round.
  auto batched = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);
  baseline::RecomputeEngine rec(q);

  workload::StreamOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.insert_ratio = 0.55;
  opts.noop_ratio = 0.1;
  workload::StreamGenerator gen(
      std::const_pointer_cast<const Schema>(q.schema_ptr()), opts);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  for (std::size_t round = 0; round < rounds; ++round) {
    UpdateStream batch = gen.Take(1 + rng.Below(64));
    const std::span<const UpdateCmd> span(batch);

    if (round % 3 == 0) {
      // Single updates: Apply one by one (each a batch of one, so every
      // split/merge transition happens at the next update's phase B).
      // Effective-op counts are only comparable within the same replay
      // mode (the batch fold legitimately annihilates inverse pairs), so
      // the batch-only engine takes the batch and converges on the same
      // final state instead.
      std::size_t expect = 0;
      for (const UpdateCmd& cmd : batch) {
        expect += engine->Apply(cmd) ? 1 : 0;
      }
      std::size_t ivm_n = 0, rec_n = 0;
      for (const UpdateCmd& cmd : batch) {
        ivm_n += ivm.Apply(cmd) ? 1 : 0;
        rec_n += rec.Apply(cmd) ? 1 : 0;
      }
      ASSERT_EQ(ivm_n, expect) << "round " << round;
      ASSERT_EQ(rec_n, expect) << "round " << round;
      batched->ApplyBatch(span);
    } else {
      const std::size_t expect = engine->ApplyBatch(span);
      ASSERT_EQ(ivm.ApplyBatch(span), expect) << "round " << round;
      ASSERT_EQ(rec.ApplyBatch(span), expect) << "round " << round;
      ASSERT_EQ(batched->ApplyBatch(span), expect) << "round " << round;
    }

    CheckAllInvariants(*engine);
    CheckAllInvariants(*batched);

    if (round % 5 == 0) {
      const Weight count = engine->Count();
      auto result = MaterializeResult(*engine);
      ASSERT_EQ(Weight{result.size()}, count) << "round " << round;
      ASSERT_EQ(ivm.Count(), count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(ivm)))
          << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(rec)))
          << "round " << round;
      ASSERT_EQ(batched->Count(), count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(*batched)))
          << "round " << round;
      // Partitioned cursors: the k-way union must be the same multiset,
      // compressed runs and strided leaves included.
      for (std::size_t k : {std::size_t{2}, std::size_t{3}}) {
        ASSERT_TRUE(SameTupleSet(result, DrainPartitions(*engine, k)))
            << "round " << round << " partitions " << k;
      }
    }
  }
}

TEST(InlineCompressTest, MultiAtomLeaf) {
  // y tracks two atoms: stride-4 records (2 counts + fit links) in the
  // root items' child tables; partial records (R without S) are present
  // but unfit.
  RunLayoutDifferential(MustParse("Q(x, y) :- R(x, y), S(x, y)."), 11, 100,
                        12);
}

TEST(InlineCompressTest, MultiAtomLeafBound) {
  // The strided leaf is a bound node: fit records count toward C but not
  // toward the projection.
  RunLayoutDifferential(MustParse("Q(x) :- R(x, y), S(x, y)."), 22, 100,
                        10);
}

TEST(InlineCompressTest, MultiAtomLeafUnderStar) {
  // Strided leaf beside a unit leaf under the same root.
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y), T(x, z)."), 33, 90, 10);
}

TEST(InlineCompressTest, Chain3PathCompression) {
  // x -> y -> z chain: the root absorbs its single y child while it has
  // one value; z is a unit leaf inside the run record.
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z)."), 44, 100, 8);
}

TEST(InlineCompressTest, Chain4PathCompression) {
  // w -> x -> y -> z: x absorbs y (whose z child is a unit leaf); w
  // stays a plain parent of x items.
  RunLayoutDifferential(
      MustParse("Q(w, x, y, z) :- R(w, x), S(w, x, y), T(w, x, y, z)."),
      55, 80, 6);
}

TEST(InlineCompressTest, CompressedRunWithStridedLeaf) {
  // The richest block: the absorbed y level carries a stride-4 leaf
  // table (z tracks S and T) inside the run record.
  RunLayoutDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y, z), T(x, y, z)."), 66, 90,
      7);
}

TEST(InlineCompressTest, CompressedRunProjectedAway) {
  // Bound compressed run: y and z are projected away, so the record only
  // feeds counts, never the enumerator.
  RunLayoutDifferential(MustParse("Q(x) :- R(x, y), S(x, y, z)."), 77, 90,
                        8);
}

TEST(InlineCompressTest, SelfJoinStridedLeaf) {
  // A self-join whose two atoms land in the same leaf with different
  // argument patterns.
  RunLayoutDifferential(MustParse("Q(x, y) :- R(x, y), R(y, x)."), 88, 90,
                        10);
}

TEST(InlineCompressTest, SplitMergeLifecycle) {
  // Deterministic split / re-merge walk on the 3-level chain, pinning
  // the state transitions the randomized churn only hits by chance.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);

  auto apply_all = [&](const UpdateCmd& cmd) {
    EXPECT_TRUE(engine->Apply(cmd));
    EXPECT_TRUE(ivm.Apply(cmd));
    CheckAllInvariants(*engine);
    EXPECT_EQ(engine->Count(), ivm.Count());
    EXPECT_TRUE(SameTupleSet(MaterializeResult(*engine),
                             MaterializeResult(ivm)));
  };

  apply_all(UpdateCmd::Insert(0, {1}));          // R(1)
  apply_all(UpdateCmd::Insert(1, {1, 10}));      // S(1,10): run created
  EXPECT_EQ(engine->NumItems(), 1u);              // y=10 absorbed
  apply_all(UpdateCmd::Insert(2, {1, 10, 100}));  // T under the run
  apply_all(UpdateCmd::Insert(2, {1, 10, 101}));
  EXPECT_EQ(engine->NumItems(), 1u);
  apply_all(UpdateCmd::Insert(1, {1, 11}));      // second y value: split
  EXPECT_EQ(engine->NumItems(), 3u);              // x + two y items
  apply_all(UpdateCmd::Insert(2, {1, 11, 100}));
  apply_all(UpdateCmd::Delete(1, {1, 11}));      // back to one y: but T(1,11,100) still tracks it
  EXPECT_EQ(engine->NumItems(), 3u);
  apply_all(UpdateCmd::Delete(2, {1, 11, 100}));  // y=11 dies: re-merge
  EXPECT_EQ(engine->NumItems(), 1u);
  apply_all(UpdateCmd::Delete(2, {1, 10, 100}));
  apply_all(UpdateCmd::Delete(2, {1, 10, 101}));
  apply_all(UpdateCmd::Delete(1, {1, 10}));      // record drains away
  EXPECT_EQ(engine->NumItems(), 1u);              // root alive through R(1)
  apply_all(UpdateCmd::Delete(0, {1}));
  EXPECT_EQ(engine->NumItems(), 0u);
}

/// The batch counterpart of SplitMergeLifecycle's step checker: applies
/// `cmds` as ONE batch to the engine and the oracle, then checks the
/// invariants, the exact live item count, and count + result set.
void ApplyBatchStep(core::Engine& engine, baseline::DeltaIvmEngine& ivm,
                    const UpdateStream& cmds, std::size_t items) {
  const std::span<const UpdateCmd> span(cmds);
  EXPECT_EQ(engine.ApplyBatch(span), cmds.size());
  EXPECT_EQ(ivm.ApplyBatch(span), cmds.size());
  CheckAllInvariants(engine);
  EXPECT_EQ(engine.NumItems(), items);
  EXPECT_EQ(engine.Count(), ivm.Count());
  EXPECT_TRUE(SameTupleSet(MaterializeResult(engine),
                           MaterializeResult(ivm)));
}

TEST(InlineCompressTest, BatchMergesSurvivorOfTwoDeletedSiblings) {
  // One batch deletes two of three y children under one head: the
  // survivor (with its leaf table) is re-absorbed in the same phase B.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(0, {1}), UpdateCmd::Insert(1, {1, 10}),
                  UpdateCmd::Insert(1, {1, 11}),
                  UpdateCmd::Insert(1, {1, 12}),
                  UpdateCmd::Insert(2, {1, 10, 100}),
                  UpdateCmd::Insert(2, {1, 10, 101}),
                  UpdateCmd::Insert(2, {1, 11, 110})},
                 4);  // x + three y items
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Delete(1, {1, 11}),
                  UpdateCmd::Delete(2, {1, 11, 110}),
                  UpdateCmd::Delete(1, {1, 12})},
                 1);  // y=10 re-merged into x
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Delete(2, {1, 10, 100}),
                  UpdateCmd::Insert(2, {1, 10, 102})},
                 1);  // the merged record keeps serving its leaf table
}

TEST(InlineCompressTest, BatchDrainsHeadAndAllChildren) {
  // One batch deletes a head and every child below it: nothing is left
  // to merge, and no handle of a freed item is resolved. A second head
  // beside it keeps a split pair, and a third keeps its run record.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(0, {1}), UpdateCmd::Insert(1, {1, 10}),
                  UpdateCmd::Insert(1, {1, 11}),
                  UpdateCmd::Insert(2, {1, 10, 100}),
                  UpdateCmd::Insert(2, {1, 11, 110}),
                  UpdateCmd::Insert(0, {2}), UpdateCmd::Insert(1, {2, 20}),
                  UpdateCmd::Insert(1, {2, 21}),
                  UpdateCmd::Insert(0, {3}),
                  UpdateCmd::Insert(1, {3, 30})},
                 7);  // x=1 + 2 y, x=2 + 2 y, x=3 (y=30 absorbed)
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Delete(2, {1, 10, 100}),
                  UpdateCmd::Delete(1, {1, 10}),
                  UpdateCmd::Delete(0, {1}),
                  UpdateCmd::Delete(1, {1, 11}),
                  UpdateCmd::Delete(2, {1, 11, 110}),
                  UpdateCmd::Delete(1, {3, 30}),
                  UpdateCmd::Delete(0, {3})},
                 3);  // only x=2 and its two y items remain
}

TEST(InlineCompressTest, BatchSplitThenOriginalDies) {
  // One batch inserts a second y, which splits the run record, and
  // deletes the original y: the new item re-merges in the same batch.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(0, {1}), UpdateCmd::Insert(1, {1, 10}),
                  UpdateCmd::Insert(2, {1, 10, 100})},
                 1);  // y=10 absorbed
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(1, {1, 11}),
                  UpdateCmd::Insert(2, {1, 11, 110}),
                  UpdateCmd::Delete(2, {1, 10, 100}),
                  UpdateCmd::Delete(1, {1, 10})},
                 1);  // y=11 absorbed in place of y=10
  ApplyBatchStep(*engine, ivm, {UpdateCmd::Delete(1, {1, 11})},
                 1);  // T(1,11,110) still tracks y=11: record stays
}

TEST(InlineCompressTest, SecondBatchRevisitsAHeadTwoDeltasMarkedDirty) {
  // Batch 1 reaches head x=1 through five deltas, so MarkDirty finds it
  // already flagged four times; FlushDirty must clear the flag, or the
  // batch straight after would skip the head and leave its sums stale.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);
  baseline::DeltaIvmEngine ivm(q);
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(0, {1}), UpdateCmd::Insert(1, {1, 10}),
                  UpdateCmd::Insert(1, {1, 11}),
                  UpdateCmd::Insert(2, {1, 10, 100}),
                  UpdateCmd::Insert(2, {1, 11, 110})},
                 3);  // x + two y items
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Delete(2, {1, 11, 110}),
                  UpdateCmd::Delete(1, {1, 11}),
                  UpdateCmd::Insert(2, {1, 10, 101})},
                 1);  // y=11 dies, y=10 re-merged into x
  ApplyBatchStep(*engine, ivm,
                 {UpdateCmd::Insert(2, {1, 10, 102}),
                  UpdateCmd::Delete(2, {1, 10, 100})},
                 1);
}

TEST(InlineCompressTest, ChainWorkloadAllocationReduction) {
  // On a chain-shaped load with distinct paths, path compression plus
  // leaf inlining hold exactly one live ItemPool item per path: the
  // per-path y item is absorbed and z is a unit leaf.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto engine = MakeEngine(q);

  const Value n = 2000;
  UpdateStream load;
  for (Value i = 1; i <= n; ++i) {
    load.push_back(UpdateCmd::Insert(0, {i}));
    load.push_back(UpdateCmd::Insert(1, {i, i + n}));
    load.push_back(UpdateCmd::Insert(2, {i, i + n, i + 2 * n}));
  }
  const std::span<const UpdateCmd> span(load);
  ASSERT_EQ(engine->ApplyBatch(span), load.size());
  CheckAllInvariants(*engine);
  ASSERT_EQ(engine->Count(), Weight{n});

  EXPECT_EQ(engine->NumItems(), static_cast<std::size_t>(n));
}

TEST(InlineCompressTest, StridedLeafAllocationReduction) {
  // Same metric for generalized leaf inlining alone: a k=2 leaf holds
  // its items as records, so only the roots are allocated.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, y).");
  auto engine = MakeEngine(q);

  const Value n = 1000;
  UpdateStream load;
  for (Value i = 1; i <= n; ++i) {
    const Value x = (i - 1) % 50 + 1;
    load.push_back(UpdateCmd::Insert(0, {x, i + n}));
    load.push_back(UpdateCmd::Insert(1, {x, i + n}));
  }
  const std::span<const UpdateCmd> span(load);
  ASSERT_EQ(engine->ApplyBatch(span), load.size());
  CheckAllInvariants(*engine);
  ASSERT_EQ(engine->Count(), Weight{n});

  EXPECT_EQ(engine->NumItems(), 50u);  // roots only
}

}  // namespace
}  // namespace dyncq
