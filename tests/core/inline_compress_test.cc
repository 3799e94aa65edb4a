// Differential test for the structural tuning pair: generalized leaf
// inlining (stride-(k+2) count records for k>1-atom leaves) and path
// compression (fanout-1 heads absorbing their single child as a run
// record). Engines with each flag combination, a batch-only engine, and
// the DeltaIvm/Recompute oracles must agree on
// counts, enumeration (full cursors AND partitioned cursors), and the
// internal invariants under randomized insert/delete churn that forces
// records to split, re-merge, and drain. A chain workload additionally
// pins the point of the whole exercise: the compressed engine allocates
// measurably fewer live ItemPool items for the same database.
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

core::EngineTuning Tuning(bool inline_multi, bool compress) {
  core::EngineTuning t;
  t.inline_multi_leaves = inline_multi;
  t.compress_paths = compress;
  return t;
}

std::unique_ptr<core::Engine> MakeEngine(const Query& q,
                                         const core::EngineTuning& t) {
  auto r = core::Engine::Create(q, t);
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

/// The same randomized stream through every tuning combination, a
/// batch-only engine, and both oracles. Small domains force key
/// collisions, so run records split (second child value) and re-merge
/// (deletion back to one) constantly.
void RunTuningDifferential(const Query& q, std::uint64_t seed,
                           std::size_t rounds, std::size_t domain) {
  SCOPED_TRACE(q.ToString());
  auto tuned = MakeEngine(q, Tuning(true, true));
  auto legacy = MakeEngine(q, Tuning(false, false));
  auto inline_only = MakeEngine(q, Tuning(true, false));
  auto compress_only = MakeEngine(q, Tuning(false, true));
  std::vector<core::Engine*> engines = {tuned.get(), legacy.get(),
                                        inline_only.get(),
                                        compress_only.get()};
  // Takes every round as a batch, so on single-update rounds it checks
  // the batch pipeline against the single-update one.
  auto batched = MakeEngine(q, Tuning(true, true));
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
      // Single-update path: Apply one by one (exercises the immediate
      // split/merge transitions instead of the deferred batch ones).
      // Effective-op counts are only comparable within the same replay
      // mode (the batch fold legitimately annihilates inverse pairs), so
      // the batch-only engine takes the batch and converges on the same
      // final state instead.
      std::size_t expect = 0;
      for (const UpdateCmd& cmd : batch) {
        expect += tuned->Apply(cmd) ? 1 : 0;
      }
      for (std::size_t e = 1; e < engines.size(); ++e) {
        std::size_t n = 0;
        for (const UpdateCmd& cmd : batch) n += engines[e]->Apply(cmd);
        ASSERT_EQ(n, expect) << "round " << round;
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
      const std::size_t expect = tuned->ApplyBatch(span);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        ASSERT_EQ(engines[e]->ApplyBatch(span), expect)
            << "round " << round;
      }
      ASSERT_EQ(ivm.ApplyBatch(span), expect) << "round " << round;
      ASSERT_EQ(rec.ApplyBatch(span), expect) << "round " << round;
      ASSERT_EQ(batched->ApplyBatch(span), expect) << "round " << round;
    }

    for (core::Engine* e : engines) CheckAllInvariants(*e);
    CheckAllInvariants(*batched);

    if (round % 5 == 0) {
      const Weight count = tuned->Count();
      auto result = MaterializeResult(*tuned);
      ASSERT_EQ(Weight{result.size()}, count) << "round " << round;
      ASSERT_EQ(ivm.Count(), count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(ivm)))
          << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(rec)))
          << "round " << round;
      for (core::Engine* e : engines) {
        ASSERT_EQ(e->Count(), count) << "round " << round;
        ASSERT_TRUE(SameTupleSet(result, MaterializeResult(*e)))
            << "round " << round;
      }
      ASSERT_EQ(batched->Count(), count) << "round " << round;
      ASSERT_TRUE(SameTupleSet(result, MaterializeResult(*batched)))
          << "round " << round;
      // Partitioned cursors: the k-way union must be the same multiset,
      // compressed runs and strided leaves included.
      for (std::size_t k : {std::size_t{2}, std::size_t{3}}) {
        ASSERT_TRUE(SameTupleSet(result, DrainPartitions(*tuned, k)))
            << "round " << round << " partitions " << k;
      }
    }
  }
}

TEST(InlineCompressTest, MultiAtomLeaf) {
  // y tracks two atoms: stride-4 records (2 counts + fit links) in the
  // root items' child tables; partial records (R without S) are present
  // but unfit.
  RunTuningDifferential(MustParse("Q(x, y) :- R(x, y), S(x, y)."), 11, 100,
                        12);
}

TEST(InlineCompressTest, MultiAtomLeafBound) {
  // The strided leaf is a bound node: fit records count toward C but not
  // toward the projection.
  RunTuningDifferential(MustParse("Q(x) :- R(x, y), S(x, y)."), 22, 100,
                        10);
}

TEST(InlineCompressTest, MultiAtomLeafUnderStar) {
  // Strided leaf beside a unit leaf under the same root.
  RunTuningDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y), T(x, z)."), 33, 90, 10);
}

TEST(InlineCompressTest, Chain3PathCompression) {
  // x -> y -> z chain: the root absorbs its single y child while it has
  // one value; z is a unit leaf inside the run record.
  RunTuningDifferential(
      MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z)."), 44, 100, 8);
}

TEST(InlineCompressTest, Chain4PathCompression) {
  // w -> x -> y -> z: x absorbs y (whose z child is a unit leaf); w
  // stays a plain parent of x items.
  RunTuningDifferential(
      MustParse("Q(w, x, y, z) :- R(w, x), S(w, x, y), T(w, x, y, z)."),
      55, 80, 6);
}

TEST(InlineCompressTest, CompressedRunWithStridedLeaf) {
  // The richest block: the absorbed y level carries a stride-4 leaf
  // table (z tracks S and T) inside the run record.
  RunTuningDifferential(
      MustParse("Q(x, y, z) :- R(x, y), S(x, y, z), T(x, y, z)."), 66, 90,
      7);
}

TEST(InlineCompressTest, CompressedRunProjectedAway) {
  // Bound compressed run: y and z are projected away, so the record only
  // feeds counts, never the enumerator.
  RunTuningDifferential(MustParse("Q(x) :- R(x, y), S(x, y, z)."), 77, 90,
                        8);
}

TEST(InlineCompressTest, SelfJoinStridedLeaf) {
  // A self-join whose two atoms land in the same leaf with different
  // argument patterns.
  RunTuningDifferential(MustParse("Q(x, y) :- R(x, y), R(y, x)."), 88, 90,
                        10);
}

TEST(InlineCompressTest, SplitMergeLifecycle) {
  // Deterministic split / re-merge walk on the 3-level chain, pinning
  // the state transitions the randomized churn only hits by chance.
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto tuned = MakeEngine(q, Tuning(true, true));
  auto legacy = MakeEngine(q, Tuning(false, false));
  baseline::DeltaIvmEngine ivm(q);

  auto apply_all = [&](const UpdateCmd& cmd) {
    EXPECT_TRUE(tuned->Apply(cmd));
    EXPECT_TRUE(legacy->Apply(cmd));
    EXPECT_TRUE(ivm.Apply(cmd));
    CheckAllInvariants(*tuned);
    CheckAllInvariants(*legacy);
    EXPECT_EQ(tuned->Count(), ivm.Count());
    EXPECT_TRUE(SameTupleSet(MaterializeResult(*tuned),
                             MaterializeResult(ivm)));
  };

  apply_all(UpdateCmd::Insert(0, {1}));          // R(1)
  apply_all(UpdateCmd::Insert(1, {1, 10}));      // S(1,10): run created
  EXPECT_EQ(tuned->NumItems(), 1u);              // y=10 absorbed
  EXPECT_EQ(legacy->NumItems(), 2u);
  apply_all(UpdateCmd::Insert(2, {1, 10, 100}));  // T under the run
  apply_all(UpdateCmd::Insert(2, {1, 10, 101}));
  EXPECT_EQ(tuned->NumItems(), 1u);
  apply_all(UpdateCmd::Insert(1, {1, 11}));      // second y value: split
  EXPECT_EQ(tuned->NumItems(), 3u);              // x + two y items
  apply_all(UpdateCmd::Insert(2, {1, 11, 100}));
  apply_all(UpdateCmd::Delete(1, {1, 11}));      // back to one y: but T(1,11,100) still tracks it
  EXPECT_EQ(tuned->NumItems(), 3u);
  apply_all(UpdateCmd::Delete(2, {1, 11, 100}));  // y=11 dies: re-merge
  EXPECT_EQ(tuned->NumItems(), 1u);
  apply_all(UpdateCmd::Delete(2, {1, 10, 100}));
  apply_all(UpdateCmd::Delete(2, {1, 10, 101}));
  apply_all(UpdateCmd::Delete(1, {1, 10}));      // record drains away
  EXPECT_EQ(tuned->NumItems(), 1u);              // root alive through R(1)
  apply_all(UpdateCmd::Delete(0, {1}));
  EXPECT_EQ(tuned->NumItems(), 0u);
  EXPECT_EQ(legacy->NumItems(), 0u);
}

TEST(InlineCompressTest, ChainWorkloadAllocationReduction) {
  // The acceptance metric: on a chain-shaped load with mostly-distinct
  // paths, path compression plus leaf inlining must hold measurably
  // fewer live ItemPool items than the legacy layout for the same
  // database (here: exactly half — the per-path y item is absorbed and
  // z was already a unit leaf).
  Query q = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  auto tuned = MakeEngine(q, Tuning(true, true));
  auto legacy = MakeEngine(q, Tuning(false, false));

  const Value n = 2000;
  UpdateStream load;
  for (Value i = 1; i <= n; ++i) {
    load.push_back(UpdateCmd::Insert(0, {i}));
    load.push_back(UpdateCmd::Insert(1, {i, i + n}));
    load.push_back(UpdateCmd::Insert(2, {i, i + n, i + 2 * n}));
  }
  const std::span<const UpdateCmd> span(load);
  ASSERT_EQ(tuned->ApplyBatch(span), load.size());
  ASSERT_EQ(legacy->ApplyBatch(span), load.size());
  CheckAllInvariants(*tuned);
  ASSERT_EQ(tuned->Count(), legacy->Count());

  EXPECT_EQ(legacy->NumItems(), static_cast<std::size_t>(2 * n));
  EXPECT_EQ(tuned->NumItems(), static_cast<std::size_t>(n));
  EXPECT_LE(tuned->NumItems() * 2, legacy->NumItems());
}

TEST(InlineCompressTest, StridedLeafAllocationReduction) {
  // Same metric for generalized leaf inlining alone: a k=2 leaf holds
  // its items as records, so only the roots are allocated.
  Query q = MustParse("Q(x, y) :- R(x, y), S(x, y).");
  auto tuned = MakeEngine(q, Tuning(true, false));
  auto legacy = MakeEngine(q, Tuning(false, false));

  const Value n = 1000;
  UpdateStream load;
  for (Value i = 1; i <= n; ++i) {
    const Value x = (i - 1) % 50 + 1;
    load.push_back(UpdateCmd::Insert(0, {x, i + n}));
    load.push_back(UpdateCmd::Insert(1, {x, i + n}));
  }
  const std::span<const UpdateCmd> span(load);
  ASSERT_EQ(tuned->ApplyBatch(span), load.size());
  ASSERT_EQ(legacy->ApplyBatch(span), load.size());
  CheckAllInvariants(*tuned);
  ASSERT_EQ(tuned->Count(), legacy->Count());

  EXPECT_EQ(tuned->NumItems(), 50u);                   // roots only
  EXPECT_EQ(legacy->NumItems(), 50u + n);              // + leaf items
}

}  // namespace
}  // namespace dyncq
