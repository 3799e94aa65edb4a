// Allocation-fault injection on the growth slow paths (util/failpoint.h).
//
// Every guarded site places DYNCQ_ALLOC_FAILPOINT() BEFORE the raw
// allocation, so an injected std::bad_alloc must leave the guarded
// structure exactly as it was: a throwing Relation::Rehash keeps the
// table intact and retryable, a throwing ChildIndex growth keeps every
// present key findable, a failed PinEpoch registers no epoch, a failed
// snapshot fork (the directory republish) changes nothing, and a failed
// copy-on-write block copy leaves the pinned version intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "../test_util.h"
#include "core/child_index.h"
#include "core/engine.h"
#include "core/session.h"
#include "storage/database.h"
#include "util/failpoint.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

/// RAII disarm so a failing assertion never leaves the process-wide
/// fail point armed for the next test.
struct FailpointGuard {
  ~FailpointGuard() { g_alloc_failpoint.Disarm(); }
};

TEST(FailpointTest, RelationRehashThrowLeavesTableIntact) {
  FailpointGuard guard;
  Query q = MustParse("Q(x, y) :- R(x, y).");
  Database db(q.schema());
  const RelId r = q.schema().FindRelation("R");

  // Every guarded allocation throws: the table can never grow, so every
  // insert that needs a rehash fails — and must fail cleanly.
  g_alloc_failpoint.ArmEveryNth(1);
  const std::uint64_t hits_before = g_alloc_failpoint.hits();
  std::vector<Tuple> inserted;
  constexpr Value kTotal = 2000;
  Value v = 1;
  for (; v <= kTotal; ++v) {
    Tuple t{v, v + 1};
    try {
      ASSERT_TRUE(db.Insert(r, t));
      inserted.push_back(t);
    } catch (const std::bad_alloc&) {
      break;  // first injected rehash failure
    }
  }
  ASSERT_LE(v, kTotal) << "2000 inserts never triggered a rehash";
  EXPECT_GT(g_alloc_failpoint.hits(), hits_before);

  // The failed insert left no trace: size unchanged, the new tuple
  // absent, every prior tuple still present.
  EXPECT_EQ(db.relation(r).size(), inserted.size());
  EXPECT_FALSE(db.relation(r).Contains(Tuple{v, v + 1}));
  for (const Tuple& t : inserted) {
    EXPECT_TRUE(db.relation(r).Contains(t)) << "lost (" << t[0] << ")";
  }

  // Disarmed, the same insert succeeds and the table keeps growing.
  g_alloc_failpoint.Disarm();
  for (; v <= kTotal; ++v) {
    Tuple t{v, v + 1};
    ASSERT_TRUE(db.Insert(r, t));
    inserted.push_back(t);
  }
  EXPECT_EQ(db.relation(r).size(), inserted.size());
  for (const Tuple& t : inserted) {
    EXPECT_TRUE(db.relation(r).Contains(t));
  }
}

TEST(FailpointTest, ChildIndexGrowthThrowKeepsPresentKeysFindable) {
  FailpointGuard guard;
  core::ChildIndex index;

  g_alloc_failpoint.ArmEveryNth(1);
  std::vector<Value> present;
  Value v = 1;
  constexpr Value kTotal = 100;
  for (; v <= kTotal; ++v) {
    try {
      std::uint64_t* rec = index.FindOrInsertRecord(v);
      rec[1] = v;  // payload word doubles as a content check
      present.push_back(v);
    } catch (const std::bad_alloc&) {
      break;  // inline -> heap spill (or a heap grow) threw
    }
  }
  ASSERT_LE(v, kTotal) << "100 inserts never grew the index";
  EXPECT_EQ(index.size(), present.size());
  EXPECT_EQ(index.FindRecord(v), nullptr);
  for (Value k : present) {
    const std::uint64_t* rec = index.FindRecord(k);
    ASSERT_NE(rec, nullptr) << "lost key " << k;
    EXPECT_EQ(rec[1], static_cast<std::uint64_t>(k));
  }

  // Disarmed, the same key inserts and later growths work; nothing that
  // was present before the failure was corrupted by it.
  g_alloc_failpoint.Disarm();
  for (; v <= kTotal; ++v) {
    std::uint64_t* rec = index.FindOrInsertRecord(v);
    rec[1] = v;
    present.push_back(v);
  }
  EXPECT_EQ(index.size(), present.size());
  for (Value k : present) {
    const std::uint64_t* rec = index.FindRecord(k);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec[1], static_cast<std::uint64_t>(k));
  }
}

TEST(FailpointTest, FailedPinLeaksNoEpochOnCoreEngine) {
  FailpointGuard guard;
  auto engine_r = core::Engine::Create(testing::paper::PhiETJoin());
  ASSERT_TRUE(engine_r.ok()) << engine_r.error();
  core::Engine& engine = *engine_r.value();
  const RelId e = engine.query().schema().FindRelation("E");
  const RelId t = engine.query().schema().FindRelation("T");
  engine.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  engine.Apply(UpdateCmd::Insert(t, Tuple{2}));

  // CaptureSnapshot itself is a guarded site, so the very next guarded
  // allocation is the capture.
  g_alloc_failpoint.ArmCountdown(1);
  auto pin = engine.PinEpoch();
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
  // Nothing was registered, so reclamation has nothing outstanding.
  EXPECT_TRUE(engine.DropAllSnapshots().ok());

  g_alloc_failpoint.Disarm();
  pin = engine.PinEpoch();
  ASSERT_TRUE(pin.ok()) << pin.error();
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);
  EXPECT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
}

TEST(FailpointTest, FailedPinLeaksNoEpochOnMaterializingEngine) {
  FailpointGuard guard;
  // PhiSET is not q-hierarchical, so the session picks a baseline whose
  // PinEpoch is the base-class materialize-on-pin.
  QuerySession session(testing::paper::PhiSET());
  ASSERT_FALSE(session.capabilities().snapshot_enumeration);
  const RelId s = session.query().schema().FindRelation("S");
  const RelId e = session.query().schema().FindRelation("E");
  const RelId t = session.query().schema().FindRelation("T");
  session.Apply(UpdateCmd::Insert(s, Tuple{1}));
  session.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  session.Apply(UpdateCmd::Insert(t, Tuple{2}));

  g_alloc_failpoint.ArmCountdown(1);
  auto pin = session.PinEpoch();
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(session.engine().num_pinned_epochs(), 0u);

  g_alloc_failpoint.Disarm();
  pin = session.PinEpoch();
  ASSERT_TRUE(pin.ok()) << pin.error();
  auto cur = session.NewSnapshotCursor(pin.value());
  ASSERT_TRUE(cur.ok()) << cur.error();
  Tuple out;
  EXPECT_EQ(cur.value()->Next(&out), CursorStatus::kOk);
  EXPECT_EQ(out, (Tuple{1, 2}));
  EXPECT_EQ(cur.value()->Next(&out), CursorStatus::kEnd);
  EXPECT_TRUE(session.UnpinEpoch(pin.value()).ok());
}

std::vector<Tuple> DrainSnapshot(DynamicQueryEngine& engine,
                                 std::uint64_t epoch) {
  auto cur = engine.NewSnapshotCursor(epoch);
  EXPECT_TRUE(cur.ok()) << cur.error();
  std::vector<Tuple> out;
  Tuple t;
  CursorStatus s;
  while ((s = cur.value()->Next(&t)) == CursorStatus::kOk) out.push_back(t);
  EXPECT_EQ(s, CursorStatus::kEnd);
  return out;
}

TEST(FailpointTest, FailedForkRollsBackAndStaysRetryable) {
  FailpointGuard guard;
  Query q = testing::paper::PhiETJoin();
  auto engine_r = core::Engine::Create(q);
  ASSERT_TRUE(engine_r.ok()) << engine_r.error();
  core::Engine& engine = *engine_r.value();
  const RelId e = q.schema().FindRelation("E");
  const RelId t = q.schema().FindRelation("T");

  // A loaded structure, so the fork has a real directory to republish.
  // The fork's directory allocation is the write's first guarded
  // allocation, so ArmCountdown(1) lands inside the fork.
  workload::StreamGenerator gen(q.schema_ptr(),
                                {.seed = 7, .domain_size = 400});
  engine.ApplyAll(gen.TakeFor(e, 1500));
  engine.ApplyAll(gen.TakeFor(t, 300));
  const std::vector<Tuple> pre = MaterializeResult(engine);
  ASSERT_FALSE(pre.empty());

  auto pin = engine.PinEpoch();
  ASSERT_TRUE(pin.ok()) << pin.error();

  // The first post-pin write forks; its directory republish throws.
  const UpdateCmd ins = UpdateCmd::Insert(e, Tuple{401, 402});
  g_alloc_failpoint.ArmCountdown(1);
  const std::uint64_t hits_before = g_alloc_failpoint.hits();
  EXPECT_THROW(engine.Apply(ins), std::bad_alloc);
  g_alloc_failpoint.Disarm();
  ASSERT_GT(g_alloc_failpoint.hits(), hits_before)
      << "the fork never reached a guarded allocation";

  // The failed fork changed nothing: the live structure is intact...
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }
  EXPECT_EQ(static_cast<std::size_t>(engine.Count()), pre.size());
  EXPECT_TRUE(SameTupleSet(MaterializeResult(engine), pre));
  // ...and the pinned version untouched and still registered.
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);
  EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, pin.value()), pre));

  // The same update now succeeds (the fork re-runs, and the writes copy
  // the blocks they touch), the live result moves, and the pinned
  // version still enumerates the pre-pin result.
  EXPECT_TRUE(engine.Apply(ins));
  EXPECT_TRUE(engine.Apply(UpdateCmd::Insert(t, Tuple{402})));
  std::vector<Tuple> expected = pre;
  expected.push_back(Tuple{401, 402});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(engine), expected));
  EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, pin.value()), pre));

  EXPECT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }
}

// A block copy that fails in the middle of a write under a pin: the
// copy allocates its slab and every heap-table copy before it repoints
// the live directory entry, so the pinned version never sees a partial
// copy. The countdown walks the failure across every guarded allocation
// of the write (per copied block: the slab, then its child-index
// tables), until the write goes through; the version must drain its
// pin-time result whichever one throws.
TEST(FailpointTest, FailedBlockCopyKeepsThePinnedVersion) {
  FailpointGuard guard;
  Query q = testing::paper::Example61();
  const RelId r = q.schema().FindRelation("R");
  const RelId e = q.schema().FindRelation("E");
  std::size_t copied_before_failure = 0;
  bool completed = false;
  for (std::uint64_t nth = 2; !completed; ++nth) {
    ASSERT_LT(nth, 1000u) << "the write never got through";
    SCOPED_TRACE(nth);
    auto engine_r = core::Engine::Create(q);
    ASSERT_TRUE(engine_r.ok()) << engine_r.error();
    core::Engine& engine = *engine_r.value();
    workload::StreamGenerator gen(q.schema_ptr(),
                                  {.seed = 9, .domain_size = 6});
    engine.ApplyAll(gen.Take(400));
    const std::vector<Tuple> pre = MaterializeResult(engine);
    ASSERT_FALSE(pre.empty());
    auto pin = engine.PinEpoch();
    ASSERT_TRUE(pin.ok()) << pin.error();

    // A batch touching many items: several blocks get copied, each with
    // grown child-index tables. The fork is allocation 1.
    UpdateStream batch;
    for (Value v = 1; v <= 6; ++v) {
      batch.push_back(UpdateCmd::Insert(r, Tuple{v, v, 7}));
      batch.push_back(UpdateCmd::Insert(e, Tuple{v, 8}));
    }
    g_alloc_failpoint.ArmCountdown(nth);
    try {
      engine.ApplyAll(batch);
      completed = true;
    } catch (const std::bad_alloc&) {
      copied_before_failure = std::max(
          copied_before_failure,
          engine.component(0).pool().GetStats().cow_copied_blocks);
    }
    g_alloc_failpoint.Disarm();
    EXPECT_EQ(engine.num_pinned_epochs(), 1u);
    EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, pin.value()), pre));
    EXPECT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  }
  // Some failure struck after whole blocks had already been copied.
  EXPECT_GT(copied_before_failure, 0u);
}

}  // namespace
}  // namespace dyncq
