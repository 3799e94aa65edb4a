// Epoch-pinned snapshot enumeration (docs/ARCHITECTURE.md, "Snapshot
// cursors").
//
// PinEpoch captures the current result version; the first post-pin
// write forks it off (the version keeps its block directory and the
// writer copies each shared block before mutating it), so pinned
// cursors keep enumerating exactly the pre-pin result — with constant
// delay on core::Engine, by materialization elsewhere — while
// single-writer traffic (single updates and batches) proceeds. The
// copy-on-write tests pin down that a write under a pin copies a
// constant number of blocks, independent of the database size, and
// that memory returns to baseline once versions die. Non-snapshot
// cursors keep the strict kInvalidated contract. Misuse (unpinning
// twice, exceeding the pin limit, reclaiming while pinned) returns
// typed util::Result errors. The threaded test at the bottom is the
// TSan target: concurrent readers drain pinned cursors while the writer
// churns through every write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "baseline/evaluator.h"
#include "baseline/recompute.h"
#include "core/engine.h"
#include "core/session.h"
#include "storage/update.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

std::vector<Tuple> Drain(Cursor& cur) {
  std::vector<Tuple> out;
  Tuple t;
  CursorStatus s;
  while ((s = cur.Next(&t)) == CursorStatus::kOk) out.push_back(t);
  EXPECT_EQ(s, CursorStatus::kEnd);
  return out;
}

std::vector<Tuple> DrainSnapshot(DynamicQueryEngine& engine,
                                 std::uint64_t epoch) {
  auto cur = engine.NewSnapshotCursor(epoch);
  EXPECT_TRUE(cur.ok()) << cur.error();
  if (!cur.ok()) return {};
  return Drain(*cur.value());
}

void CheckAllInvariants(const core::Engine& engine) {
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }
}

core::Engine& MustCreate(std::unique_ptr<core::Engine>* slot,
                         const Query& q) {
  auto r = core::Engine::Create(q);
  EXPECT_TRUE(r.ok()) << r.error();
  *slot = std::move(r.value());
  return **slot;
}

TEST(SnapshotTest, PinnedCursorSurvivesWritesNonSnapshotInvalidates) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, testing::paper::PhiETJoin());
  const RelId e = engine.query().schema().FindRelation("E");
  const RelId t = engine.query().schema().FindRelation("T");
  engine.Apply(UpdateCmd::Insert(e, Tuple{1, 10}));
  engine.Apply(UpdateCmd::Insert(e, Tuple{2, 10}));
  engine.Apply(UpdateCmd::Insert(t, Tuple{10}));
  const std::vector<Tuple> pre = MaterializeResult(engine);
  ASSERT_EQ(pre.size(), 2u);

  auto pin = engine.PinEpoch();
  ASSERT_TRUE(pin.ok()) << pin.error();
  auto snap_cur = engine.NewSnapshotCursor(pin.value());
  ASSERT_TRUE(snap_cur.ok()) << snap_cur.error();
  std::unique_ptr<Cursor> live_cur = engine.NewCursor();

  // Writes that change the pre-pin result in both directions.
  ASSERT_TRUE(engine.Apply(UpdateCmd::Delete(e, Tuple{1, 10})));
  ASSERT_TRUE(engine.Apply(UpdateCmd::Insert(e, Tuple{3, 10})));

  // The ordinary cursor honours the strict contract...
  Tuple out;
  EXPECT_EQ(live_cur->Next(&out), CursorStatus::kInvalidated);
  EXPECT_EQ(live_cur->Reset(), CursorStatus::kInvalidated);
  // ...while the pinned cursor enumerates exactly the pre-pin result,
  // and Reset restarts it against the same pinned version.
  EXPECT_TRUE(SameTupleSet(Drain(*snap_cur.value()), pre));
  EXPECT_EQ(snap_cur.value()->Reset(), CursorStatus::kOk);
  EXPECT_TRUE(SameTupleSet(Drain(*snap_cur.value()), pre));

  // The live result moved on.
  std::vector<Tuple> expected{Tuple{2, 10}, Tuple{3, 10}};
  EXPECT_TRUE(SameTupleSet(MaterializeResult(engine), expected));

  snap_cur.value().reset();
  EXPECT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

TEST(SnapshotTest, SnapshotCursorOutlivesItsPin) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, testing::paper::PhiETJoin());
  const RelId e = engine.query().schema().FindRelation("E");
  const RelId t = engine.query().schema().FindRelation("T");
  engine.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  engine.Apply(UpdateCmd::Insert(t, Tuple{2}));
  const std::vector<Tuple> pre = MaterializeResult(engine);

  auto pin = engine.PinEpoch();
  ASSERT_TRUE(pin.ok()) << pin.error();
  auto cur = engine.NewSnapshotCursor(pin.value());
  ASSERT_TRUE(cur.ok()) << cur.error();

  // Unpinning does not tear the version down: the open cursor holds it.
  ASSERT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);
  ASSERT_TRUE(engine.Apply(UpdateCmd::Delete(e, Tuple{1, 2})));
  EXPECT_TRUE(SameTupleSet(Drain(*cur.value()), pre));

  // The version dies with its last cursor; its forests become
  // reclaimable retired memory.
  cur.value().reset();
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

// The randomized differential: pinned cursors must reproduce exactly
// their pre-pin materialization under mixed single/batch churn,
// while fresh cursors track a recompute oracle fed the same commands.
void RunSnapshotDifferential(const Query& q, std::uint64_t seed,
                             std::size_t rounds, std::size_t domain) {
  SCOPED_TRACE(q.ToString());
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, q);
  baseline::RecomputeEngine oracle(q);
  workload::StreamGenerator gen(
      q.schema_ptr(),
      {.seed = seed, .domain_size = domain, .insert_ratio = 0.7,
       .noop_ratio = 0.1});

  struct Held {
    std::uint64_t epoch;
    std::vector<Tuple> expected;
  };
  std::deque<Held> pins;

  for (std::size_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE(round);
    // Pin the current version, remembering what it must enumerate.
    auto pin = engine.PinEpoch();
    ASSERT_TRUE(pin.ok()) << pin.error();
    pins.push_back({pin.value(), MaterializeResult(engine)});

    // Churn through a rotating write path.
    UpdateStream cmds = gen.Take(40);
    if (round % 3 == 0) {
      for (const UpdateCmd& cmd : cmds) {
        engine.Apply(cmd);
        oracle.Apply(cmd);
      }
    } else {
      engine.ApplyAll(cmds);
      oracle.ApplyAll(cmds);
    }

    // Every held pin still enumerates its own frozen version.
    for (const Held& h : pins) {
      EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, h.epoch), h.expected));
    }
    // Fresh cursors see the oracle's current result.
    EXPECT_TRUE(
        SameTupleSet(MaterializeResult(engine), MaterializeResult(oracle)));
    EXPECT_EQ(engine.Count(), oracle.Count());
    CheckAllInvariants(engine);

    // Keep at most three epochs pinned.
    if (pins.size() > 3) {
      ASSERT_TRUE(engine.UnpinEpoch(pins.front().epoch).ok());
      pins.pop_front();
    }
  }

  for (const Held& h : pins) {
    EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, h.epoch), h.expected));
    ASSERT_TRUE(engine.UnpinEpoch(h.epoch).ok());
  }
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

TEST(SnapshotTest, DifferentialJoin) {
  RunSnapshotDifferential(testing::paper::PhiETJoin(), 11, 24, 60);
}

TEST(SnapshotTest, DifferentialProjection) {
  RunSnapshotDifferential(testing::paper::PhiETFreeY(), 12, 24, 50);
}

TEST(SnapshotTest, DifferentialExample61) {
  RunSnapshotDifferential(testing::paper::Example61(), 13, 18, 12);
}

TEST(SnapshotTest, DifferentialProductOfComponents) {
  RunSnapshotDifferential(MustParse("Q(x, y) :- A(x), B(y)."), 14, 20, 40);
}

TEST(SnapshotTest, DifferentialBooleanGate) {
  // One free component gated by a Boolean one: the gate's truth value is
  // captured at pin time.
  RunSnapshotDifferential(MustParse("Q(x) :- A(x), E(y, z)."), 15, 20, 30);
}

TEST(SnapshotTest, EmptyPinStaysEmptyAndFullPinStaysFull) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, testing::paper::PhiETJoin());
  const RelId e = engine.query().schema().FindRelation("E");
  const RelId t = engine.query().schema().FindRelation("T");

  // Pin an empty result; later inserts must not leak into it (the
  // pinned cursor anchors on the captured — empty — root list, never on
  // the live head).
  auto empty_pin = engine.PinEpoch();
  ASSERT_TRUE(empty_pin.ok()) << empty_pin.error();
  ASSERT_TRUE(engine.Apply(UpdateCmd::Insert(e, Tuple{1, 2})));
  ASSERT_TRUE(engine.Apply(UpdateCmd::Insert(t, Tuple{2})));
  EXPECT_TRUE(DrainSnapshot(engine, empty_pin.value()).empty());
  EXPECT_EQ(engine.Count(), Weight{1});

  // Pin the now-nonempty result and delete everything live: the pinned
  // version keeps the tuple.
  const std::vector<Tuple> pre = MaterializeResult(engine);
  auto full_pin = engine.PinEpoch();
  ASSERT_TRUE(full_pin.ok()) << full_pin.error();
  ASSERT_TRUE(engine.Apply(UpdateCmd::Delete(e, Tuple{1, 2})));
  ASSERT_TRUE(engine.Apply(UpdateCmd::Delete(t, Tuple{2})));
  EXPECT_EQ(engine.Count(), Weight{0});
  EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, full_pin.value()), pre));
  EXPECT_TRUE(DrainSnapshot(engine, empty_pin.value()).empty());

  ASSERT_TRUE(engine.UnpinEpoch(empty_pin.value()).ok());
  ASSERT_TRUE(engine.UnpinEpoch(full_pin.value()).ok());
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

TEST(SnapshotTest, RepinningTheSameEpochSharesOneVersion) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, testing::paper::PhiETJoin());
  const RelId e = engine.query().schema().FindRelation("E");
  const RelId t = engine.query().schema().FindRelation("T");
  engine.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  engine.Apply(UpdateCmd::Insert(t, Tuple{2}));
  const std::vector<Tuple> pre = MaterializeResult(engine);

  auto p1 = engine.PinEpoch();
  auto p2 = engine.PinEpoch();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);

  ASSERT_TRUE(engine.Apply(UpdateCmd::Delete(e, Tuple{1, 2})));
  ASSERT_TRUE(engine.UnpinEpoch(p1.value()).ok());
  // The second pin still holds the version.
  EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, p2.value()), pre));
  ASSERT_TRUE(engine.UnpinEpoch(p2.value()).ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 0u);
}

TEST(SnapshotTest, MisuseReturnsTypedErrors) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, testing::paper::PhiETJoin());
  const RelId e = engine.query().schema().FindRelation("E");
  engine.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));

  // Unpinning what was never pinned, and cursors on unknown epochs.
  EXPECT_FALSE(engine.UnpinEpoch(999).ok());
  EXPECT_FALSE(engine.NewSnapshotCursor(999).ok());

  // Pin-count overflow is a typed error, not a wrap-around.
  engine.SetPinLimitForTest(2);
  auto p1 = engine.PinEpoch();
  auto p2 = engine.PinEpoch();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  auto p3 = engine.PinEpoch();
  ASSERT_FALSE(p3.ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);

  // Reclaim-while-pinned is refused with the pins intact.
  EXPECT_FALSE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.num_pinned_epochs(), 1u);

  ASSERT_TRUE(engine.UnpinEpoch(p1.value()).ok());
  ASSERT_TRUE(engine.UnpinEpoch(p2.value()).ok());
  EXPECT_FALSE(engine.UnpinEpoch(p2.value()).ok());  // one too many
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
}

TEST(SnapshotTest, SessionCursorOptionsOnCoreEngine) {
  QuerySession session(testing::paper::PhiETJoin());
  ASSERT_TRUE(session.capabilities().snapshot_enumeration);
  const RelId e = session.query().schema().FindRelation("E");
  const RelId t = session.query().schema().FindRelation("T");
  session.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  session.Apply(UpdateCmd::Insert(t, Tuple{2}));
  auto pre = session.Materialize();
  ASSERT_TRUE(pre.ok()) << pre.error();

  auto snap = session.NewCursor(CursorOptions{.snapshot = true});
  ASSERT_TRUE(snap.ok()) << snap.error();
  // The cursor owns its snapshot reference; no pin stays behind.
  EXPECT_EQ(session.engine().num_pinned_epochs(), 1u);

  session.Apply(UpdateCmd::Delete(e, Tuple{1, 2}));
  EXPECT_TRUE(SameTupleSet(Drain(*snap.value()), pre.value()));

  auto snap_mat = session.Materialize(CursorOptions{.snapshot = true});
  ASSERT_TRUE(snap_mat.ok()) << snap_mat.error();
  EXPECT_TRUE(snap_mat.value().empty());

  snap.value().reset();
  EXPECT_EQ(session.engine().num_pinned_epochs(), 0u);
}

TEST(SnapshotTest, SessionCursorOptionsOnMaterializingEngine) {
  // Non-q-hierarchical: the session falls back to a baseline where the
  // snapshot degrades to materialize-on-pin, with identical semantics.
  QuerySession session(testing::paper::PhiSET());
  ASSERT_FALSE(session.capabilities().snapshot_enumeration);
  const RelId s = session.query().schema().FindRelation("S");
  const RelId e = session.query().schema().FindRelation("E");
  const RelId t = session.query().schema().FindRelation("T");
  session.Apply(UpdateCmd::Insert(s, Tuple{1}));
  session.Apply(UpdateCmd::Insert(e, Tuple{1, 2}));
  session.Apply(UpdateCmd::Insert(t, Tuple{2}));
  auto pre = session.Materialize();
  ASSERT_TRUE(pre.ok()) << pre.error();

  auto snap = session.NewCursor(CursorOptions{.snapshot = true});
  ASSERT_TRUE(snap.ok()) << snap.error();
  session.Apply(UpdateCmd::Delete(t, Tuple{2}));
  EXPECT_TRUE(SameTupleSet(Drain(*snap.value()), pre.value()));
  EXPECT_EQ(snap.value()->Reset(), CursorStatus::kOk);
  EXPECT_TRUE(SameTupleSet(Drain(*snap.value()), pre.value()));
  snap.value().reset();
  EXPECT_EQ(session.engine().num_pinned_epochs(), 0u);
}

// The TSan target: three reader threads repeatedly drain (and reset)
// snapshot cursors over two pinned epochs while the writer thread churns
// through single updates and batches. Pins
// and unpins stay on the writer thread, as the threading contract
// requires; cursor creation/drain/destruction races freely with writes.
TEST(SnapshotTest, ConcurrentReadersUnderChurn) {
  Query q = testing::paper::PhiETJoin();
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, q);
  workload::StreamGenerator gen(
      q.schema_ptr(), {.seed = 99, .domain_size = 80, .insert_ratio = 0.8});
  engine.ApplyAll(gen.Take(800));

  const std::vector<Tuple> expected1 = MaterializeResult(engine);
  auto pin1 = engine.PinEpoch();
  ASSERT_TRUE(pin1.ok()) << pin1.error();
  // Force one fork so the second pin captures a different version.
  engine.ApplyAll(gen.Take(100));
  const std::vector<Tuple> expected2 = MaterializeResult(engine);
  auto pin2 = engine.PinEpoch();
  ASSERT_TRUE(pin2.ok()) << pin2.error();

  constexpr int kDrainsPerReader = 60;
  std::atomic<int> mismatches{0};
  auto reader = [&](std::uint64_t epoch, const std::vector<Tuple>* expect) {
    const auto want = testing::AsSet(*expect);
    for (int i = 0; i < kDrainsPerReader; ++i) {
      auto cur = engine.NewSnapshotCursor(epoch);
      if (!cur.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      std::vector<Tuple> got = Drain(*cur.value());
      if (testing::AsSet(got) != want) mismatches.fetch_add(1);
      if (i % 8 == 0) {
        if (cur.value()->Reset() != CursorStatus::kOk ||
            testing::AsSet(Drain(*cur.value())) != want) {
          mismatches.fetch_add(1);
        }
      }
    }
  };
  std::thread r1(reader, pin1.value(), &expected1);
  std::thread r2(reader, pin2.value(), &expected2);
  std::thread r3(reader, pin1.value(), &expected1);

  // The single writer churns through every write path meanwhile.
  for (int round = 0; round < 40; ++round) {
    UpdateStream cmds = gen.Take(25);
    if (round % 3 == 0) {
      for (const UpdateCmd& cmd : cmds) engine.Apply(cmd);
    } else {
      engine.ApplyAll(cmds);
    }
  }

  r1.join();
  r2.join();
  r3.join();
  EXPECT_EQ(mismatches.load(), 0);

  ASSERT_TRUE(engine.UnpinEpoch(pin1.value()).ok());
  ASSERT_TRUE(engine.UnpinEpoch(pin2.value()).ok());
  EXPECT_TRUE(engine.DropAllSnapshots().ok());
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

// Two versions alive at different epochs while both write paths run:
// single updates and batches.
TEST(SnapshotTest, OverlappingVersionsAcrossWritePaths) {
  for (const Query& q :
       {testing::paper::Example61(),
        MustParse("Q(x, y, z) :- R(x, y), S(x, z).")}) {
    SCOPED_TRACE(q.ToString());
    std::unique_ptr<core::Engine> holder;
    core::Engine& engine = MustCreate(&holder, q);
    workload::StreamGenerator gen(
        q.schema_ptr(), {.seed = 21, .domain_size = 12, .insert_ratio = 0.7});
    engine.ApplyAll(gen.Take(300));

    auto check = [&](const std::vector<std::pair<std::uint64_t,
                                                 std::vector<Tuple>>>& held) {
      for (const auto& [epoch, expected] : held) {
        EXPECT_TRUE(SameTupleSet(DrainSnapshot(engine, epoch), expected));
      }
      EXPECT_TRUE(SameTupleSet(MaterializeResult(engine),
                               baseline::Evaluate(engine.db(), q)));
      CheckAllInvariants(engine);
    };

    std::vector<std::pair<std::uint64_t, std::vector<Tuple>>> held;
    auto pin_a = engine.PinEpoch();
    ASSERT_TRUE(pin_a.ok()) << pin_a.error();
    held.emplace_back(pin_a.value(), MaterializeResult(engine));
    for (const UpdateCmd& cmd : gen.Take(20)) engine.Apply(cmd);
    check(held);

    auto pin_b = engine.PinEpoch();
    ASSERT_TRUE(pin_b.ok()) << pin_b.error();
    ASSERT_NE(pin_b.value(), pin_a.value());
    held.emplace_back(pin_b.value(), MaterializeResult(engine));
    engine.ApplyAll(gen.Take(40));
    check(held);
    engine.ApplyAll(gen.Take(40));
    check(held);
    for (const UpdateCmd& cmd : gen.Take(20)) engine.Apply(cmd);
    check(held);

    // The older version dies first; the younger one is unaffected.
    ASSERT_TRUE(engine.UnpinEpoch(pin_a.value()).ok());
    held.erase(held.begin());
    engine.ApplyAll(gen.Take(40));
    check(held);
    ASSERT_TRUE(engine.UnpinEpoch(pin_b.value()).ok());
    held.clear();
    EXPECT_TRUE(engine.DropAllSnapshots().ok());
    EXPECT_EQ(engine.RetiredBlocks(), 0u);

    // No version left: batches run without copy-on-write again.
    engine.ApplyAll(gen.Take(40));
    check(held);
  }
}

std::size_t CopiedBlocks(const core::Engine& engine) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    n += engine.component(c).pool().GetStats().cow_copied_blocks;
  }
  return n;
}

struct ForkCost {
  std::size_t copies_under_pin = 0;
  std::size_t copies_after_death = 0;
};

// Loads ~4n tuples over domain n plus `fixture`, pins, applies `probe`
// (the first post-pin write, which forks), and counts the blocks that
// write copied; then drops the version and counts the copies of more
// writes. The fixture gives the probe a fixed neighbourhood: it only
// touches items the fixture created, so its copy count cannot depend
// on how the random load happened to lay out blocks.
ForkCost MeasureForkCost(const Query& q, std::size_t n,
                         const UpdateStream& fixture,
                         const UpdateCmd& probe) {
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, q);
  workload::StreamGenerator gen(
      q.schema_ptr(), {.seed = 5, .domain_size = n, .insert_ratio = 1.0});
  engine.ApplyAll(gen.Take(4 * n));
  engine.ApplyAll(fixture);
  const std::vector<Tuple> pre = MaterializeResult(engine);

  ForkCost cost;
  auto pin = engine.PinEpoch();
  EXPECT_TRUE(pin.ok()) << pin.error();
  const std::size_t before = CopiedBlocks(engine);
  EXPECT_TRUE(engine.Apply(probe));
  cost.copies_under_pin = CopiedBlocks(engine) - before;
  EXPECT_EQ(DrainSnapshot(engine, pin.value()).size(), pre.size());
  EXPECT_TRUE(engine.UnpinEpoch(pin.value()).ok());
  EXPECT_TRUE(engine.DropAllSnapshots().ok());

  // The version is dead: copy-on-write is off for every later write.
  const std::size_t after = CopiedBlocks(engine);
  const UpdateCmd inverse = probe.kind == UpdateKind::kInsert
                                ? UpdateCmd::Delete(probe.rel, probe.tuple)
                                : UpdateCmd::Insert(probe.rel, probe.tuple);
  EXPECT_TRUE(engine.Apply(inverse));
  engine.ApplyAll(gen.Take(64));
  cost.copies_after_death = CopiedBlocks(engine) - after;
  CheckAllInvariants(engine);
  return cost;
}

// The O(touched) fork: one insert under a pin copies the same small
// number of blocks at n=1k and n=64k — one per materialized q-tree
// node its walk touches — and nothing once the version has died.
TEST(SnapshotTest, WriteUnderPinCopiesOnlyTouchedBlocks) {
  constexpr Value kX = 1'000'001, kY1 = 1'000'002, kY2 = 1'000'003;
  struct Case {
    Query q;
    UpdateStream fixture;
    UpdateCmd probe;
    std::size_t copies;  // materialized q-tree nodes the probe touches
  };
  Query star = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  Query chain = MustParse("Q(x, y, z) :- R(x), S(x, y), T(x, y, z).");
  const RelId sr = star.schema().FindRelation("R");
  const RelId ss = star.schema().FindRelation("S");
  const RelId cr = chain.schema().FindRelation("R");
  const RelId cs = chain.schema().FindRelation("S");
  const RelId ct = chain.schema().FindRelation("T");
  std::vector<Case> cases;
  cases.push_back({star,
                   {UpdateCmd::Insert(sr, {kX, kY1}),
                    UpdateCmd::Insert(ss, {kX, kY1})},
                   UpdateCmd::Insert(ss, {kX, kY2}), 1});
  cases.push_back({chain,
                   {UpdateCmd::Insert(cr, {kX}),
                    UpdateCmd::Insert(cs, {kX, kY1}),
                    UpdateCmd::Insert(cs, {kX, kY2}),
                    UpdateCmd::Insert(ct, {kX, kY1, kY1}),
                    UpdateCmd::Insert(ct, {kX, kY2, kY2})},
                   UpdateCmd::Insert(ct, {kX, kY1, kY2}), 2});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.q.ToString());
    const ForkCost small = MeasureForkCost(c.q, 1000, c.fixture, c.probe);
    const ForkCost large = MeasureForkCost(c.q, 64000, c.fixture, c.probe);
    EXPECT_EQ(small.copies_under_pin, c.copies);
    EXPECT_EQ(large.copies_under_pin, c.copies);
    EXPECT_EQ(small.copies_after_death, 0u);
    EXPECT_EQ(large.copies_after_death, 0u);
  }
}

// Bounded retention: pin -> write -> drain -> unpin -> DropAllSnapshots,
// 10k times. Every cycle forks a directory and copies blocks; all of it
// must be returned, so slab and directory bytes end where the unpinned
// engine started (within one block).
TEST(SnapshotTest, PinWriteCyclesReturnToBaselineMemory) {
  Query q = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  std::unique_ptr<core::Engine> holder;
  core::Engine& engine = MustCreate(&holder, q);
  workload::StreamGenerator gen(
      q.schema_ptr(), {.seed = 3, .domain_size = 40, .insert_ratio = 1.0});
  engine.ApplyAll(gen.Take(120));
  const RelId s = q.schema().FindRelation("S");
  const UpdateCmd ins = UpdateCmd::Insert(s, {1'000'001, 1'000'002});
  const UpdateCmd del = UpdateCmd::Delete(s, {1'000'001, 1'000'002});
  auto totals = [&] {
    std::pair<std::size_t, std::size_t> t{0, 0};
    for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
      const auto st = engine.component(c).pool().GetStats();
      t.first += st.slab_bytes;
      t.second += st.dir_bytes;
    }
    return t;
  };
  // Unpinned baseline, after the write pair has settled the pool.
  ASSERT_TRUE(engine.Apply(ins));
  ASSERT_TRUE(engine.Apply(del));
  const auto base = totals();
  std::size_t max_slab = 0;
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    const core::ItemPool& pool = engine.component(c).pool();
    for (std::uint32_t n = 0; n < engine.component(c).tree().NumNodes();
         ++n) {
      max_slab = std::max(max_slab, pool.slab_bytes_of(n));
    }
  }

  for (int cycle = 0; cycle < 10'000; ++cycle) {
    const Weight at_pin = engine.Count();
    auto pin = engine.PinEpoch();
    ASSERT_TRUE(pin.ok()) << pin.error();
    ASSERT_TRUE(engine.Apply(cycle % 2 == 0 ? ins : del));
    auto cur = engine.NewSnapshotCursor(pin.value());
    ASSERT_TRUE(cur.ok()) << cur.error();
    Weight drained = 0;
    Tuple t;
    while (cur.value()->Next(&t) == CursorStatus::kOk) ++drained;
    ASSERT_EQ(drained, at_pin);
    cur.value().reset();
    ASSERT_TRUE(engine.UnpinEpoch(pin.value()).ok());
    ASSERT_TRUE(engine.DropAllSnapshots().ok());
  }
  const auto end = totals();
  EXPECT_LE(end.first, base.first + max_slab);
  EXPECT_GE(end.first + max_slab, base.first);
  EXPECT_EQ(end.second, base.second);
  EXPECT_EQ(engine.RetiredBlocks(), 0u);
  CheckAllInvariants(engine);
}

}  // namespace
}  // namespace dyncq
