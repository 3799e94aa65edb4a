// Hive ItemPool: generation-checked handles, skipfield churn, block
// reclamation, exact-size slabs and copy-on-write block forks
// (core/item_pool.h).
//
// The stale-handle tests assert the TYPED failure contract: a freed
// handle must fail a DYNCQ_CHECK (std::logic_error), never read
// the slot's new occupant. Checked builds enforce it on every Resolve;
// ResolveCheckedAt enforces it in every build, so the contract is tested
// under Release too.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "../test_util.h"
#include "core/engine.h"
#include "core/item_pool.h"
#include "util/rng.h"

namespace dyncq::core {
namespace {

// One q-tree node with one tracked atom and one child slot — the
// smallest real item shape.
ItemPool MakePool() {
  return ItemPool({1}, {1});
}

TEST(ItemPoolTest, AllocStampsSelfAndResolvesBack) {
  ItemPool pool = MakePool();
  Item* it = pool.Alloc(0);
  ASSERT_NE(it, nullptr);
  EXPECT_TRUE(static_cast<bool>(it->self));
  EXPECT_EQ(pool.Resolve(it->self), it);
  EXPECT_EQ(pool.ResolveBits(it->self.bits()), it);
  EXPECT_EQ(pool.live_items(), 1u);
  pool.Free(it);
  EXPECT_EQ(pool.live_items(), 0u);
}

TEST(ItemPoolTest, NullHandleResolvesToNull) {
  ItemPool pool = MakePool();
  EXPECT_EQ(pool.Resolve(ItemHandle()), nullptr);
  EXPECT_EQ(pool.ResolveBits(0), nullptr);
}

TEST(ItemPoolTest, FreedHandleFailsTypedCheck) {
  ItemPool pool = MakePool();
  Item* it = pool.Alloc(0);
  const ItemHandle h = it->self;
  const std::uint32_t idx = h.idx();
  const std::uint16_t gen = pool.GenerationOf(idx);
  pool.Free(it);
  // The slot generation moved, so the old name is stale in every build.
  EXPECT_NE(pool.GenerationOf(idx), gen);
  EXPECT_THROW(pool.ResolveCheckedAt(idx, gen), std::logic_error);
#if DYNCQ_CHECKED_HANDLES
  EXPECT_THROW(pool.Resolve(h), std::logic_error);
#endif
  // A fresh item in the recycled slot gets a NEW identity: its handle
  // resolves, the old one still fails (no ABA within a generation).
  Item* again = pool.Alloc(0);
  ASSERT_EQ(again->self.idx(), idx);  // hot block: slot reused
  EXPECT_EQ(pool.Resolve(again->self), again);
  EXPECT_THROW(pool.ResolveCheckedAt(idx, gen), std::logic_error);
#if DYNCQ_CHECKED_HANDLES
  EXPECT_THROW(pool.Resolve(h), std::logic_error);
  EXPECT_NE(again->self, h);
#endif
  pool.Free(again);
}

TEST(ItemPoolTest, CopyOnWriteRetiresTheSharedSlabUntilItsEpoch) {
  ItemPool pool = MakePool();
  Item* it = pool.Alloc(0);
  it->value = 11;
  const ItemHandle h = it->self;
  // A heap-grown child index, so the block copy must deep-copy it.
  ChildIndex& index = ItemSlots(it, 1)->index;
  for (Value v = 1; v <= 20; ++v) *index.FindOrInsertSlot(v) = v;
  ASSERT_GT(index.heap_capacity(), 0u);
  const std::size_t slab_bytes = pool.GetStats().slab_bytes;

  // Pin + fork: the version keeps the directory it recorded; the live
  // side republishes a copy with the block marked shared.
  const ItemPool::BlockRef* frozen = pool.directory();
  const std::size_t cap = pool.Fork(frozen);
  EXPECT_NE(pool.directory(), frozen);
  pool.SetCopyOnWrite(true, 7);
  EXPECT_EQ(ItemPool::ResolveIn(frozen, h), it);
  EXPECT_EQ(static_cast<const ItemPool&>(pool).Resolve(h), it)
      << "a const resolve must never copy";
  EXPECT_EQ(pool.GetStats().cow_copied_blocks, 0u);

  // The first mutable resolve copies the block and retires the old slab
  // at the write's epoch; the handle names the copy on the live side.
  Item* live = pool.Resolve(h);
  ASSERT_NE(live, it);
  EXPECT_EQ(pool.GetStats().cow_copied_blocks, 1u);
  EXPECT_EQ(pool.retired_blocks(), 1u);
  EXPECT_EQ(pool.Resolve(h), live);  // private now: no second copy
  EXPECT_EQ(pool.GetStats().cow_copied_blocks, 1u);
  live->value = 12;
  ASSERT_TRUE(ItemSlots(live, 1)->index.Erase(5));

  // The version's item and index table are untouched.
  const Item* old = ItemPool::ResolveIn(frozen, h);
  EXPECT_EQ(old->value, 11);
  EXPECT_EQ(ItemSlots(old, 1)->index.Find(5), 5u);
  EXPECT_EQ(ItemSlots(live, 1)->index.Find(5), 0u);

  // Version death frees its directory; the slab waits for the
  // watermark to pass the epoch it was retired at.
  pool.ReleaseFrozenDirectory(frozen, cap);
  pool.ReclaimThrough(6);
  EXPECT_TRUE(pool.has_retired());
  pool.ReclaimThrough(7);
  EXPECT_FALSE(pool.has_retired());
  EXPECT_EQ(pool.retired_blocks(), 0u);
  EXPECT_EQ(pool.GetStats().slab_bytes, slab_bytes);
  pool.SetCopyOnWrite(false, 0);
  pool.Free(live);
}

TEST(ItemPoolTest, GenerationWraparoundIsTheAbaWindow) {
  // Generations are 16-bit: after exactly 2^16 free/realloc cycles a
  // slot's generation returns to its starting value and a handle from
  // generation zero becomes indistinguishable from a live one. This test
  // documents the window: the stale name fails for every intermediate
  // generation and (by design, not as a feature) resolves again after
  // the wrap.
  ItemPool pool = MakePool();
  Item* it = pool.Alloc(0);
  const std::uint32_t idx = it->self.idx();
  const std::uint16_t gen0 = pool.GenerationOf(idx);
  pool.Free(it);
  for (int cycle = 1; cycle < 65536; ++cycle) {
    Item* cur = pool.Alloc(0);
    ASSERT_EQ(cur->self.idx(), idx);
    ASSERT_NE(pool.GenerationOf(idx), gen0) << "cycle " << cycle;
    EXPECT_THROW(pool.ResolveCheckedAt(idx, gen0), std::logic_error);
    pool.Free(cur);
  }
  Item* wrapped = pool.Alloc(0);
  ASSERT_EQ(wrapped->self.idx(), idx);
  EXPECT_EQ(pool.GenerationOf(idx), gen0);
  EXPECT_EQ(pool.ResolveCheckedAt(idx, gen0), wrapped);
  pool.Free(wrapped);
}

TEST(ItemPoolTest, RandomizedChurnDifferentialAgainstShadowMap) {
  // Random alloc/free across two node shapes, mirrored in a shadow map
  // handle-bits -> stamped value. Every live handle must resolve to an
  // item carrying its stamp; counts and occupancy must track the map.
  ItemPool pool({1, 2}, {1, 3});
  Rng rng(20260808);
  std::unordered_map<std::uint64_t, Value> shadow;
  std::vector<ItemHandle> live;
  Value stamp = 1;
  for (int step = 0; step < 60000; ++step) {
    if (live.empty() || rng.Chance(0.55)) {
      Item* it = pool.Alloc(rng.Chance(0.5) ? 0u : 1u);
      it->value = stamp;
      shadow.emplace(it->self.bits(), stamp);
      live.push_back(it->self);
      ++stamp;
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.Range(0, static_cast<Value>(live.size() - 1)));
      const ItemHandle h = live[pick];
      ASSERT_EQ(pool.Resolve(h)->value, shadow.at(h.bits()));
      pool.Free(pool.Resolve(h));
      shadow.erase(h.bits());
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 4096 == 0) {
      ASSERT_EQ(pool.live_items(), shadow.size());
      for (const ItemHandle h : live) {
        ASSERT_EQ(pool.Resolve(h)->value, shadow.at(h.bits()));
      }
      ASSERT_EQ(pool.GetStats().occupied_slots, shadow.size());
    }
  }
  ASSERT_EQ(pool.live_items(), shadow.size());
  for (const ItemHandle h : live) pool.Free(pool.Resolve(h));
  EXPECT_EQ(pool.live_items(), 0u);
  EXPECT_EQ(pool.GetStats().occupied_slots, 0u);
}

TEST(ItemPoolTest, DeleteHeavyChurnReturnsBlocksToReusePool) {
  // The hive contract: footprint follows the live set, not the
  // high-water mark. Fill thousands of slots, free them all, and the
  // blocks must leave the active set — a bounded few parked for reuse,
  // the rest released.
  ItemPool pool = MakePool();
  std::vector<ItemHandle> live;
  constexpr int kItems = 64 * 200;  // 200 blocks
  for (int i = 0; i < kItems; ++i) live.push_back(pool.Alloc(0)->self);
  const ItemPool::Stats peak = pool.GetStats();
  EXPECT_GE(peak.active_blocks, 200u);
  EXPECT_EQ(peak.occupied_slots, static_cast<std::size_t>(kItems));

  for (const ItemHandle h : live) pool.Free(pool.Resolve(h));
  const ItemPool::Stats drained = pool.GetStats();
  EXPECT_EQ(drained.occupied_slots, 0u);
  // Near-baseline active set: at most the kept-hot partial head block.
  EXPECT_LE(drained.active_blocks, 1u);
  EXPECT_GT(drained.released_blocks, 0u);
  EXPECT_LE(drained.reusable_blocks, 8u);  // per-slot-size reuse cap
  EXPECT_LT(drained.slab_bytes, peak.slab_bytes / 10);

  // And reallocation drains the reuse pool before touching the OS (the
  // +1 block's worth fills the kept-hot empty head first).
  const std::size_t parked = drained.reusable_blocks;
  std::vector<ItemHandle> again;
  for (std::size_t i = 0; i < 64 * (parked + 1); ++i) {
    again.push_back(pool.Alloc(0)->self);
  }
  const ItemPool::Stats refill = pool.GetStats();
  EXPECT_EQ(refill.reusable_blocks, 0u);
  EXPECT_EQ(refill.slab_bytes, drained.slab_bytes);
  for (const ItemHandle h : again) pool.Free(pool.Resolve(h));
}

TEST(ItemPoolTest, SlabsAreExactlyHeaderPlus64Slots) {
  // No rounding: a slab of node n is the block header plus 64 slots of
  // n's slot size, for every child count the engine produces.
  for (std::size_t children = 0; children <= 3; ++children) {
    SCOPED_TRACE(children);
    ItemPool pool({children}, {1});
    EXPECT_EQ(pool.block_size(0),
              AlignUp(ItemSlotsOffset(1) + children * sizeof(ChildSlot),
                      alignof(Item)));
    EXPECT_EQ(pool.slab_bytes_of(0),
              ItemPool::kHdrBytes +
                  ItemPool::kItemsPerBlock * pool.block_size(0));
    std::vector<ItemHandle> live;
    for (int i = 0; i < 150; ++i) live.push_back(pool.Alloc(0)->self);
    const ItemPool::Stats st = pool.GetStats();
    EXPECT_EQ(st.active_blocks, 3u);
    EXPECT_EQ(st.slab_bytes, st.active_blocks * pool.slab_bytes_of(0));
    for (const ItemHandle h : live) pool.Free(pool.Resolve(h));
  }
}

TEST(ItemPoolTest, EmptiedBlocksAreReusedOnlyAtTheSameSlotSize) {
  // Nodes 0 and 1 share a slot size; node 2 has one more child slot.
  ItemPool pool({1, 1, 2}, {1, 1, 1});
  ASSERT_EQ(pool.block_size(0), pool.block_size(1));
  ASSERT_NE(pool.block_size(0), pool.block_size(2));
  // Three full blocks of node 0, then drained: the first two park in
  // the reuse pool, the third stays resident as node 0's hot block.
  std::vector<ItemHandle> live;
  for (std::size_t i = 0; i < 3 * ItemPool::kItemsPerBlock; ++i) {
    live.push_back(pool.Alloc(0)->self);
  }
  const std::uint32_t first = live.front().block();
  const std::uint32_t second = live[ItemPool::kItemsPerBlock].block();
  for (const ItemHandle h : live) pool.Free(pool.Resolve(h));
  const ItemPool::Stats drained = pool.GetStats();
  ASSERT_EQ(drained.reusable_blocks, 2u);

  // A node of a different slot size never takes a parked block.
  Item* other = pool.Alloc(2);
  const std::uint32_t other_block = other->self.block();
  EXPECT_NE(other_block, first);
  EXPECT_NE(other_block, second);
  EXPECT_EQ(pool.GetStats().reusable_blocks, 2u);
  EXPECT_EQ(pool.GetStats().slab_bytes,
            drained.slab_bytes + pool.slab_bytes_of(2));

  // A node of the same slot size does, and allocates no new slab.
  Item* same = pool.Alloc(1);
  const std::uint32_t same_block = same->self.block();
  EXPECT_TRUE(same_block == first || same_block == second);
  EXPECT_EQ(pool.GetStats().reusable_blocks, 1u);
  EXPECT_EQ(pool.GetStats().slab_bytes,
            drained.slab_bytes + pool.slab_bytes_of(2));
  pool.Free(other);
  pool.Free(same);
}

#if !DYNCQ_CHECKED_HANDLES
// The Release record sizes of the five most common item shapes of the
// serving benchmark's registry ingest. Every item costs one slot, so a
// field that grows a record fails here, long before it shows as memory.
TEST(ItemPoolTest, ReleaseRecordSizesOfCommonShapes) {
  struct Shape {
    const char* what;
    const char* query;
    std::size_t slot_bytes;  // root node's slot
  };
  const Shape shapes[] = {
      {"root leaf", "Q(x) :- R(x).", 80},
      {"1 child", "Q(x, y) :- R(x, y).", 208},
      {"2 children", "Q(x, y, z) :- R(x, y), S(x, z).", 336},
      {"1 child with a run record", "Q(x, y, z) :- R(x, y, z).", 384},
      {"3 children", "Q(x, y, z, w) :- R(x, y), S(x, z), T(x, w).", 480},
  };
  EXPECT_EQ(ItemPool::kHdrBytes, 224u);
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.what);
    auto engine = core::Engine::Create(testing::MustParse(shape.query));
    ASSERT_TRUE(engine.ok()) << engine.error();
    ASSERT_EQ(engine.value()->NumComponents(), 1u);
    const ItemPool& pool = engine.value()->component(0).pool();
    EXPECT_EQ(pool.block_size(0), shape.slot_bytes);
    EXPECT_EQ(pool.slab_bytes_of(0), 224 + 64 * shape.slot_bytes);
  }
}
#endif

TEST(ItemPoolTest, ForEachAllocatedSkipsErasedRuns) {
  ItemPool pool = MakePool();
  std::vector<ItemHandle> live;
  for (int i = 0; i < 150; ++i) {
    Item* it = pool.Alloc(0);
    it->value = static_cast<Value>(i + 1);
    live.push_back(it->self);
  }
  // Erase a scatter of runs: singletons, an interior run, a block prefix.
  std::vector<std::size_t> doomed = {0, 1, 2, 7, 64, 65, 70, 100, 149};
  for (std::size_t i : doomed) {
    pool.Free(pool.Resolve(live[i]));
    live[i] = ItemHandle();
  }
  std::size_t expect = 0;
  for (const ItemHandle h : live) expect += h ? 1 : 0;
  std::size_t seen = 0;
  pool.ForEachAllocated([&](Item* it) {
    ++seen;
    ASSERT_NE(it->value, 0u);  // never visits an erased slot
  });
  EXPECT_EQ(seen, expect);
  for (const ItemHandle h : live) {
    if (h) pool.Free(pool.Resolve(h));
  }
}

}  // namespace
}  // namespace dyncq::core
