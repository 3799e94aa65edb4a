// Hive (colony-style) allocation for items, addressed by ItemHandle.
//
// All items of a q-tree node have the same slot size (header + atom
// counts + child slots), so the pool places them in fixed-capacity
// 64-slot blocks per node. Each block keeps:
//  * a jump-counting skipfield: skip[i] == 0 iff slot i is occupied, and
//    an erased run of length L stores L at its first and last entry, so
//    iteration over live slots skips any erased run in O(1)
//    (`i += skip[i]`) and a block walk touches memory at bandwidth;
//  * an in-block free list of erased RUNS (doubly linked through the
//    first bytes of each run's head slot), so allocation pops a slot and
//    erase merges adjacent runs in O(1);
//  * an occupancy count: when a block empties it is returned to a
//    global reuse pool keyed by slot size (and, past a small per-size
//    cap, to the OS) — under delete-heavy churn the pool's footprint
//    follows the live set instead of its high-water mark.
//
// A slab is exactly kHdrBytes + 64 slots, with no rounding: nodes of the
// same slot size share emptied blocks through the reuse pool, and the
// allocator recycles freed slabs across sizes.
//
// Items are named by ItemHandle (core/handle.h): block id + slot,
// resolved with one load from a flat block directory plus shift+add —
// no division, no chain of indirections. The directory grows by
// copy-and-republish and frees the grown-out array at once: only the
// writer allocates, always after its write prologue has forked any
// pinned version off onto that version's own array.
//
// Snapshot versions (copy-on-write): a fork hands the pinned version
// the directory array that was live at pin time and republishes a copy
// with every resident block marked shared. The writer copies a shared
// block's slab before its first mutation and repoints only the live
// entry, so a write under a pin costs its ordinary descent plus a few
// block copies; pinned readers resolve through their own array and
// never see the writer's memory. Handles name (block id, slot), so they
// stay valid on both sides. A copied-away slab is retired at the
// write's epoch and freed once the writer reclaims past it.
//
// Single writer: Alloc/Free and every other mutation run on the one
// writer thread. The block directory mutex is only taken on block
// acquisition and release (amortized over 64 allocations) and guards
// the bookkeeping the telemetry walkers read.
#ifndef DYNCQ_CORE_ITEM_POOL_H_
#define DYNCQ_CORE_ITEM_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/handle.h"
#include "core/item.h"
#include "util/check.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dyncq::core {

class ItemPool {
 public:
  /// Slots per block (== 1 << ItemHandle::kSlotBits).
  static constexpr std::size_t kItemsPerBlock = 64;

  /// `num_children[n]` and `num_atoms[n]` give the array sizes for items
  /// of q-tree node n; `extra_bytes[n]` (empty = all zero) reserves a
  /// 16-aligned run-record region behind the child slots for nodes whose
  /// items may absorb their single child (path compression).
  ItemPool(std::vector<std::size_t> num_children,
           std::vector<std::size_t> num_atoms,
           std::vector<std::size_t> extra_bytes = {});
  ~ItemPool();

  ItemPool(const ItemPool&) = delete;
  ItemPool& operator=(const ItemPool&) = delete;

  /// Full slot size of node `n`'s items (header + arrays + any run
  /// record region). Lets the engine cross-check its independently
  /// computed record offsets against what the pool actually allocates.
  std::size_t block_size(std::uint32_t n) const { return slot_size_[n]; }

  /// Bytes of one slab of node `n`: the block header plus 64 slots.
  std::size_t slab_bytes_of(std::uint32_t n) const {
    return SlabBytes(slot_size_[n]);
  }

  /// Allocates a zero-initialized item for node `n`, with `self`
  /// stamped.
  Item* Alloc(std::uint32_t n);

  /// Frees `it` (named by its `self` handle). Runs the child-slot
  /// destructors and bumps the slot generation, making every outstanding
  /// handle to it stale.
  void Free(Item* it);

  // ---- resolution ----------------------------------------------------

  /// Resolves a handle to its item: one directory load + shift/add.
  /// Null handle -> nullptr. Checked builds verify the slot generation
  /// and fail a typed DYNCQ_CHECK on a stale handle. The const overload
  /// (cursors, invariant checks) never copies.
  const Item* Resolve(ItemHandle h) const {
    return ResolveIn(dir_.load(std::memory_order_acquire), h);
  }
  /// Mutable resolve (writer): while copy-on-write is on, a shared
  /// block is copied first, so the returned item is the live side's.
  Item* Resolve(ItemHandle h) {
    if (!h) return nullptr;
    BlockRef* dir = dir_.load(std::memory_order_acquire);
    if (cow_ && dir[h.block()].shared != 0) [[unlikely]] {
      CopyBlock(dir[h.block()]);  // repoints the entry in place
    }
    return const_cast<Item*>(ResolveIn(dir, h));
  }

  /// Handle-bits convenience (ChildSlot head/tail and child-index
  /// payload words store bits()).
  const Item* ResolveBits(std::uint64_t bits) const {
    return Resolve(ItemHandle::FromBits(bits));
  }
  Item* ResolveBits(std::uint64_t bits) {
    return Resolve(ItemHandle::FromBits(bits));
  }

  /// Current generation of the slot named by `idx` (ItemHandle::idx()).
  /// Maintained in every build; test/telemetry hook.
  std::uint16_t GenerationOf(std::uint32_t idx) const;

  /// Explicit generation-checked resolve, available in EVERY build (the
  /// checked-build Resolve does this implicitly): fails a typed
  /// DYNCQ_CHECK iff `gen` is not `idx`'s current generation. Lets
  /// release-mode tests assert stale-handle detection.
  Item* ResolveCheckedAt(std::uint32_t idx, std::uint16_t gen);

  /// Total live items.
  std::size_t live_items() const { return live_; }

  // ---- copy-on-write snapshot versions (see the file comment and
  // docs/ARCHITECTURE.md, "Copy-on-write blocks") ----------------------

  /// Directory entry: everything Resolve needs, 16 bytes. `items` is
  /// nullptr while the block id sits in free_ids_ (slab OS-released).
  /// `pitch` also fixes the slab's size (SlabBytes). `shared` marks a
  /// live entry whose slab a forked version may still read (meaningful
  /// only while copy-on-write is on).
  struct BlockRef {
    char* items = nullptr;        ///< first slot (slab + kHdrBytes)
    std::uint32_t pitch = 0;      ///< slot size of the resident node
    std::uint8_t shared = 0;
  };

  /// The live directory array (what a pin records).
  const BlockRef* directory() const {
    return dir_.load(std::memory_order_acquire);
  }

  /// Resolves `h` through a directory array — the live one or one a
  /// forked version keeps. Never copies.
  static const Item* ResolveIn(const BlockRef* dir, ItemHandle h) {
    if (!h) return nullptr;
    const BlockRef& r = dir[h.block()];
    const char* p = r.items + std::size_t{h.slot()} * r.pitch;
#if DYNCQ_CHECKED_HANDLES
    DYNCQ_CHECK_MSG(HdrOf(r)->gens[h.slot()] == h.gen(),
                    "stale ItemHandle dereference (slot generation "
                    "changed: the item was freed)");
#endif
    return reinterpret_cast<const Item*>(p);
  }

  /// Forks a version off (writer thread): `frozen` — the array the
  /// version recorded at pin time, which must still be the live one —
  /// passes to the version, and a copy with every resident block marked
  /// shared becomes the live array. Returns the frozen array's capacity
  /// (the version frees it with ReleaseFrozenDirectory). A failed
  /// allocation changes nothing.
  std::size_t Fork(const BlockRef* frozen);

  /// Frees a forked version's directory array. Any thread; touches no
  /// writer state.
  void ReleaseFrozenDirectory(const BlockRef* frozen, std::size_t cap);

  /// Writer thread, once per write: turns copy-on-write on while some
  /// forked version is alive, and sets the epoch copied-away slabs are
  /// retired at. Turning it off is O(1): stale shared marks are ignored
  /// until the next Fork recomputes them.
  void SetCopyOnWrite(bool on, std::uint64_t epoch) {
    cow_ = on;
    cow_epoch_ = epoch;
  }

  /// Describes node `n`'s run-record ChildSlots (path compression):
  /// `count` slots at byte `offset` of an item, live iff its run_len is
  /// non-zero. Block copies and reclamation copy / destroy them along
  /// with the item's own child slots.
  void SetRunSlots(std::uint32_t n, std::size_t offset, std::size_t count) {
    run_slots_[n] = RunSlots{offset, count};
  }

  /// Frees every slab retired at an epoch <= `watermark`, destroying the
  /// child-slot tables of its occupied slots first. Writer thread only.
  void ReclaimThrough(std::uint64_t watermark);

  /// Slabs in the retire list at an epoch <= `watermark`
  /// (test/telemetry hook).
  std::size_t retired_blocks(
      std::uint64_t watermark = ~std::uint64_t{0}) const;

  /// Cheap write-path gate: true iff some retired slabs await
  /// reclamation.
  bool has_retired() const {
    return has_retired_.load(std::memory_order_relaxed);
  }

  // ---- hive telemetry ------------------------------------------------

  struct Stats {
    std::size_t active_blocks = 0;    ///< blocks assigned to a node
    std::size_t reusable_blocks = 0;  ///< emptied, parked in the reuse pool
    std::size_t released_blocks = 0;  ///< emptied, slab returned to the OS
    std::size_t slab_bytes = 0;  ///< bytes owned (active, reusable, retired)
    std::size_t occupied_slots = 0;   ///< allocated slots
    std::size_t dir_bytes = 0;        ///< live and frozen arrays
    std::size_t cow_copied_blocks = 0;  ///< slabs copied on write (total)
  };
  Stats GetStats() const;

  /// Invokes fn(Item*) for every allocated slot, walking each block's
  /// skipfield (erased runs are skipped in O(1) per run). Test hook;
  /// must not run concurrently with Alloc/Free.
  template <typename Fn>
  void ForEachAllocated(Fn&& fn) const {
    const BlockRef* dir = dir_.load(std::memory_order_acquire);
    for (std::uint32_t bid = 1; bid < next_bid_unlocked(); ++bid) {
      const BlockRef& r = dir[bid];
      if (r.items == nullptr) continue;
      const BlockHdr* h = HdrOf(r);
      if (h->node == kNoNode || h->occupied == 0) continue;
      std::size_t i = 0;
      while (i < kItemsPerBlock) {
        const std::uint8_t s = h->skip[i];
        if (s != 0) {
          i += s;
          continue;
        }
        fn(const_cast<Item*>(
            reinterpret_cast<const Item*>(r.items + i * r.pitch)));
        ++i;
      }
    }
  }

 private:
  static_assert(sizeof(BlockRef) == 16);

  /// Sentinel node id for blocks parked in the reuse pool.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Block header, resident at the slab start (in front of the slots).
  struct BlockHdr {
    std::uint32_t node = kNoNode;     ///< resident node (kNoNode: reusable)
    std::uint32_t id = 0;
    std::uint32_t occupied = 0;
    std::int32_t free_run_head = -1;  ///< first erased-run start slot; -1 none
    std::uint32_t next_partial = 0;   ///< per-node partial-list links
    std::uint32_t prev_partial = 0;
    std::uint8_t in_partial = 0;
    /// Jump-counting skipfield (+1 zero sentinel so erase at the last
    /// slot reads a valid right neighbor).
    std::uint8_t skip[kItemsPerBlock + 1] = {};
    /// Per-slot generation, bumped on Free. Maintained in every build;
    /// carried in handles under DYNCQ_CHECKED_HANDLES.
    std::uint16_t gens[kItemsPerBlock] = {};
  };

 public:
  /// Bytes reserved for the header in front of a slab's slots; keeps
  /// the slots Item-aligned. A slab is kHdrBytes + 64 x slot size.
  static constexpr std::size_t kHdrBytes =
      AlignUp(sizeof(BlockHdr), alignof(Item));

 private:
  /// In-slot node of the per-block free list of erased runs, living in
  /// the first bytes of each run's head slot. Fields are slot indices
  /// (-1 = none).
  struct FreeRun {
    std::int32_t next;
    std::int32_t prev;
  };

  /// Emptied blocks parked per slot size before OS release.
  static constexpr std::size_t kMaxReusePerSize = 8;

  /// A slab copied away from under a forked version, freed once the
  /// writer reclaims past `epoch`.
  struct RetiredSlab {
    std::uint64_t epoch = 0;
    char* slab = nullptr;
  };

  static BlockHdr* HdrOf(const BlockRef& r) {
    return reinterpret_cast<BlockHdr*>(r.items - kHdrBytes);
  }
  const BlockRef& RefOf(std::uint32_t bid) const {
    return dir_.load(std::memory_order_acquire)[bid];
  }
  /// The live entry of `bid`, copied first if a forked version shares
  /// it. Every mutation of a non-empty block's slab goes through here
  /// or through the mutable Resolve; empty blocks (reuse, release,
  /// fresh slabs) hold nothing a version reads.
  BlockRef& MutRef(std::uint32_t bid) {
    BlockRef& r = dir_.load(std::memory_order_acquire)[bid];
    if (cow_ && r.shared != 0) [[unlikely]] CopyBlock(r);
    return r;
  }
  static std::size_t SlabBytes(std::size_t pitch) {
    return kHdrBytes + kItemsPerBlock * pitch;
  }
  std::uint32_t next_bid_unlocked() const {
    return next_bid_.load(std::memory_order_acquire);
  }

  static FreeRun* RunAt(const BlockRef& r, std::int32_t slot) {
    return reinterpret_cast<FreeRun*>(r.items +
                                      static_cast<std::size_t>(slot) *
                                          r.pitch);
  }

  /// Invokes fn(ChildSlot&) for every constructed ChildSlot of the
  /// occupied slots of the slab at `hdr`: each item's own child slots,
  /// then its run-record slots if it holds a run.
  template <typename Fn>
  void ForEachSlabChildSlot(BlockHdr* hdr, Fn&& fn);

  /// Destroys `it`'s child slots (their index heap tables).
  void DestroyChildSlots(Item* it);

  /// Copy-on-write: gives `r` (a shared live entry) a private copy of
  /// its slab, child-slot heap tables included, and retires the old
  /// slab at cow_epoch_. An empty block is just unmarked. Strong
  /// guarantee: every allocation happens before the entry is repointed.
  void CopyBlock(BlockRef& r);

  /// Destroys the child-slot tables of a retired slab and frees it.
  void FreeRetiredSlab(char* slab);

  /// Pops one slot from `hdr`'s free-run list (which must be non-empty)
  /// and marks it occupied. Returns the slot index. `r` must be private
  /// (obtained through MutRef), as for EraseSlot.
  std::uint32_t PopSlot(const BlockRef& r, BlockHdr* hdr);

  /// Marks slot `i` erased: skipfield run merge + free-run list update.
  void EraseSlot(const BlockRef& r, BlockHdr* hdr, std::uint32_t i);

  void LinkPartial(std::uint32_t n, std::uint32_t bid);
  void UnlinkPartial(std::uint32_t n, std::uint32_t bid);

  /// Acquires a block for node n from the reuse pool or a fresh slab;
  /// links it as n's partial head.
  std::uint32_t AcquireBlock(std::uint32_t n);

  /// AcquireBlock's directory part, under dir_mu_: a reusable block of
  /// n's slot size, or a fresh slab under a new or recycled id.
  std::uint32_t TakeBlock(std::uint32_t n);

  /// Returns an emptied, unlinked block to the reuse pool (or the OS
  /// past the per-size cap).
  void ReleaseBlock(std::uint32_t bid);

  /// Ensures the directory can index `bid` (copy + publish; the
  /// grown-out array is freed).
  void GrowDirectory(std::uint32_t bid) DYNCQ_REQUIRES(dir_mu_);

  std::vector<std::size_t> num_children_;
  std::vector<std::size_t> num_atoms_;
  std::vector<std::size_t> slot_size_;   // per node
  std::vector<std::uint32_t> reuse_key_;  // per node: reuse_ index
  struct RunSlots {
    std::size_t offset = 0;
    std::size_t count = 0;  // 0: the node's items never hold a run
  };
  std::vector<RunSlots> run_slots_;  // per node (SetRunSlots)
  /// Per-node head block id of the doubly linked list of blocks with
  /// free slots (0 = none).
  std::vector<std::uint32_t> partial_head_;
  std::size_t live_ = 0;
  // Copy-on-write state: writer-thread only.
  bool cow_ = false;
  std::uint64_t cow_epoch_ = 0;
  std::size_t cow_copied_ = 0;

  // Flat block directory. Growth, block acquisition and release happen
  // under dir_mu_. An array replaced by growth is freed at once: every
  // growth runs on the writer after its write prologue, which has
  // already forked any pinned version off onto its own array, so only
  // the pool references the grown-out one (live cursors re-load dir_
  // each Next after their revision check). An array replaced by Fork
  // passes to the forked version instead. next_bid_ is atomic only so
  // the test-side walkers (ForEachAllocated/GetStats) read a published
  // bound.
  std::atomic<BlockRef*> dir_{nullptr};
  std::atomic<std::uint32_t> next_bid_{1};  // block id 0 is reserved
  std::size_t dir_cap_ DYNCQ_GUARDED_BY(dir_mu_) = 0;
  // Arrays held by forked versions; released from any thread.
  std::atomic<std::size_t> frozen_dir_bytes_{0};
  std::vector<std::uint32_t> free_ids_ DYNCQ_GUARDED_BY(dir_mu_);
  /// Reuse pool: emptied block ids per distinct slot size.
  std::vector<std::vector<std::uint32_t>> reuse_ DYNCQ_GUARDED_BY(dir_mu_);
  std::size_t slab_bytes_ DYNCQ_GUARDED_BY(dir_mu_) = 0;
  std::size_t released_blocks_ DYNCQ_GUARDED_BY(dir_mu_) = 0;

  // Lock hierarchy (util/lock_rank.h): retire_mu_ is taken with the
  // engine's snap_mu_ already held (DropAllSnapshots reclaims under the
  // snapshot registry lock) — the rank-token edges complete the
  // registry mu_ -> snap_mu_ -> retire_mu_ -> dir_mu_ chain under
  // -Wthread-safety-beta. Neither ReclaimThrough nor CopyBlock nests
  // retire_mu_ and dir_mu_ — each releases one before taking the other;
  // dir_mu_ is still declared ACQUIRED_AFTER so the order stays
  // machine-checked if nesting ever reappears.
  // Alloc/Free/partial_head_ stay unannotated on purpose: they are
  // writer-thread only (single-writer contract), not lock-protected.
  mutable util::Mutex retire_mu_
      DYNCQ_ACQUIRED_AFTER(util::lock_rank::kBelowEngineSnap)
          DYNCQ_ACQUIRED_BEFORE(util::lock_rank::kBelowPoolRetire);
  mutable util::Mutex dir_mu_
      DYNCQ_ACQUIRED_AFTER(retire_mu_, util::lock_rank::kBelowPoolRetire);
  std::vector<RetiredSlab> retired_ DYNCQ_GUARDED_BY(retire_mu_);
  // Relaxed write-path gate, deliberately NOT guarded: the writer polls
  // it lock-free before deciding to take retire_mu_ at all (see
  // has_retired()). It is set under the mutex (CopyBlock), so a relaxed
  // false negative only defers reclamation to the next write.
  std::atomic<bool> has_retired_{false};
};

/// Appends `it` to the tail of `slot`'s list (paper Figure 3 list order:
/// items appear in the order they became fit). Links are handles, hence
/// the pool parameter.
inline void ListPushBack(ItemPool& pool, ChildSlot& slot, Item* it) {
  it->prev = SlotTail(slot);
  it->next = ItemHandle();
  if (it->prev) {
    pool.Resolve(it->prev)->next = it->self;
  } else {
    slot.head = it->self.bits();
  }
  slot.tail = it->self.bits();
  it->in_list = true;
}

/// Unlinks `it` from `slot`'s list.
inline void ListRemove(ItemPool& pool, ChildSlot& slot, Item* it) {
  if (it->prev) {
    pool.Resolve(it->prev)->next = it->next;
  } else {
    slot.head = it->next.bits();
  }
  if (it->next) {
    pool.Resolve(it->next)->prev = it->prev;
  } else {
    slot.tail = it->prev.bits();
  }
  it->prev = ItemHandle();
  it->next = ItemHandle();
  it->in_list = false;
}

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_ITEM_POOL_H_
