#include "core/item_pool.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/check.h"
#include "util/failpoint.h"

namespace dyncq::core {

ItemPool::ItemPool(std::vector<std::size_t> num_children,
                   std::vector<std::size_t> num_atoms,
                   std::vector<std::size_t> extra_bytes)
    : num_children_(std::move(num_children)),
      num_atoms_(std::move(num_atoms)) {
  DYNCQ_CHECK(num_children_.size() == num_atoms_.size());
  DYNCQ_CHECK(extra_bytes.empty() ||
              extra_bytes.size() == num_atoms_.size());
  slot_size_.resize(num_children_.size());
  reuse_key_.resize(num_children_.size());
  run_slots_.resize(num_children_.size());
  partial_head_.assign(num_children_.size(), 0);
  std::vector<std::size_t> key_sizes;  // slot size per reuse_ index
  for (std::size_t n = 0; n < num_children_.size(); ++n) {
    std::size_t sz = ItemSlotsOffset(num_atoms_[n]) +
                     num_children_[n] * sizeof(ChildSlot);
    if (!extra_bytes.empty() && extra_bytes[n] != 0) {
      // Run-record region: 16-aligned (it leads with a Weight) and fully
      // behind the node's own arrays. Alloc's memset leaves it all-zero,
      // which is the valid "no absorbed child" state.
      sz = AlignUp(sz, 16) + extra_bytes[n];
    }
    slot_size_[n] = AlignUp(sz, alignof(Item));
    // Emptied blocks are reusable across nodes of the same slot size.
    const auto key = std::find(key_sizes.begin(), key_sizes.end(),
                               slot_size_[n]);
    reuse_key_[n] = static_cast<std::uint32_t>(key - key_sizes.begin());
    if (key == key_sizes.end()) key_sizes.push_back(slot_size_[n]);
  }
  {
    util::MutexLock lock(&dir_mu_);
    reuse_.resize(key_sizes.size());
    GrowDirectory(0);
  }
}

ItemPool::~ItemPool() {
  // Retired slabs still own their child-slot tables; live slabs' tables
  // belong to the items the owner frees before the pool dies.
  ReclaimThrough(~std::uint64_t{0});
  util::MutexLock lock(&dir_mu_);
  BlockRef* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t end = next_bid_.load(std::memory_order_relaxed);
  for (std::uint32_t bid = 1; bid < end; ++bid) {
    if (dir[bid].items != nullptr) {
      ::operator delete(dir[bid].items - kHdrBytes);
    }
  }
  ::operator delete(dir);
}

void ItemPool::GrowDirectory(std::uint32_t bid) {
  if (dir_cap_ != 0 && bid < dir_cap_) return;
  std::size_t cap = dir_cap_ == 0 ? 64 : dir_cap_;
  while (cap <= bid) cap *= 2;
  DYNCQ_ALLOC_FAILPOINT();
  auto* fresh =
      static_cast<BlockRef*>(::operator new(cap * sizeof(BlockRef)));
  for (std::size_t i = 0; i < cap; ++i) new (fresh + i) BlockRef();
  BlockRef* old = dir_.load(std::memory_order_relaxed);
  if (old != nullptr) std::memcpy(fresh, old, dir_cap_ * sizeof(BlockRef));
  dir_.store(fresh, std::memory_order_release);
  dir_cap_ = cap;
  // Nothing else references the grown-out array: a pinned version was
  // forked onto its own array by the write prologue that precedes every
  // allocation (Engine::PrepareWrite).
  ::operator delete(old);
}

std::size_t ItemPool::Fork(const BlockRef* frozen) {
  util::MutexLock lock(&dir_mu_);
  BlockRef* live = dir_.load(std::memory_order_relaxed);
  DYNCQ_CHECK_MSG(live == frozen,
                  "ItemPool::Fork: the pinned directory is no longer live "
                  "(a write ran without forking the pinned version)");
  const std::size_t bytes = dir_cap_ * sizeof(BlockRef);
  DYNCQ_ALLOC_FAILPOINT();
  auto* fresh = static_cast<BlockRef*>(::operator new(bytes));
  std::memcpy(fresh, live, bytes);
  // Every resident block is shared with the version. No header is
  // read: a block that turns out empty is just unmarked by CopyBlock.
  for (std::size_t bid = 0; bid < dir_cap_; ++bid) {
    fresh[bid].shared = fresh[bid].items != nullptr ? 1 : 0;
  }
  dir_.store(fresh, std::memory_order_release);
  frozen_dir_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return dir_cap_;
}

void ItemPool::ReleaseFrozenDirectory(const BlockRef* frozen,
                                      std::size_t cap) {
  frozen_dir_bytes_.fetch_sub(cap * sizeof(BlockRef),
                              std::memory_order_relaxed);
  ::operator delete(const_cast<BlockRef*>(frozen));
}

template <typename Fn>
void ItemPool::ForEachSlabChildSlot(BlockHdr* hdr, Fn&& fn) {
  const std::uint32_t n = hdr->node;
  char* items = reinterpret_cast<char*>(hdr) + kHdrBytes;
  const std::size_t slots_off = ItemSlotsOffset(num_atoms_[n]);
  std::size_t i = 0;
  while (i < kItemsPerBlock) {
    if (hdr->skip[i] != 0) {
      i += hdr->skip[i];
      continue;
    }
    char* it = items + i * slot_size_[n];
    auto* slots = reinterpret_cast<ChildSlot*>(it + slots_off);
    for (std::size_t c = 0; c < num_children_[n]; ++c) fn(slots[c]);
    if (reinterpret_cast<Item*>(it)->run_len != 0) {
      auto* run = reinterpret_cast<ChildSlot*>(it + run_slots_[n].offset);
      for (std::size_t c = 0; c < run_slots_[n].count; ++c) fn(run[c]);
    }
    ++i;
  }
}

void ItemPool::CopyBlock(BlockRef& r) {
  BlockHdr* old_hdr = HdrOf(r);
  if (old_hdr->occupied == 0) {
    // Nothing in an empty block is reachable from a version.
    r.shared = 0;
    return;
  }
  const std::size_t bytes = SlabBytes(r.pitch);
  char* old_slab = r.items - kHdrBytes;
  DYNCQ_ALLOC_FAILPOINT();
  char* slab = static_cast<char*>(::operator new(bytes));
  std::memcpy(slab, old_slab, bytes);
  // The byte copy aliases every heap table of the old slab; give the
  // copy its own. On failure, destroy the copies made so far (the
  // tables not yet unshared still belong to the old slab) and leave
  // the entry untouched.
  auto* hdr = reinterpret_cast<BlockHdr*>(slab);
  std::size_t unshared = 0;
  try {
    ForEachSlabChildSlot(hdr, [&](ChildSlot& cs) {
      cs.index.UnshareHeap();
      ++unshared;
    });
    util::MutexLock lock(&retire_mu_);
    retired_.push_back(RetiredSlab{cow_epoch_, old_slab});
    has_retired_.store(true, std::memory_order_relaxed);
  } catch (...) {
    ForEachSlabChildSlot(hdr, [&](ChildSlot& cs) {
      if (unshared == 0) return;
      --unshared;
      cs.~ChildSlot();
    });
    ::operator delete(slab);
    throw;
  }
  r.items = slab + kHdrBytes;
  r.shared = 0;
  ++cow_copied_;
  util::MutexLock lock(&dir_mu_);
  slab_bytes_ += bytes;
}

void ItemPool::FreeRetiredSlab(char* slab) {
  auto* hdr = reinterpret_cast<BlockHdr*>(slab);
  ForEachSlabChildSlot(hdr, [](ChildSlot& cs) { cs.~ChildSlot(); });
  const std::size_t bytes = SlabBytes(slot_size_[hdr->node]);
  ::operator delete(slab);
  util::MutexLock lock(&dir_mu_);
  slab_bytes_ -= bytes;
}

std::uint32_t ItemPool::AcquireBlock(std::uint32_t n) {
  const std::uint32_t bid = TakeBlock(n);
  // (Re)initialize for node n: one all-free run covering the block.
  // Outside dir_mu_: linking may copy the old partial head.
  const BlockRef& r = RefOf(bid);
  BlockHdr* hdr = HdrOf(r);
  hdr->node = n;
  hdr->occupied = 0;
  std::memset(hdr->skip, 0, sizeof(hdr->skip));
  hdr->skip[0] = static_cast<std::uint8_t>(kItemsPerBlock);
  hdr->skip[kItemsPerBlock - 1] = static_cast<std::uint8_t>(kItemsPerBlock);
  hdr->free_run_head = 0;
  FreeRun* run = RunAt(r, 0);
  run->next = -1;
  run->prev = -1;
  hdr->in_partial = 0;
  LinkPartial(n, bid);
  return bid;
}

std::uint32_t ItemPool::TakeBlock(std::uint32_t n) {
  util::MutexLock lock(&dir_mu_);
  std::vector<std::uint32_t>& reuse = reuse_[reuse_key_[n]];
  std::uint32_t bid = 0;
  if (!reuse.empty()) {
    bid = reuse.back();
    reuse.pop_back();
    // Repurpose for a node of the same slot size: the pitch stays, the
    // slot generations are preserved (monotonic for the slab's
    // lifetime). An emptied block holds nothing a version reads, so it
    // is private.
    BlockRef& e = dir_.load(std::memory_order_relaxed)[bid];
    DYNCQ_DCHECK(e.pitch == slot_size_[n]);
    e.shared = 0;
  } else {
    DYNCQ_ALLOC_FAILPOINT();
    const std::uint32_t want =
        free_ids_.empty() ? next_bid_.load(std::memory_order_relaxed)
                          : free_ids_.back();
    DYNCQ_CHECK_MSG(want < (1u << 26), "ItemPool block ids exhausted");
    GrowDirectory(want);
    const std::size_t bytes = SlabBytes(slot_size_[n]);
    static_assert(alignof(Item) <= alignof(std::max_align_t),
                  "pool relies on default-aligned operator new");
    char* slab = static_cast<char*>(::operator new(bytes));
    // Commit point: nothing before this mutated pool state beyond the
    // directory capacity (idempotent), so an injected allocation
    // failure leaves the pool intact.
    if (!free_ids_.empty()) {
      bid = free_ids_.back();
      free_ids_.pop_back();
    } else {
      bid = next_bid_.load(std::memory_order_relaxed);
      next_bid_.store(bid + 1, std::memory_order_release);
    }
    slab_bytes_ += bytes;
    BlockHdr* hdr = new (slab) BlockHdr();
    hdr->id = bid;
    BlockRef& e = dir_.load(std::memory_order_relaxed)[bid];
    e.pitch = static_cast<std::uint32_t>(slot_size_[n]);
    e.shared = 0;
    e.items = slab + kHdrBytes;
  }
  return bid;
}

void ItemPool::ReleaseBlock(std::uint32_t bid) {
  util::MutexLock lock(&dir_mu_);
  BlockRef* dir = dir_.load(std::memory_order_relaxed);
  BlockHdr* hdr = HdrOf(dir[bid]);
  DYNCQ_DCHECK(hdr->occupied == 0);
  // An empty block holds nothing a forked version reads (shared blocks
  // are never mutated in place, so the version saw it empty too): it
  // may go back to the reuse pool without a copy.
  dir[bid].shared = 0;
  std::vector<std::uint32_t>& reuse = reuse_[reuse_key_[hdr->node]];
  hdr->node = kNoNode;
  if (reuse.size() < kMaxReusePerSize) {
    reuse.push_back(bid);
    return;
  }
  // Past the per-size cap: the slab goes back to the OS and the id
  // becomes reusable. The directory entry is tombstoned — no live
  // handle names this block (it was empty), so nothing resolves here.
  slab_bytes_ -= SlabBytes(dir[bid].pitch);
  ++released_blocks_;
  char* slab = dir[bid].items - kHdrBytes;
  dir[bid] = BlockRef();
  free_ids_.push_back(bid);
  ::operator delete(slab);
}

void ItemPool::LinkPartial(std::uint32_t n, std::uint32_t bid) {
  if (partial_head_[n] != 0) {
    HdrOf(MutRef(partial_head_[n]))->prev_partial = bid;
  }
  BlockHdr* hdr = HdrOf(MutRef(bid));
  DYNCQ_DCHECK(hdr->in_partial == 0);
  hdr->next_partial = partial_head_[n];
  hdr->prev_partial = 0;
  partial_head_[n] = bid;
  hdr->in_partial = 1;
}

void ItemPool::UnlinkPartial(std::uint32_t n, std::uint32_t bid) {
  BlockHdr* hdr = HdrOf(MutRef(bid));
  DYNCQ_DCHECK(hdr->in_partial == 1);
  // A neighbor is a different block, so copying it leaves hdr valid.
  if (hdr->prev_partial != 0) {
    HdrOf(MutRef(hdr->prev_partial))->next_partial = hdr->next_partial;
  } else {
    partial_head_[n] = hdr->next_partial;
  }
  if (hdr->next_partial != 0) {
    HdrOf(MutRef(hdr->next_partial))->prev_partial = hdr->prev_partial;
  }
  hdr->next_partial = 0;
  hdr->prev_partial = 0;
  hdr->in_partial = 0;
}

std::uint32_t ItemPool::PopSlot(const BlockRef& r, BlockHdr* hdr) {
  const std::int32_t s = hdr->free_run_head;
  DYNCQ_DCHECK(s >= 0);
  std::uint8_t* skip = hdr->skip;
  const unsigned len = skip[s];
  const std::int32_t nxt = RunAt(r, s)->next;
  if (len > 1) {
    // The run survives, shrunk by its head slot: its list node moves.
    FreeRun* moved = RunAt(r, s + 1);
    moved->next = nxt;
    moved->prev = -1;
    if (nxt >= 0) RunAt(r, nxt)->prev = s + 1;
    hdr->free_run_head = s + 1;
    skip[s + 1] = static_cast<std::uint8_t>(len - 1);
    skip[s + len - 1] = static_cast<std::uint8_t>(len - 1);
  } else {
    hdr->free_run_head = nxt;
    if (nxt >= 0) RunAt(r, nxt)->prev = -1;
  }
  skip[s] = 0;
  ++hdr->occupied;
  return static_cast<std::uint32_t>(s);
}

void ItemPool::EraseSlot(const BlockRef& r, BlockHdr* hdr,
                         std::uint32_t i) {
  std::uint8_t* skip = hdr->skip;
  DYNCQ_DCHECK(skip[i] == 0);
  // A non-zero left neighbor is necessarily the END of an erased run
  // (slot i was occupied, so the run cannot continue through it); a
  // non-zero right neighbor is necessarily a run START. Both entries
  // hold their run's length; the sentinel skip[kItemsPerBlock] == 0
  // covers i at the block edge.
  const unsigned left = (i > 0) ? skip[i - 1] : 0;
  const unsigned right = skip[i + 1];
  const auto si = static_cast<std::int32_t>(i);
  if (left != 0 && right != 0) {
    // Bridge two runs into one; the right run's list node disappears.
    FreeRun* victim = RunAt(r, si + 1);
    if (victim->prev >= 0) {
      RunAt(r, victim->prev)->next = victim->next;
    } else {
      hdr->free_run_head = victim->next;
    }
    if (victim->next >= 0) RunAt(r, victim->next)->prev = victim->prev;
    const std::uint32_t s = i - left;
    const unsigned len = left + 1 + right;
    skip[s] = static_cast<std::uint8_t>(len);
    skip[s + len - 1] = static_cast<std::uint8_t>(len);
  } else if (left != 0) {
    // Extend the left run; its start (and list node) stays put.
    const std::uint32_t s = i - left;
    const unsigned len = left + 1;
    skip[s] = static_cast<std::uint8_t>(len);
    skip[i] = static_cast<std::uint8_t>(len);
  } else if (right != 0) {
    // Extend the right run downward; its start (and node) moves to i.
    FreeRun* old = RunAt(r, si + 1);
    FreeRun* moved = RunAt(r, si);
    moved->next = old->next;
    moved->prev = old->prev;
    if (old->prev >= 0) {
      RunAt(r, old->prev)->next = si;
    } else {
      hdr->free_run_head = si;
    }
    if (old->next >= 0) RunAt(r, old->next)->prev = si;
    const unsigned len = right + 1;
    skip[i] = static_cast<std::uint8_t>(len);
    skip[i + right] = static_cast<std::uint8_t>(len);
  } else {
    // Fresh singleton run.
    skip[i] = 1;
    FreeRun* node = RunAt(r, si);
    node->next = hdr->free_run_head;
    node->prev = -1;
    if (hdr->free_run_head >= 0) RunAt(r, hdr->free_run_head)->prev = si;
    hdr->free_run_head = si;
  }
  --hdr->occupied;
}

Item* ItemPool::Alloc(std::uint32_t n) {
  DYNCQ_DCHECK(n < slot_size_.size());
  std::uint32_t bid = partial_head_[n];
  if (bid == 0) bid = AcquireBlock(n);
  const BlockRef& r = MutRef(bid);
  BlockHdr* hdr = HdrOf(r);
  const std::uint32_t slot = PopSlot(r, hdr);
  if (hdr->free_run_head < 0) UnlinkPartial(n, bid);  // block now full
  char* base = r.items + std::size_t{slot} * r.pitch;
  std::memset(base, 0, r.pitch);
  Item* it = new (base) Item();
  it->node = n;
  const std::uint32_t idx = (bid << ItemHandle::kSlotBits) | slot;
#if DYNCQ_CHECKED_HANDLES
  it->self = ItemHandle(idx, hdr->gens[slot]);
#else
  it->self = ItemHandle(idx);
#endif
  ChildSlot* slots = ItemSlots(it, num_atoms_[n]);
  for (std::size_t c = 0; c < num_children_[n]; ++c) {
    new (slots + c) ChildSlot();
  }
  ++live_;
  return it;
}

void ItemPool::DestroyChildSlots(Item* it) {
  // Child slots own their child index's heap table; an item is only
  // freed once all children are gone, so the indexes are empty but may
  // still hold a grown table.
  const std::uint32_t n = it->node;
  ChildSlot* slots = ItemSlots(it, num_atoms_[n]);
  for (std::size_t c = 0; c < num_children_[n]; ++c) {
    slots[c].~ChildSlot();
  }
}

void ItemPool::Free(Item* it) {
  const ItemHandle h = it->self;
  DYNCQ_DCHECK(static_cast<bool>(h));
  const std::uint32_t idx = h.idx();
  const std::uint32_t bid = idx >> ItemHandle::kSlotBits;
  const std::uint32_t slot = idx & ItemHandle::kSlotMask;
  const BlockRef& r = MutRef(bid);
  BlockHdr* hdr = HdrOf(r);
#if DYNCQ_CHECKED_HANDLES
  DYNCQ_CHECK_MSG(hdr->gens[slot] == h.gen(),
                  "stale ItemHandle dereference (double free: the slot "
                  "generation already moved on)");
#endif
  // Callers resolve `it` mutably, so its block is already private.
  DYNCQ_DCHECK(it == reinterpret_cast<Item*>(
                         r.items + std::size_t{slot} * r.pitch));
  DestroyChildSlots(it);
  it->~Item();
  ++hdr->gens[slot];
  --live_;
  const bool was_full = hdr->free_run_head < 0;
  EraseSlot(r, hdr, slot);
  const std::uint32_t n = hdr->node;
  if (was_full) {
    // This block re-enters the partial list as its new head. An emptied
    // block is only kept resident WHILE it is the head (the hot block at
    // the alloc/free boundary); being displaced ends its grace period,
    // else a FIFO drain would leave every drained block parked in the
    // list forever.
    const std::uint32_t old_head = partial_head_[n];
    LinkPartial(n, bid);
    if (old_head != 0 && HdrOf(RefOf(old_head))->occupied == 0) {
      UnlinkPartial(n, old_head);
      ReleaseBlock(old_head);
    }
  }
  if (hdr->occupied == 0 && partial_head_[n] != bid) {
    // Keep the partial head resident as the node's hot block — alloc/free
    // ping-pong at the empty boundary must not thrash the reuse pool —
    // and park every other emptied block.
    UnlinkPartial(n, bid);
    ReleaseBlock(bid);
  }
}

std::uint16_t ItemPool::GenerationOf(std::uint32_t idx) const {
  const BlockRef& r = RefOf(idx >> ItemHandle::kSlotBits);
  return HdrOf(r)->gens[idx & ItemHandle::kSlotMask];
}

Item* ItemPool::ResolveCheckedAt(std::uint32_t idx, std::uint16_t gen) {
  const BlockRef& r = MutRef(idx >> ItemHandle::kSlotBits);
  const std::uint32_t slot = idx & ItemHandle::kSlotMask;
  DYNCQ_CHECK_MSG(HdrOf(r)->gens[slot] == gen,
                  "stale ItemHandle dereference (slot generation "
                  "changed: the item was freed or retired)");
  return reinterpret_cast<Item*>(r.items + std::size_t{slot} * r.pitch);
}

void ItemPool::ReclaimThrough(std::uint64_t watermark) {
  // Collect under the retire mutex, free outside it: freeing takes
  // dir_mu_ for the byte count, and the two are never nested.
  std::vector<char*> ready;
  {
    util::MutexLock lock(&retire_mu_);
    ready.reserve(retired_.size());
    std::size_t kept = 0;
    for (RetiredSlab& rs : retired_) {
      if (rs.epoch > watermark) {
        retired_[kept++] = rs;
      } else {
        ready.push_back(rs.slab);
      }
    }
    retired_.resize(kept);
    if (kept == 0) has_retired_.store(false, std::memory_order_relaxed);
  }
  for (char* slab : ready) FreeRetiredSlab(slab);
}

std::size_t ItemPool::retired_blocks(std::uint64_t watermark) const {
  util::MutexLock lock(&retire_mu_);
  std::size_t n = 0;
  for (const RetiredSlab& rs : retired_) n += rs.epoch <= watermark ? 1 : 0;
  return n;
}

ItemPool::Stats ItemPool::GetStats() const {
  util::MutexLock lock(&dir_mu_);
  Stats s;
  s.slab_bytes = slab_bytes_;
  s.released_blocks = released_blocks_;
  s.dir_bytes = dir_cap_ * sizeof(BlockRef) +
                frozen_dir_bytes_.load(std::memory_order_relaxed);
  s.cow_copied_blocks = cow_copied_;
  for (const auto& ids : reuse_) s.reusable_blocks += ids.size();
  const BlockRef* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t end = next_bid_.load(std::memory_order_relaxed);
  for (std::uint32_t bid = 1; bid < end; ++bid) {
    if (dir[bid].items == nullptr) continue;
    const BlockHdr* hdr = HdrOf(dir[bid]);
    if (hdr->node == kNoNode) continue;
    ++s.active_blocks;
    s.occupied_slots += hdr->occupied;
  }
  return s;
}

}  // namespace dyncq::core
