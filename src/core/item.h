// Items: the nodes of the paper's dynamic data structure (§6.2).
//
// An item i = [v, α, a] is identified by a q-tree node v and the values
// (α, a) assigned along the root path. It stores:
//  * per tracked atom ψ ∈ atoms(v): the count C^i_ψ of expansions of
//    (α a/v) to vars(ψ) satisfied by the database (§6.4) — an item exists
//    iff some C^i_ψ > 0;
//  * the weight C^i (Lemma 6.3) and projected weight C̃^i (Lemma 6.4);
//  * per child u of v: the doubly linked fit-list L^i_u of child items
//    with running sums C^i_u and C̃^i_u (eq. 11), plus the parent-scoped
//    child index mapping a child value b to the child item [u, α a, b]
//    (core/child_index.h) — the structure the update procedure descends;
//  * intrusive prev/next links for its own membership in the parent's
//    fit-list (an item is in the list iff it is "fit", i.e. C^i > 0).
//
// Items live in the hive ItemPool (core/item_pool.h) and name each other
// by ItemHandle (core/handle.h), never by pointer: the header links
// (parent, fit-list prev/next) and every external reference are handles
// resolved through the pool's flat block directory. `self` is the item's
// own handle, stamped at allocation, so code holding a resolved Item*
// can store its name without a reverse lookup.
//
// Items are allocated as a single block: the Item header followed by the
// atom-count array and the ChildSlot array (sizes fixed per q-tree node).
#ifndef DYNCQ_CORE_ITEM_H_
#define DYNCQ_CORE_ITEM_H_

#include <cstddef>
#include <cstdint>

#include "core/child_index.h"
#include "core/handle.h"
#include "util/types.h"

namespace dyncq::core {

struct Item;

/// Shared by the item-block and run-record layout computations (the pool
/// and the engine derive the same layout independently and cross-check).
constexpr std::size_t AlignUp(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

/// Per-child fit-list head/tail, running sums over list members, and the
/// index of ALL child items (fit or not) keyed by their value. The index
/// leads the struct so the top-down walk's first touch of a slot lands on
/// the inline entries' cache line.
///
/// head/tail are 64-bit name fields with two modes, exactly one of which
/// a slot ever uses:
///  * regular child lists: ItemHandle bits of the list head/tail
///    (ItemHandle::FromBits / bits(); 0 = empty list);
///  * strided-leaf slots (leaf nodes tracking k > 1 atoms, inlined as
///    count records in this index): the head/tail record KEYS of the
///    intrusive fit-list links kept inside the records themselves — no
///    leaf Items exist, so there is nothing to name by handle.
struct ChildSlot {
  ChildIndex index;          // value b -> child item [u, α a, b]
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  Weight sum = 0;            // C^i_u  = Σ_{i' ∈ L^i_u} C^{i'}
  Weight sum_free = 0;       // C̃^i_u = Σ_{i' ∈ L^i_u} C̃^{i'}
};

struct Item {
  ItemHandle self;    // this item's own pool name (set by ItemPool::Alloc)
  ItemHandle parent;  // parent item ([v,α,a] -> [v',α',a'] one level up)
  ItemHandle prev;    // intrusive links within the parent's fit-list
  ItemHandle next;
  bool in_list = false;

  // Path compression (fanout-1 q-tree nodes): 1 while this item absorbs
  // its single child item into its own block's run record — the child's
  // value, counts, weights, and child slots live at a fixed offset behind
  // this item's own slots, and no child Item is allocated. 0 otherwise.
  // See ComponentEngine's run-record helpers for the split/merge rules.
  std::uint8_t run_len = 0;

  // 1 iff the item sits in the engine's phase-B dirty list (set by
  // MarkDirty, cleared as FlushDirty flushes the item), so 0 between
  // batches.
  std::uint8_t dirty = 0;

  std::uint32_t node = 0;  // q-tree node index
  Value value = 0;         // own constant a

  Weight weight = 0;       // C^i   (Lemma 6.3); fit iff weight > 0
  Weight weight_free = 0;  // C̃^i  (Lemma 6.4); only used for free nodes

  // The trailing arrays (atom counts, then child slots) are NOT pointed
  // to from the header: their offsets are deterministic per q-tree node
  // (see ItemCountsOffset / ItemSlotsOffset below), which keeps the
  // header compact and the update walk free of pointer loads.
};

// Release layout: the header is exactly 64 bytes, with the weights in
// its last 32. Checked builds widen the four handles
// (80 B). A field that grows the header, a ChildSlot or a ChildIndex
// grows every item slot, so the sizes are pinned here.
#if !DYNCQ_CHECKED_HANDLES
static_assert(sizeof(Item) == 64);
static_assert(offsetof(Item, weight_free) + sizeof(Weight) == 64);
#endif
static_assert(sizeof(ChildIndex) == 80);
static_assert(sizeof(ChildSlot) == 128);

/// Block layout: [Item header][atom counts][child slots]. The layout is
/// deterministic per q-tree node, so the update walk computes trailing
/// array addresses instead of loading the header pointers — one fewer
/// dependent cache access per level. The counts start right behind the
/// header: at byte 64 in Release, i.e. on the line after the header's,
/// and on weight_free's line in checked builds.
constexpr std::size_t ItemCountsOffset() {
  return (sizeof(Item) + alignof(std::uint64_t) - 1) /
         alignof(std::uint64_t) * alignof(std::uint64_t);
}

/// Byte offset of the ChildSlot array for a node tracking `num_atoms`.
constexpr std::size_t ItemSlotsOffset(std::size_t num_atoms) {
  std::size_t off =
      ItemCountsOffset() + num_atoms * sizeof(std::uint64_t);
  return (off + alignof(ChildSlot) - 1) / alignof(ChildSlot) *
         alignof(ChildSlot);
}

/// The atom-count array of `it`.
inline std::uint64_t* ItemCounts(Item* it) {
  return reinterpret_cast<std::uint64_t*>(reinterpret_cast<char*>(it) +
                                          ItemCountsOffset());
}
inline const std::uint64_t* ItemCounts(const Item* it) {
  return reinterpret_cast<const std::uint64_t*>(
      reinterpret_cast<const char*>(it) + ItemCountsOffset());
}

/// The ChildSlot array of `it`, whose node tracks `num_atoms` atoms.
inline ChildSlot* ItemSlots(Item* it, std::size_t num_atoms) {
  return reinterpret_cast<ChildSlot*>(reinterpret_cast<char*>(it) +
                                      ItemSlotsOffset(num_atoms));
}
inline const ChildSlot* ItemSlots(const Item* it, std::size_t num_atoms) {
  return reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + ItemSlotsOffset(num_atoms));
}

/// Handle views of a regular (non-strided-leaf) slot's list anchors.
inline ItemHandle SlotHead(const ChildSlot& slot) {
  return ItemHandle::FromBits(slot.head);
}
inline ItemHandle SlotTail(const ChildSlot& slot) {
  return ItemHandle::FromBits(slot.tail);
}

// The fit-list splice helpers (ListPushBack / ListRemove) live in
// core/item_pool.h: they chase prev/next handles, so they need the pool
// to resolve them.

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_ITEM_H_
