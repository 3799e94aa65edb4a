// Dynamic q-tree data structure for one connected q-hierarchical CQ
// (paper §6.2 data structure, §6.4 update procedure, §6.5 counting).
//
// The top-level core::Engine splits a query into connected components and
// owns one ComponentEngine per component; ϕ(D) is the cross product of
// the component results (paper §6, opening remarks).
//
// Items are located by descending parent-scoped child indexes: the
// engine holds one root index (value of the root variable -> root item)
// and every item holds, per child q-tree node, an index of its child
// items keyed by a single Value (core/child_index.h). The §6.4 update
// walk therefore probes one single-word key per level — no root-path
// prefix is ever materialized or re-hashed on the hot path.
#ifndef DYNCQ_CORE_COMPONENT_ENGINE_H_
#define DYNCQ_CORE_COMPONENT_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/child_index.h"
#include "core/item.h"
#include "core/item_pool.h"
#include "cq/qtree.h"
#include "cq/query.h"
#include "storage/tuple.h"
#include "util/rel_map.h"
#include "util/small_vector.h"

namespace dyncq::core {

/// One effective (post set-semantics dedup) base-table change inside a
/// batch. Tuples are borrowed from the caller's UpdateCmd storage.
struct PendingDelta {
  RelId rel = kInvalidRel;
  const Tuple* tuple = nullptr;
  bool insert = true;
};

/// Captured per-component state of a pinned snapshot version (the core
/// engine's snapshot payload). A pin records, in O(1), the root
/// fit-list anchors and sums plus the pool's live block directory;
/// pinned cursors resolve every handle through that directory. The
/// first post-pin write forks: the version keeps the directory and the
/// writer copies each shared block before mutating it (ItemPool, "copy-
/// on-write snapshot versions"), so the version's items never change.
struct ComponentSnapshot {
  ItemHandle root_head;  // root fit-list anchors at pin time
  ItemHandle root_tail;
  Weight sum = 0;       // Cstart at pin time (Boolean answer gate)
  Weight sum_free = 0;  // C̃start at pin time
  const ItemPool::BlockRef* dir = nullptr;  // directory at pin time
  std::size_t dir_cap = 0;  // non-zero once forked: the version owns dir
};

class ComponentEngine {
 public:
  /// `query` must be connected and q-hierarchical; `tree` its q-tree.
  ComponentEngine(Query query, QTree tree);

  ComponentEngine(const ComponentEngine&) = delete;
  ComponentEngine& operator=(const ComponentEngine&) = delete;

  /// Frees every live item: the pool releases raw chunks only, and child
  /// slots own their (possibly heap-grown) index tables.
  ~ComponentEngine();

  const Query& query() const { return query_; }
  const QTree& tree() const { return tree_; }

  /// §6.4 update procedure for `n` effective deltas (changes that passed
  /// set-semantics deduplication: the tuple was truly added / removed).
  /// The one update path: a single-tuple update is a batch of one.
  /// Deltas for foreign relations (no atom in this component) are
  /// skipped. Phase A walks each delta top-down, sharing the descent of
  /// the common prefix with the previous delta of the same atom, and
  /// adjusts only tracked counts; phase B then fixes every touched item's
  /// weight, fit-list membership and parent running sums once, bottom-up.
  void ApplyBatch(const PendingDelta* deltas, std::size_t n);

  /// Pre-sizes the root index for `n` distinct root values (bulk load).
  void ReserveRoot(std::size_t n) { root_index_.Reserve(n); }

  /// Hints the root-index bucket lines a delta for (rel, t) will probe —
  /// a pure hint, never a blocking load. The engine issues this before
  /// the database's relation-set probe so the bucket fetch overlaps that
  /// hash work.
  void PrefetchDelta(RelId rel, const Tuple& t) const {
    for (int ai : atoms_of_rel_[rel]) {
      const AtomMeta& am = atom_meta_[static_cast<std::size_t>(ai)];
      root_index_.Prefetch(t[static_cast<std::size_t>(am.read_pos[0])]);
    }
  }

  /// Cstart: Σ over fit root items of C^i (eq. 11).
  Weight CStart() const { return root_slot_.sum; }
  /// C̃start: Σ over fit root items of C̃^i (§6.5).
  Weight CTildeStart() const { return root_slot_.sum_free; }

  /// |ϕ(D)| for this component: C̃start for non-Boolean components,
  /// 1/0 for Boolean ones.
  Weight Count() const {
    if (!query_.head().empty()) return root_slot_.sum_free;
    return root_slot_.sum > 0 ? Weight{1} : Weight{0};
  }

  bool Answer() const { return root_slot_.sum > 0; }

  const ChildSlot& root_slot() const { return root_slot_; }

  /// The component's item pool: cursors and tests resolve the handles
  /// the structure stores (fit links, index payloads) through it.
  const ItemPool& pool() const { return pool_; }

  /// Child slot `u` of `it` (inspection hook — the slot array's offset
  /// depends on the item's q-tree node).
  const ChildSlot& item_child_slot(const Item* it, int u) const {
    return *(reinterpret_cast<const ChildSlot*>(
                 reinterpret_cast<const char*>(it) +
                 node_meta_[it->node].slots_off) +
             u);
  }

  /// Document-order traversal metadata for Algorithm 1 over the subtree
  /// T' induced by the free variables.
  struct EnumMeta {
    std::vector<int> nodes;           // q-tree node per doc position
    std::vector<int> parent_pos;      // doc position of parent (-1 = root)
    std::vector<int> slot_in_parent;  // child-slot index within parent item
    std::vector<int> head_doc_pos;    // head position -> doc position
    // 0: regular item position (advanced along the parent's fit list);
    // 1: unit-leaf position (stride-1 presence records, table scan —
    //    every present record is fit);
    // 2: strided-leaf position (stride-(k+2) count records, advanced
    //    along the intrusive fit links — constant delay even when unfit
    //    partial records dominate the table).
    std::vector<char> leaf_kind;
    std::vector<int> leaf_stride;     // payload words (kind 2 positions)
    std::vector<std::size_t> slot_off;  // byte offset of this position's
                                        // ChildSlot in the parent block
    // Path compression: a kind-0 position whose parent q-tree node is
    // fanout-1 may find its item absorbed into the parent item's run
    // record instead of listed. The cursor then holds a tagged pointer
    // to the record (bit 0 set; records are 16-aligned).
    std::vector<char> absorbable;            // this position's node
    std::vector<std::size_t> parent_rec_off; // record offset in the
                                             // parent item's block
    std::vector<std::size_t> rec_slot_off;   // this position's ChildSlot
                                             // offset from the RECORD
                                             // base (parent absorbable)
  };
  const EnumMeta& enum_meta() const { return enum_meta_; }

  /// Byte offset of the absorbed child's value within a run record.
  /// Layout (record base is 16-aligned): [weight 16B][weight_free 16B]
  /// [value 8B][counts k*8B][pad][child slots].
  static constexpr std::size_t kRunValueOff = 2 * sizeof(Weight);

  /// Number of items currently stored (linear in ||D|| by §6.2).
  std::size_t NumItems() const { return pool_.live_items(); }

  /// Figure 3-style dump of the whole structure (weights, lists).
  void Dump(std::ostream& os) const;

  /// Internal invariant check (test hook): walks the child indexes,
  /// recomputes every weight and running sum from scratch, verifies list
  /// membership iff fit, index/parent back-pointers, and that the index
  /// reaches exactly the pool's live items.
  void CheckInvariants() const;

  // ---- Epoch-pinned snapshot fork support (single writer; see
  // docs/ARCHITECTURE.md "Snapshot cursors"). ----

  /// O(1) pin-time capture: root fit-list anchors, sums and the live
  /// block directory.
  void CaptureSnapshot(ComponentSnapshot* out) const;

  /// Forks the version off (writer thread, before the write mutates
  /// anything): one pool call that hands `snap` its directory. No-op if
  /// `snap` is already forked, so a fork that threw part-way across
  /// components resumes on retry.
  void ForkSnapshot(ComponentSnapshot* snap) {
    if (snap->dir_cap == 0) snap->dir_cap = pool_.Fork(snap->dir);
  }

  /// Frees a dead version's directory, if it was forked. Any thread.
  void ReleaseSnapshot(ComponentSnapshot* snap) {
    if (snap->dir_cap != 0) {
      pool_.ReleaseFrozenDirectory(snap->dir, snap->dir_cap);
    }
    snap->dir = nullptr;
    snap->dir_cap = 0;
  }

  /// Copy-on-write switch for this write (see ItemPool::SetCopyOnWrite).
  void SetCopyOnWrite(bool on, std::uint64_t epoch) {
    pool_.SetCopyOnWrite(on, epoch);
  }

  /// Frees slabs copied away at epochs <= `watermark` (writer thread
  /// only).
  void ReclaimRetired(std::uint64_t watermark) {
    pool_.ReclaimThrough(watermark);
  }

  bool has_retired() const { return pool_.has_retired(); }
  std::size_t retired_blocks(std::uint64_t watermark) const {
    return pool_.retired_blocks(watermark);
  }

 private:
  struct NodeMeta {
    std::vector<int> rep_slots;        // atom_counts slots of rep atoms
    std::vector<int> free_child_slots; // child slots with free child node
    // Distinct item-relative 64-byte lines holding the fields phases A
    // and B read (header, tracked counts, child-slot running sums),
    // derived from the field offsets. The descent prefetches these as
    // soon as the item pointer is known so the bottom-up pass never
    // stalls on them.
    std::vector<std::size_t> touch_offsets;
    // Deterministic block offsets: this node's ChildSlot array, and the
    // position of this node's slot within its PARENT's block.
    std::size_t slots_off = 0;
    std::size_t parent_slot_off = 0;
    int num_children = 0;
    int num_tracked = 0;
    bool is_free = false;
    // Inlined leaf: the tracked counts of this node's items are all 0/1
    // (a leaf atom's variables are fully determined by the root path),
    // so the "items" of this node are stored as records in the parent's
    // child index — no Item block, no extra cache line on the update
    // walk. leaf_stride is the record payload width: 1 for a single-atom
    // leaf (bare presence, PR 1 behavior), num_tracked + 2 for k > 1
    // (one count word per atom plus prev/next fit-list link keys).
    bool unit_leaf = false;
    int leaf_stride = 0;
    int slot_in_parent = -1;
    // Path compression. On the head side: items of this node may absorb
    // their single child (absorb_child_node = the child's q-tree node,
    // -1 otherwise) into the run record at run_rec_off. On the absorbed
    // side: absorbable marks the node whose items may be represented as
    // a record; run_counts_off / run_slots_off locate its arrays within
    // the record, and run_rec_size is the record's full byte size.
    int absorb_child_node = -1;
    std::size_t run_rec_off = 0;
    bool absorbable = false;
    std::size_t run_counts_off = 0;
    std::size_t run_slots_off = 0;
    std::size_t run_rec_size = 0;
    // Child slots holding strided-leaf tables: (slot index, payload
    // stride) pairs AllocItem configures right after pool allocation.
    std::vector<std::pair<int, int>> leaf_slot_strides;
  };

  struct AtomMeta {
    RelId rel = kInvalidRel;
    int rel_group = -1;              // dense index of rel in atoms_of_rel_
    int d = 0;                       // path length
    std::vector<int> level_node;     // q-tree node per level
    std::vector<int> level_slot;     // atom_counts slot per level
    std::vector<int> read_pos;       // arg position giving the level value
    std::vector<int> level_parent_slot;  // child slot within parent item
    // Precomputed block offsets (the item layout is fixed per node):
    // byte offset of this atom's tracked count within a level-j item, and
    // of the ChildSlot inside the level-(j-1) item that reaches level j.
    std::vector<std::size_t> level_count_off;
    std::vector<std::size_t> level_slot_off;
    std::vector<std::pair<int, int>> eq_checks;       // args equal pairs
    std::vector<std::pair<int, Value>> const_checks;  // constant args
    // The atom ends in an inlined-leaf node below the root: the last
    // level is a record in the level-(d-2) item's child index.
    bool leaf_inline = false;
    bool leaf_free = false;  // the inlined leaf is a free node
    // The last materialized level of this walk is an absorbable node:
    // the level-(nd-1) item may carry it as a run record instead of a
    // child item.
    bool tail_absorb = false;
    // Levels that are always materialized items: d, less an inlined leaf
    // and an absorbable tail.
    std::size_t nd = 0;
    // With tail_absorb && leaf_inline: the leaf ChildSlot's offset from
    // the run-record base (used when the leaf's parent is absorbed).
    std::size_t run_leaf_slot_off = 0;
  };

  /// An item phase A touched, with its pre-batch weights (the values the
  /// parent's running sums still reflect until phase B fixes it up). The
  /// node index is denormalized so phase B can prefetch an item's lines
  /// without first loading its header.
  struct DirtyItem {
    Item* item = nullptr;
    std::uint32_t node = 0;
    Weight pre_weight = 0;
    Weight pre_weight_free = 0;
  };

  void FreeSubtree(Item* it);
  bool MatchesAtom(const AtomMeta& am, const Tuple& t) const;
  void FlipLeafEntry(const AtomMeta& am, ChildSlot& slot, const Tuple& t,
                     bool insert);

  /// Pool allocation plus per-node slot configuration (strided-leaf
  /// tables get their record width set before first use).
  Item* AllocItem(std::uint32_t n);
  /// The find-or-create step of a descent: the item of q-tree node `n`
  /// with value `v` in `idx`, a child index of `parent` (the root index
  /// when `parent` is null). An insert creates a missing item; a delete
  /// must find it — set semantics makes an effective delete imply
  /// pre-batch presence.
  Item* LocateChild(ChildIndex& idx, Item* parent, int n, Value v,
                    bool insert);

  // ---- Path-compressed run records (fanout-1 nodes) -------------------
  // A head item `it` (node with absorb_child_node >= 0) with run_len == 1
  // carries its single child as a record at run_rec_off in its own block:
  // [weight][weight_free][value][counts][child slots]. The child slots
  // are live ChildSlot objects (constructed by CreateRun / moved by
  // MergeRun, destroyed by DestroyRunSlots); a run_len == 0 head keeps
  // the whole region zeroed.
  char* RunRecBase(Item* it) const {
    return reinterpret_cast<char*>(it) + node_meta_[it->node].run_rec_off;
  }
  const char* RunRecBase(const Item* it) const {
    return reinterpret_cast<const char*>(it) +
           node_meta_[it->node].run_rec_off;
  }
  /// Starts a fresh absorbed child with value `v` (zero counts/weights).
  void CreateRun(Item* head, Value v);
  /// Materializes the absorbed child as a real item in `head`'s child
  /// index (run record moves into the new block, fit list rebuilt from
  /// its weight). Called when a second child value appears.
  Item* SplitRun(Item* head);
  /// Absorbs the single remaining child item back into `head`'s record
  /// and frees it. Requires run_len == 0 and exactly one index entry,
  /// and the child's weights final (phase B flushes it before `head`).
  void MergeRun(Item* head);
  /// Recomputes the absorbed child's weights from its counts and slot
  /// sums and re-publishes them as head's child-slot running sums; drops
  /// the record entirely once all its counts reach zero. No-op when
  /// run_len == 0.
  void MaintainRun(Item* head);
  /// Destroys the record's ChildSlot objects and re-zeroes the region.
  void DestroyRunSlots(Item* head);
  /// Routes `deltas` into rel_groups_ (per-relation index lists).
  void RouteRelGroups(const PendingDelta* deltas, std::size_t n);
  /// Phase A over one atom's delta list.
  void BatchDescend(const AtomMeta& am,
                    const std::vector<const PendingDelta*>& deltas);
  /// Phase A for one delta: descends from the longest prefix `chain`
  /// shares with the previous delta of the same atom (`prev_key`).
  void BatchOneDelta(const AtomMeta& am, const PendingDelta& ad,
                     SmallVector<Item*, 8>& chain,
                     SmallVector<Value, 8>& prev_key);
  /// Phase B over dirty_, deepest level first; clears each flushed
  /// item's dirty flag. An eligible head whose
  /// child index dropped to one entry re-absorbs the survivor here: its
  /// children were all flushed at deeper levels before it.
  void FlushDirty();
  /// Phase A: records `it` in dirty_ once per batch (its dirty flag is
  /// set iff it is there).
  void MarkDirty(Item* it, std::size_t depth);
  void RecomputeWeights(Item* it, const NodeMeta& nm) const;
  /// All-positive test over a strided leaf record's k counts (fit).
  static bool LeafRecFit(const std::uint64_t* pay, int k) {
    for (int i = 0; i < k; ++i) {
      if (pay[i] == 0) return false;
    }
    return true;
  }
  void DumpItem(std::ostream& os, const Item* it, int indent) const;
  void DumpLeafSlot(std::ostream& os, const ChildSlot& slot, int child_node,
                    int indent) const;
  std::size_t CheckItemRec(const Item* it) const;
  void CheckLeafSlot(const ChildSlot& slot, const NodeMeta& lm) const;

  Query query_;
  QTree tree_;
  std::vector<NodeMeta> node_meta_;
  std::vector<AtomMeta> atom_meta_;
  // Routing tables keyed by the handful of relations this component's
  // atoms touch — sparse on purpose: the schema may be a huge shared
  // multi-query one (see util/rel_map.h).
  RelMap<std::vector<int>> atoms_of_rel_;  // rel -> atom idxs
  EnumMeta enum_meta_;
  ItemPool pool_;
  ChildIndex root_index_;  // root-variable value -> root item
  ChildSlot root_slot_;

  // Batch pipeline state (scratch, reused across batches).
  std::vector<const PendingDelta*> batch_scratch_;  // one atom's deltas
  // Indexed by atoms_of_rel_'s dense order (AtomMeta::rel_group).
  std::vector<std::vector<std::uint32_t>> rel_groups_;  // rel group -> deltas
  std::vector<std::vector<DirtyItem>> dirty_;  // per q-tree depth
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_COMPONENT_ENGINE_H_
