#include "core/component_engine.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace dyncq::core {

namespace {

std::vector<std::size_t> ChildrenCounts(const QTree& tree) {
  std::vector<std::size_t> out(tree.NumNodes());
  for (std::size_t n = 0; n < tree.NumNodes(); ++n) {
    out[n] = tree.node(static_cast<int>(n)).children.size();
  }
  return out;
}

std::vector<std::size_t> TrackedCounts(const QTree& tree) {
  std::vector<std::size_t> out(tree.NumNodes());
  for (std::size_t n = 0; n < tree.NumNodes(); ++n) {
    out[n] = tree.node(static_cast<int>(n)).tracked_atoms.size();
  }
  return out;
}

/// A leaf whose "items" are records in the parent's child index instead
/// of allocated blocks: every leaf below the root (root nodes stay
/// materialized: the root index and root fit list hold real items).
bool TreeInlinedLeaf(const QTree& tree, int n) {
  const QTreeNode& tn = tree.node(n);
  return tn.children.empty() && tn.parent >= 0;
}

/// Path-compression eligibility of node v: exactly one child u, u's
/// items exist (u is not an inlined leaf), and nothing below u is a
/// materialized item (u's children, if any, are all inlined leaves) —
/// so absorbing u into v's block never leaves an allocated item whose
/// parent pointer would have to reach into a run record.
int TreeAbsorbChild(const QTree& tree, int v) {
  const QTreeNode& tn = tree.node(v);
  if (tn.children.size() != 1) return -1;
  const int u = tn.children[0];
  if (TreeInlinedLeaf(tree, u)) return -1;
  for (int w : tree.node(u).children) {
    if (!TreeInlinedLeaf(tree, w)) return -1;
  }
  return u;
}

/// Byte offset of the absorbed child's ChildSlot array within the run
/// record, and the record's total size. Layout (base is 16-aligned):
/// [weight][weight_free][value][counts k*8][pad][slots].
std::size_t RunSlotsOffsetFor(std::size_t num_tracked) {
  return AlignUp(
      ComponentEngine::kRunValueOff + sizeof(Value) + num_tracked * 8,
      alignof(ChildSlot));
}
std::size_t RunRecSizeFor(std::size_t num_tracked,
                          std::size_t num_children) {
  return AlignUp(
      RunSlotsOffsetFor(num_tracked) + num_children * sizeof(ChildSlot),
      16);
}

/// Per-node extra block bytes for the run record of path-compressed
/// heads (0 for ineligible nodes). Mirrors the eligibility the node
/// metadata records; ItemPool appends the region 16-aligned.
std::vector<std::size_t> RunExtraBytes(const QTree& tree) {
  std::vector<std::size_t> out(tree.NumNodes(), 0);
  for (std::size_t v = 0; v < tree.NumNodes(); ++v) {
    const int u = TreeAbsorbChild(tree, static_cast<int>(v));
    if (u >= 0) {
      const QTreeNode& un = tree.node(u);
      out[v] = RunRecSizeFor(un.tracked_atoms.size(), un.children.size());
    }
  }
  return out;
}

/// All-zero test over a strided leaf record's k counts.
bool LeafRecEmpty(const std::uint64_t* pay, int k) {
  for (int i = 0; i < k; ++i) {
    if (pay[i] != 0) return false;
  }
  return true;
}

}  // namespace

ComponentEngine::ComponentEngine(Query query, QTree tree)
    : query_(std::move(query)),
      tree_(std::move(tree)),
      pool_(ChildrenCounts(tree_), TrackedCounts(tree_),
            RunExtraBytes(tree_)) {
  // Node metadata.
  node_meta_.resize(tree_.NumNodes());
  int max_depth = 0;
  for (std::size_t n = 0; n < tree_.NumNodes(); ++n) {
    const QTreeNode& tn = tree_.node(static_cast<int>(n));
    NodeMeta& nm = node_meta_[n];
    nm.num_children = static_cast<int>(tn.children.size());
    nm.num_tracked = static_cast<int>(tn.tracked_atoms.size());
    nm.is_free = tn.is_free;
    nm.unit_leaf = TreeInlinedLeaf(tree_, static_cast<int>(n));
    nm.leaf_stride =
        nm.unit_leaf ? (nm.num_tracked == 1 ? 1 : nm.num_tracked + 2) : 0;
    nm.slot_in_parent = tn.slot_in_parent;
    nm.slots_off = ItemSlotsOffset(tn.tracked_atoms.size());
    // Preorder storage guarantees the parent's meta is already built.
    nm.parent_slot_off =
        tn.parent >= 0
            ? node_meta_[static_cast<std::size_t>(tn.parent)].slots_off +
                  static_cast<std::size_t>(tn.slot_in_parent) *
                      sizeof(ChildSlot)
            : 0;
    max_depth = std::max(max_depth, tn.depth);
    for (int ai : tn.rep_atoms) {
      auto it = std::find(tn.tracked_atoms.begin(), tn.tracked_atoms.end(),
                          ai);
      DYNCQ_CHECK(it != tn.tracked_atoms.end());
      nm.rep_slots.push_back(
          static_cast<int>(it - tn.tracked_atoms.begin()));
    }
    for (std::size_t c = 0; c < tn.children.size(); ++c) {
      if (tree_.node(tn.children[c]).is_free) {
        nm.free_child_slots.push_back(static_cast<int>(c));
      }
    }
    // Item-relative 64-byte lines holding the fields phases A and B
    // read: the header (dirty flag, links, weights), the tracked counts,
    // and each child slot's running sums — the free sums only where
    // RecomputeWeights reads them.
    std::vector<std::size_t> lines = {offsetof(Item, dirty) / 64,
                                      offsetof(Item, weight) / 64,
                                      offsetof(Item, weight_free) / 64,
                                      ItemCountsOffset() / 64};
    for (int u = 0; u < nm.num_children; ++u) {
      const std::size_t slot =
          nm.slots_off + static_cast<std::size_t>(u) * sizeof(ChildSlot);
      lines.push_back((slot + offsetof(ChildSlot, sum)) / 64);
      if (nm.is_free &&
          tree_.node(tn.children[static_cast<std::size_t>(u)]).is_free) {
        lines.push_back((slot + offsetof(ChildSlot, sum_free)) / 64);
      }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (std::size_t line : lines) nm.touch_offsets.push_back(line * 64);
  }
  // Second pass: strided-leaf slot configuration and path-compression
  // metadata (needs every node's first-pass meta).
  for (std::size_t n = 0; n < tree_.NumNodes(); ++n) {
    const QTreeNode& tn = tree_.node(static_cast<int>(n));
    NodeMeta& nm = node_meta_[n];
    for (std::size_t c = 0; c < tn.children.size(); ++c) {
      const NodeMeta& cm =
          node_meta_[static_cast<std::size_t>(tn.children[c])];
      if (cm.unit_leaf && cm.leaf_stride > 1) {
        nm.leaf_slot_strides.emplace_back(static_cast<int>(c),
                                          cm.leaf_stride);
      }
    }
    const int u = TreeAbsorbChild(tree_, static_cast<int>(n));
    if (u >= 0) {
      nm.absorb_child_node = u;
      nm.run_rec_off = AlignUp(
          nm.slots_off + static_cast<std::size_t>(nm.num_children) *
                             sizeof(ChildSlot),
          16);
      NodeMeta& um = node_meta_[static_cast<std::size_t>(u)];
      um.absorbable = true;
      um.run_counts_off = kRunValueOff + sizeof(Value);
      um.run_slots_off =
          RunSlotsOffsetFor(static_cast<std::size_t>(um.num_tracked));
      um.run_rec_size =
          RunRecSizeFor(static_cast<std::size_t>(um.num_tracked),
                        static_cast<std::size_t>(um.num_children));
      // The record offsets here and the pool's block sizing derive the
      // same layout independently; pin them to each other.
      DYNCQ_CHECK(nm.run_rec_off + um.run_rec_size <=
                  pool_.block_size(static_cast<std::uint32_t>(n)));
      pool_.SetRunSlots(static_cast<std::uint32_t>(n),
                        nm.run_rec_off + um.run_slots_off,
                        static_cast<std::size_t>(um.num_children));
    }
  }
  dirty_.resize(static_cast<std::size_t>(max_depth) + 1);

  // Atom metadata.
  atom_meta_.resize(query_.NumAtoms());
  for (std::size_t ai = 0; ai < query_.NumAtoms(); ++ai) {
    const Atom& atom = query_.atoms()[ai];
    AtomMeta& am = atom_meta_[ai];
    am.rel = atom.rel;
    atoms_of_rel_.FindOrInsert(atom.rel).push_back(static_cast<int>(ai));
    am.rel_group = atoms_of_rel_.IndexOf(atom.rel);

    std::vector<int> path = tree_.AtomPathNodes(static_cast<int>(ai));
    am.d = static_cast<int>(path.size());
    am.level_node = path;
    for (int n : path) {
      const QTreeNode& tn = tree_.node(n);
      VarId v = tn.var;
      // Slot of this atom within the node's tracked list.
      auto slot_it = std::find(tn.tracked_atoms.begin(),
                               tn.tracked_atoms.end(), static_cast<int>(ai));
      DYNCQ_CHECK(slot_it != tn.tracked_atoms.end());
      am.level_slot.push_back(
          static_cast<int>(slot_it - tn.tracked_atoms.begin()));
      am.level_parent_slot.push_back(tn.slot_in_parent);
      am.level_count_off.push_back(
          ItemCountsOffset() +
          static_cast<std::size_t>(am.level_slot.back()) *
              sizeof(std::uint64_t));
      // Slot offsets address the PARENT item's block, whose layout is
      // governed by the parent node's tracked-atom count.
      am.level_slot_off.push_back(
          tn.slot_in_parent >= 0
              ? ItemSlotsOffset(
                    tree_.node(tn.parent).tracked_atoms.size()) +
                    static_cast<std::size_t>(tn.slot_in_parent) *
                        sizeof(ChildSlot)
              : 0);
      // First argument position carrying this level's variable.
      int pos = -1;
      for (std::size_t p = 0; p < atom.args.size(); ++p) {
        if (atom.args[p].IsVar() && atom.args[p].var == v) {
          pos = static_cast<int>(p);
          break;
        }
      }
      DYNCQ_CHECK_MSG(pos >= 0, "path variable missing from atom");
      am.read_pos.push_back(pos);
    }
    {
      const NodeMeta& last =
          node_meta_[static_cast<std::size_t>(am.level_node.back())];
      am.leaf_inline = am.d >= 2 && last.unit_leaf;
      am.leaf_free = last.is_free;
    }
    // Path compression: the walk's last materialized level (the level
    // just above an inlined leaf, or the rep level itself) may be an
    // absorbable node whose item lives as a run record in the head's
    // block.
    {
      const int ndt = am.leaf_inline ? am.d - 1 : am.d;
      if (ndt >= 2) {
        const NodeMeta& tailm = node_meta_[static_cast<std::size_t>(
            am.level_node[static_cast<std::size_t>(ndt - 1)])];
        am.tail_absorb = tailm.absorbable;
        if (am.tail_absorb && am.leaf_inline) {
          am.run_leaf_slot_off =
              tailm.run_slots_off +
              static_cast<std::size_t>(am.level_parent_slot.back()) *
                  sizeof(ChildSlot);
        }
      }
      am.nd = static_cast<std::size_t>(am.tail_absorb ? ndt - 1 : ndt);
    }

    // Consistency checks: repeated variables and constants (§6.4: only
    // atoms with z_s = z_t ⇒ b_s = b_t participate; constants are the
    // engine's selection extension).
    std::vector<int> first_pos_of_var(query_.NumVars(), -1);
    for (std::size_t p = 0; p < atom.args.size(); ++p) {
      const Term& t = atom.args[p];
      if (t.IsConst()) {
        am.const_checks.emplace_back(static_cast<int>(p), t.constant);
      } else if (first_pos_of_var[t.var] == -1) {
        first_pos_of_var[t.var] = static_cast<int>(p);
      } else {
        am.eq_checks.emplace_back(first_pos_of_var[t.var],
                                  static_cast<int>(p));
      }
    }
  }

  // Enumeration metadata: preorder over the free prefix subtree T'.
  if (!query_.head().empty()) {
    std::vector<int> stack = {tree_.root()};
    std::vector<int> pos_of_node(tree_.NumNodes(), -1);
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      const QTreeNode& tn = tree_.node(n);
      if (!tn.is_free) continue;
      pos_of_node[static_cast<std::size_t>(n)] =
          static_cast<int>(enum_meta_.nodes.size());
      enum_meta_.nodes.push_back(n);
      enum_meta_.parent_pos.push_back(
          tn.parent >= 0 ? pos_of_node[static_cast<std::size_t>(tn.parent)]
                         : -1);
      enum_meta_.slot_in_parent.push_back(tn.slot_in_parent);
      const NodeMeta& nm = node_meta_[static_cast<std::size_t>(n)];
      enum_meta_.leaf_kind.push_back(
          nm.unit_leaf ? (nm.leaf_stride == 1 ? 1 : 2) : 0);
      enum_meta_.leaf_stride.push_back(nm.leaf_stride);
      enum_meta_.slot_off.push_back(nm.parent_slot_off);
      enum_meta_.absorbable.push_back(nm.absorbable ? 1 : 0);
      const NodeMeta* pm =
          tn.parent >= 0 ? &node_meta_[static_cast<std::size_t>(tn.parent)]
                         : nullptr;
      enum_meta_.parent_rec_off.push_back(pm != nullptr ? pm->run_rec_off
                                                        : 0);
      enum_meta_.rec_slot_off.push_back(
          pm != nullptr && pm->absorbable
              ? pm->run_slots_off +
                    static_cast<std::size_t>(tn.slot_in_parent) *
                        sizeof(ChildSlot)
              : 0);
      for (auto it = tn.children.rbegin(); it != tn.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
    for (VarId v : query_.head()) {
      int n = tree_.NodeOfVar(v);
      DYNCQ_CHECK(pos_of_node[static_cast<std::size_t>(n)] >= 0);
      enum_meta_.head_doc_pos.push_back(
          pos_of_node[static_cast<std::size_t>(n)]);
    }
  }
}

ComponentEngine::~ComponentEngine() {
  // Every version died before the engine (Engine tears its snapshot
  // registry down first), so nothing needs copying any more.
  pool_.SetCopyOnWrite(false, 0);
  root_index_.ForEach([this](Value, std::uint64_t bits) {
    FreeSubtree(pool_.Resolve(ItemHandle::FromBits(bits)));
  });
}

void ComponentEngine::FreeSubtree(Item* it) {
  const NodeMeta& nm = node_meta_[it->node];
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));
  // A live run record owns its leaf tables (its children are all inlined
  // leaves, so there is no item recursion below it).
  if (it->run_len != 0) DestroyRunSlots(it);
  ChildSlot* slots = reinterpret_cast<ChildSlot*>(
      reinterpret_cast<char*>(it) + nm.slots_off);
  for (int u = 0; u < nm.num_children; ++u) {
    const int child = tn.children[static_cast<std::size_t>(u)];
    if (node_meta_[static_cast<std::size_t>(child)].unit_leaf) continue;
    slots[u].index.ForEach([this](Value, std::uint64_t bits) {
      FreeSubtree(pool_.Resolve(ItemHandle::FromBits(bits)));
    });
  }
  pool_.Free(it);  // runs the slot destructors (index tables included)
}

// ---------------------------------------------------------------------------
// Epoch-pinned snapshot fork (docs/ARCHITECTURE.md, "Snapshot cursors").
//
// A pin is O(1): it records the root fit-list anchors and sums and the
// pool's live block directory, through which the pinned cursors resolve
// every handle. The first post-pin write forks with one pool call: the
// version keeps that directory, and the live side republishes a copy in
// which every resident block is marked shared. From then on the writer
// copies a shared block (slab plus its ChildSlot heap tables) before it
// first mutates it and repoints only its live directory entry. Nothing is
// replayed or re-probed; a write under a pin costs its ordinary descent
// plus a few block copies, and the version's memory is never written.
// Copied-away slabs are retired at the write's epoch and freed once the
// oldest pinned epoch has moved past it; the version's directory array
// dies with the version.
// ---------------------------------------------------------------------------

void ComponentEngine::CaptureSnapshot(ComponentSnapshot* out) const {
  out->root_head = SlotHead(root_slot_);
  out->root_tail = SlotTail(root_slot_);
  out->sum = root_slot_.sum;
  out->sum_free = root_slot_.sum_free;
  out->dir = pool_.directory();
  out->dir_cap = 0;
}

// Forced inline: it runs once per descent level, and GCC otherwise keeps
// it out of line (three call sites), adding a call to every level.
[[gnu::always_inline]] inline Item* ComponentEngine::LocateChild(
    ChildIndex& idx, Item* parent, int n, Value v, bool insert) {
  if (!insert) {
    Item* it = pool_.Resolve(ItemHandle::FromBits(idx.Find(v)));
    DYNCQ_CHECK_MSG(it != nullptr, "batch walk hit a missing item");
    return it;
  }
  std::uint64_t* slot = idx.FindOrInsertSlot(v);
  if (*slot != 0) return pool_.Resolve(ItemHandle::FromBits(*slot));
  Item* fresh = AllocItem(static_cast<std::uint32_t>(n));
  fresh->value = v;
  if (parent != nullptr) fresh->parent = parent->self;
  *slot = fresh->self.bits();
  return fresh;
}

Item* ComponentEngine::AllocItem(std::uint32_t n) {
  Item* it = pool_.Alloc(n);
  const NodeMeta& nm = node_meta_[n];
  if (!nm.leaf_slot_strides.empty()) {
    ChildSlot* slots = reinterpret_cast<ChildSlot*>(
        reinterpret_cast<char*>(it) + nm.slots_off);
    for (const auto& [c, stride] : nm.leaf_slot_strides) {
      slots[c].index.set_stride(static_cast<std::size_t>(stride));
    }
  }
  return it;
}

// ---------------------------------------------------------------------------
// Path-compressed run records.
//
// A head item (node with structural fanout 1 whose single child u has no
// materialized descendants) represents its only child item as a record
// inside its own block while exactly one child value exists: the child's
// weights, value, tracked counts, and leaf ChildSlots live at
// run_rec_off, and no u-Item is allocated. The child "fit list" of a
// compressed head is implicit (a one-element list); the slot's running
// sums are published absolutely from the record's weights. A second
// child value splits the record into a real item lazily; a deletion that
// drops the child index back to one entry re-merges it.
// ---------------------------------------------------------------------------

void ComponentEngine::CreateRun(Item* head, Value v) {
  const NodeMeta& hm = node_meta_[head->node];
  const NodeMeta& um =
      node_meta_[static_cast<std::size_t>(hm.absorb_child_node)];
  char* rec = RunRecBase(head);
  // The region is all-zero (pool memset / DestroyRunSlots), which is the
  // valid empty state for counts, weights, and ChildSlots alike.
  *reinterpret_cast<Value*>(rec + kRunValueOff) = v;
  ChildSlot* rslots = reinterpret_cast<ChildSlot*>(rec + um.run_slots_off);
  for (int c = 0; c < um.num_children; ++c) new (rslots + c) ChildSlot();
  for (const auto& [c, stride] : um.leaf_slot_strides) {
    rslots[c].index.set_stride(static_cast<std::size_t>(stride));
  }
  head->run_len = 1;
}

Item* ComponentEngine::SplitRun(Item* head) {
  const NodeMeta& hm = node_meta_[head->node];
  const NodeMeta& um =
      node_meta_[static_cast<std::size_t>(hm.absorb_child_node)];
  char* rec = RunRecBase(head);
  ChildSlot& vslot = *reinterpret_cast<ChildSlot*>(
      reinterpret_cast<char*>(head) + hm.slots_off);
  DYNCQ_DCHECK(vslot.index.empty());
  Item* it = LocateChild(vslot.index, head, hm.absorb_child_node,
                         *reinterpret_cast<Value*>(rec + kRunValueOff),
                         /*insert=*/true);
  it->weight = reinterpret_cast<Weight*>(rec)[0];
  it->weight_free = reinterpret_cast<Weight*>(rec)[1];
  std::memcpy(ItemCounts(it), rec + um.run_counts_off,
              static_cast<std::size_t>(um.num_tracked) *
                  sizeof(std::uint64_t));
  // Move the slots: ChildSlot/ChildIndex hold no self- or back-pointers,
  // so a byte move transfers heap-table ownership; the source region is
  // re-zeroed so no destructor ever runs on the moved-from bytes.
  std::memcpy(reinterpret_cast<char*>(it) + um.slots_off,
              rec + um.run_slots_off,
              static_cast<std::size_t>(um.num_children) * sizeof(ChildSlot));
  std::memset(rec, 0, um.run_rec_size);
  head->run_len = 0;
  if (it->weight > 0) ListPushBack(pool_, vslot, it);
  // The slot's running sums are unchanged: the child's weight is the
  // same whether it lives as a record or an item.
  return it;
}

void ComponentEngine::MergeRun(Item* head) {
  const NodeMeta& hm = node_meta_[head->node];
  const NodeMeta& um =
      node_meta_[static_cast<std::size_t>(hm.absorb_child_node)];
  ChildSlot& vslot = *reinterpret_cast<ChildSlot*>(
      reinterpret_cast<char*>(head) + hm.slots_off);
  DYNCQ_DCHECK(head->run_len == 0 && vslot.index.size() == 1);
  const std::uint64_t* r0 = vslot.index.FirstRecord();
  Item* child = pool_.Resolve(ItemHandle::FromBits(r0[1]));
  if (child->in_list) ListRemove(pool_, vslot, child);
  char* rec = RunRecBase(head);  // all-zero while run_len == 0
  reinterpret_cast<Weight*>(rec)[0] = child->weight;
  reinterpret_cast<Weight*>(rec)[1] = child->weight_free;
  *reinterpret_cast<Value*>(rec + kRunValueOff) = child->value;
  std::memcpy(rec + um.run_counts_off, ItemCounts(child),
              static_cast<std::size_t>(um.num_tracked) *
                  sizeof(std::uint64_t));
  std::memcpy(rec + um.run_slots_off,
              reinterpret_cast<char*>(child) + um.slots_off,
              static_cast<std::size_t>(um.num_children) * sizeof(ChildSlot));
  std::memset(reinterpret_cast<char*>(child) + um.slots_off, 0,
              static_cast<std::size_t>(um.num_children) * sizeof(ChildSlot));
  head->run_len = 1;
  vslot.index.Erase(child->value);
  pool_.Free(child);
  // Running sums unchanged, as in SplitRun.
}

void ComponentEngine::MaintainRun(Item* head) {
  if (head->run_len == 0) return;
  const NodeMeta& hm = node_meta_[head->node];
  const NodeMeta& um =
      node_meta_[static_cast<std::size_t>(hm.absorb_child_node)];
  char* rec = RunRecBase(head);
  const std::uint64_t* counts =
      reinterpret_cast<const std::uint64_t*>(rec + um.run_counts_off);
  const ChildSlot* rslots =
      reinterpret_cast<const ChildSlot*>(rec + um.run_slots_off);
  // Lemmas 6.3/6.4 for the absorbed child, published absolutely into the
  // head's slot sums (the implicit one-element fit list).
  Weight c = 1;
  for (int s : um.rep_slots) c *= counts[s];
  for (int u = 0; u < um.num_children; ++u) c *= rslots[u].sum;
  Weight* w = reinterpret_cast<Weight*>(rec);
  w[0] = c;
  if (um.is_free) {
    if (c == 0) {
      w[1] = 0;
    } else {
      Weight ct = 1;
      for (int fs : um.free_child_slots) ct *= rslots[fs].sum_free;
      w[1] = ct;
    }
  }
  ChildSlot& vslot = *reinterpret_cast<ChildSlot*>(
      reinterpret_cast<char*>(head) + hm.slots_off);
  vslot.sum = c;
  if (um.is_free) vslot.sum_free = w[1];
  // Step 5 for the record: drop it once no tracked atom is supported
  // (all leaf entries below it are necessarily gone by then).
  bool all_zero = true;
  for (int s = 0; s < um.num_tracked; ++s) {
    if (counts[s] != 0) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) DestroyRunSlots(head);
}

void ComponentEngine::DestroyRunSlots(Item* head) {
  const NodeMeta& hm = node_meta_[head->node];
  const NodeMeta& um =
      node_meta_[static_cast<std::size_t>(hm.absorb_child_node)];
  char* rec = RunRecBase(head);
  ChildSlot* rslots = reinterpret_cast<ChildSlot*>(rec + um.run_slots_off);
  for (int c = 0; c < um.num_children; ++c) rslots[c].~ChildSlot();
  std::memset(rec, 0, um.run_rec_size);
  head->run_len = 0;
}

bool ComponentEngine::MatchesAtom(const AtomMeta& am, const Tuple& t) const {
  // §6.4: the update only concerns atoms whose repeated-variable /
  // constant pattern is consistent with the tuple.
  for (const auto& [p1, p2] : am.eq_checks) {
    if (t[static_cast<std::size_t>(p1)] != t[static_cast<std::size_t>(p2)]) {
      return false;
    }
  }
  for (const auto& [p, c] : am.const_checks) {
    if (t[static_cast<std::size_t>(p)] != c) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The update pipeline (§6.4). Every update runs through it; a
// single-tuple update is a batch of one.
//
// Phase A (per atom): route the batch's effective deltas to the atom and
// walk the q-tree top-down once per delta, sharing the descent of the
// common prefix with the previous delta. Only the tracked counts are
// adjusted; every touched item is recorded (once) with its pre-batch
// weights.
//
// Phase B: process touched items deepest-level first — re-absorb a lone
// surviving child into its head, recompute weights once, fix fit-list
// membership, push the weight difference into the parent's running
// sums, and free items whose counts all reached zero. Deferring weight
// recomputation to one pass per item is what makes a batch cheaper than
// its updates applied one by one.
// ---------------------------------------------------------------------------

void ComponentEngine::MarkDirty(Item* it, std::size_t depth) {
  if (it->dirty != 0) return;
  it->dirty = 1;
  dirty_[depth].push_back(
      DirtyItem{it, it->node, it->weight, it->weight_free});
}

void ComponentEngine::RouteRelGroups(const PendingDelta* deltas,
                                     std::size_t n) {
  // Route the batch once: per-relation index lists, so each atom only
  // scans its own relation's deltas (self-joins share the list).
  if (rel_groups_.size() < atoms_of_rel_.size()) {
    rel_groups_.resize(atoms_of_rel_.size());
  }
  for (auto& g : rel_groups_) g.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int gi = atoms_of_rel_.IndexOf(deltas[i].rel);
    if (gi >= 0) {
      rel_groups_[static_cast<std::size_t>(gi)].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
}

void ComponentEngine::ApplyBatch(const PendingDelta* deltas, std::size_t n) {
  bool touched = false;
  if (n == 1) {
    // A batch of one (every single-tuple update): its relation's atoms
    // are the routing, and there is no block of deltas to prefetch ahead.
    for (int ai : atoms_of_rel_[deltas->rel]) {
      const AtomMeta& am = atom_meta_[static_cast<std::size_t>(ai)];
      if (!MatchesAtom(am, *deltas->tuple)) continue;
      touched = true;
      SmallVector<Item*, 8> chain;
      SmallVector<Value, 8> prev_key;
      BatchOneDelta(am, *deltas, chain, prev_key);
    }
  } else {
    RouteRelGroups(deltas, n);
    for (const AtomMeta& am : atom_meta_) {
      batch_scratch_.clear();
      for (std::uint32_t i :
           rel_groups_[static_cast<std::size_t>(am.rel_group)]) {
        if (MatchesAtom(am, *deltas[i].tuple)) {
          batch_scratch_.push_back(&deltas[i]);
        }
      }
      if (batch_scratch_.empty()) continue;
      touched = true;
      // Arrival order is kept: for a fixed atom the root-path key
      // determines the whole tuple, so per-key sequencing (the only
      // ordering phase A relies on) holds trivially, and the block
      // prefetch sweeps in BatchDescend recover the memory locality a
      // sort would have bought — without the pointer-chasing key
      // comparisons.
      BatchDescend(am, batch_scratch_);
    }
  }
  if (touched) FlushDirty();
}

// Deltas are consumed in blocks: two prefetch sweeps (root buckets, then
// root item lines) put up to kBatchBlock independent fetches in flight
// before the serial descents run, so the per-delta latency is the line
// latency divided by the block's memory-level parallelism rather than a
// full round-trip per update.
void ComponentEngine::BatchDescend(
    const AtomMeta& am, const std::vector<const PendingDelta*>& deltas) {
  constexpr std::size_t kBatchBlock = 32;
  SmallVector<Item*, 8> chain;
  SmallVector<Value, 8> prev_key;
  for (std::size_t base = 0; base < deltas.size(); base += kBatchBlock) {
    const std::size_t end = std::min(base + kBatchBlock, deltas.size());
    for (std::size_t i = base; i < end; ++i) {
      root_index_.Prefetch((*deltas[i]->tuple)[
          static_cast<std::size_t>(am.read_pos[0])]);
    }
    for (std::size_t i = base; i < end; ++i) {
      const Item* root = pool_.Resolve(
          ItemHandle::FromBits(root_index_.Find((*deltas[i]->tuple)[
              static_cast<std::size_t>(am.read_pos[0])])));
      if (root == nullptr) continue;
      // Only the two lines the descent itself needs — the weight fix-up
      // lines are prefetched by FlushDirty's own lookahead, and issuing
      // them here would exceed the core's miss-level parallelism.
      const char* b = reinterpret_cast<const char*>(root);
      __builtin_prefetch(b + am.level_count_off[0]);
      if (am.d > 1) __builtin_prefetch(b + am.level_slot_off[1]);
    }
    for (std::size_t i = base; i < end; ++i) {
      BatchOneDelta(am, *deltas[i], chain, prev_key);
    }
  }
}

void ComponentEngine::BatchOneDelta(const AtomMeta& am,
                                    const PendingDelta& ad,
                                    SmallVector<Item*, 8>& chain,
                                    SmallVector<Value, 8>& prev_key) {
  const Tuple& t = *ad.tuple;
  const std::size_t nd = am.nd;
  // Longest prefix shared with the previous delta's path.
  std::size_t lcp = 0;
  while (lcp < chain.size() &&
         t[static_cast<std::size_t>(am.read_pos[lcp])] == prev_key[lcp]) {
    ++lcp;
  }
  chain.resize(lcp);
  prev_key.resize(lcp);

  // Descend the unshared suffix (deletes must find their items: the
  // batch fold keeps at most one command per tuple and set semantics
  // makes an effective delete imply pre-batch presence).
  Item* parent = lcp > 0 ? chain[lcp - 1] : nullptr;
  for (std::size_t j = lcp; j < nd; ++j) {
    const Value v = t[static_cast<std::size_t>(am.read_pos[j])];
    ChildIndex& idx =
        j == 0 ? root_index_
               : reinterpret_cast<ChildSlot*>(
                     reinterpret_cast<char*>(parent) + am.level_slot_off[j])
                     ->index;
    Item* it = LocateChild(idx, parent, am.level_node[j], v, ad.insert);
    // The lines phase B reads (weights, counts, child-slot sums) stream
    // in while the descent goes on.
    for (std::size_t off :
         node_meta_[static_cast<std::size_t>(am.level_node[j])]
             .touch_offsets) {
      __builtin_prefetch(reinterpret_cast<char*>(it) + off);
    }
    chain.push_back(it);
    prev_key.push_back(v);
    parent = it;
  }

  // Step 1 of §6.4 for every materialized prefix level; weights are
  // fixed up in phase B.
  for (std::size_t j = 0; j < nd; ++j) {
    Item* it = chain[j];
    MarkDirty(it, j);
    std::uint64_t& count = *reinterpret_cast<std::uint64_t*>(
        reinterpret_cast<char*>(it) + am.level_count_off[j]);
    if (ad.insert) {
      ++count;
    } else {
      DYNCQ_DCHECK(count > 0);
      --count;
    }
  }

  // Absorbable tail level: the item may live as a run record in the
  // head's block. The head is already dirty (prefix loop), and phase B's
  // MaintainRun finalizes the record's weights, so only the count is
  // adjusted here. A split registers the materialized item with its
  // pre-batch (record) weights.
  const std::size_t ndt = am.tail_absorb ? nd + 1 : nd;
  char* rec = nullptr;
  Item* tail_item = nullptr;
  if (am.tail_absorb) {
    Item* head = chain[nd - 1];
    const Value v = t[static_cast<std::size_t>(am.read_pos[nd])];
    ChildSlot& vslot = *reinterpret_cast<ChildSlot*>(
        reinterpret_cast<char*>(head) + am.level_slot_off[nd]);
    // A compressed head's index is empty, so a delete of a value other
    // than the record's fails LocateChild's presence check.
    if (head->run_len != 0 &&
        *reinterpret_cast<Value*>(RunRecBase(head) + kRunValueOff) == v) {
      rec = RunRecBase(head);
    } else if (ad.insert && head->run_len != 0) {
      MarkDirty(SplitRun(head), nd);
    } else if (ad.insert && vslot.index.empty()) {
      CreateRun(head, v);
      rec = RunRecBase(head);
    }
    if (rec == nullptr) {
      tail_item =
          LocateChild(vslot.index, head, am.level_node[nd], v, ad.insert);
    }
    const NodeMeta& um =
        node_meta_[static_cast<std::size_t>(am.level_node[nd])];
    std::uint64_t& count =
        rec != nullptr
            ? *reinterpret_cast<std::uint64_t*>(
                  rec + um.run_counts_off +
                  static_cast<std::size_t>(am.level_slot[nd]) *
                      sizeof(std::uint64_t))
            : *reinterpret_cast<std::uint64_t*>(
                  reinterpret_cast<char*>(tail_item) +
                  am.level_count_off[nd]);
    if (tail_item != nullptr) MarkDirty(tail_item, nd);
    if (ad.insert) {
      ++count;
    } else {
      DYNCQ_DCHECK(count > 0);
      --count;
    }
  }

  // Leaf-inline level: the parent (item or record host) was marked dirty
  // above with its pre-batch weight, so the slot sums may be finalized
  // right away and phase B recomputes the parent from them.
  if (am.leaf_inline) {
    ChildSlot& lslot =
        rec != nullptr
            ? *reinterpret_cast<ChildSlot*>(rec + am.run_leaf_slot_off)
            : *reinterpret_cast<ChildSlot*>(
                  reinterpret_cast<char*>(am.tail_absorb ? tail_item
                                                         : chain[ndt - 1]) +
                  am.level_slot_off[static_cast<std::size_t>(am.d - 1)]);
    FlipLeafEntry(am, lslot, t, ad.insert);
  }
}

namespace {

/// Appends record `rec` (already fit) to the slot's intrusive fit list.
/// Links are record KEYS (payload words k and k+1), so backward-shift
/// moves and rehashes never invalidate them; the head/tail keys live in
/// the slot's (otherwise unused) head/tail name fields.
void LeafFitLink(ChildSlot& slot, std::uint64_t* rec, int k) {
  const Value v = rec[0];
  const Value tail = slot.tail;
  rec[1 + k] = tail;
  rec[2 + k] = 0;
  if (tail != 0) {
    slot.index.FindRecord(tail)[2 + k] = v;
  } else {
    slot.head = v;
  }
  slot.tail = v;
}

/// Unlinks record `rec` from the slot's fit list.
void LeafFitUnlink(ChildSlot& slot, std::uint64_t* rec, int k) {
  const Value p = rec[1 + k];
  const Value n = rec[2 + k];
  if (p != 0) {
    slot.index.FindRecord(p)[2 + k] = n;
  } else {
    slot.head = n;
  }
  if (n != 0) {
    slot.index.FindRecord(n)[1 + k] = p;
  } else {
    slot.tail = p;
  }
  rec[1 + k] = rec[2 + k] = 0;
}

}  // namespace

// Flips an inlined-leaf record in `slot` and maintains the slot's
// running sums directly. Single-atom leaves (stride 1) store bare
// presence entries: present == fit, sum == record count. Leaves tracking
// k > 1 atoms store one 0/1 count word per atom (a leaf atom's expansion
// is fully determined by the root path) plus fit-list links; a record is
// fit — weight 1, counted in the sums, enumerable — iff every count is
// positive, and it is erased once all counts are zero.
void ComponentEngine::FlipLeafEntry(const AtomMeta& am, ChildSlot& slot,
                                    const Tuple& t, bool insert) {
  const NodeMeta& lm = node_meta_[static_cast<std::size_t>(
      am.level_node[static_cast<std::size_t>(am.d - 1)])];
  const Value v = t[static_cast<std::size_t>(
      am.read_pos[static_cast<std::size_t>(am.d - 1)])];
  if (lm.leaf_stride == 1) {
    if (insert) {
      std::uint64_t* entry = slot.index.FindOrInsertSlot(v);
      DYNCQ_DCHECK(*entry == 0);
      *entry = 1;  // presence marker (any non-zero payload)
      slot.sum += 1;
      if (am.leaf_free) slot.sum_free += 1;
    } else {
      bool erased = slot.index.Erase(v);
      DYNCQ_CHECK_MSG(erased, "delete walk hit a missing leaf entry");
      slot.sum -= 1;
      if (am.leaf_free) slot.sum_free -= 1;
    }
    return;
  }
  const int k = lm.num_tracked;
  const int s = am.level_slot[static_cast<std::size_t>(am.d - 1)];
  if (insert) {
    std::uint64_t* rec = slot.index.FindOrInsertRecord(v);
    std::uint64_t* pay = rec + 1;
    const bool was_fit = LeafRecFit(pay, k);
    DYNCQ_DCHECK(pay[s] == 0);
    pay[s] = 1;
    if (!was_fit && LeafRecFit(pay, k)) {
      LeafFitLink(slot, rec, k);
      slot.sum += 1;
      if (am.leaf_free) slot.sum_free += 1;
    }
  } else {
    std::uint64_t* rec = slot.index.FindRecord(v);
    DYNCQ_CHECK_MSG(rec != nullptr, "delete walk hit a missing leaf entry");
    std::uint64_t* pay = rec + 1;
    const bool was_fit = LeafRecFit(pay, k);
    DYNCQ_DCHECK(pay[s] == 1);
    pay[s] = 0;
    if (was_fit) {
      LeafFitUnlink(slot, rec, k);
      slot.sum -= 1;
      if (am.leaf_free) slot.sum_free -= 1;
    }
    if (LeafRecEmpty(pay, k)) slot.index.Erase(v);
  }
}

void ComponentEngine::FlushDirty() {
  constexpr std::size_t kLookahead = 8;
  for (std::size_t depth = dirty_.size(); depth-- > 0;) {
    std::vector<DirtyItem>& level = dirty_[depth];
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (i + kLookahead < level.size()) {
        const DirtyItem& ahead = level[i + kLookahead];
        for (std::size_t off : node_meta_[ahead.node].touch_offsets) {
          __builtin_prefetch(reinterpret_cast<char*>(ahead.item) + off);
        }
      }
      const DirtyItem& d = level[i];
      Item* it = d.item;
      it->dirty = 0;
      const NodeMeta& nm = node_meta_[it->node];
      // Re-merge: a head that lost children this batch was marked dirty
      // on the way down to them, so every child it has left is final by
      // now (deeper levels flush first). A lone survivor is re-absorbed.
      if (nm.absorb_child_node >= 0 && it->run_len == 0 &&
          reinterpret_cast<ChildSlot*>(reinterpret_cast<char*>(it) +
                                       nm.slots_off)
                  ->index.size() == 1) {
        MergeRun(it);
      }
      // Steps 2/2a: child running sums are final (deeper levels flushed
      // first, and an absorbed child record is finalized here), so one
      // recomputation per item suffices.
      MaintainRun(it);
      RecomputeWeights(it, nm);

      // Steps 3/4 (+4a) against the PRE-batch membership and sums.
      Item* parent = pool_.Resolve(it->parent);
      ChildSlot& pslot =
          parent != nullptr
              ? *reinterpret_cast<ChildSlot*>(
                    reinterpret_cast<char*>(parent) + nm.parent_slot_off)
              : root_slot_;
      if (!it->in_list && it->weight > 0) {
        ListPushBack(pool_, pslot, it);
      } else if (it->in_list && it->weight == 0) {
        ListRemove(pool_, pslot, it);
      }
      pslot.sum += it->weight - d.pre_weight;  // unsigned wrap is exact
      if (nm.is_free) pslot.sum_free += it->weight_free - d.pre_weight_free;

      // Step 5: free items no atom supports any more.
      bool all_zero = true;
      const std::uint64_t* counts = ItemCounts(it);
      for (int s = 0; s < nm.num_tracked; ++s) {
        if (counts[s] != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        DYNCQ_DCHECK(!it->in_list && it->weight == 0);
        ChildIndex& idx = parent != nullptr ? pslot.index : root_index_;
        bool erased = idx.Erase(it->value);
        DYNCQ_CHECK(erased);
        pool_.Free(it);
      }
    }
    level.clear();
  }
}

void ComponentEngine::RecomputeWeights(Item* it, const NodeMeta& nm) const {
  const std::uint64_t* counts = ItemCounts(it);
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  Weight c = 1;
  for (int s : nm.rep_slots) c *= counts[s];
  for (int u = 0; u < nm.num_children; ++u) c *= slots[u].sum;
  it->weight = c;
  if (nm.is_free) {
    if (c == 0) {
      it->weight_free = 0;
    } else {
      Weight ct = 1;
      for (int u : nm.free_child_slots) ct *= slots[u].sum_free;
      it->weight_free = ct;
    }
  }
}

}  // namespace dyncq::core
