// ComponentEngine inspection: the Figure 3-style structure dump and the
// invariant checker (test hook). Neither runs on the update path.
#include "core/component_engine.h"

#include <ostream>
#include <string>

#include "util/check.h"
#include "util/u128.h"

namespace dyncq::core {

void ComponentEngine::Dump(std::ostream& os) const {
  os << "component " << query_.ToString() << "\n";
  os << "Cstart = " << U128ToString(root_slot_.sum);
  if (!query_.head().empty()) {
    os << "  C~start = " << U128ToString(root_slot_.sum_free);
  }
  os << "\n";
  for (const Item* it = pool_.Resolve(SlotHead(root_slot_)); it != nullptr;
       it = pool_.Resolve(it->next)) {
    DumpItem(os, it, 1);
  }
}

void ComponentEngine::DumpLeafSlot(std::ostream& os, const ChildSlot& slot,
                                   int child_node, int indent) const {
  const QTreeNode& cn = tree_.node(child_node);
  const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
  const auto line = [&](Value key) {
    os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
    os << "[" << query_.VarName(cn.var) << " = " << key << "]  C = 1\n";
  };
  if (cm.leaf_stride == 1) {
    slot.index.ForEach([&](Value key, std::uint64_t) { line(key); });
    return;
  }
  // Strided leaf: only fit records are results (an unfit partial record
  // mirrors an unlisted item, which DumpItem also skips).
  const int k = cm.num_tracked;
  slot.index.ForEachRecord([&](const std::uint64_t* rec) {
    if (LeafRecFit(rec + 1, k)) line(static_cast<Value>(rec[0]));
  });
}

void ComponentEngine::DumpItem(std::ostream& os, const Item* it,
                               int indent) const {
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));
  const NodeMeta& nm = node_meta_[it->node];
  os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
  os << "[" << query_.VarName(tn.var) << " = " << it->value
     << "]  C = " << U128ToString(it->weight);
  if (nm.is_free) os << "  C~ = " << U128ToString(it->weight_free);
  os << "\n";
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  for (int u = 0; u < nm.num_children; ++u) {
    const int child_node = tn.children[static_cast<std::size_t>(u)];
    const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
    if (cm.unit_leaf) {
      DumpLeafSlot(os, slots[u], child_node, indent + 1);
      continue;
    }
    if (nm.absorb_child_node == child_node && it->run_len != 0) {
      // Path-compressed child: print the run record exactly as its
      // materialized item would print (fit records only — unfit ones
      // mirror unlisted items).
      const char* rec = RunRecBase(it);
      const Weight w = reinterpret_cast<const Weight*>(rec)[0];
      if (w == 0) continue;
      const QTreeNode& cn = tree_.node(child_node);
      os << std::string(static_cast<std::size_t>(indent + 1) * 2, ' ');
      os << "[" << query_.VarName(cn.var) << " = "
         << *reinterpret_cast<const Value*>(rec + kRunValueOff)
         << "]  C = " << U128ToString(w);
      if (cm.is_free) {
        os << "  C~ = "
           << U128ToString(reinterpret_cast<const Weight*>(rec)[1]);
      }
      os << "\n";
      const ChildSlot* rslots = reinterpret_cast<const ChildSlot*>(
          rec + cm.run_slots_off);
      const QTreeNode& un = tree_.node(child_node);
      for (std::size_t c = 0; c < un.children.size(); ++c) {
        DumpLeafSlot(os, rslots[c], un.children[c], indent + 2);
      }
      continue;
    }
    for (const Item* c = pool_.Resolve(SlotHead(slots[u])); c != nullptr;
         c = pool_.Resolve(c->next)) {
      DumpItem(os, c, indent + 1);
    }
  }
}

void ComponentEngine::CheckLeafSlot(const ChildSlot& slot,
                                    const NodeMeta& lm) const {
  if (lm.leaf_stride == 1) {
    // Presence entries: weight and count are identically 1, so the sums
    // are plain cardinalities and no fit list exists.
    DYNCQ_CHECK_MSG(slot.head == 0 && slot.tail == 0,
                    "unit-leaf slot must not keep a fit list");
    std::size_t entries = 0;
    slot.index.ForEach([&](Value key, std::uint64_t payload) {
      DYNCQ_CHECK_MSG(key != 0, "unit-leaf entry with sentinel key");
      DYNCQ_CHECK_MSG(payload == 1,
                      "unit-leaf entry payload must be the presence marker");
      ++entries;
    });
    DYNCQ_CHECK_MSG(slot.sum == Weight{entries},
                    "unit-leaf running sum diverged");
    if (lm.is_free) {
      DYNCQ_CHECK_MSG(slot.sum_free == Weight{entries},
                      "unit-leaf free running sum diverged");
    }
    return;
  }
  // Strided leaf: counts are 0/1, a record exists iff some count is
  // positive, is fit iff all are, and the fit records form the intrusive
  // key-linked list the enumerator walks.
  const int k = lm.num_tracked;
  std::size_t fit = 0;
  slot.index.ForEachRecord([&](const std::uint64_t* rec) {
    DYNCQ_CHECK_MSG(rec[0] != 0, "strided-leaf record with sentinel key");
    bool any = false;
    for (int s = 0; s < k; ++s) {
      DYNCQ_CHECK_MSG(rec[1 + s] <= 1, "strided-leaf count exceeds 1");
      any = any || rec[1 + s] != 0;
    }
    DYNCQ_CHECK_MSG(any, "strided-leaf record with all-zero counts");
    if (LeafRecFit(rec + 1, k)) {
      ++fit;
    } else {
      DYNCQ_CHECK_MSG(rec[1 + k] == 0 && rec[2 + k] == 0,
                      "unfit strided-leaf record carries fit links");
    }
  });
  DYNCQ_CHECK_MSG(slot.sum == Weight{fit},
                  "strided-leaf running sum diverged");
  if (lm.is_free) {
    DYNCQ_CHECK_MSG(slot.sum_free == Weight{fit},
                    "strided-leaf free running sum diverged");
  }
  std::size_t walked = 0;
  Value prev = 0;
  for (Value v = slot.head; v != 0;) {
    const std::uint64_t* rec = slot.index.FindRecord(v);
    DYNCQ_CHECK_MSG(rec != nullptr, "strided-leaf fit link to missing key");
    DYNCQ_CHECK_MSG(LeafRecFit(rec + 1, k),
                    "unfit record on the strided-leaf fit list");
    DYNCQ_CHECK_MSG(rec[1 + k] == prev,
                    "strided-leaf fit list prev link diverged");
    prev = v;
    v = rec[2 + k];
    ++walked;
    DYNCQ_CHECK_MSG(walked <= fit, "strided-leaf fit list cycles");
  }
  DYNCQ_CHECK_MSG(walked == fit,
                  "strided-leaf fit list misses fit records");
  DYNCQ_CHECK_MSG(slot.tail == prev,
                  "strided-leaf fit list tail diverged");
}

std::size_t ComponentEngine::CheckItemRec(const Item* it) const {
  const NodeMeta& nm = node_meta_[it->node];
  const QTreeNode& tn = tree_.node(static_cast<int>(it->node));

  // Existence invariant (§6.2): an item exists iff some tracked count is
  // positive.
  const std::uint64_t* counts = ItemCounts(it);
  const ChildSlot* slots = reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(it) + nm.slots_off);
  bool any_count = false;
  for (int s = 0; s < nm.num_tracked; ++s) {
    if (counts[s] != 0) {
      any_count = true;
      break;
    }
  }
  DYNCQ_CHECK_MSG(any_count, "item alive with all-zero atom counts");
  DYNCQ_CHECK_MSG(it->dirty == 0, "item still flagged dirty between batches");
  DYNCQ_CHECK_MSG(nm.absorb_child_node >= 0 || it->run_len == 0,
                  "run record on an ineligible node");

  std::size_t reached = 1;
  for (int u = 0; u < nm.num_children; ++u) {
    const ChildSlot& cs = slots[u];
    const int child_node = tn.children[static_cast<std::size_t>(u)];
    const NodeMeta& cm = node_meta_[static_cast<std::size_t>(child_node)];
    const bool child_free = cm.is_free;

    if (cm.unit_leaf) {
      CheckLeafSlot(cs, cm);
      continue;
    }

    if (nm.absorb_child_node == child_node) {
      if (it->run_len != 0) {
        // Path-compressed child: no index entry, no fit list; the record
        // is the implicit one-element list and the slot sums equal its
        // weights.
        DYNCQ_CHECK_MSG(cs.index.empty(),
                        "compressed head still holds index entries");
        DYNCQ_CHECK_MSG(cs.head == 0 && cs.tail == 0,
                        "compressed head still keeps a fit list");
        const char* rec = RunRecBase(it);
        DYNCQ_CHECK_MSG(
            *reinterpret_cast<const Value*>(rec + kRunValueOff) != 0,
            "run record with sentinel value");
        const std::uint64_t* rcounts =
            reinterpret_cast<const std::uint64_t*>(rec + cm.run_counts_off);
        bool rany = false;
        for (int s = 0; s < cm.num_tracked; ++s) {
          rany = rany || rcounts[s] != 0;
        }
        DYNCQ_CHECK_MSG(rany, "run record alive with all-zero counts");
        const ChildSlot* rslots = reinterpret_cast<const ChildSlot*>(
            rec + cm.run_slots_off);
        const QTreeNode& un = tree_.node(child_node);
        for (std::size_t c = 0; c < un.children.size(); ++c) {
          CheckLeafSlot(
              rslots[c],
              node_meta_[static_cast<std::size_t>(un.children[c])]);
        }
        Weight rc = 1;
        for (int s : cm.rep_slots) rc *= rcounts[s];
        for (int c = 0; c < cm.num_children; ++c) rc *= rslots[c].sum;
        DYNCQ_CHECK_MSG(rc == reinterpret_cast<const Weight*>(rec)[0],
                        "run record weight diverged");
        if (child_free) {
          Weight rct = 0;
          if (rc > 0) {
            rct = 1;
            for (int fs : cm.free_child_slots) rct *= rslots[fs].sum_free;
          }
          DYNCQ_CHECK_MSG(rct == reinterpret_cast<const Weight*>(rec)[1],
                          "run record free weight diverged");
        }
        DYNCQ_CHECK_MSG(cs.sum == reinterpret_cast<const Weight*>(rec)[0],
                        "compressed slot sum != record weight");
        if (child_free) {
          DYNCQ_CHECK_MSG(
              cs.sum_free == reinterpret_cast<const Weight*>(rec)[1],
              "compressed slot free sum != record free weight");
        }
        continue;
      }
      DYNCQ_CHECK_MSG(cs.index.size() != 1,
                      "eligible head left a lone child unmerged");
    }

    // Fit list: members are exactly the fit children; sums match.
    Weight sum = 0, sum_free = 0;
    std::size_t fit_listed = 0;
    for (const Item* ch = pool_.Resolve(SlotHead(cs)); ch != nullptr;
         ch = pool_.Resolve(ch->next)) {
      DYNCQ_CHECK_MSG(ch->weight > 0, "unfit item found in a fit list");
      DYNCQ_CHECK_MSG(ch->in_list, "listed item not flagged in_list");
      sum += ch->weight;
      if (child_free) sum_free += ch->weight_free;
      ++fit_listed;
    }
    DYNCQ_CHECK_MSG(sum == cs.sum, "running sum C^i_u diverged");
    if (child_free) {
      DYNCQ_CHECK_MSG(sum_free == cs.sum_free,
                      "running sum C~^i_u diverged");
    }

    // Child index: keys/back-handles consistent; fit members coincide
    // with the list population.
    std::size_t fit_indexed = 0;
    cs.index.ForEach([&](Value key, std::uint64_t bits) {
      const Item* ch = pool_.Resolve(ItemHandle::FromBits(bits));
      DYNCQ_CHECK_MSG(ch != nullptr, "child index holds a null handle");
      DYNCQ_CHECK_MSG(ch->self == ItemHandle::FromBits(bits),
                      "child index handle != item's own name");
      DYNCQ_CHECK_MSG(ch->value == key, "child index key != item value");
      DYNCQ_CHECK_MSG(ch->parent == it->self,
                      "child item parent handle wrong");
      DYNCQ_CHECK_MSG(ch->node == static_cast<std::uint32_t>(child_node),
                      "child item indexed under the wrong q-tree node");
      DYNCQ_CHECK_MSG(ch->in_list == (ch->weight > 0),
                      "fit item missing from list (or vice versa)");
      if (ch->in_list) ++fit_indexed;
      reached += CheckItemRec(ch);
    });
    DYNCQ_CHECK_MSG(fit_indexed == fit_listed,
                    "fit list and child index disagree");
  }

  // Lemma 6.3/6.4: stored weights match a recomputation from counts and
  // (just re-verified) child sums.
  Weight c = 1;
  for (int s : nm.rep_slots) c *= counts[s];
  for (int u = 0; u < nm.num_children; ++u) c *= slots[u].sum;
  DYNCQ_CHECK_MSG(c == it->weight, "stored weight diverged");
  if (nm.is_free) {
    Weight ct = 0;
    if (c > 0) {
      ct = 1;
      for (int u : nm.free_child_slots) ct *= slots[u].sum_free;
    }
    DYNCQ_CHECK_MSG(ct == it->weight_free, "stored free weight diverged");
  }
  return reached;
}

void ComponentEngine::CheckInvariants() const {
  const bool root_free = node_meta_[0].is_free;
  Weight start = 0, start_free = 0;
  std::size_t fit_listed = 0;
  for (const Item* it = pool_.Resolve(SlotHead(root_slot_)); it != nullptr;
       it = pool_.Resolve(it->next)) {
    DYNCQ_CHECK_MSG(it->weight > 0, "unfit item found in the root list");
    start += it->weight;
    if (root_free) start_free += it->weight_free;
    ++fit_listed;
  }
  DYNCQ_CHECK_MSG(start == root_slot_.sum, "Cstart diverged");
  if (root_free) {
    DYNCQ_CHECK_MSG(start_free == root_slot_.sum_free,
                    "C~start diverged");
  }

  std::size_t reached = 0;
  std::size_t fit_indexed = 0;
  root_index_.ForEach([&](Value key, std::uint64_t bits) {
    const Item* it = pool_.Resolve(ItemHandle::FromBits(bits));
    DYNCQ_CHECK_MSG(it != nullptr, "root index holds a null handle");
    DYNCQ_CHECK_MSG(it->self == ItemHandle::FromBits(bits),
                    "root index handle != item's own name");
    DYNCQ_CHECK_MSG(it->value == key, "root index key != item value");
    DYNCQ_CHECK_MSG(!it->parent, "root item has a parent");
    DYNCQ_CHECK_MSG(it->node == 0, "root index holds a non-root item");
    DYNCQ_CHECK_MSG(it->in_list == (it->weight > 0),
                    "fit root item missing from list (or vice versa)");
    if (it->in_list) ++fit_indexed;
    reached += CheckItemRec(it);
  });
  DYNCQ_CHECK_MSG(fit_indexed == fit_listed,
                  "root list and root index disagree");
  DYNCQ_CHECK_MSG(reached == pool_.live_items(),
                  "child indexes reach a different item count than the "
                  "pool tracks");
}

}  // namespace dyncq::core
