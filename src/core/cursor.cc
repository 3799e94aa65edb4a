#include "core/cursor.h"

#include "util/check.h"

namespace dyncq {

std::vector<Tuple> MaterializeResult(DynamicQueryEngine& engine) {
  std::vector<Tuple> out;
  // Reserve from the maintained count so the drain never reallocates.
  out.reserve(BoundedReserveFromCount(engine.Count()));
  auto c = engine.NewCursor();
  Tuple t;
  while (c->Next(&t) == CursorStatus::kOk) out.push_back(t);
  return out;
}

}  // namespace dyncq

namespace dyncq::core {

namespace {

// Position encoding for regular (non-inlined) document positions:
//   (ItemHandle bits << 1)  — the current item, resolved via the pool;
//   (run-record ptr  |  1)  — an absorbable node standing on its
//                             parent's path-compression run record.
// Records are 16-aligned inside the parent block, so bit 0 is free;
// handle bits occupy at most 48 bits, so the shift never overflows.
// Inlined-leaf positions store ChildIndex entry/record pointers verbatim.
inline bool RecTagged(std::uint64_t v) { return (v & 1) != 0; }
inline const char* RecUntag(std::uint64_t v) {
  return reinterpret_cast<const char*>(
      static_cast<std::uintptr_t>(v & ~std::uint64_t{1}));
}
inline std::uint64_t RecTag(const char* p) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)) | 1;
}
inline std::uint64_t ItemPos(ItemHandle h) { return h.bits() << 1; }
inline ItemHandle PosItem(std::uint64_t v) {
  return ItemHandle::FromBits(v >> 1);
}
inline const void* PosPtr(std::uint64_t v) {
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(v));
}
inline std::uint64_t PtrPos(const void* p) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
}

}  // namespace

ComponentCursor::ComponentCursor(const ComponentEngine* ce,
                                 RevisionGuard guard,
                                 ItemHandle root_begin,
                                 ItemHandle root_end)
    : ce_(ce),
      guard_(guard),
      root_begin_(root_begin.bits()),
      root_end_(root_end.bits()) {
  DYNCQ_CHECK_MSG(!ce->query().head().empty(),
                  "ComponentCursor requires free variables");
  cur_.resize(ce->enum_meta().nodes.size(), 0);
}

ComponentCursor::ComponentCursor(FixedRootTag, const ComponentEngine* ce,
                                 RevisionGuard guard, ItemHandle fixed_root,
                                 const ItemPool::BlockRef* dir)
    : ce_(ce),
      dir_(dir),
      guard_(guard),
      root_begin_(fixed_root.bits()),
      root_end_(0),
      fixed_root_(true) {
  DYNCQ_CHECK_MSG(!ce->query().head().empty(),
                  "ComponentCursor requires free variables");
  cur_.resize(ce->enum_meta().nodes.size(), 0);
}

const ChildSlot& ComponentCursor::SlotOf(std::size_t pos) const {
  const auto& meta = ce_->enum_meta();
  int ppos = meta.parent_pos[pos];
  DYNCQ_DCHECK(ppos >= 0);
  // A parent of any enumerated node is either a regular item (inlined
  // leaves have no children) or an absorbed run record (tagged); the
  // slot address is a fixed offset into the item / record either way.
  const std::uint64_t p = cur_[static_cast<std::size_t>(ppos)];
  if (RecTagged(p)) {
    return *reinterpret_cast<const ChildSlot*>(RecUntag(p) +
                                               meta.rec_slot_off[pos]);
  }
  return *reinterpret_cast<const ChildSlot*>(
      reinterpret_cast<const char*>(Resolve(PosItem(p))) +
      meta.slot_off[pos]);
}

std::uint64_t ComponentCursor::FirstOf(std::size_t pos) const {
  const auto& meta = ce_->enum_meta();
  if (meta.absorbable[pos]) {
    // The parent of an absorbable position is always a materialized item
    // (heads are never absorbed themselves).
    const Item* parent = Resolve(
        PosItem(cur_[static_cast<std::size_t>(meta.parent_pos[pos])]));
    if (parent->run_len != 0) {
      return RecTag(reinterpret_cast<const char*>(parent) +
                    meta.parent_rec_off[pos]);
    }
  }
  const ChildSlot& slot = SlotOf(pos);
  switch (meta.leaf_kind[pos]) {
    case 1: {
      const ChildIndex::Entry* e = slot.index.FirstEntry();
      DYNCQ_DCHECK(e != nullptr);  // fit parents have entries
      return PtrPos(e);
    }
    case 2: {
      // Strided leaf: follow the intrusive fit links (head key stored in
      // the slot's link fields) — constant delay even when unfit
      // partial records dominate the table.
      const Value h = slot.head;
      DYNCQ_DCHECK(h != 0);  // fit parents have fit records
      return PtrPos(slot.index.FindRecord(h));
    }
    default:
      DYNCQ_DCHECK(slot.head != 0);  // fit parents: non-empty lists
      return slot.head << 1;         // head stores ItemHandle bits
  }
}

std::uint64_t ComponentCursor::NextOf(std::size_t pos) const {
  if (pos == 0) {
    const ItemHandle next = Resolve(PosItem(cur_[0]))->next;
    return next.bits() == root_end_ ? 0 : ItemPos(next);
  }
  const auto& meta = ce_->enum_meta();
  switch (meta.leaf_kind[pos]) {
    case 1:
      return PtrPos(SlotOf(pos).index.NextEntry(
          static_cast<const ChildIndex::Entry*>(PosPtr(cur_[pos]))));
    case 2: {
      const std::uint64_t* rec =
          static_cast<const std::uint64_t*>(PosPtr(cur_[pos]));
      const Value n =
          rec[static_cast<std::size_t>(meta.leaf_stride[pos])];
      return n == 0 ? 0 : PtrPos(SlotOf(pos).index.FindRecord(n));
    }
    default:
      if (RecTagged(cur_[pos])) return 0;  // absorbed: single child
      return ItemPos(Resolve(PosItem(cur_[pos]))->next);
  }
}

void ComponentCursor::Emit(Tuple* out) const {
  const auto& meta = ce_->enum_meta();
  out->clear();
  for (int pos : meta.head_doc_pos) {
    const std::size_t p = static_cast<std::size_t>(pos);
    if (meta.leaf_kind[p] != 0) {
      // Inlined-leaf record (either stride): the key is word 0.
      out->push_back(static_cast<Value>(
          static_cast<const std::uint64_t*>(PosPtr(cur_[p]))[0]));
    } else if (RecTagged(cur_[p])) {
      out->push_back(*reinterpret_cast<const Value*>(
          RecUntag(cur_[p]) + ComponentEngine::kRunValueOff));
    } else {
      out->push_back(Resolve(PosItem(cur_[p]))->value);
    }
  }
}

CursorStatus ComponentCursor::Next(Tuple* out) {
  if (!guard_.valid()) return CursorStatus::kInvalidated;
  if (done_) return CursorStatus::kEnd;
  step_dir_ = dir_ != nullptr ? dir_ : ce_->pool().directory();

  if (!started_) {
    started_ = true;
    const std::uint64_t root = (fixed_root_ || root_begin_ != 0)
                                   ? root_begin_
                                   : ce_->root_slot().head;
    if (root == 0 || root == root_end_) {
      done_ = true;
      return CursorStatus::kEnd;  // empty (range of the) result
    }
    cur_[0] = root << 1;
    for (std::size_t mu = 1; mu < cur_.size(); ++mu) {
      cur_[mu] = FirstOf(mu);
    }
    Emit(out);
    return CursorStatus::kOk;
  }

  // Algorithm 1: advance the deepest (in document order) position that is
  // not last in its list; reset everything after it to first positions.
  std::uint64_t next = 0;
  std::size_t j = cur_.size();
  while (j > 0 && (next = NextOf(j - 1)) == 0) --j;
  if (j == 0) {
    done_ = true;
    return CursorStatus::kEnd;
  }
  cur_[j - 1] = next;
  for (std::size_t mu = j; mu < cur_.size(); ++mu) {
    cur_[mu] = FirstOf(mu);
  }
  Emit(out);
  return CursorStatus::kOk;
}

CursorStatus ComponentCursor::Reset() {
  if (!guard_.valid()) return CursorStatus::kInvalidated;
  started_ = false;
  done_ = false;
  return CursorStatus::kOk;
}

CursorStatus BooleanGateCursor::Next(Tuple* out) {
  if (!guard_.valid()) return CursorStatus::kInvalidated;
  if (emitted_ || !nonempty_) return CursorStatus::kEnd;
  emitted_ = true;
  out->clear();
  return CursorStatus::kOk;
}

ProductCursor::ProductCursor(std::vector<std::unique_ptr<Cursor>> subs,
                             std::vector<std::pair<int, int>> head_map)
    : subs_(std::move(subs)), head_map_(std::move(head_map)) {
  current_.resize(subs_.size());
}

void ProductCursor::Emit(Tuple* out) const {
  out->clear();
  for (const auto& [comp, pos] : head_map_) {
    out->push_back(current_[static_cast<std::size_t>(comp)]
                           [static_cast<std::size_t>(pos)]);
  }
}

CursorStatus ProductCursor::Next(Tuple* out) {
  if (done_) return CursorStatus::kEnd;

  if (!started_) {
    started_ = true;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      CursorStatus s = subs_[i]->Next(&current_[i]);
      if (s == CursorStatus::kInvalidated) return s;
      if (s == CursorStatus::kEnd) {
        done_ = true;  // some component is empty -> empty product
        return CursorStatus::kEnd;
      }
    }
    Emit(out);
    return CursorStatus::kOk;
  }

  // Odometer advance from the last component.
  std::size_t i = subs_.size();
  while (i > 0) {
    CursorStatus s = subs_[i - 1]->Next(&current_[i - 1]);
    if (s == CursorStatus::kInvalidated) return s;
    if (s == CursorStatus::kOk) break;
    s = subs_[i - 1]->Reset();
    if (s == CursorStatus::kInvalidated) return s;
    s = subs_[i - 1]->Next(&current_[i - 1]);
    if (s == CursorStatus::kInvalidated) return s;
    DYNCQ_CHECK_MSG(s == CursorStatus::kOk,
                    "component became empty mid-enumeration");
    --i;
  }
  if (i == 0) {
    done_ = true;
    return CursorStatus::kEnd;
  }
  Emit(out);
  return CursorStatus::kOk;
}

CursorStatus ProductCursor::Reset() {
  for (auto& s : subs_) {
    if (s->Reset() == CursorStatus::kInvalidated) {
      return CursorStatus::kInvalidated;
    }
  }
  started_ = false;
  done_ = false;
  return CursorStatus::kOk;
}

}  // namespace dyncq::core
