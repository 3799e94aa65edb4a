// Parent-scoped child index: the per-item successor table of the dynamic
// q-tree structure.
//
// Every item i = [v, α, a] owns, per child u of v, the set of child items
// [u, α a, b] keyed by their own value b. Because the parent item already
// pins down the whole root-path prefix α a, a single-Value key suffices —
// the update procedure (§6.4) descends one hash probe per level instead of
// hashing the full prefix into a global per-node map.
//
// Entries are fixed-width records of 1 + stride 64-bit words:
//
//   [ key | payload word 0 | ... | payload word stride-1 ]
//
// The stride is a runtime property of the table (set once, while empty).
// Three record shapes exist in the engine:
//  * stride 1 (default): payload = the child ItemHandle bits (the pool
//    name of the child item, core/handle.h) — the classic child index,
//    or a unit-leaf presence table (payload word 1);
//  * stride k+2 (strided leaf mode): a leaf node tracking k > 1 atoms
//    stores its per-entry atom counts (k words, each 0/1 — a leaf count
//    is a fully-determined expansion) plus intrusive fit-list links (two
//    key words) directly in the parent's table, so no leaf Item is ever
//    allocated (core/component_engine.cc, FlipLeafEntry);
//  * ad hoc payloads in tests.
//
// Layout is a two-mode open-addressing table tuned for the fanout
// distribution of real item trees (most items have a handful of children,
// a few hubs have thousands):
//  * inline mode: up to 8/(1+stride) records stored directly in the
//    object, scanned linearly — no heap allocation, no hashing;
//  * heap mode: a power-of-two linear-probe table from plain sized
//    operator new, with backward-shift deletion (no tombstones, so probe
//    chains never rot under churn).
//
// Value 0 is the engine-wide reserved sentinel (util/types.h) and doubles
// as the empty-record marker, so the table needs no flags array and a
// zero-initialized ChildIndex is a valid empty one.
#ifndef DYNCQ_CORE_CHILD_INDEX_H_
#define DYNCQ_CORE_CHILD_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/types.h"

namespace dyncq::core {

class ChildIndex {
 public:
  /// Stride-1 record view (key + one payload word — ItemHandle bits in
  /// the engine's child indexes, a presence marker in unit-leaf tables).
  /// The layout of a record with stride 1 is exactly this struct.
  struct Entry {
    Value key = 0;  // 0 = empty record
    std::uint64_t payload = 0;
  };
  static_assert(sizeof(Entry) == 2 * sizeof(std::uint64_t));

  /// Inline capacity in records at the default stride 1.
  static constexpr std::size_t kInlineCap = 4;

  ChildIndex() = default;
  ChildIndex(const ChildIndex&) = delete;
  ChildIndex& operator=(const ChildIndex&) = delete;
  ~ChildIndex() {
    if (slots_ != nullptr) Deallocate(slots_, HeapCap() * rec_words_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Payload words per record. May only be changed while the table is
  /// empty and has never spilled (the engine configures leaf slots right
  /// after placement-constructing them).
  std::size_t stride() const { return rec_words_ - 1; }
  void set_stride(std::size_t payload_words) {
    DYNCQ_DCHECK(size_ == 0 && slots_ == nullptr);
    DYNCQ_DCHECK(payload_words >= 1 && payload_words < 255);
    rec_words_ = static_cast<std::uint8_t>(payload_words + 1);
  }

  /// Hints the cache line holding `v`'s probe start into cache. Used to
  /// overlap the root-index miss with the database's own hash probes.
  void Prefetch(Value v) const {
    if (slots_ != nullptr) {
      __builtin_prefetch(
          &slots_[(Mix64(v) & (HeapCap() - 1)) * rec_words_]);
    }
  }

  /// Record for `v` (key at word 0, payload after), or nullptr. The
  /// pointer is valid until the next mutation of this index. The loops
  /// are strength-reduced to pointer increments (no per-step stride
  /// multiply — this is the §6.4 descent's per-level probe).
  std::uint64_t* FindRecord(Value v) {
    DYNCQ_DCHECK(v != 0);
    const std::size_t rw = rec_words_;
    if (slots_ == nullptr) {
      std::uint64_t* rec = inline_;
      std::uint64_t* end = inline_ + size_ * rw;
      for (; rec != end; rec += rw) {
        if (rec[0] == v) return rec;
      }
      return nullptr;
    }
    const std::size_t mask = HeapCap() - 1;
    std::size_t i = Mix64(v) & mask;
    std::uint64_t* rec = slots_ + i * rw;
    while (true) {
      if (rec[0] == v) return rec;
      if (rec[0] == 0) return nullptr;
      if (++i > mask) {
        i = 0;
        rec = slots_;
      } else {
        rec += rw;
      }
    }
  }
  const std::uint64_t* FindRecord(Value v) const {
    return const_cast<ChildIndex*>(this)->FindRecord(v);
  }

  /// Payload word for `v`, or 0 (stride-1 view). In the engine's child
  /// indexes the payload is the child's ItemHandle bits, so 0 ("no
  /// record") and the null handle coincide.
  std::uint64_t Find(Value v) const {
    const std::uint64_t* rec = FindRecord(v);
    return rec != nullptr ? rec[1] : 0;
  }

  /// Record for `v`, claiming an empty (zero-payload) record if absent.
  /// The pointer is valid until the next mutation of this index.
  ///
  /// The lookup probes BEFORE any growth decision: finding a present key
  /// is side-effect free at every fill level, so previously returned
  /// record pointers and live record cursors stay valid across repeated
  /// finds — the table only rehashes when a new key is actually inserted.
  std::uint64_t* FindOrInsertRecord(Value v) {
    DYNCQ_DCHECK(v != 0);
    const std::size_t rw = rec_words_;
    if (slots_ == nullptr) {
      std::uint64_t* rec = inline_;
      std::uint64_t* end = inline_ + size_ * rw;
      for (; rec != end; rec += rw) {
        if (rec[0] == v) return rec;
      }
      if (size_ < kInlineWords / rw) {
        ++size_;
        rec[0] = v;
        std::memset(rec + 1, 0, (rw - 1) * sizeof(std::uint64_t));
        return rec;
      }
      GrowToHeap(kInitialHeapRecords);
    }
    std::size_t mask = HeapCap() - 1;
    std::size_t i = Mix64(v) & mask;
    std::uint64_t* rec = slots_ + i * rw;
    while (true) {
      if (rec[0] == v) return rec;
      if (rec[0] == 0) break;
      if (++i > mask) {
        i = 0;
        rec = slots_;
      } else {
        rec += rw;
      }
    }
    // Not present: grow only now, on an actual insertion (a find of a
    // present key at the load threshold must not rehash).
    const std::size_t cap = mask + 1;
    if (size_ + 1 >= cap - cap / 4) {  // 3/4 load, overflow-free
      GrowToHeap(GrownCapacity(cap));
      mask = HeapCap() - 1;
      i = Mix64(v) & mask;
      rec = slots_ + i * rw;
      while (rec[0] != 0) {
        if (++i > mask) {
          i = 0;
          rec = slots_;
        } else {
          rec += rw;
        }
      }
    }
    rec[0] = v;
    ++size_;
    return rec;  // payload already zero (empty records are all-zero)
  }

  /// Stride-1 view of FindOrInsertRecord: payload word for `v`, claiming
  /// an empty (zero-payload) record if absent.
  std::uint64_t* FindOrInsertSlot(Value v) {
    DYNCQ_DCHECK(rec_words_ == 2);
    return FindOrInsertRecord(v) + 1;
  }

  /// Removes `v`. Returns true iff it was present. After mass deletion a
  /// heap table shrinks back down (see MaybeShrink) so the worst-case
  /// record-cursor scan stays proportional to the live population.
  bool Erase(Value v) {
    DYNCQ_DCHECK(v != 0);
    if (slots_ == nullptr) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        std::uint64_t* rec = inline_ + i * rec_words_;
        if (rec[0] == v) {
          --size_;
          std::uint64_t* last = inline_ + size_ * rec_words_;
          if (rec != last) CopyRecord(rec, last);
          ZeroRecord(last);
          return true;
        }
      }
      return false;
    }
    const std::size_t mask = HeapCap() - 1;
    std::size_t i = Mix64(v) & mask;
    while (slots_[i * rec_words_] != v) {
      if (slots_[i * rec_words_] == 0) return false;
      i = (i + 1) & mask;
    }
    // Backward-shift deletion: close the probe-sequence gap at i.
    ZeroRecord(slots_ + i * rec_words_);
    --size_;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j * rec_words_] == 0) break;
      std::size_t k = Mix64(slots_[j * rec_words_]) & mask;
      bool movable = (j > i) ? (k <= i || k > j) : (k <= i && k > j);
      if (movable) {
        CopyRecord(slots_ + i * rec_words_, slots_ + j * rec_words_);
        ZeroRecord(slots_ + j * rec_words_);
        i = j;
      }
    }
    MaybeShrink();
    return true;
  }

  /// Drops every record and releases the heap table (back to inline
  /// mode). The stride is kept.
  void Clear() {
    if (slots_ != nullptr) {
      Deallocate(slots_, HeapCap() * rec_words_);
      slots_ = nullptr;
      cap_log2_ = 0;
    }
    std::memset(inline_, 0, sizeof(inline_));
    size_ = 0;
  }

  /// Pre-sizes the table for `n` records (bulk-load path). Overflow-safe:
  /// a request no power-of-two capacity can represent is a DCHECK in
  /// debug builds and clamps to the largest allocatable capacity in
  /// release (the table then simply grows-by-rehash during the fill).
  void Reserve(std::size_t n) {
    if (slots_ == nullptr && n <= kInlineWords / rec_words_) return;
    const std::size_t max_cap = MaxRecords();
    std::size_t cap = slots_ != nullptr
                          ? HeapCap()
                          : static_cast<std::size_t>(kInitialHeapRecords);
    // Smallest power-of-two cap the insert threshold (3/4 load) never
    // triggers growth for: n < cap - cap/4. All comparisons are
    // division-based, so n near SIZE_MAX neither overflows nor spins;
    // a request even the largest allocatable capacity cannot satisfy is
    // a DCHECK failure in debug builds and clamps in release (the fill
    // then simply grows-by-rehash until allocation fails cleanly —
    // RehashHeap publishes no state before its allocation succeeds).
    while (cap < max_cap && n >= cap - cap / 4) cap <<= 1;
    DYNCQ_DCHECK_MSG(n < cap - cap / 4,
                     "ChildIndex::Reserve request unrepresentable");
    if (slots_ == nullptr || cap > HeapCap()) GrowToHeap(cap);
  }

  /// Invokes fn(Value, payload) for every entry (stride-1 view; test and
  /// invariant hook — the hot paths never iterate).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachRecord(
        [&](const std::uint64_t* rec) { fn(static_cast<Value>(rec[0]), rec[1]); });
  }

  /// Invokes fn(const uint64_t* record) for every record.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    if (slots_ == nullptr) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        fn(static_cast<const std::uint64_t*>(inline_ + i * rec_words_));
      }
      return;
    }
    const std::size_t cap = HeapCap();
    for (std::size_t i = 0; i < cap; ++i) {
      const std::uint64_t* rec = slots_ + i * rec_words_;
      if (rec[0] != 0) fn(rec);
    }
  }

  /// Record-cursor iteration for inline-leaf enumeration (core engine):
  /// records are stable between updates, so an enumerator may walk them
  /// directly. Inline mode preserves insertion order; a spilled table
  /// yields its probe order.
  const std::uint64_t* FirstRecord() const {
    if (slots_ == nullptr) return size_ > 0 ? inline_ : nullptr;
    return NextOccupied(slots_);
  }
  const std::uint64_t* NextRecord(const std::uint64_t* rec) const {
    if (slots_ == nullptr) {
      rec += rec_words_;
      return rec < inline_ + size_ * rec_words_ ? rec : nullptr;
    }
    return NextOccupied(rec + rec_words_);
  }

  /// Stride-1 views of the record cursor.
  const Entry* FirstEntry() const {
    DYNCQ_DCHECK(rec_words_ == 2);
    return reinterpret_cast<const Entry*>(FirstRecord());
  }
  const Entry* NextEntry(const Entry* e) const {
    return reinterpret_cast<const Entry*>(
        NextRecord(reinterpret_cast<const std::uint64_t*>(e)));
  }

  /// Copy-on-write support (ItemPool block copies): after a byte copy of
  /// an index, both objects name the same heap table. Gives this one a
  /// private copy of it. On bad_alloc nothing changes — this object
  /// still names the shared table and must not be destroyed.
  void UnshareHeap() {
    if (slots_ == nullptr) return;
    const std::size_t words = HeapCap() * rec_words_;
    std::uint64_t* fresh = Allocate(words);
    std::memcpy(fresh, slots_, words * sizeof(std::uint64_t));
    slots_ = fresh;
  }

  /// Heap-table record count (0 while in inline mode). Test/telemetry
  /// hook for the shrink-on-low-load policy.
  std::size_t heap_capacity() const {
    return slots_ != nullptr ? HeapCap() : 0;
  }

 private:
  static constexpr std::size_t kInlineWords = 8;        // 64-byte buffer
  static constexpr std::size_t kInitialHeapRecords = 8;

  /// Heap-table record capacity (meaningful while slots_ != nullptr).
  std::size_t HeapCap() const { return std::size_t{1} << cap_log2_; }

  void CopyRecord(std::uint64_t* dst, const std::uint64_t* src) const {
    std::memcpy(dst, src, rec_words_ * sizeof(std::uint64_t));
  }
  void ZeroRecord(std::uint64_t* rec) const {
    std::memset(rec, 0, rec_words_ * sizeof(std::uint64_t));
  }

  /// Largest power-of-two record count whose word allocation is
  /// representable (with headroom so cap*3-style arithmetic stays safe).
  std::size_t MaxRecords() const {
    return std::bit_floor(std::numeric_limits<std::size_t>::max() /
                          (16 * sizeof(std::uint64_t)) /
                          rec_words_);
  }

  /// Doubled capacity with a release clamp at the allocation ceiling (a
  /// table genuinely that full fails operator new long before).
  std::size_t GrownCapacity(std::size_t cap) const {
    const std::size_t max_cap = MaxRecords();
    DYNCQ_DCHECK_MSG(cap < max_cap, "ChildIndex capacity unrepresentable");
    return cap < max_cap ? cap * 2 : max_cap;
  }

  const std::uint64_t* NextOccupied(const std::uint64_t* rec) const {
    const std::uint64_t* end = slots_ + HeapCap() * rec_words_;
    for (; rec < end; rec += rec_words_) {
      if (rec[0] != 0) return rec;
    }
    return nullptr;
  }

  /// Plain sized operator new, deliberately not an over-aligned one:
  /// the allocator's 16-byte alignment already keeps a stride-1 record
  /// inside one cache line, and wider records straddle lines at any base
  /// alignment. An aligned request would make glibc's memalign trim and
  /// free a small remainder per table, and those fragments pile up in
  /// the fastbins until a later large allocation (a copy-on-write block
  /// copy, inside a timed write) pays to consolidate them all.
  static std::uint64_t* Allocate(std::size_t words) {
    DYNCQ_ALLOC_FAILPOINT();
    void* mem = ::operator new(words * sizeof(std::uint64_t));
    std::uint64_t* slots = static_cast<std::uint64_t*>(mem);
    std::memset(slots, 0, words * sizeof(std::uint64_t));
    return slots;
  }

  static void Deallocate(std::uint64_t* slots, std::size_t words) {
    ::operator delete(slots, words * sizeof(std::uint64_t));
  }

  /// Adaptive shrink-on-low-load: heap tables grown by a hub's past
  /// fanout would otherwise never give the memory back, and the spilled
  /// inline-leaf record cursor scans whole tables — so a mass deletion
  /// would degrade the worst-case (not amortized) enumeration delay
  /// forever. Trigger at 1/8 load, rebuild at ~1/4..1/2 load (growth
  /// re-triggers at 3/4, so churn cannot thrash between the two).
  void MaybeShrink() {
    const std::size_t cap = HeapCap();
    if (cap <= kInitialHeapRecords || size_ * 8 >= cap) return;
    if (size_ <= kInlineWords / rec_words_) {
      ShrinkToInline();
      return;
    }
    std::size_t new_cap = cap;
    while (new_cap > kInitialHeapRecords && size_ * 4 < new_cap) {
      new_cap >>= 1;
    }
    if (new_cap < cap) RehashHeap(new_cap);
  }

  void ShrinkToInline() {
    std::uint64_t tmp[kInlineWords];
    std::uint32_t n = 0;
    const std::size_t cap = HeapCap();
    for (std::size_t i = 0; i < cap; ++i) {
      const std::uint64_t* rec = slots_ + i * rec_words_;
      if (rec[0] != 0) {
        std::memcpy(tmp + n * rec_words_, rec,
                    rec_words_ * sizeof(std::uint64_t));
        ++n;
      }
    }
    DYNCQ_DCHECK(n == size_);
    Deallocate(slots_, cap * rec_words_);
    slots_ = nullptr;
    cap_log2_ = 0;
    std::memset(inline_, 0, sizeof(inline_));
    std::memcpy(inline_, tmp, n * rec_words_ * sizeof(std::uint64_t));
  }

  void GrowToHeap(std::size_t new_cap) { RehashHeap(new_cap); }

  /// Rebuilds the heap table at `new_cap` records (grow or shrink).
  void RehashHeap(std::size_t new_cap) {
    std::uint64_t* fresh = Allocate(new_cap * rec_words_);
    std::size_t new_mask = new_cap - 1;
    auto reinsert = [&](const std::uint64_t* rec) {
      std::size_t i = Mix64(rec[0]) & new_mask;
      while (fresh[i * rec_words_] != 0) i = (i + 1) & new_mask;
      std::memcpy(fresh + i * rec_words_, rec,
                  rec_words_ * sizeof(std::uint64_t));
    };
    if (slots_ == nullptr) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        reinsert(inline_ + i * rec_words_);
      }
    } else {
      const std::size_t cap = HeapCap();
      for (std::size_t i = 0; i < cap; ++i) {
        if (slots_[i * rec_words_] != 0) reinsert(slots_ + i * rec_words_);
      }
      Deallocate(slots_, cap * rec_words_);
    }
    slots_ = fresh;
    cap_log2_ = static_cast<std::uint8_t>(std::countr_zero(new_cap));
  }

  std::uint64_t inline_[kInlineWords] = {};  // used while slots_ == nullptr
  std::uint64_t* slots_ = nullptr;  // heap table (nullptr = inline mode)
  std::uint32_t size_ = 0;
  std::uint8_t cap_log2_ = 0;       // log2 of the heap record capacity
  std::uint8_t rec_words_ = 2;      // 1 key word + stride payload words
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_CHILD_INDEX_H_
