// A relation instance: a finite set of fixed-arity tuples.
#ifndef DYNCQ_STORAGE_RELATION_H_
#define DYNCQ_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/tuple.h"
#include "util/hash.h"
#include "util/types.h"

namespace dyncq {

/// Set-semantics relation storage. Insert/Erase report whether the
/// database actually changed, which drives the no-op detection required
/// by every dynamic engine. No-op operations — inserting a present
/// tuple, deleting an absent one, any Contains — leave every data
/// structure untouched: capacity, metadata bytes, and probe_count are
/// all unchanged (a regression test pins this; the previous layout
/// could rehash on a duplicate insert at the load threshold).
///
/// Storage is a swiss-table: a metadata byte array (one byte per slot —
/// empty, tombstone, or a 7-bit fragment of the tuple's hash) alongside
/// a flat `cap_ * arity_` value array. Probing walks 16-byte metadata
/// groups (SSE2 where available, word-parallel byte tricks otherwise)
/// and pre-filters candidates on the hash fragment, so most probe steps
/// touch one metadata cache line and zero tuple words. Deletion leaves
/// a tombstone (unless the group still has an empty byte, in which case
/// the slot reverts to empty); tombstones are purged by an amortized
/// same-capacity rehash when occupancy hits the 7/8 growth threshold.
/// Occupancy (live + tombstones) never reaches capacity, so every probe
/// sequence terminates at a group containing an empty byte.
///
/// Unlike the previous layout, the table does not use Value 0 as an
/// in-slot empty sentinel — emptiness lives in the metadata byte. The
/// engine-wide reservation of Value 0 (util/types.h) is still enforced
/// on Insert because the core engine's ChildIndex depends on it, but
/// the storage layer itself no longer does.
class Relation {
 public:
  explicit Relation(std::size_t arity) : arity_(arity) {}

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count of the backing table (0 = unallocated). Exposed so
  /// tests can assert that no-op operations never grow or shrink it.
  std::size_t capacity() const { return cap_; }

  bool Contains(const Tuple& t) const;

  /// Returns true iff `t` was newly inserted.
  bool Insert(const Tuple& t);

  /// Returns true iff `t` was present.
  bool Erase(const Tuple& t);

  void Clear();
  void Reserve(std::size_t n);

  /// Hints the lines `t` probes into cache (batch pipelines look a few
  /// commands ahead to hide the set-lookup latency): the metadata group
  /// first — the only line most probes touch — then the first line of
  /// the group's tuple words, needed iff the hash-fragment filter finds
  /// a candidate (deeper lines are left to the hardware prefetcher).
  void Prefetch(const Tuple& t) const {
    if (cap_ == 0 || arity_ == 0) return;
    const std::size_t group = GroupFor(Hash(t));
    __builtin_prefetch(meta_.get() + group * kGroupWidth);
    __builtin_prefetch(slots_.get() + group * kGroupWidth * arity_);
  }

  /// Forward iterator over the stored tuples; materializes each tuple by
  /// value (range-for with `const Tuple&` binds it as usual). Iterators
  /// compare equal only when they refer to the same relation AND the
  /// same position (previously `a.begin() == b.end()` could hold for two
  /// different relations of equal capacity).
  class const_iterator {
   public:
    const_iterator(const Relation* r, std::size_t i) : r_(r), i_(i) {
      SkipEmpty();
    }
    Tuple operator*() const {
      if (r_->arity_ == 0) return Tuple();
      const Value* s = r_->slots_.get() + i_ * r_->arity_;
      return Tuple(s, s + r_->arity_);
    }
    const_iterator& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return r_ == o.r_ && i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    void SkipEmpty() {
      if (r_->arity_ == 0) return;  // nullary: index counts () directly
      while (i_ < r_->cap_ && !MetaIsFull(r_->meta_[i_])) ++i_;
    }
    const Relation* r_;
    std::size_t i_;
  };

  /// Number of hash probes charged to database-changing operations
  /// (effective Insert/Erase). Batch pipelines use the delta of this
  /// counter to prove work was avoided (e.g. the ordered ApplyBatch fold
  /// dropping superseded commands before any probe). No-op commands —
  /// re-inserting a present tuple, deleting an absent one, exactly what
  /// StreamOptions.noop_ratio generates — short-circuit before a probe
  /// is charged, as do read-only Contains lookups, so deliberate no-ops
  /// in a stream do not pollute the zero-probe accounting.
  std::uint64_t probe_count() const { return probes_; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    if (arity_ == 0) return const_iterator(this, has_empty_tuple_ ? 1 : 0);
    return const_iterator(this, cap_);
  }

  std::string ToString(const std::string& name) const;

 private:
  // Metadata byte encoding: full slots carry the top 7 bits of the
  // tuple hash (high bit clear); the two control states set the high
  // bit so "full" and "empty-or-tombstone" separate on one bit.
  static constexpr std::uint8_t kMetaEmpty = 0x80;
  static constexpr std::uint8_t kMetaDeleted = 0xFF;
  static constexpr std::size_t kGroupWidth = 16;  // slots per probe group
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  static bool MetaIsFull(std::uint8_t m) { return (m & 0x80) == 0; }
  /// Hash fragment stored in the metadata byte (top 7 bits: independent
  /// of the group-index bits drawn from the bottom of the hash).
  static std::uint8_t H2(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }
  std::size_t num_groups() const { return cap_ / kGroupWidth; }
  std::size_t GroupFor(std::uint64_t h) const {
    return static_cast<std::size_t>(h) & (num_groups() - 1);
  }
  /// Highest occupancy (live + tombstones) allowed at capacity `cap`
  /// before a rehash: 7/8, so a probe always finds an empty byte.
  static std::size_t MaxOccupancy(std::size_t cap) { return cap - cap / 8; }

  std::uint64_t Hash(const Tuple& t) const {
    return HashWords(t.data(), arity_);
  }
  bool SlotEquals(std::size_t i, const Value* key) const;
  /// Slot holding `t`, or kNoSlot.
  std::size_t FindSlot(const Tuple& t, std::uint64_t h) const;
  /// If `t` is present returns {its slot, true}; otherwise returns
  /// {the empty-or-tombstone slot an insert should use, false}.
  struct ProbeResult {
    std::size_t slot;
    bool found;
  };
  ProbeResult FindOrPrepareInsert(const Tuple& t, std::uint64_t h) const;
  /// First empty-or-tombstone slot of `h`'s probe sequence (rehash path:
  /// the key is known absent, so no tuple words are compared).
  std::size_t FindInsertSlot(std::uint64_t h) const;
  void Rehash(std::size_t new_cap);
  /// Capacity to grow to when occupancy hits the threshold: same
  /// capacity (tombstone purge) while live size stays under half,
  /// doubled otherwise. The purge is amortized: after it, at least
  /// 3/8 of the table is growth headroom.
  std::size_t GrownCapacity() const;

  std::size_t arity_;
  std::size_t size_ = 0;        // live tuples
  std::size_t tombstones_ = 0;  // deleted slots awaiting a purge rehash
  std::size_t cap_ = 0;  // slot count, power of two multiple of 16
  std::unique_ptr<std::uint8_t[]> meta_;  // cap_ metadata bytes
  std::unique_ptr<Value[]> slots_;        // cap_ * arity_ words
  bool has_empty_tuple_ = false;  // arity-0 relations hold at most ()
  // Not mutable: only effective (non-const) Insert/Erase charge probes.
  std::uint64_t probes_ = 0;
};

}  // namespace dyncq

#endif  // DYNCQ_STORAGE_RELATION_H_
