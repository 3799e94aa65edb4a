// A relational database instance over a fixed schema, with active-domain
// tracking and single-tuple updates (paper §2).
#ifndef DYNCQ_STORAGE_DATABASE_H_
#define DYNCQ_STORAGE_DATABASE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cq/schema.h"
#include "storage/relation.h"
#include "storage/update.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/open_hash_map.h"
#include "util/thread_annotations.h"

namespace dyncq {

class Database {
 public:
  explicit Database(const Schema& schema);

  const Schema& schema() const { return schema_; }

  const Relation& relation(RelId id) const;
  Relation& relation(RelId id);

  /// Applies an update command. Returns true iff the database changed
  /// (insert of a present tuple / delete of an absent tuple are no-ops).
  bool Apply(const UpdateCmd& cmd);


  /// Applies a whole stream; returns the number of effective updates.
  /// Bulk-load path: pre-sizes the relations and the active-domain map
  /// from the stream's composition so the replay never rehashes (paper
  /// §6.4 linear-time preprocessing).
  std::size_t ApplyAll(const UpdateStream& stream);

  /// Pre-sizes relation `rel` (and the active-domain map) for `n` more
  /// tuples.
  void Reserve(RelId rel, std::size_t n);

  /// Hints the lines `cmd` will probe into cache (the relation's
  /// metadata group first, then the first line of its tuple words — see
  /// Relation::Prefetch); used by batch loops to look ahead.
  void Prefetch(const UpdateCmd& cmd) const {
    relations_[cmd.rel].Prefetch(cmd.tuple);
  }

  bool Insert(RelId rel, const Tuple& t);
  bool Delete(RelId rel, const Tuple& t);

  /// |D|: total number of stored tuples.
  std::size_t NumTuples() const;

  /// ||D||: |schema| + |adom| + sum_R ar(R)*|R^D| (paper §2, Sizes).
  std::size_t SizeD() const;

  /// Total hash probes across all relations (see Relation::probe_count).
  std::uint64_t TotalRelationProbes() const {
    std::uint64_t total = 0;
    for (const Relation& r : relations_) total += r.probe_count();
    return total;
  }

  /// n = |adom(D)|: number of distinct constants in the database.
  /// Maintained lazily: updates only mark the cached reference counts
  /// stale (keeping per-update hash work off the streaming hot path) and
  /// the first adom query after a change rebuilds them in O(||D||).
  /// Safe for concurrent READERS (rebuild and read both run under the
  /// adom mutex; see EnsureAdomLocked) — multiple engines sharing one
  /// database may size their preprocessing from |adom| at once. Writes
  /// still require the usual external synchronization against reads.
  std::size_t ActiveDomainSize() const;

  /// True if `v` occurs somewhere in the database.
  bool InActiveDomain(Value v) const;

  void Clear();

  std::string ToString() const;

 private:
  // Active-domain reference counts (value -> number of tuple positions
  // holding it), rebuilt on demand — see ActiveDomainSize. The mutex
  // serializes the const-method lazy rebuild between concurrent readers
  // AND covers every read of the rebuilt map: the annotation sweep
  // caught the previous shape (rebuild locked, the .size()/.Contains()
  // read after it unlocked) as a read outside the capability. The whole
  // state lives in one heap-held struct so Database stays movable and
  // the GUARDED_BY names a member of the same struct (moves are
  // externally synchronized like writes).
  struct AdomState {
    util::Mutex mu;
    OpenHashMap<Value, std::uint64_t, U64Hash> counts DYNCQ_GUARDED_BY(mu);
    // Write-path gate, deliberately NOT guarded: Insert/Delete are the
    // engine's per-update hot path (E5-gated at tens of ns) and must not
    // take a mutex — they flip this flag with a relaxed store. Writers
    // are externally synchronized against adom readers, so the only
    // concurrency on the flag is reader-vs-reader under `mu`, where
    // relaxed loads suffice.
    std::atomic<bool> stale{false};
  };

  /// Rebuilds `adom_->counts` if stale. Callers keep holding the lock
  /// across their subsequent read of the map.
  void EnsureAdomLocked() const DYNCQ_REQUIRES(adom_->mu);

  const Schema& schema_;
  std::vector<Relation> relations_;
  std::unique_ptr<AdomState> adom_ = std::make_unique<AdomState>();
};

}  // namespace dyncq

#endif  // DYNCQ_STORAGE_DATABASE_H_
