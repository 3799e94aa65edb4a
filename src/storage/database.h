// A relational database instance over a fixed schema with single-tuple
// updates (paper §2).
#ifndef DYNCQ_STORAGE_DATABASE_H_
#define DYNCQ_STORAGE_DATABASE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cq/schema.h"
#include "storage/relation.h"
#include "storage/update.h"

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
  /// Bulk-load path: pre-sizes the relations from the stream's
  /// composition so the replay never rehashes (paper §6.4 linear-time
  /// preprocessing).
  std::size_t ApplyAll(const UpdateStream& stream);

  /// Pre-sizes relation `rel` for `n` more tuples.
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
  /// Counted from scratch in O(||D||) on every call: the update path
  /// never reads the active domain (it appears only in the size measure
  /// ||D||), so no cached state is maintained for it.
  std::size_t ActiveDomainSize() const;

  void Clear();

  std::string ToString() const;

 private:
  const Schema& schema_;
  std::vector<Relation> relations_;
};

}  // namespace dyncq

#endif  // DYNCQ_STORAGE_DATABASE_H_
