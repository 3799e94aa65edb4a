// Update commands: single-tuple inserts and deletes (paper §2, Updates).
#ifndef DYNCQ_STORAGE_UPDATE_H_
#define DYNCQ_STORAGE_UPDATE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/tuple.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/types.h"

namespace dyncq {

enum class UpdateKind : std::uint8_t { kInsert, kDelete };

struct UpdateCmd {
  UpdateKind kind = UpdateKind::kInsert;
  RelId rel = kInvalidRel;
  Tuple tuple;

  static UpdateCmd Insert(RelId rel, Tuple t) {
    return UpdateCmd{UpdateKind::kInsert, rel, std::move(t)};
  }
  static UpdateCmd Delete(RelId rel, Tuple t) {
    return UpdateCmd{UpdateKind::kDelete, rel, std::move(t)};
  }
};

/// A sequence of update commands (an update stream).
using UpdateStream = std::vector<UpdateCmd>;

/// Reusable in-batch fold for ordered batch replay.
///
/// Under set semantics the LAST command on a (relation, tuple) key forces
/// that tuple's final presence — insert forces present, delete forces
/// absent — regardless of earlier commands on the key or of the
/// pre-batch database state. An ordered replay may therefore drop every
/// superseded command: an inverse insert/delete pair with no later
/// command on its tuple collapses to its second half, and the dropped
/// half costs zero relation probes. Dropping BOTH halves would be wrong
/// under replay semantics: "insert t; delete t" must leave t absent even
/// when t was resident before the batch.
///
/// The key table holds command indices, not keys: a slot names the last
/// command seen on its key, and a probe compares against that command's
/// relation and tuple in place. Nothing is copied per command, and the
/// table and the survival flags are reused across calls, so a folder
/// that has seen a batch of this size allocates nothing.
class BatchFolder {
 public:
  /// Computes the per-key final commands of `cmds`. Returns true and
  /// fills `kept` with the ascending original indices of the surviving
  /// commands iff at least one command was folded away; returns false
  /// (leaving `kept` untouched) when nothing folds — callers then apply
  /// the original span with no indirection. Delete-free batches (bulk
  /// loads) are recognized in one cheap scan and never pay for the key
  /// table: without a delete there is no inverse pair, and a duplicate
  /// insert is absorbed by the relation's own set-semantics probe.
  bool Fold(std::span<const UpdateCmd> cmds,
            std::vector<std::uint32_t>* kept) {
    if (cmds.size() < 2) return false;
    bool has_delete = false;
    for (const UpdateCmd& cmd : cmds) {
      if (cmd.kind == UpdateKind::kDelete) {
        has_delete = true;
        break;
      }
    }
    if (!has_delete) return false;

    DYNCQ_CHECK(cmds.size() < kEmpty);
    // Linear probing at load <= 1/2.
    const std::size_t mask = std::bit_ceil(cmds.size() * 2) - 1;
    table_.assign(mask + 1, kEmpty);
    keep_.assign(cmds.size(), 1);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      const UpdateCmd& cmd = cmds[i];
      std::size_t h = HashCombine(HashWords(cmd.tuple.data(),
                                            cmd.tuple.size()),
                                  cmd.rel) &
                      mask;
      while (true) {
        const std::uint32_t j = table_[h];
        if (j == kEmpty) break;
        if (cmds[j].rel == cmd.rel && cmds[j].tuple == cmd.tuple) {
          keep_[j] = 0;
          ++dropped;
          break;
        }
        h = (h + 1) & mask;
      }
      table_[h] = static_cast<std::uint32_t>(i);
    }
    if (dropped == 0) return false;
    kept->clear();
    kept->reserve(cmds.size());  // capacity depends only on the size
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      if (keep_[i]) kept->push_back(static_cast<std::uint32_t>(i));
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  // Open-addressing key table: the index of the last command per
  // (relation, tuple) key, or kEmpty (scratch).
  std::vector<std::uint32_t> table_;
  std::vector<char> keep_;  // per-command survival flags (scratch)
};

inline std::string UpdateToString(const UpdateCmd& u,
                                  const std::string& rel_name) {
  return std::string(u.kind == UpdateKind::kInsert ? "insert " : "delete ") +
         rel_name + TupleToString(u.tuple);
}

}  // namespace dyncq

#endif  // DYNCQ_STORAGE_UPDATE_H_
