// QuerySession: the public, session-oriented front door to dynamic query
// evaluation.
//
// Construction runs the dichotomy-driven engine selection (core/auto_engine.h)
// and reports which strategy was chosen plus a Capabilities struct, so
// callers branch on guarantees instead of engine types. Reads go through
// status-returning Cursors (engine_iface.h) keyed on the session's
// Revision; misuse (k == 0 partitions, a result that changed mid-drain)
// surfaces as util::Result errors / CursorStatus::kInvalidated instead of
// CHECK-aborts. A caller that stages updates collects them in an
// UpdateStream and hands it to ApplyBatch: the batch has the ordered
// replay's result, and commands superseded within it cost no relation
// probe (BatchFolder, storage/update.h).
#ifndef DYNCQ_CORE_SESSION_H_
#define DYNCQ_CORE_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/auto_engine.h"
#include "core/engine_iface.h"
#include "cq/query.h"
#include "storage/update.h"
#include "util/result.h"

namespace dyncq {

/// A live query session: owns the engine the dichotomy selected for the
/// query (q-tree, q-tree on the core, or delta-IVM — construction never
/// fails for a valid CQ) and exposes the four paper routines plus
/// partitioned enumeration and ordered batches.
///
/// Ownership note: a session's engine owns a PRIVATE Database — the
/// session is the sole writer and `db()` reflects exactly the updates
/// applied through it. This single-owner shape is a convenience, not an
/// engine requirement: to serve MANY standing queries over one shared
/// Database (storage stored once, deltas fanned out only to affected
/// engines, structurally identical queries deduplicated behind one
/// engine), register them with a serve::QueryRegistry instead, which
/// drives shared-storage engines (core::Engine::CreateShared) through
/// its write protocol.
class QuerySession {
 public:
  /// Opens a session on an empty database.
  explicit QuerySession(const Query& q);

  /// Opens a session preloaded with `initial` (linear-time preprocessing,
  /// replayed through the engine's batch pipeline).
  QuerySession(const Query& q, const Database& initial);

  QuerySession(QuerySession&&) = default;
  QuerySession& operator=(QuerySession&&) = default;

  // ---- what the construction chose ----
  const Query& query() const { return engine_->query(); }
  const Database& db() const { return engine_->db(); }
  core::EngineStrategy strategy() const { return strategy_; }
  /// One-line rationale referencing the applicable theorem.
  const std::string& rationale() const { return rationale_; }
  Capabilities capabilities() const { return engine_->capabilities(); }
  /// Underlying engine (white-box access for benches and tests).
  DynamicQueryEngine& engine() { return *engine_; }

  // ---- updates ----
  bool Apply(const UpdateCmd& cmd) { return engine_->Apply(cmd); }
  /// Ordered replay of `cmds` through the engine's batch pipeline (see
  /// DynamicQueryEngine::ApplyBatch): returns the number of effective
  /// commands after the fold drops superseded ones.
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds) {
    return engine_->ApplyBatch(cmds);
  }
  std::size_t ApplyAll(const UpdateStream& stream) {
    return engine_->ApplyAll(stream);
  }

  // ---- reads ----
  Revision revision() const { return engine_->revision(); }
  Weight Count() { return engine_->Count(); }
  bool Answer() { return engine_->Answer(); }
  std::unique_ptr<Cursor> NewCursor() { return engine_->NewCursor(); }

  /// Options-taking cursor factory. With `opts.snapshot` the cursor is
  /// pinned to the current epoch: it enumerates exactly the result as of
  /// this call, survives subsequent writes (never kInvalidated), and
  /// releases its snapshot when destroyed. Whether the pin is O(1) or a
  /// full materialization is the snapshot_enumeration capability bit.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewCursor(const CursorOptions& opts);

  /// Drains a fresh cursor (snapshot or live per `opts`) into a vector.
  /// Errors if a live drain is invalidated mid-way.
  [[nodiscard]] Result<std::vector<Tuple>> Materialize(const CursorOptions& opts = {});

  // ---- epoch pinning (see DynamicQueryEngine's threading contract) ----
  [[nodiscard]] Result<std::uint64_t> PinEpoch() { return engine_->PinEpoch(); }
  [[nodiscard]] Status UnpinEpoch(std::uint64_t epoch) {
    return engine_->UnpinEpoch(epoch);
  }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewSnapshotCursor(std::uint64_t epoch) {
    return engine_->NewSnapshotCursor(epoch);
  }

  /// Splits the current result into at most `k` independent ranges (see
  /// DynamicQueryEngine::NewPartitions). Each cursor may be drained by a
  /// different thread; all are invalidated together by the next update.
  [[nodiscard]] Result<std::vector<std::unique_ptr<Cursor>>> Partitions(std::size_t k) {
    return engine_->NewPartitions(k);
  }

 private:
  std::unique_ptr<DynamicQueryEngine> engine_;
  core::EngineStrategy strategy_;
  std::string rationale_;
};

}  // namespace dyncq

#endif  // DYNCQ_CORE_SESSION_H_
