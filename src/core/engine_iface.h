// The common interface for dynamic query evaluation algorithms
// (paper §2, "Dynamic Algorithms for Query Evaluation").
//
// Implemented by the q-tree engine (core::Engine, Theorem 3.2), the
// baselines (baseline::RecomputeEngine, baseline::DeltaIvmEngine), and the
// Appendix A special-case engine (core::Phi2Engine). The §5 reductions,
// the QuerySession facade (core/session.h), and the benchmark harness are
// written against this interface so any algorithm can be swapped in.
//
// Reads go through Cursors: a cursor is pinned to the Revision of the
// result it was opened at, and instead of aborting on misuse it reports
// CursorStatus::kInvalidated once the engine has moved past that revision
// (the paper's model restarts enumeration after each update).
#ifndef DYNCQ_CORE_ENGINE_IFACE_H_
#define DYNCQ_CORE_ENGINE_IFACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cq/query.h"
#include "storage/database.h"
#include "storage/update.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace dyncq {

/// Monotone version of an engine's maintained result. Every effective
/// (database-changing) update advances the revision; no-op updates do
/// not. Cursors are keyed to the revision they were opened at.
struct Revision {
  std::uint64_t value = 0;
  friend bool operator==(const Revision&, const Revision&) = default;
};

/// Typed outcome of a cursor step (replaces abort-on-stale-use).
/// Snapshot cursors (opened with CursorOptions{.snapshot = true} or via
/// NewSnapshotCursor) are pinned to a specific epoch and never report
/// kInvalidated — writes fork the structure out from under them instead
/// of moving it. Ordinary cursors keep the strict behavior below.
enum class CursorStatus : std::uint8_t {
  kOk,           // a tuple was produced
  kEnd,          // end of enumeration (sticky; the paper's EOE message)
  kInvalidated,  // the engine's revision moved past the cursor's —
                 // results may have changed, open a fresh cursor
};

/// How a read should relate to concurrent writes.
struct CursorOptions {
  /// Pin the current epoch for the cursor's whole lifetime: the cursor
  /// enumerates exactly the result as of its creation, with writes
  /// proceeding underneath, and never reports kInvalidated. Engines with
  /// the snapshot_enumeration capability preserve constant-delay
  /// enumeration over the pinned structure; other engines degrade to
  /// materialize-on-pin (the pin costs one result materialization).
  bool snapshot = false;
};

/// Checks that the structure a cursor walks has not changed since the
/// cursor was opened. A null counter never invalidates (used by cursors
/// over self-contained snapshots).
struct RevisionGuard {
  const std::uint64_t* current = nullptr;
  std::uint64_t at_create = 0;

  bool valid() const { return current == nullptr || *current == at_create; }
};

/// Cursor over the query result at one revision, one tuple per Next()
/// call (the paper's `enumerate` routine).
///
/// Contract: Next() writes `*out` and returns kOk, or returns kEnd once
/// the result is exhausted (kEnd is sticky), or returns kInvalidated as
/// soon as the underlying engine applied an effective update — a stale
/// cursor never walks freed structure and never aborts the process.
/// Tuples are emitted without repetition within one pass.
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Writes the next result tuple into `*out` iff the status is kOk.
  virtual CursorStatus Next(Tuple* out) = 0;

  /// Restarts the enumeration from the beginning. Returns kOk, or
  /// kInvalidated if the engine has moved on (the cursor stays dead).
  virtual CursorStatus Reset() = 0;
};

/// What the selected maintenance strategy guarantees (Theorems 3.2-3.5):
/// reported by every engine and surfaced by QuerySession at construction
/// so callers can branch on guarantees instead of engine names.
struct Capabilities {
  /// Enumeration emits each tuple with O(1) delay (Theorem 3.2 or a
  /// materialized result; false for recompute-per-read).
  bool constant_delay_enumeration = false;
  /// ApplyBatch is a real batched pipeline (shared descents, one weight
  /// fix-up per touched item), not the per-tuple fallback.
  bool batch_pipeline = false;
  /// Count() is O(1) (maintained counter / materialized result size).
  bool constant_time_count = false;
  /// NewPartitions(k) can split the result into k > 1 independent
  /// ranges for parallel enumeration (§6.3: root positions are
  /// independent per root item).
  bool partitionable = false;
  /// PinEpoch() is O(1) and pinned cursors keep constant-delay
  /// enumeration over the pinned version while writes proceed (the
  /// structure is preserved for the pin, not re-materialized). Engines
  /// without this bit still support PinEpoch, but the pin itself costs
  /// one full materialization of the result.
  bool snapshot_enumeration = false;
};

/// Opaque per-epoch payload a pinned snapshot keeps alive: either a
/// materialized result vector (the base-class default) or an engine's
/// preserved structural version (core::Engine). Destroyed — under the
/// engine's snapshot mutex — when the last pin and the last snapshot
/// cursor of its epoch are gone.
class EngineSnapshot {
 public:
  virtual ~EngineSnapshot() = default;

  /// Called (under the snapshot mutex) when the owning engine tears down
  /// while snapshot cursors still hold this version alive: release any
  /// resources that need the engine's structures, and make the eventual
  /// destructor engine-independent.
  virtual void OnEngineTeardown() {}
};

class DynamicQueryEngine {
 public:
  virtual ~DynamicQueryEngine() = default;

  virtual const Query& query() const = 0;
  virtual const Database& db() const = 0;

  /// Guarantees of this engine's strategy (constant across its lifetime).
  virtual Capabilities capabilities() const = 0;

  /// Applies a single-tuple insert/delete (the paper's `update` routine).
  /// Returns true iff the database changed (no-op updates are absorbed).
  virtual bool Apply(const UpdateCmd& cmd) = 0;

  /// Applies a batch of updates and returns the number of effective
  /// (database-changing) commands. The final state is exactly the
  /// ordered replay's, but commands superseded by a later command on the
  /// same tuple are folded away first (BatchFolder, storage/update.h):
  /// under set semantics the last command per key forces that tuple's
  /// final presence, so an in-batch inverse insert/delete pair collapses
  /// to its second half and the dropped half costs zero relation probes.
  /// The returned count is the number of database-changing commands
  /// after folding (every engine folds with the same rule, so the counts
  /// stay comparable across engines). Engines with a real batch pipeline
  /// (core::Engine) override this to additionally group deltas per
  /// relation/atom and share root-path descents; the default is the
  /// per-tuple fallback used by the recompute / delta-IVM baselines.
  virtual std::size_t ApplyBatch(std::span<const UpdateCmd> cmds) {
    BatchFolder folder;
    std::vector<std::uint32_t> kept;
    std::size_t effective = 0;
    if (folder.Fold(cmds, &kept)) {
      for (std::uint32_t i : kept) {
        if (Apply(cmds[i])) ++effective;
      }
    } else {
      for (const UpdateCmd& cmd : cmds) {
        if (Apply(cmd)) ++effective;
      }
    }
    return effective;
  }

  /// Preloads an initial database (the paper's preprocessing phase).
  /// The default replays |D0| inserts through the batch pipeline;
  /// engines with size-aware structures (core::Engine) override this to
  /// reserve every hash table from the input sizes first.
  virtual void Preload(const Database& initial) {
    UpdateStream stream;
    stream.reserve(initial.NumTuples());
    for (RelId r = 0; r < initial.schema().NumRelations(); ++r) {
      for (const Tuple& t : initial.relation(r)) {
        stream.push_back(UpdateCmd::Insert(r, t));
      }
    }
    ApplyBatch(std::span<const UpdateCmd>(stream));
  }

  /// |ϕ(D)| (the paper's `count` routine).
  virtual Weight Count() = 0;

  /// Whether ϕ(D) is non-empty (the paper's `answer` routine).
  virtual bool Answer() = 0;

  /// Fresh cursor over ϕ(D) at the current revision (the paper's
  /// `enumerate` routine).
  virtual std::unique_ptr<Cursor> NewCursor() = 0;

  /// Splits the current result into at most `k` independent ranges, each
  /// yielding its own cursor; jointly the cursors enumerate exactly ϕ(D)
  /// with no overlap. Engines without the `partitionable` capability
  /// return a single full cursor. Fewer than `k` cursors are returned
  /// when the result has fewer independent units than `k`. k == 0 is
  /// misuse and returns an error.
  [[nodiscard]] virtual Result<std::vector<std::unique_ptr<Cursor>>> NewPartitions(
      std::size_t k) {
    if (k == 0) {
      return Result<std::vector<std::unique_ptr<Cursor>>>::Error(
          "NewPartitions: k must be >= 1");
    }
    std::vector<std::unique_ptr<Cursor>> out;
    out.push_back(NewCursor());
    return out;
  }

  virtual std::string name() const = 0;

  // ---- epoch-pinned snapshots -------------------------------------
  //
  // Threading contract (single-writer / multi-reader): PinEpoch must be
  // externally synchronized with writes (pin between updates, exactly
  // like opening an ordinary cursor). Once pinned, UnpinEpoch,
  // NewSnapshotCursor, and the pinned cursors' Next/Reset/destruction
  // are safe concurrently with the single writer. Snapshot cursors must
  // be destroyed before the engine (the same lifetime contract all
  // cursors have — their destructor unregisters from the engine).

  /// Pins the current epoch and returns it. Repeated pins of one epoch
  /// nest (each needs its own UnpinEpoch) up to a per-epoch limit;
  /// exceeding it is a typed error. On failure — including an
  /// allocation failure while capturing — no epoch is registered.
  [[nodiscard]] Result<std::uint64_t> PinEpoch();

  /// Releases one pin of `epoch`. The epoch's snapshot is destroyed
  /// (and its memory queued for reclamation) once its pins AND its open
  /// snapshot cursors are both gone. Unpinning an epoch that is not
  /// pinned is a typed error.
  [[nodiscard]] Status UnpinEpoch(std::uint64_t epoch);

  /// Cursor over the result as of pinned `epoch`. The cursor itself
  /// keeps the snapshot alive, so it stays valid after UnpinEpoch and
  /// never reports kInvalidated. Errors if `epoch` is not registered.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewSnapshotCursor(std::uint64_t epoch);

  /// Registered snapshot versions (pinned or still referenced by an
  /// open snapshot cursor). Test/telemetry hook.
  std::size_t num_pinned_epochs() const;

  /// Explicit reclamation: releases all retired snapshot memory.
  /// Reclaim-while-pinned is misuse — a typed error naming the
  /// outstanding pins/cursors, with nothing released.
  [[nodiscard]] Status DropAllSnapshots();

  /// Lowers the per-epoch pin limit (tests exercise the overflow path
  /// without 2^32 pins). Takes the snapshot mutex: PinEpoch reads the
  /// limit under it, so an unguarded write here would race a concurrent
  /// pin (a -Wthread-safety finding — the annotation sweep caught the
  /// original lock-free write).
  void SetPinLimitForTest(std::uint32_t limit) {
    util::MutexLock lock(&snap_mu_);
    pin_limit_ = limit;
  }

  /// Revision of the maintained result; advanced by every effective
  /// update. All engines share this one counter type — cursors opened at
  /// an older revision report kInvalidated instead of walking stale
  /// structure.
  Revision revision() const { return Revision{rev_}; }

  /// Convenience: applies every command in the stream (through the batch
  /// pipeline when the engine has one).
  std::size_t ApplyAll(const UpdateStream& stream) {
    return ApplyBatch(std::span<const UpdateCmd>(stream));
  }

 protected:
  /// Called by implementations on every effective update.
  void BumpRevision() { ++rev_; }

  /// Guard pinned to the current revision, for cursors over live
  /// structure.
  RevisionGuard NewGuard() const { return RevisionGuard{&rev_, rev_}; }

  /// Builds the snapshot payload for the current epoch. Invoked by
  /// PinEpoch with the snapshot mutex held (the annotation makes the
  /// contract compiler-checked for overrides too); a thrown
  /// std::bad_alloc is converted into a typed error with no epoch
  /// registered. The default is materialize-on-pin: drain a fresh
  /// cursor into a VectorSnapshot. Engines with structural snapshots
  /// (core::Engine) override this to an O(1) capture.
  [[nodiscard]] virtual Result<std::shared_ptr<EngineSnapshot>> CaptureSnapshot()
      DYNCQ_REQUIRES(snap_mu_);

  /// Builds a cursor over a snapshot this engine previously captured.
  /// Invoked outside the snapshot mutex. The default enumerates a
  /// VectorSnapshot.
  [[nodiscard]] virtual Result<std::unique_ptr<Cursor>> MakeSnapshotCursor(
      const std::shared_ptr<EngineSnapshot>& snap);

  /// Releases retired snapshot memory; called by DropAllSnapshots (under
  /// the snapshot mutex) once no snapshot is registered. Default: the
  /// materialized vectors died with their registry entries — nothing to
  /// do.
  virtual void ReclaimAllRetired() DYNCQ_REQUIRES(snap_mu_) {}

  /// Destroys every registered snapshot (calling OnEngineTeardown on
  /// each first, so versions referenced by still-open cursors become
  /// engine-independent). Derived engines whose snapshots reference
  /// their structures MUST call this in their destructor, before those
  /// structures die.
  void ClearSnapshotRegistry();

  /// The mutex guarding the snapshot registry. Derived engines guard
  /// their own snapshot bookkeeping (e.g. which version a write must
  /// fork) with the same mutex; CaptureSnapshot already runs under it.
  /// Annotated as an alias of snap_mu_, so locking through the accessor
  /// satisfies DYNCQ_GUARDED_BY(snap_mu_) / DYNCQ_REQUIRES(snap_mu_).
  /// (Returning a mutable Mutex& from a const method is the standard
  /// shape for lock members — the mutex is synchronization state, not
  /// logical state.)
  util::Mutex& snapshot_mutex() const DYNCQ_RETURN_CAPABILITY(snap_mu_) {
    return snap_mu_;
  }

  /// Oldest epoch any registered snapshot still holds, or UINT64_MAX
  /// when none — everything retired at or before (oldest - 1) may be
  /// reclaimed. Takes the snapshot mutex.
  std::uint64_t OldestPinnedEpoch() const;

  /// Guards the snapshot registry (snaps_, pin_limit_) and, in derived
  /// engines, their fork bookkeeping (core::Engine::armed_version_).
  /// Lock hierarchy (util/lock_rank.h): snap_mu_ nests inside a serving
  /// registry's mu_ and may be held while taking an ItemPool's
  /// retire_mu_ (DropAllSnapshots reclaims retired slabs), never the
  /// reverse — the rank-token edges make -Wthread-safety-beta check
  /// both directions; see docs/ARCHITECTURE.md, "Concurrency
  /// contracts".
  mutable util::Mutex snap_mu_
      DYNCQ_ACQUIRED_AFTER(util::lock_rank::kBelowRegistry)
          DYNCQ_ACQUIRED_BEFORE(util::lock_rank::kBelowEngineSnap);

 private:
  friend class SnapshotCursor;

  struct SnapEntry {
    std::uint32_t pins = 0;
    std::uint32_t cursor_refs = 0;
    std::shared_ptr<EngineSnapshot> snap;
  };

  /// Drops a snapshot cursor's reference (its shared_ptr is handed in so
  /// the version's destructor runs under the snapshot mutex).
  void ReleaseSnapshotCursorRef(std::uint64_t epoch,
                                std::shared_ptr<EngineSnapshot> snap);

  std::uint64_t rev_ = 0;
  std::map<std::uint64_t, SnapEntry> snaps_ DYNCQ_GUARDED_BY(snap_mu_);
  std::uint32_t pin_limit_ DYNCQ_GUARDED_BY(snap_mu_) = 1u << 20;
};

/// Snapshot of a materialized result — the degradation every engine
/// supports (snapshot_enumeration = false engines pin by materializing).
class VectorSnapshot final : public EngineSnapshot {
 public:
  explicit VectorSnapshot(std::vector<Tuple> tuples)
      : tuples_(std::move(tuples)) {}
  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::vector<Tuple> tuples_;
};

/// Cursor over a shared materialized result (never invalidates). Reused
/// by the UCQ layer's materialize-on-pin snapshots.
std::unique_ptr<Cursor> NewVectorSnapshotCursor(
    std::shared_ptr<const std::vector<Tuple>> tuples);

/// Bounds a maintained count to a sane up-front reserve size: a
/// cross-product blowup must not turn into one giant allocation before
/// the first tuple arrives.
inline std::size_t BoundedReserveFromCount(Weight n) {
  constexpr Weight kReserveCap = Weight{1} << 24;
  return static_cast<std::size_t>(n < kReserveCap ? n : kReserveCap);
}

/// Drains a fresh cursor into a vector reserved from Count() up front
/// (testing/benchmark helper).
std::vector<Tuple> MaterializeResult(DynamicQueryEngine& engine);

}  // namespace dyncq

#endif  // DYNCQ_CORE_ENGINE_IFACE_H_
