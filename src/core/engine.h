// The paper's dynamic evaluation algorithm (Theorem 3.2): linear-time
// preprocessing, constant update time, constant-delay enumeration, O(1)
// counting and answering — for q-hierarchical conjunctive queries.
#ifndef DYNCQ_CORE_ENGINE_H_
#define DYNCQ_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/component_engine.h"
#include "core/engine_iface.h"
#include "cq/analysis.h"
#include "cq/query.h"
#include "storage/database.h"
#include "util/rel_map.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace dyncq::core {

class Engine final : public DynamicQueryEngine {
 public:
  /// Builds the engine for an empty initial database. Fails iff `q` is
  /// not q-hierarchical (use the baselines or, per Theorem 1.3, run the
  /// engine on ComputeCore(q) when that core is q-hierarchical).
  /// QuerySession (core/session.h) is the strategy-selecting front door.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Create(const Query& q);

  /// Preprocessing phase on an initial database: initializes the empty
  /// structure and replays |D0| inserts — linear total time by constant
  /// update time (paper §6.4).
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Create(const Query& q,
                                                const Database& initial);

  /// Shared-storage mode (serve/query_registry.h): the engine reads
  /// `*shared` — owned by the caller, which must keep it (and its
  /// schema) alive and apply every base-table update through it exactly
  /// once — and keeps only its item forests private. Requires the
  /// query's schema to be a prefix of the shared database's (see
  /// Schema::IsPrefixOf); RelIds must agree because deltas arrive with
  /// the shared schema's ids. If `*shared` is non-empty the structure
  /// is built from its current contents (SyncFromStorage).
  ///
  /// In this mode the single-owner write paths (Apply / ApplyBatch /
  /// Preload of a foreign database) are misuse and throw: the registry
  /// owns the write order. Writers drive the engine with
  /// PrepareSharedWrite + ApplySharedDeltas instead.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> CreateShared(
      const Query& q, Database* shared);

  ~Engine() override;  // destroys registered versions first

  const Query& query() const override { return query_; }
  const Database& db() const override { return *db_; }

  /// True when the engine reads a caller-owned shared Database
  /// (CreateShared) instead of its own.
  bool shares_storage() const { return owned_db_ == nullptr; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.constant_delay_enumeration = true;
    caps.batch_pipeline = true;
    caps.constant_time_count = true;
    // §6.3: root positions are independent per root item, so any
    // component with free variables can be range-partitioned.
    caps.partitionable = has_free_component_;
    // Pins are O(1) root-anchor + directory captures; the first post-pin
    // write forks the pinned version off in O(blocks) and later writes
    // copy only the blocks they touch, while pinned cursors keep walking
    // the version with constant delay (docs/ARCHITECTURE.md, "Snapshot
    // cursors").
    caps.snapshot_enumeration = true;
    return caps;
  }

  bool Apply(const UpdateCmd& cmd) override;

  /// Batched update pipeline: folds commands superseded within the batch
  /// (BatchFolder — in-batch inverse pairs cost zero relation probes),
  /// dedups the remaining no-ops through the database's set semantics,
  /// bumps the revision once, and hands every component the effective
  /// deltas, which each runs through its shared-descent pass.
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds) override;

  /// Linear-time preprocessing (§6.4): reserves relations and root child
  /// indexes from the input sizes, then replays the initial database
  /// through the batch pipeline. Passing the engine's OWN database
  /// (`&initial == &db()`) builds the structure from the storage already
  /// in place via SyncFromStorage — the naive replay would iterate the
  /// relations while inserting into them.
  void Preload(const Database& initial) override;

  // ---- shared-storage write protocol (CreateShared engines) ----------
  //
  // The owner of the shared Database applies each update once and drives
  // every affected engine through these three calls, in this order:
  //
  //   1. PrepareSharedWrite()   on each affected engine — BEFORE any
  //      of them mutates (a pinned snapshot forks off the pre-update
  //      structure);
  //   2. the one Database::Apply;
  //   3. ApplySharedDeltas on each affected engine with the effective
  //      deltas (no-ops filtered by step 2).
  //
  // The tuples PendingDelta borrows must outlive the call.

  /// Pinned-version bookkeeping that must precede a mutation of the
  /// shared database: fork any armed snapshot off the pre-update state,
  /// switch copy-on-write for this write and reclaim retired blocks.
  void PrepareSharedWrite() { PrepareWrite(); }

  /// One revision bump, then every component runs the effective list
  /// through its update pipeline (a component skips deltas on relations
  /// it has no atom over). A single update is a batch of one: O(1) for
  /// q-hierarchical queries (§6.4).
  void ApplySharedDeltas(const PendingDelta* deltas, std::size_t n);

  /// Builds the structure from the shared database's current contents
  /// (the preprocessing phase when registration finds data already
  /// loaded). Requires an empty structure.
  void SyncFromStorage();

  Weight Count() override;
  bool Answer() override;
  std::unique_ptr<Cursor> NewCursor() override;

  /// Splits a pivot component's root fit list into at most `k`
  /// contiguous ranges and returns one cursor per range; the other
  /// components (and Boolean gates) are re-enumerated per partition, so
  /// jointly the cursors yield exactly ϕ(D) with no overlap. The pivot
  /// is chosen per call as the free-variable component with the most
  /// fit roots (O(#fit roots) walk), so a skewed product still splits
  /// k ways. Queries whose components are all Boolean degrade to one
  /// cursor.
  [[nodiscard]] Result<std::vector<std::unique_ptr<Cursor>>> NewPartitions(
      std::size_t k) override;

  std::string name() const override { return "dyncq"; }

  std::size_t NumComponents() const { return components_.size(); }
  const ComponentEngine& component(std::size_t i) const {
    return *components_[i];
  }

  /// Total live items across components (structure size, §6.2).
  std::size_t NumItems() const;

  /// Figure 3-style dump of every component's structure.
  void DumpStructure(std::ostream& os) const;

  /// Copied-away item slabs that no registered version can read any
  /// more, awaiting reclamation by the next write or DropAllSnapshots
  /// (test/telemetry hook; see ItemPool::retired_blocks).
  std::size_t RetiredBlocks() const;

 protected:
  /// O(1) snapshot capture: records each component's root fit-list
  /// anchors and arms the write path to fork the version off before the
  /// next mutation. Invoked by PinEpoch with the snapshot mutex held.
  /// (The REQUIRES contract lives on the base declaration — attributes
  /// are not inherited by overrides, so the body re-establishes the
  /// capability with snap_mu_.AssertHeld().)
  [[nodiscard]] Result<std::shared_ptr<EngineSnapshot>> CaptureSnapshot() override;

  /// Builds constant-delay cursors over a pinned version's root fit
  /// lists, resolving through the version's block directories. Invoked
  /// outside the snapshot mutex.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> MakeSnapshotCursor(
      const std::shared_ptr<EngineSnapshot>& snap) override;

  void ReclaimAllRetired() override;

 private:
  /// `shared == nullptr` allocates a private database over the query's
  /// schema; otherwise the engine reads the caller's.
  Engine(Query q, Database* shared);

  /// Common factory body behind Create / CreateShared.
  [[nodiscard]] static Result<std::unique_ptr<Engine>> Build(const Query& q,
                                               Database* shared);

  /// The engine's snapshot payload: one ComponentSnapshot per component.
  /// Defined in engine.cc; befriended so it can disarm the fork flag and
  /// release its directories on death.
  class CoreVersion;
  friend class CoreVersion;

  /// Bulk-load sizing shared by Preload and SyncFromStorage: reserves
  /// each component's root index for the tuples of its relations in
  /// `db`. Every atom holds the component's root variable, so that count
  /// bounds the root fanout; it costs O(query relations), where counting
  /// |adom| would scan the whole (possibly shared) database.
  void ReserveRoots(const Database& db);

  /// The write prologue of Apply / ApplyBatch / PrepareSharedWrite /
  /// SyncFromStorage: ForkIfPinned, then the once-per-write "is any
  /// version alive" read that switches the pools' copy-on-write, then
  /// MaybeReclaimRetired.
  void PrepareWrite();

  /// Freezes the armed pinned version (if any): each component's pool
  /// hands the version the directory it recorded at pin time and
  /// republishes a copy with every block marked shared (ItemPool::Fork).
  /// Runs before the write mutates anything. A thrown bad_alloc leaves
  /// the structure untouched and the version armed for a retry.
  void ForkIfPinned();

  /// Frees retired slabs older than the oldest pinned epoch (write
  /// path, writer thread only).
  void MaybeReclaimRetired();

  /// Slabs retired at an epoch <= *wm are readable by no registered
  /// version. False if none is safe to free (an epoch-0 version lives).
  bool ReclaimWatermark(std::uint64_t* wm) const;

  /// Cursor for one component (range-restricted at the pivot).
  std::unique_ptr<Cursor> NewComponentCursor(std::size_t c,
                                             ItemHandle root_begin,
                                             ItemHandle root_end);

  Query query_;
  // Storage: owned_db_ is null in shared mode (CreateShared), where db_
  // points at the caller's database. Database holds a reference to its
  // schema and is immovable, hence the pointer indirection even when
  // owned.
  std::unique_ptr<Database> owned_db_;
  Database* db_ = nullptr;
  std::vector<std::pair<int, int>> head_map_;
  std::vector<std::unique_ptr<ComponentEngine>> components_;
  // Sparse on purpose: keyed by the query's own relations, not the full
  // (possibly huge shared) schema — see util/rel_map.h.
  RelMap<std::vector<int>> comps_of_rel_;  // rel -> component idxs
  std::vector<PendingDelta> pending_;  // batch scratch
  BatchFolder folder_;                 // batch scratch
  std::vector<std::uint32_t> kept_;    // batch scratch
  bool has_free_component_ = false;  // some component has free vars

  // Snapshot fork state. fork_armed_ is the write path's lock-free fast
  // gate; it may be cleared from a reader thread (the armed version's
  // last reference dropped), hence atomic and deliberately unguarded.
  // armed_version_ is the at-most-one registered version whose epoch is
  // current and whose forests are still the live ones; the GUARDED_BY
  // makes the write path prove it holds the snapshot registry lock
  // before dereferencing a pointer a reader thread may disarm.
  std::atomic<bool> fork_armed_{false};
  CoreVersion* armed_version_ DYNCQ_GUARDED_BY(snap_mu_) = nullptr;
  // Forked versions still alive. Incremented by the writer's fork and
  // decremented by a version's death on any thread (both under
  // snap_mu_), but read lock-free once per write: a stale non-zero only
  // keeps copy-on-write on for one more write.
  std::atomic<std::size_t> live_versions_{0};
  // Writer-thread-only: copy-on-write was on for the last write.
  bool cow_on_ = false;
};

}  // namespace dyncq::core

#endif  // DYNCQ_CORE_ENGINE_H_
