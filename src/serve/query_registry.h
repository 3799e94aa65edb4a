// Multi-query serving: one delta stream fanned out to N standing queries.
//
// A QueryRegistry owns ONE shared Database and N registered standing
// queries. Three mechanisms keep per-delta cost proportional to the
// queries a delta can actually affect, not to the number registered:
//
//  * Routing index — registration extracts the relations the maintained
//    query's atoms touch and subscribes its engine in a RelId-keyed
//    postings list; ApplyDelta/ApplyBatch update storage once and walk
//    only the touched relations' subscribers.
//  * Shared storage — q-hierarchical engines run in shared-storage mode
//    (core::Engine::CreateShared): they read the registry's Database
//    and keep only their item forests private, so base tuples are
//    stored once regardless of how many queries join over them.
//    Non-q-hierarchical fallbacks (delta-IVM) keep a private projection
//    of their relations.
//  * Structural dedup — queries are canonicalized (cq/canonical.h:
//    existential renaming + atom reordering) and identical shapes share
//    one refcounted engine; Register returns a QueryHandle, whose
//    destruction (or Release) decrements the refcount and tears the
//    engine down at zero.
//
// Per-delta cost model: one Database::Apply (a no-op filters out ALL
// notification work), plus per affected subscriber engine either the
// O(1) q-hierarchical update (Theorem 3.2) or the fallback's delta
// step. Registered-but-unaffected queries cost nothing.
//
// Threading contract: same single-writer discipline as the engines.
// Register/Unregister/ApplyDelta/ApplyBatch are writer-side and must be
// externally synchronized; handle reads (Count/cursors/pinned
// snapshots) follow the DynamicQueryEngine contract of the backing
// engine. Handles must not outlive their registry. The registry mutex
// `mu_` makes that contract compiler-checkable (every access to the
// routing/dedup state must hold it) and additionally makes the counter
// introspection (NumRegistered/NumEngines/stats) safe against a
// concurrent writer. Lock hierarchy: mu_ is held while driving engine
// write prologues, which take each engine's snap_mu_ and then the item
// pools' retire_mu_ — never the reverse.
#ifndef DYNCQ_SERVE_QUERY_REGISTRY_H_
#define DYNCQ_SERVE_QUERY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/auto_engine.h"
#include "core/engine.h"
#include "cq/query.h"
#include "storage/database.h"
#include "storage/update.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace dyncq::serve {

struct RegistryOptions {
  /// Share one engine among structurally identical queries. Disabling
  /// gives every registration a private engine (the bench's baseline
  /// for measuring what dedup saves).
  bool dedup = true;
};

/// Writer-side counters (telemetry / bench hooks).
struct RegistryStats {
  /// Effective (database-changing) deltas applied.
  std::uint64_t deltas_applied = 0;
  /// Engine notifications delivered across all effective deltas; the
  /// ratio to deltas_applied is the measured mean affected-engine
  /// fanout.
  std::uint64_t notifications = 0;
};

class QueryHandle;

class QueryRegistry {
 public:
  /// The schema must be frozen: the shared Database is sized at
  /// construction, so relations added to `*schema` afterwards are
  /// invisible (and unregisterable).
  explicit QueryRegistry(std::shared_ptr<const Schema> schema,
                         RegistryOptions opts = {});
  ~QueryRegistry();

  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a standing query and returns its handle. The query must
  /// be built against the registry's schema (same object, or a prefix
  /// of it — RelIds must agree). Runs the engine dichotomy
  /// (core/auto_engine.h); with dedup enabled a structurally identical
  /// earlier registration is joined instead of building a new engine.
  /// If the database already holds tuples the new engine is built from
  /// them (the preprocessing phase).
  [[nodiscard]] Result<QueryHandle> Register(const Query& q);

  // ---- the one write stream ----

  /// Applies one base-table update to the shared database and fans the
  /// effective delta out to the affected engines. Returns true iff the
  /// database changed; no-ops notify nobody.
  bool ApplyDelta(const UpdateCmd& cmd);

  /// Ordered batch replay: folds superseded commands (BatchFolder),
  /// applies the survivors to storage, and hands each affected engine
  /// its effective deltas through the batch pipeline (one revision bump
  /// per engine per batch). Returns the number of effective commands.
  std::size_t ApplyBatch(std::span<const UpdateCmd> cmds);
  std::size_t ApplyAll(const UpdateStream& stream) {
    return ApplyBatch(std::span<const UpdateCmd>(stream));
  }

  // ---- introspection ----

  const Schema& schema() const { return *schema_; }
  const Database& db() const { return db_; }

  /// Live registrations (handles not yet released).
  std::size_t NumRegistered() const {
    util::MutexLock lock(&mu_);
    return registered_;
  }
  /// Distinct backing engines (== NumRegistered() when dedup is off or
  /// every shape is unique).
  std::size_t NumEngines() const {
    util::MutexLock lock(&mu_);
    return entries_.size();
  }
  /// Returned BY VALUE: the annotation sweep caught the previous
  /// const-reference return — a reference into mutex-guarded state that
  /// the caller would read after the lock (had there been one) dropped.
  RegistryStats stats() const {
    util::MutexLock lock(&mu_);
    return stats_;
  }

  /// Sum of RetiredBlocks() over shared-storage engines (leak checks).
  std::size_t RetiredBlocks() const;

 private:
  friend class QueryHandle;

  struct Entry {
    explicit Entry(const Query& q) : query(q) {}

    std::string key;
    Query query;  // the registered query (first registrant's copy)
    std::unique_ptr<DynamicQueryEngine> engine;
    // Non-null iff `engine` is a shared-storage core::Engine — the fast
    // path driven via PrepareSharedWrite/ApplySharedDeltas. Fallback
    // engines (private storage) are driven through plain Apply.
    core::Engine* shared = nullptr;
    core::EngineStrategy strategy = core::EngineStrategy::kDeltaIvm;
    std::vector<RelId> rels;  // maintained query's relations, distinct
    // posting_pos[i] = this entry's index in by_rel_[rels[i]] —
    // lets Unregister swap-remove each posting in O(1).
    std::vector<std::size_t> posting_pos;
    std::size_t refs = 0;
    std::uint64_t batch_stamp = 0;  // last batch that touched us
    std::vector<core::PendingDelta> pending;  // batch scratch (shared mode)
  };

  void Unregister(Entry* e);
  void AddPostings(Entry* e, const Query& maintained) DYNCQ_REQUIRES(mu_);
  void RemovePostings(Entry* e) DYNCQ_REQUIRES(mu_);

  /// One folded batch command: write prologues, the storage apply, and
  /// per-subscriber queueing. A member function rather than ApplyBatch's
  /// old local lambda — a lambda body is analyzed as its own function,
  /// which would hide the held mu_ from the guarded accesses inside.
  void ApplyOneLocked(const UpdateCmd& cmd, std::uint64_t stamp,
                      std::size_t* effective) DYNCQ_REQUIRES(mu_);

  std::shared_ptr<const Schema> schema_;
  RegistryOptions opts_;
  // Guards the routing/dedup state and the counters below. NOT db_:
  // the shared database is read lock-free by the engines' read surface
  // (cursors, Count), whose safety is the external reads-vs-writes
  // synchronization of the engine contract, not a registry lock.
  // Top of the cross-layer lock hierarchy (util/lock_rank.h): the
  // batch path holds mu_ while engine write prologues take snap_mu_
  // and then the pools' retire_mu_ — the ACQUIRED_BEFORE edge onto the
  // rank token makes -Wthread-safety-beta reject the reverse nesting.
  mutable util::Mutex mu_
      DYNCQ_ACQUIRED_BEFORE(util::lock_rank::kBelowRegistry);
  Database db_;  // declared after schema_: engines rebuild from it last
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_
      DYNCQ_GUARDED_BY(mu_);
  std::vector<std::vector<Entry*>> by_rel_  // RelId -> subscribers
      DYNCQ_GUARDED_BY(mu_);
  std::size_t registered_ DYNCQ_GUARDED_BY(mu_) = 0;
  // Key source when dedup is off.
  std::uint64_t next_unique_ DYNCQ_GUARDED_BY(mu_) = 0;
  std::uint64_t batch_seq_ DYNCQ_GUARDED_BY(mu_) = 0;
  std::vector<Entry*> touched_ DYNCQ_GUARDED_BY(mu_);  // batch scratch
  BatchFolder folder_ DYNCQ_GUARDED_BY(mu_);           // batch scratch
  std::vector<std::uint32_t> kept_ DYNCQ_GUARDED_BY(mu_);
  RegistryStats stats_ DYNCQ_GUARDED_BY(mu_);
};

/// A registered standing query: QuerySession-style read surface over
/// the (possibly shared) backing engine, RAII unregistration. Move-only;
/// must be released or destroyed before the registry.
class QueryHandle {
 public:
  QueryHandle() = default;
  QueryHandle(QueryHandle&& o) noexcept : reg_(o.reg_), e_(o.e_) {
    o.reg_ = nullptr;
    o.e_ = nullptr;
  }
  QueryHandle& operator=(QueryHandle&& o) noexcept {
    if (this != &o) {
      Release();
      reg_ = o.reg_;
      e_ = o.e_;
      o.reg_ = nullptr;
      o.e_ = nullptr;
    }
    return *this;
  }
  ~QueryHandle() { Release(); }

  bool valid() const { return e_ != nullptr; }

  /// Drops this registration (refcount decrement; the backing engine
  /// dies with its last handle). Idempotent.
  void Release();

  // ---- what the registration chose ----
  const Query& query() const { return e_->query; }
  core::EngineStrategy strategy() const { return e_->strategy; }
  Capabilities capabilities() const { return e_->engine->capabilities(); }
  /// Backing engine (white-box access for benches and tests). Shared
  /// among structurally identical registrations when dedup is on.
  DynamicQueryEngine& engine() { return *e_->engine; }

  // ---- reads (QuerySession-style) ----
  Revision revision() const { return e_->engine->revision(); }
  Weight Count() { return e_->engine->Count(); }
  bool Answer() { return e_->engine->Answer(); }
  std::unique_ptr<Cursor> NewCursor() { return e_->engine->NewCursor(); }
  [[nodiscard]] Result<std::vector<Tuple>> Materialize();

  // ---- epoch pinning (DynamicQueryEngine's threading contract) ----
  [[nodiscard]] Result<std::uint64_t> PinEpoch() { return e_->engine->PinEpoch(); }
  [[nodiscard]] Status UnpinEpoch(std::uint64_t epoch) {
    return e_->engine->UnpinEpoch(epoch);
  }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> NewSnapshotCursor(std::uint64_t epoch) {
    return e_->engine->NewSnapshotCursor(epoch);
  }

 private:
  friend class QueryRegistry;
  QueryHandle(QueryRegistry* reg, QueryRegistry::Entry* e)
      : reg_(reg), e_(e) {}

  QueryRegistry* reg_ = nullptr;
  QueryRegistry::Entry* e_ = nullptr;
};

}  // namespace dyncq::serve

#endif  // DYNCQ_SERVE_QUERY_REGISTRY_H_
