#include "core/engine.h"

#include <algorithm>
#include <ostream>

#include "core/cursor.h"
#include "cq/qtree.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/mutex.h"

namespace dyncq::core {

// A pinned structural version: per component, the root fit-list anchors
// and the block directory captured at pin time (which the version owns
// once the first post-pin write forked it off). Every destruction path
// runs under the engine's snapshot mutex (registry erasure, cursor
// unregistration, teardown), so Release's bookkeeping needs no lock of
// its own.
class Engine::CoreVersion final : public EngineSnapshot {
 public:
  explicit CoreVersion(Engine* engine)
      : engine_(engine), comps_(engine->components_.size()) {}

  ~CoreVersion() override { Release(); }

  // Engine teardown with snapshot cursors still open: free the
  // directories while the components (and their pools) are alive; the
  // eventual destructor is then engine-independent. Called by
  // ClearSnapshotRegistry under snap_mu_.
  void OnEngineTeardown() override { Release(); }

  std::vector<ComponentSnapshot>& comps() { return comps_; }
  const std::vector<ComponentSnapshot>& comps() const { return comps_; }

  /// Called by ForkIfPinned under snap_mu_ once every component forked.
  void MarkForked() { forked_ = true; }

 private:
  void Release() {
    if (engine_ == nullptr) return;
    // Every destruction path arrives with the engine's snapshot
    // registry lock held (registry erasure, cursor unregistration, and
    // teardown all lock before dropping their reference), but the
    // REQUIRES contract cannot flow through std::map / shared_ptr
    // internals or virtual dispatch — assert the capability instead.
    engine_->snap_mu_.AssertHeld();
    if (engine_->armed_version_ == this) {
      // Dying before any write forked us off: disarm the write path.
      engine_->armed_version_ = nullptr;
      engine_->fork_armed_.store(false, std::memory_order_release);
    }
    for (std::size_t c = 0; c < comps_.size(); ++c) {
      engine_->components_[c]->ReleaseSnapshot(&comps_[c]);
    }
    // The copies this version forced stay retired until the writer's
    // watermark passes them; the next write sees one fewer version.
    if (forked_) {
      engine_->live_versions_.fetch_sub(1, std::memory_order_release);
    }
    engine_ = nullptr;
  }

  Engine* engine_;
  std::vector<ComponentSnapshot> comps_;
  bool forked_ = false;
};

Engine::Engine(Query q, Database* shared) : query_(std::move(q)) {
  if (shared == nullptr) {
    owned_db_ = std::make_unique<Database>(query_.schema());
    db_ = owned_db_.get();
  } else {
    db_ = shared;
  }
}

Engine::~Engine() {
  // Destroy registered versions while the components are alive: their
  // directory arrays are freed through the component pools.
  ClearSnapshotRegistry();
}

Result<std::unique_ptr<Engine>> Engine::Create(const Query& q) {
  return Build(q, nullptr);
}

Result<std::unique_ptr<Engine>> Engine::CreateShared(const Query& q,
                                                     Database* shared) {
  using R = Result<std::unique_ptr<Engine>>;
  DYNCQ_CHECK(shared != nullptr);
  // RelIds in incoming deltas are the shared schema's, so the query's
  // schema must assign the same ids (a prefix match; the shared schema
  // may have relations the query never mentions).
  if (&q.schema() != &shared->schema() &&
      !q.schema().IsPrefixOf(shared->schema())) {
    return R::Error("CreateShared: query schema is not a prefix of the "
                    "shared database's schema");
  }
  auto engine = Build(q, shared);
  if (!engine.ok()) return engine;
  if (shared->NumTuples() > 0) (*engine)->SyncFromStorage();
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Build(const Query& q,
                                              Database* shared) {
  if (!IsQHierarchical(q)) {
    return Result<std::unique_ptr<Engine>>::Error(
        "query is not q-hierarchical: " + q.ToString());
  }
  auto engine = std::unique_ptr<Engine>(new Engine(q, shared));

  ComponentSplit split = SplitConnectedComponents(engine->query_);
  engine->head_map_ = std::move(split.head_map);
  for (std::size_t c = 0; c < split.components.size(); ++c) {
    Query& comp = split.components[c];
    auto tree = QTree::Build(comp);
    if (!tree.ok()) {
      return Result<std::unique_ptr<Engine>>::Error(tree.error());
    }
    for (const Atom& a : comp.atoms()) {
      auto& lst = engine->comps_of_rel_.FindOrInsert(a.rel);
      if (std::find(lst.begin(), lst.end(), static_cast<int>(c)) ==
          lst.end()) {
        lst.push_back(static_cast<int>(c));
      }
    }
    if (!comp.head().empty()) engine->has_free_component_ = true;
    engine->components_.push_back(std::make_unique<ComponentEngine>(
        std::move(comp), std::move(tree.value())));
  }
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Create(const Query& q,
                                               const Database& initial) {
  auto engine = Create(q);
  if (!engine.ok()) return engine;
  (*engine)->Preload(initial);
  return engine;
}

void Engine::Preload(const Database& initial) {
  if (&initial == db_) {
    // Preloading from the engine's own storage: the replay below would
    // iterate each relation while inserting into it (iterator
    // invalidation). If the structure already holds items it is in
    // lockstep with storage (every write path maintains both), so there
    // is nothing to do; otherwise build it from the resident tuples —
    // storage is already in place.
    if (NumItems() == 0) SyncFromStorage();
    return;
  }
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "Preload: shared-storage engines are fed through their "
                  "registry's write protocol");
  // §6.4 linear-time preprocessing: size every hash structure up front so
  // the replay never rehashes, then push the whole initial database
  // through the batch pipeline.
  UpdateStream stream;
  stream.reserve(initial.NumTuples());
  for (RelId r = 0; r < initial.schema().NumRelations(); ++r) {
    db_->Reserve(r, initial.relation(r).size());
    for (const Tuple& t : initial.relation(r)) {
      stream.push_back(UpdateCmd::Insert(r, t));
    }
  }
  ReserveRoots(initial);
  ApplyBatch(stream);
}

void Engine::SyncFromStorage() {
  DYNCQ_CHECK_MSG(NumItems() == 0,
                  "SyncFromStorage: structure already built (any processed "
                  "tuple materializes items)");
  // Copy this query's base tuples out first: relation iterators
  // materialize tuples by value, and PendingDelta borrows tuple storage.
  std::vector<std::pair<RelId, Tuple>> base;
  // Only this query's relations — the shared database may hold many
  // foreign ones (the query's schema is a prefix of the database's, so
  // every subscribed RelId is valid there).
  for (const auto& [r, comps] : comps_of_rel_) {
    for (const Tuple& t : db_->relation(r)) base.emplace_back(r, t);
  }
  if (base.empty()) return;
  PrepareWrite();  // a version pinned on the empty structure forks here
  ReserveRoots(*db_);
  pending_.clear();
  pending_.reserve(base.size());
  for (const auto& [r, t] : base) {
    pending_.push_back(PendingDelta{r, &t, true});
  }
  BumpRevision();
  for (const auto& c : components_) {
    c->ApplyBatch(pending_.data(), pending_.size());
  }
  pending_.clear();  // drop dangling borrows of `base`
}

void Engine::ReserveRoots(const Database& db) {
  std::vector<std::size_t> comp_tuples(components_.size(), 0);
  for (const auto& [r, comps] : comps_of_rel_) {
    for (int c : comps) {
      comp_tuples[static_cast<std::size_t>(c)] += db.relation(r).size();
    }
  }
  for (std::size_t c = 0; c < components_.size(); ++c) {
    components_[c]->ReserveRoot(comp_tuples[c]);
  }
}

void Engine::PrepareWrite() {
  ForkIfPinned();
  // The one read per write of "is any version alive". Only a live
  // version needs copy-on-write; when the last one has died, turning it
  // off is O(components) — the pools' stale shared marks are ignored.
  const bool cow = live_versions_.load(std::memory_order_acquire) != 0;
  if (cow || cow_on_) {
    for (const auto& c : components_) {
      c->SetCopyOnWrite(cow, revision().value);
    }
    cow_on_ = cow;
  }
  MaybeReclaimRetired();
}

void Engine::ApplySharedDeltas(const PendingDelta* deltas, std::size_t n) {
  DYNCQ_DCHECK(owned_db_ == nullptr);
  if (n == 0) return;
  BumpRevision();
  for (const auto& c : components_) c->ApplyBatch(deltas, n);
}

void Engine::ForkIfPinned() {
  if (!fork_armed_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(&snap_mu_);
  CoreVersion* v = armed_version_;
  if (v == nullptr) return;  // the armed version died since the gate
  // Freeze the version: each component's pool hands it the directory
  // it recorded at pin time and republishes a copy with every block
  // marked shared. Each step allocates before it publishes, so a thrown
  // bad_alloc leaves the version armed; components forked before the
  // failure are skipped when the next write retries.
  std::vector<ComponentSnapshot>& comps = v->comps();
  for (std::size_t c = 0; c < components_.size(); ++c) {
    components_[c]->ForkSnapshot(&comps[c]);
  }
  v->MarkForked();
  live_versions_.fetch_add(1, std::memory_order_relaxed);
  armed_version_ = nullptr;
  fork_armed_.store(false, std::memory_order_release);
}

void Engine::MaybeReclaimRetired() {
  bool any = false;
  for (const auto& c : components_) {
    if (c->has_retired()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  std::uint64_t wm = 0;
  if (!ReclaimWatermark(&wm)) return;
  for (const auto& c : components_) c->ReclaimRetired(wm);
}

bool Engine::ReclaimWatermark(std::uint64_t* wm) const {
  // A slab copied away during the write from epoch e may still be read
  // by every version pinned at an epoch <= e, so it is freed only once
  // the oldest registered epoch is past e.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  const std::uint64_t oldest = OldestPinnedEpoch();  // takes the mutex
  if (oldest == 0) return false;  // an epoch-0 version exists
  *wm = oldest == kNone ? kNone : oldest - 1;
  return true;
}

void Engine::ReclaimAllRetired() {
  for (const auto& c : components_) {
    c->ReclaimRetired(~std::uint64_t{0});
  }
}

std::size_t Engine::RetiredBlocks() const {
  std::uint64_t wm = 0;
  if (!ReclaimWatermark(&wm)) return 0;
  std::size_t n = 0;
  for (const auto& c : components_) n += c->retired_blocks(wm);
  return n;
}

Result<std::shared_ptr<EngineSnapshot>> Engine::CaptureSnapshot() {
  using R = Result<std::shared_ptr<EngineSnapshot>>;
  // Only PinEpoch calls this, under snap_mu_ (the base declaration says
  // DYNCQ_REQUIRES(snap_mu_)); attributes don't transfer to overrides,
  // so re-establish the capability for the armed_version_ writes below.
  snap_mu_.AssertHeld();
  DYNCQ_ALLOC_FAILPOINT();
  // At most one unfrozen version exists: a previously armed version was
  // either forked off by the write that then bumped the revision, or it
  // died (disarming); and a re-pin of a registered epoch never reaches
  // CaptureSnapshot.
  DYNCQ_CHECK(armed_version_ == nullptr);
  auto v = std::make_shared<CoreVersion>(this);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    components_[c]->CaptureSnapshot(&v->comps()[c]);
  }
  armed_version_ = v.get();
  fork_armed_.store(true, std::memory_order_release);
  return R(std::shared_ptr<EngineSnapshot>(std::move(v)));
}

Result<std::unique_ptr<Cursor>> Engine::MakeSnapshotCursor(
    const std::shared_ptr<EngineSnapshot>& snap) {
  using R = Result<std::unique_ptr<Cursor>>;
  auto* v = dynamic_cast<CoreVersion*>(snap.get());
  if (v == nullptr) {
    return R::Error("MakeSnapshotCursor: unrecognized snapshot payload");
  }
  const std::vector<ComponentSnapshot>& comps = v->comps();
  // Default-constructed guards: pinned cursors never invalidate — they
  // resolve through the version's directory, which writes never touch.
  // Boolean components gate on the sum captured at pin time.
  if (components_.size() == 1 && !components_[0]->query().head().empty()) {
    std::unique_ptr<Cursor> c = std::make_unique<ComponentCursor>(
        ComponentCursor::FixedRootTag{}, components_[0].get(),
        RevisionGuard{}, comps[0].root_head, comps[0].dir);
    return R(std::move(c));
  }
  std::vector<std::unique_ptr<Cursor>> subs;
  subs.reserve(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (components_[c]->query().head().empty()) {
      subs.push_back(std::make_unique<BooleanGateCursor>(comps[c].sum > 0,
                                                         RevisionGuard{}));
    } else {
      subs.push_back(std::make_unique<ComponentCursor>(
          ComponentCursor::FixedRootTag{}, components_[c].get(),
          RevisionGuard{}, comps[c].root_head, comps[c].dir));
    }
  }
  std::unique_ptr<Cursor> p =
      std::make_unique<ProductCursor>(std::move(subs), head_map_);
  return R(std::move(p));
}

bool Engine::Apply(const UpdateCmd& cmd) {
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "Apply: shared-storage engines are fed through their "
                  "registry's write protocol");
  // Pinned version bookkeeping first: the fork must precede every
  // mutation, and reclamation piggybacks on the write path.
  PrepareWrite();
  // The root-index buckets the update will probe stream in while the
  // database does its own hash work.
  for (int c : comps_of_rel_[cmd.rel]) {
    components_[static_cast<std::size_t>(c)]->PrefetchDelta(cmd.rel,
                                                            cmd.tuple);
  }
  if (!db_->Apply(cmd)) return false;  // no-op update
  BumpRevision();
  // A single update is a batch of one through each affected component.
  const PendingDelta d{cmd.rel, &cmd.tuple, cmd.kind == UpdateKind::kInsert};
  for (int c : comps_of_rel_[cmd.rel]) {
    components_[static_cast<std::size_t>(c)]->ApplyBatch(&d, 1);
  }
  return true;
}

std::size_t Engine::ApplyBatch(std::span<const UpdateCmd> cmds) {
  DYNCQ_CHECK_MSG(owned_db_ != nullptr,
                  "ApplyBatch: shared-storage engines are fed through their "
                  "registry's write protocol");
  PrepareWrite();  // fork, copy-on-write switch and reclaim, before any mutation
  pending_.clear();
  pending_.reserve(cmds.size());
  constexpr std::size_t kLookahead = 8;
  // In-batch fold: commands superseded by a later command on the same
  // tuple never reach the database — an inverse insert/delete pair's
  // dropped half costs zero relation probes. After the fold each tuple
  // appears at most once in the effective list.
  if (folder_.Fold(cmds, &kept_)) {
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (i + kLookahead < kept_.size()) {
        db_->Prefetch(cmds[kept_[i + kLookahead]]);
      }
      const UpdateCmd& cmd = cmds[kept_[i]];
      if (!db_->Apply(cmd)) continue;  // no-op, absorbed
      pending_.push_back(PendingDelta{cmd.rel, &cmd.tuple,
                                      cmd.kind == UpdateKind::kInsert});
    }
  } else {
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      if (i + kLookahead < cmds.size()) db_->Prefetch(cmds[i + kLookahead]);
      const UpdateCmd& cmd = cmds[i];
      if (!db_->Apply(cmd)) continue;  // no-op, absorbed
      pending_.push_back(PendingDelta{cmd.rel, &cmd.tuple,
                                      cmd.kind == UpdateKind::kInsert});
    }
  }
  if (pending_.empty()) return 0;
  BumpRevision();
  // Every component sees the full effective list; deltas whose relation
  // has no atom in a component are skipped inside its per-atom routing.
  for (const auto& c : components_) {
    c->ApplyBatch(pending_.data(), pending_.size());
  }
  return pending_.size();
}

Weight Engine::Count() {
  Weight total = 1;
  for (const auto& c : components_) total *= c->Count();
  return total;
}

bool Engine::Answer() {
  for (const auto& c : components_) {
    if (!c->Answer()) return false;
  }
  return true;
}

std::unique_ptr<Cursor> Engine::NewComponentCursor(std::size_t c,
                                                   ItemHandle root_begin,
                                                   ItemHandle root_end) {
  RevisionGuard guard = NewGuard();
  const ComponentEngine* ce = components_[c].get();
  if (ce->query().head().empty()) {
    return std::make_unique<BooleanGateCursor>(ce->Answer(), guard);
  }
  return std::make_unique<ComponentCursor>(ce, guard, root_begin, root_end);
}

std::unique_ptr<Cursor> Engine::NewCursor() {
  if (components_.size() == 1 && !components_[0]->query().head().empty()) {
    // Single non-Boolean component: its head order is the query's.
    return NewComponentCursor(0, ItemHandle(), ItemHandle());
  }
  std::vector<std::unique_ptr<Cursor>> subs;
  subs.reserve(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    subs.push_back(NewComponentCursor(c, ItemHandle(), ItemHandle()));
  }
  return std::make_unique<ProductCursor>(std::move(subs), head_map_);
}

Result<std::vector<std::unique_ptr<Cursor>>> Engine::NewPartitions(
    std::size_t k) {
  using R = Result<std::vector<std::unique_ptr<Cursor>>>;
  if (k == 0) return R::Error("NewPartitions: k must be >= 1");
  std::vector<std::unique_ptr<Cursor>> out;
  if (!has_free_component_) {
    // All components Boolean: the result is at most one empty tuple.
    out.push_back(NewCursor());
    return out;
  }

  // Pick the pivot per call: the free-variable component with the most
  // fit roots, so a skewed product (tiny first component, huge second)
  // still splits k ways. Each root subtree is an independent enumeration
  // unit (§6.3), so contiguous fit-list ranges partition the pivot's
  // result, and the cross product with the other components partitions
  // ϕ(D). The walk is O(#fit roots) — the price of a partitioned read.
  std::size_t pivot = 0;
  std::size_t roots = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (components_[c]->query().head().empty()) continue;
    const ItemPool& pool = components_[c]->pool();
    std::size_t n = 0;
    for (ItemHandle h = SlotHead(components_[c]->root_slot()); h;
         h = pool.Resolve(h)->next) {
      ++n;
    }
    if (n > roots) {
      pivot = c;
      roots = n;
    }
  }
  if (roots == 0) {
    out.push_back(NewCursor());  // empty result: one cursor ending at once
    return out;
  }
  const ComponentEngine& ce = *components_[pivot];

  const std::size_t parts = std::min(k, roots);
  const std::size_t base = roots / parts;
  std::size_t extra = roots % parts;  // first `extra` ranges get one more
  ItemHandle begin = SlotHead(ce.root_slot());
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t len = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    ItemHandle end = begin;
    for (std::size_t i = 0; i < len; ++i) end = ce.pool().Resolve(end)->next;

    if (components_.size() == 1) {
      out.push_back(NewComponentCursor(0, begin, end));
    } else {
      std::vector<std::unique_ptr<Cursor>> subs;
      subs.reserve(components_.size());
      for (std::size_t c = 0; c < components_.size(); ++c) {
        subs.push_back(c == pivot
                           ? NewComponentCursor(c, begin, end)
                           : NewComponentCursor(c, ItemHandle(),
                                                ItemHandle()));
      }
      out.push_back(
          std::make_unique<ProductCursor>(std::move(subs), head_map_));
    }
    begin = end;
  }
  return out;
}

std::size_t Engine::NumItems() const {
  std::size_t n = 0;
  for (const auto& c : components_) n += c->NumItems();
  return n;
}

void Engine::DumpStructure(std::ostream& os) const {
  for (const auto& c : components_) c->Dump(os);
}

}  // namespace dyncq::core
