#include "serve/query_registry.h"

#include <algorithm>
#include <utility>

#include "baseline/delta_ivm.h"
#include "cq/analysis.h"
#include "cq/canonical.h"
#include "cq/homomorphism.h"
#include "util/check.h"

namespace dyncq::serve {

QueryRegistry::QueryRegistry(std::shared_ptr<const Schema> schema,
                             RegistryOptions opts)
    : schema_(std::move(schema)), opts_(opts), db_(*schema_) {
  DYNCQ_CHECK(schema_ != nullptr);
  by_rel_.resize(schema_->NumRelations());
}

QueryRegistry::~QueryRegistry() = default;

Result<QueryHandle> QueryRegistry::Register(const Query& q) {
  using R = Result<QueryHandle>;
  util::MutexLock lock(&mu_);
  if (q.schema_ptr().get() != schema_.get() &&
      !q.schema().IsPrefixOf(*schema_)) {
    return R::Error(
        "Register: query schema is not the registry's (nor a prefix of "
        "it): " + q.schema().ToString());
  }

  for (const Atom& a : q.atoms()) {
    if (a.rel >= by_rel_.size()) {
      return R::Error(
          "Register: relation added to the schema after this registry was "
          "constructed (the shared database is sized at construction)");
    }
  }

  const std::string key = opts_.dedup
                              ? CanonicalQueryKey(q)
                              : "u" + std::to_string(next_unique_++);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry* e = it->second.get();
    ++e->refs;
    ++registered_;
    return R(QueryHandle(this, e));
  }

  auto entry = std::make_unique<Entry>(q);
  entry->key = key;
  // The engine dichotomy (mirrors core::CreateMaintainableEngine, but
  // q-hierarchical strategies run in shared-storage mode against the
  // registry's database).
  if (IsQHierarchical(q)) {
    auto eng = core::Engine::CreateShared(q, &db_);
    DYNCQ_CHECK_MSG(eng.ok(), eng.error());
    entry->shared = eng->get();
    entry->engine = std::move(eng.value());
    entry->strategy = core::EngineStrategy::kQTree;
    AddPostings(entry.get(), q);
  } else {
    Query core_q = ComputeCore(q);
    if (IsQHierarchical(core_q)) {
      auto eng = core::Engine::CreateShared(core_q, &db_);
      DYNCQ_CHECK_MSG(eng.ok(), eng.error());
      entry->shared = eng->get();
      entry->engine = std::move(eng.value());
      entry->strategy = core::EngineStrategy::kQTreeOnCore;
      // Route by the CORE's relations: the core is equivalent to q on
      // every database, so deltas on relations only the redundant atoms
      // mention cannot change the maintained result.
      AddPostings(entry.get(), core_q);
    } else {
      // Conditionally hard query: delta-IVM fallback with private
      // storage, synced by replaying the shared database's current
      // contents of the query's relations.
      auto ivm = std::make_unique<baseline::DeltaIvmEngine>(q);
      AddPostings(entry.get(), q);
      if (db_.NumTuples() > 0) {
        UpdateStream replay;
        for (RelId r : entry->rels) {
          for (const Tuple& t : db_.relation(r)) {
            replay.push_back(UpdateCmd::Insert(r, t));
          }
        }
        ivm->ApplyAll(replay);
      }
      entry->engine = std::move(ivm);
      entry->strategy = core::EngineStrategy::kDeltaIvm;
    }
  }

  Entry* e = entry.get();
  e->refs = 1;
  ++registered_;
  entries_.emplace(key, std::move(entry));
  return R(QueryHandle(this, e));
}

void QueryRegistry::AddPostings(Entry* e, const Query& maintained) {
  for (const Atom& a : maintained.atoms()) {
    if (std::find(e->rels.begin(), e->rels.end(), a.rel) != e->rels.end()) {
      continue;
    }
    e->rels.push_back(a.rel);
    DYNCQ_CHECK(a.rel < by_rel_.size());
    e->posting_pos.push_back(by_rel_[a.rel].size());
    by_rel_[a.rel].push_back(e);
  }
}

void QueryRegistry::RemovePostings(Entry* e) {
  for (std::size_t i = 0; i < e->rels.size(); ++i) {
    const RelId rel = e->rels[i];
    const std::size_t pos = e->posting_pos[i];
    auto& subs = by_rel_[rel];
    DYNCQ_DCHECK(pos < subs.size() && subs[pos] == e);
    if (pos + 1 != subs.size()) {
      Entry* moved = subs.back();
      subs[pos] = moved;
      // Tell the moved entry where it now lives for this relation.
      for (std::size_t j = 0; j < moved->rels.size(); ++j) {
        if (moved->rels[j] == rel) {
          moved->posting_pos[j] = pos;
          break;
        }
      }
    }
    subs.pop_back();
  }
  e->rels.clear();
  e->posting_pos.clear();
}

void QueryRegistry::Unregister(Entry* e) {
  util::MutexLock lock(&mu_);
  DYNCQ_CHECK(e->refs > 0);
  --e->refs;
  --registered_;
  if (e->refs > 0) return;
  RemovePostings(e);
  entries_.erase(e->key);  // frees the entry and its engine
}

bool QueryRegistry::ApplyDelta(const UpdateCmd& cmd) {
  util::MutexLock lock(&mu_);
  DYNCQ_CHECK_MSG(cmd.rel < by_rel_.size(),
                  "ApplyDelta: relation id outside the registry schema");
  auto& subs = by_rel_[cmd.rel];
  // Pinned-snapshot forks must see the pre-update database, so every
  // affected shared engine runs its write prologue before storage
  // mutates. Unpinned engines pay one relaxed atomic load here.
  for (Entry* e : subs) {
    if (e->shared != nullptr) e->shared->PrepareSharedWrite();
  }
  if (!db_.Apply(cmd)) return false;  // no-op: nobody is affected
  ++stats_.deltas_applied;
  const core::PendingDelta d{cmd.rel, &cmd.tuple,
                             cmd.kind == UpdateKind::kInsert};
  for (Entry* e : subs) {
    ++stats_.notifications;
    if (e->shared != nullptr) {
      e->shared->ApplySharedDeltas(&d, 1);
    } else {
      // Private-storage fallback: its database is the projection of the
      // shared one onto the query's relations (it sees exactly the
      // per-relation command subsequence), so this Apply is effective
      // exactly when the shared one was.
      e->engine->Apply(cmd);
    }
  }
  return true;
}

void QueryRegistry::ApplyOneLocked(const UpdateCmd& cmd, std::uint64_t stamp,
                                   std::size_t* effective) {
  DYNCQ_CHECK_MSG(cmd.rel < by_rel_.size(),
                  "ApplyBatch: relation id outside the registry schema");
  auto& subs = by_rel_[cmd.rel];
  // Write prologue before the FIRST mutation of any relation an
  // engine subscribes to: at that point the database still matches
  // the engine's pre-batch structure (earlier commands in this batch
  // touched only relations it does not read), so a pinned fork
  // rebuilds the correct version. ForkIfPinned self-disarms, making
  // repeats cheap, but the stamp also bounds bookkeeping to once per
  // engine per batch.
  for (Entry* e : subs) {
    if (e->batch_stamp != stamp) {
      e->batch_stamp = stamp;
      e->pending.clear();
      touched_.push_back(e);
      if (e->shared != nullptr) e->shared->PrepareSharedWrite();
    }
  }
  if (!db_.Apply(cmd)) return;  // no-op, absorbed
  ++*effective;
  ++stats_.deltas_applied;
  for (Entry* e : subs) {
    ++stats_.notifications;
    if (e->shared != nullptr) {
      // Queued for the engine's batch pipeline; borrows the caller's
      // tuple storage, which outlives this call.
      e->pending.push_back(core::PendingDelta{
          cmd.rel, &cmd.tuple, cmd.kind == UpdateKind::kInsert});
    } else {
      e->engine->Apply(cmd);  // fallback: ordered per-command replay
    }
  }
}

std::size_t QueryRegistry::ApplyBatch(std::span<const UpdateCmd> cmds) {
  util::MutexLock lock(&mu_);
  const std::uint64_t stamp = ++batch_seq_;
  touched_.clear();
  std::size_t effective = 0;

  // Same in-batch fold as the engines (storage/update.h): superseded
  // commands never reach storage or any subscriber, and the effective
  // count stays comparable with the single-session pipelines.
  if (folder_.Fold(cmds, &kept_)) {
    for (std::uint32_t i : kept_) ApplyOneLocked(cmds[i], stamp, &effective);
  } else {
    for (const UpdateCmd& cmd : cmds) ApplyOneLocked(cmd, stamp, &effective);
  }

  for (Entry* e : touched_) {
    if (e->shared != nullptr && !e->pending.empty()) {
      e->shared->ApplySharedDeltas(e->pending.data(), e->pending.size());
    }
    e->pending.clear();  // drop dangling borrows of the caller's span
  }
  return effective;
}

std::size_t QueryRegistry::RetiredBlocks() const {
  util::MutexLock lock(&mu_);
  std::size_t n = 0;
  for (const auto& [key, e] : entries_) {
    if (e->shared != nullptr) n += e->shared->RetiredBlocks();
  }
  return n;
}

void QueryHandle::Release() {
  if (e_ == nullptr) return;
  reg_->Unregister(e_);
  reg_ = nullptr;
  e_ = nullptr;
}

Result<std::vector<Tuple>> QueryHandle::Materialize() {
  using R = Result<std::vector<Tuple>>;
  std::vector<Tuple> out;
  out.reserve(BoundedReserveFromCount(Count()));
  std::unique_ptr<Cursor> cur = NewCursor();
  Tuple t;
  CursorStatus s;
  while ((s = cur->Next(&t)) == CursorStatus::kOk) out.push_back(t);
  if (s == CursorStatus::kInvalidated) {
    return R::Error("Materialize: result changed mid-drain");
  }
  return R(std::move(out));
}

}  // namespace dyncq::serve
