#include "core/session.h"

#include <utility>

#include "util/check.h"

namespace dyncq {

// ---------------------------------------------------------------------------
// UpdateBatch
// ---------------------------------------------------------------------------

void UpdateBatch::Stage(UpdateCmd cmd) {
  const Tuple key = KeyOf(cmd);
  std::uint32_t* idx = index_.Find(key);
  if (idx == nullptr) {
    index_.Insert(key, static_cast<std::uint32_t>(staged_.size()));
    staged_.push_back(Staged{std::move(cmd), true});
    ++live_;
    return;
  }
  Staged& prior = staged_[*idx];
  DYNCQ_DCHECK(prior.live);
  if (prior.cmd.kind == cmd.kind) {
    ++deduped_;  // same intention staged twice
    return;
  }
  // Inverse pair: annihilate both inside the staging table. A later
  // re-stage of the same tuple starts fresh (the map entry is gone).
  prior.live = false;
  --live_;
  ++annihilated_;
  index_.Erase(key);
}

std::size_t UpdateBatch::Commit() {
  UpdateStream net;
  net.reserve(live_);
  for (Staged& s : staged_) {
    if (s.live) net.push_back(std::move(s.cmd));
  }
  std::size_t effective = 0;
  if (!net.empty()) {
    effective = engine_->ApplyBatch(std::span<const UpdateCmd>(net));
  }
  Abort();
  return effective;
}

void UpdateBatch::Abort() {
  staged_.clear();
  index_.Clear();
  live_ = annihilated_ = deduped_ = 0;
}

// ---------------------------------------------------------------------------
// QuerySession
// ---------------------------------------------------------------------------

QuerySession::QuerySession(const Query& q) {
  core::EngineChoice choice = core::CreateMaintainableEngine(q);
  engine_ = std::move(choice.engine);
  strategy_ = choice.strategy;
  rationale_ = std::move(choice.rationale);
}

QuerySession::QuerySession(const Query& q, const Database& initial)
    : QuerySession(q) {
  // Engines with size-aware structures (core::Engine) reserve every
  // hash table from the input sizes before the replay.
  engine_->Preload(initial);
}

Result<std::unique_ptr<Cursor>> QuerySession::NewCursor(
    const CursorOptions& opts) {
  using R = Result<std::unique_ptr<Cursor>>;
  if (!opts.snapshot) return R(engine_->NewCursor());
  auto epoch = engine_->PinEpoch();
  if (!epoch.ok()) return epoch.status();
  auto cursor = engine_->NewSnapshotCursor(epoch.value());
  // The cursor holds its own snapshot reference, so the pin backing this
  // call is released right away: the snapshot lives until the cursor
  // dies, and other pins of the same epoch are unaffected.
  Status unpin = engine_->UnpinEpoch(epoch.value());
  DYNCQ_CHECK(unpin.ok());
  return cursor;
}

Result<std::vector<Tuple>> QuerySession::Materialize(
    const CursorOptions& opts) {
  using R = Result<std::vector<Tuple>>;
  std::unique_ptr<Cursor> c;
  if (opts.snapshot) {
    auto sc = NewCursor(opts);
    if (!sc.ok()) return sc.status();
    c = std::move(sc.value());
  } else {
    c = engine_->NewCursor();
  }
  std::vector<Tuple> out;
  out.reserve(BoundedReserveFromCount(engine_->Count()));
  Tuple t;
  CursorStatus s;
  while ((s = c->Next(&t)) == CursorStatus::kOk) out.push_back(t);
  if (s == CursorStatus::kInvalidated) {
    return R::Error(
        "Materialize: result changed mid-drain (cursor invalidated); "
        "re-run, or use CursorOptions{.snapshot = true}");
  }
  return R(std::move(out));
}

}  // namespace dyncq
