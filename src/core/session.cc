#include "core/session.h"

#include <utility>

#include "util/check.h"

namespace dyncq {

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
