// Full-recomputation baseline: every query routine re-evaluates ϕ(D)
// from scratch (memoized until the next update). This is the trivial
// dynamic algorithm the paper's preprocessing-time bound is measured
// against — O(1) update, Ω(evaluation) answer/count/delay.
#ifndef DYNCQ_BASELINE_RECOMPUTE_H_
#define DYNCQ_BASELINE_RECOMPUTE_H_

#include <memory>
#include <vector>

#include "core/engine_iface.h"

namespace dyncq::baseline {

class RecomputeEngine final : public DynamicQueryEngine {
 public:
  explicit RecomputeEngine(const Query& q);
  RecomputeEngine(const Query& q, const Database& initial);

  const Query& query() const override { return query_; }
  const Database& db() const override { return db_; }

  Capabilities capabilities() const override {
    // Recomputation guarantees nothing dynamic. snapshot_enumeration
    // stays false: PinEpoch works, but degrades to materialize-on-pin
    // (the base-class default drains one cursor into a VectorSnapshot).
    return Capabilities{};
  }

  bool Apply(const UpdateCmd& cmd) override;
  // Batch entry point: the inherited default (in-batch fold + per-tuple
  // replay); updates only dirty the memoized result.
  using DynamicQueryEngine::ApplyBatch;
  Weight Count() override;
  bool Answer() override;
  std::unique_ptr<Cursor> NewCursor() override;
  std::string name() const override { return "recompute"; }

 private:
  void EnsureFresh();

  Query query_;
  Database db_;
  bool dirty_ = true;
  std::vector<Tuple> cache_;
};

}  // namespace dyncq::baseline

#endif  // DYNCQ_BASELINE_RECOMPUTE_H_
