// Classical delta-based incremental view maintenance (the "mainstream
// IVM" the paper's related work contrasts with, cf. Gupta/Mumick [22]).
//
// The engine materializes the query result as a multiplicity map
//   result[ā] = number of valuations β with β(head) = ā,
// and on each single-tuple update evaluates the higher-order delta
//   Q(R ∪ t) − Q(R) = Σ_i Q(view_1..view_{i-1} = R∪t, view_i = {t},
//                           view_{i+1}.. = R)
// over the occurrences of the updated relation (and symmetrically for
// deletes). Count/Answer are O(1) and enumeration is constant-delay over
// the materialized map, but the update time is a delta join — Θ(n) or
// worse for the paper's hard queries, which is exactly the foil the
// lower-bound experiments need.
#ifndef DYNCQ_BASELINE_DELTA_IVM_H_
#define DYNCQ_BASELINE_DELTA_IVM_H_

#include <memory>

#include "baseline/evaluator.h"
#include "core/engine_iface.h"
#include "util/hash.h"
#include "util/open_hash_map.h"

namespace dyncq::baseline {

class DeltaIvmEngine final : public DynamicQueryEngine {
 public:
  explicit DeltaIvmEngine(const Query& q);
  DeltaIvmEngine(const Query& q, const Database& initial);

  const Query& query() const override { return query_; }
  const Database& db() const override { return db_; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.constant_delay_enumeration = true;  // materialized result map
    caps.constant_time_count = true;
    // snapshot_enumeration stays false: updates mutate the result map in
    // place, so PinEpoch degrades to the base-class materialize-on-pin
    // (one full drain into a VectorSnapshot).
    return caps;
  }

  bool Apply(const UpdateCmd& cmd) override;
  // Batch entry point: the inherited default — the in-batch fold
  // followed by a per-tuple delta-join replay (delta joins share the
  // result map and the persistent indexes).
  using DynamicQueryEngine::ApplyBatch;
  Weight Count() override { return result_.size(); }
  bool Answer() override { return result_.size() > 0; }
  std::unique_ptr<Cursor> NewCursor() override;
  std::string name() const override { return "delta-ivm"; }

  /// Valuation multiplicity of a result tuple (0 if absent).
  std::uint64_t Multiplicity(const Tuple& t) const;

 private:
  void ApplyDelta(const UpdateCmd& cmd, bool insert);

  Query query_;
  Database db_;
  /// Persistent hash indexes shared by all delta evaluations (a real IVM
  /// engine maintains its join indexes incrementally).
  PersistentIndexStore index_store_{&db_};
  OpenHashMap<Tuple, std::uint64_t, TupleHash> result_;
};

}  // namespace dyncq::baseline

#endif  // DYNCQ_BASELINE_DELTA_IVM_H_
