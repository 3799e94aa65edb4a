// In-memory span recorder for the benchmark's traced run.
//
// A span wraps one benchmark call into a layer of the engine (serve,
// storage, core, baseline, cq). Spans are recorded from the
// benchmark's own sources only; nothing inside src/ is instrumented.
// Each thread owns one TraceLane, so recording takes no lock. A lane
// keeps, per span name, the count, total and self time (duration minus
// the time its child spans cover) and a duration histogram for every
// span, and stores the first kMaxRecords span records for the trace
// file written at exit.
#ifndef DYNCQ_PERFBENCH_TRACE_H_
#define DYNCQ_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "hist.h"

namespace dyncq::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. Keep kSpanNames in the same order.
enum SpanName : std::uint8_t {
  kReqWriteRun,   // request: one run of single-delta writes
  kReqBatch,      // request: one batch write
  kReqReadStep,   // request: one reader step (counts + live cursors)
  kReqPin,        // request: one pinned read (pin, fork write, drain)
  kReqSetup,      // request: one registration
  kCqParse,
  kCqCanonical,
  kCqClassify,
  kServeRegister,
  kServePreload,
  kServeApplyDelta,
  kServeApplyBatch,
  kCoreCount,     // one run of 16 Count() calls
  kCoreNewCursor,
  kCoreCursorNext,
  kCoreDrain,
  kCorePin,
  kCoreUnpin,
  kCoreSnapshotOpen,
  kCoreReclaim,   // DropAllSnapshots after a forked pin is released
  kBaselineEvaluate,
  kNumSpanNames,
};

inline constexpr const char* kSpanNames[kNumSpanNames] = {
    "req.write_run",    "req.batch",          "req.read_step",
    "req.pinned_read",  "req.setup",          "cq.ParseQuery",
    "cq.CanonicalQueryKey", "cq.AnalyzeQuery", "serve.Register",
    "serve.preload",    "serve.ApplyDelta",   "serve.ApplyBatch",
    "core.Count.x16",   "core.NewCursor",     "core.Cursor.Next",
    "core.drain",       "core.PinEpoch",      "core.UnpinEpoch",
    "core.NewSnapshotCursor", "core.DropAllSnapshots", "baseline.Evaluate",
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = kReqWriteRun;
};

struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  LogHistogram duration;
};

class TraceLane {
 public:
  static constexpr std::size_t kMaxRecords = 1 << 17;

  TraceLane(std::uint32_t lane, bool enabled)
      : lane_(lane), enabled_(enabled), stats_(kNumSpanNames) {}

  /// Recording can be switched off and on between requests; the traced
  /// run alternates to measure its own overhead.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  const std::vector<SpanStats>& stats() const { return stats_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint32_t lane() const { return lane_; }

 private:
  friend class Span;
  struct Open {
    SpanRecord rec;
    double child_ns = 0;
  };

  std::uint32_t lane_;
  bool enabled_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<SpanStats> stats_;
  std::vector<SpanRecord> records_;
};

/// RAII span: records [construction, destruction) on `lane`. The parent
/// is the lane's innermost open span; a root span takes `request` as
/// its request id, a child inherits its parent's. A null or disabled
/// lane records nothing and reads no clock.
class Span {
 public:
  Span(TraceLane* lane, SpanName name, std::uint64_t request = 0)
      : lane_(lane != nullptr && lane->enabled_ ? lane : nullptr) {
    if (lane_ == nullptr) return;
    TraceLane::Open o;
    o.rec.id = (std::uint64_t{lane_->lane_} << 40) | lane_->next_id_++;
    o.rec.name = name;
    if (!lane_->stack_.empty()) {
      o.rec.parent = lane_->stack_.back().rec.id;
      o.rec.request = lane_->stack_.back().rec.request;
    } else {
      o.rec.request = request;
    }
    lane_->stack_.push_back(o);
    lane_->stack_.back().rec.start_ns = NowNs();
  }
  ~Span() {
    if (lane_ == nullptr) return;
    TraceLane::Open o = lane_->stack_.back();
    o.rec.end_ns = NowNs();
    lane_->stack_.pop_back();
    const auto dur = static_cast<double>(o.rec.end_ns - o.rec.start_ns);
    SpanStats& s = lane_->stats_[o.rec.name];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - o.child_ns;
    s.duration.Add(dur);
    if (!lane_->stack_.empty()) lane_->stack_.back().child_ns += dur;
    if (lane_->records_.size() < TraceLane::kMaxRecords) {
      lane_->records_.push_back(o.rec);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceLane* lane_;
};

/// Writes every lane's stored spans as tab-separated lines:
/// id, parent, request, lane, name, start_ns, end_ns.
inline void WriteTrace(std::ostream& os,
                       const std::vector<const TraceLane*>& lanes) {
  os << "id\tparent\trequest\tlane\tname\tstart_ns\tend_ns\n";
  for (const TraceLane* l : lanes) {
    for (const SpanRecord& r : l->records()) {
      os << r.id << '\t' << r.parent << '\t' << r.request << '\t'
         << l->lane() << '\t' << kSpanNames[r.name] << '\t' << r.start_ns
         << '\t' << r.end_ns << '\n';
    }
  }
}

}  // namespace dyncq::perfbench

#endif  // DYNCQ_PERFBENCH_TRACE_H_
