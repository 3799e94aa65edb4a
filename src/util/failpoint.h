// Deterministic allocation-failure injection for robustness tests.
//
// The engine's growth paths (ItemPool chunk carving, ChildIndex table
// growth, Relation::Rehash, snapshot capture) guard their raw
// allocations with DYNCQ_ALLOC_FAILPOINT(). A test arms the process-wide
// fail point to throw std::bad_alloc on the Nth guarded allocation (or
// on every Nth), then asserts the structure survived: tables stay
// intact, pins leak no epoch, a failed snapshot fork changes nothing.
//
// Disarmed (the default, including all production use) the hook costs
// one relaxed atomic load per guarded allocation — these are growth
// slow paths, so the hot loops never see it at all.
//
// Arming/disarming is a test-thread affair; the guarded sites may run on
// other threads (the writer, a reader pinning an epoch), so the counters
// are atomics, but the arm/observe protocol itself is not meant to race
// with the allocations it targets.
#ifndef DYNCQ_UTIL_FAILPOINT_H_
#define DYNCQ_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <new>

namespace dyncq {

class AllocFailPoint {
 public:
  /// Arms the point to throw on the `nth` guarded allocation from now
  /// (1 = the very next one), then disarm itself.
  void ArmCountdown(std::uint64_t nth) {
    every_.store(0, std::memory_order_relaxed);
    counter_.store(nth, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }

  /// Arms the point to throw on every `n`th guarded allocation until
  /// Disarm().
  void ArmEveryNth(std::uint64_t n) {
    every_.store(n, std::memory_order_relaxed);
    counter_.store(n, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }

  void Disarm() { armed_.store(false, std::memory_order_relaxed); }

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Number of injected failures since construction.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// The guarded-site hook: counts down and throws std::bad_alloc when
  /// the armed allocation is reached. No-op (one relaxed load) when
  /// disarmed.
  void MaybeFail() {
    if (!armed_.load(std::memory_order_relaxed)) return;
    if (counter_.fetch_sub(1, std::memory_order_relaxed) != 1) return;
    const std::uint64_t every = every_.load(std::memory_order_relaxed);
    if (every == 0) {
      armed_.store(false, std::memory_order_relaxed);  // one-shot
    } else {
      counter_.store(every, std::memory_order_relaxed);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> counter_{0};
  std::atomic<std::uint64_t> every_{0};
  std::atomic<std::uint64_t> hits_{0};
};

/// The process-wide allocation fail point (C++17 inline variable: one
/// instance across all translation units).
inline AllocFailPoint g_alloc_failpoint;

}  // namespace dyncq

/// Guard macro for raw allocation sites. Placed BEFORE the allocation so
/// an injected failure leaves the guarded structure untouched.
#define DYNCQ_ALLOC_FAILPOINT() ::dyncq::g_alloc_failpoint.MaybeFail()

#endif  // DYNCQ_UTIL_FAILPOINT_H_
