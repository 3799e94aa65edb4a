// Minutes-scale snapshot soak: Zipfian single-writer churn with epochs
// pinned, drained, and released continuously.
//
// Each cycle pins the current version (recording an order-insensitive
// signature of the result), churns through a rotating write path
// (single updates / batches), re-drains
// every held pin and checks its signature byte-for-byte, and rotates
// the oldest pin out. Component invariants are checked periodically,
// and at the end — after every pin is released and retired memory is
// reclaimed — the process RSS must sit within 10% (plus a small fixed
// slack for allocator noise) of the post-warmup high-water mark, i.e.
// pinned versions must not leak.
//
// Runtime is bounded by DYNCQ_SOAK_SECONDS (default 120), and the
// temporal shape of the churn by DYNCQ_SOAK_PATTERN: "churn" (default,
// stationary Zipfian mix), "window" (sliding retention window — every
// delete expires the oldest live tuple, a delete-heavy steady state),
// "flash" (periodic hot-value bursts hammering a few subtrees), or
// "storm" (delete storms: sawtooth build/drain cycles that repeatedly
// empty whole item blocks — the adversarial pattern for hive block
// reclamation, exercised here end-to-end under pinned epochs). The
// binary is registered as a ctest only under -DDYNCQ_SOAK_TESTS=ON,
// label "soak"; it is not part of the tier-1 suite.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cq/parser.h"
#include "storage/tuple.h"
#include "storage/update.h"
#include "workload/stream_gen.h"

namespace {

using namespace dyncq;  // NOLINT: single-binary soak harness

int g_failures = 0;

#define SOAK_CHECK(cond, ...)                      \
  do {                                             \
    if (!(cond)) {                                 \
      ++g_failures;                                \
      std::fprintf(stderr, "FAIL: " __VA_ARGS__);  \
      std::fprintf(stderr, " [%s]\n", #cond);      \
    }                                              \
  } while (0)

/// Current resident set in bytes (/proc/self/statm page counts).
std::size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Order-insensitive result signature: (count, sum of tuple hashes).
struct Signature {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const Signature&, const Signature&) = default;
};

Signature SignResult(Cursor& cur) {
  Signature sig;
  TupleHash hasher;
  Tuple t;
  CursorStatus s;
  while ((s = cur.Next(&t)) == CursorStatus::kOk) {
    ++sig.count;
    sig.hash += hasher(t);
  }
  SOAK_CHECK(s == CursorStatus::kEnd, "cursor ended with status %d",
             static_cast<int>(s));
  return sig;
}

Signature SignSnapshot(core::Engine& engine, std::uint64_t epoch) {
  auto cur = engine.NewSnapshotCursor(epoch);
  SOAK_CHECK(cur.ok(), "NewSnapshotCursor(%llu): %s",
             static_cast<unsigned long long>(epoch),
             cur.ok() ? "" : cur.error().c_str());
  if (!cur.ok()) return Signature{};
  return SignResult(*cur.value());
}

}  // namespace

int main() {
  const char* env = std::getenv("DYNCQ_SOAK_SECONDS");
  const long seconds = env != nullptr ? std::atol(env) : 120;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);

  auto q = ParseQuery("Q(x, y) :- E(x, y), T(y).");
  if (!q.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", q.error().c_str());
    return 1;
  }
  auto engine_r = core::Engine::Create(q.value());
  if (!engine_r.ok()) {
    std::fprintf(stderr, "engine creation failed: %s\n",
                 engine_r.error().c_str());
    return 1;
  }
  core::Engine& engine = *engine_r.value();

  // Warm up to steady-state size, then take the RSS baseline. Every
  // pattern keeps the live structure bounded afterwards — balanced
  // churn random-walks around the warmed size, the sliding window holds
  // exactly `window` tuples per relation, flash bursts are balanced
  // churn with a hot value set, and delete storms sawtooth strictly
  // below the warmed high-water mark (each cycle drains more than its
  // build phase can freshly insert from the Zipfian domain) — so any
  // sustained RSS growth is pinned-version leakage, not data growth.
  const char* pat_env = std::getenv("DYNCQ_SOAK_PATTERN");
  const std::string pattern = pat_env != nullptr ? pat_env : "churn";
  std::unique_ptr<workload::StreamGenerator> gen;
  if (pattern == "window") {
    // One generator end to end: its FIFO must cover the warm-up inserts
    // so expiry targets them; Take(150000) fills both relations to the
    // window and from then on every insert expires the oldest tuple.
    gen = std::make_unique<workload::StreamGenerator>(
        q.value().schema_ptr(),
        workload::StreamOptions{
            .seed = 20260808,
            .domain_size = 4000,
            .zipf_s = 1.1,
            .pattern = workload::TemporalPattern::kSlidingWindow,
            .window = 20000});
    engine.ApplyAll(gen->Take(150000));
  } else {
    // Pure-insert warm-up, then balanced churn (optionally with flash
    // bursts): Zipfian hot values concentrate updates on a few
    // subtrees, so the same roots are detached, rebuilt, and retired
    // over and over.
    workload::StreamGenerator warm(q.value().schema_ptr(),
                                   {.seed = 20260807,
                                    .domain_size = 4000,
                                    .insert_ratio = 1.0,
                                    .zipf_s = 1.1});
    engine.ApplyAll(warm.Take(150000));
    workload::StreamOptions gopts{.seed = 20260808,
                                  .domain_size = 4000,
                                  .insert_ratio = 0.5,
                                  .zipf_s = 1.1};
    if (pattern == "flash") {
      gopts.pattern = workload::TemporalPattern::kFlashCrowd;
      gopts.flash_period = 4096;
      gopts.flash_len = 512;
      gopts.flash_hot_values = 8;
    } else if (pattern == "storm") {
      // Build with pure inserts, then delete-storm half the cycle: the
      // drain punches whole pool blocks empty every round, so block
      // reclamation (and its interaction with epoch retire lists) runs
      // continuously rather than once at teardown.
      gopts.pattern = workload::TemporalPattern::kDeleteStorm;
      gopts.insert_ratio = 1.0;
      gopts.storm_period = 8192;
      gopts.storm_len = 4096;
    }
    gen = std::make_unique<workload::StreamGenerator>(
        q.value().schema_ptr(), gopts);
  }
  const std::size_t baseline_rss = CurrentRssBytes();
  std::printf("warmed: count=%llu rss=%.1f MiB budget=%lds pattern=%s\n",
              static_cast<unsigned long long>(engine.Count()),
              baseline_rss / (1024.0 * 1024.0), seconds, pattern.c_str());

  struct Held {
    std::uint64_t epoch;
    Signature sig;
  };
  std::deque<Held> pins;
  std::uint64_t rounds = 0;

  while (std::chrono::steady_clock::now() < deadline) {
    // Pin the current version and remember its signature (signed off a
    // fresh live cursor, which by construction equals the pinned view).
    auto pin = engine.PinEpoch();
    SOAK_CHECK(pin.ok(), "PinEpoch: %s", pin.ok() ? "" : pin.error().c_str());
    if (pin.ok()) {
      pins.push_back({pin.value(), SignSnapshot(engine, pin.value())});
      Signature live;
      {
        auto cur = engine.NewCursor();
        live = SignResult(*cur);
      }
      SOAK_CHECK(live == pins.back().sig,
                 "freshly pinned snapshot disagrees with the live result");
    }

    // Churn through a rotating write path.
    UpdateStream cmds = gen->Take(2000);
    if (rounds % 3 == 0) {
      for (const UpdateCmd& cmd : cmds) engine.Apply(cmd);
    } else {
      engine.ApplyAll(cmds);
    }

    // Every held pin must still enumerate exactly its frozen version.
    for (const Held& h : pins) {
      SOAK_CHECK(SignSnapshot(engine, h.epoch) == h.sig,
                 "pinned epoch %llu drifted at round %llu",
                 static_cast<unsigned long long>(h.epoch),
                 static_cast<unsigned long long>(rounds));
    }
    while (pins.size() > 4) {
      SOAK_CHECK(engine.UnpinEpoch(pins.front().epoch).ok(),
                 "UnpinEpoch failed");
      pins.pop_front();
    }

    if (++rounds % 16 == 0) {
      for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
        engine.component(c).CheckInvariants();
      }
      std::printf("round %llu: count=%llu pins=%zu retired=%zu "
                  "rss=%.1f MiB\n",
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(engine.Count()),
                  pins.size(), engine.RetiredBlocks(),
                  baseline_rss == 0
                      ? 0.0
                      : CurrentRssBytes() / (1024.0 * 1024.0));
      std::fflush(stdout);
    }
  }

  // Release everything: no version may survive, nothing may stay
  // retired, and the structure must still be internally consistent.
  while (!pins.empty()) {
    SOAK_CHECK(engine.UnpinEpoch(pins.front().epoch).ok(),
               "final UnpinEpoch failed");
    pins.pop_front();
  }
  SOAK_CHECK(engine.num_pinned_epochs() == 0, "epochs leaked");
  auto drop = engine.DropAllSnapshots();
  SOAK_CHECK(drop.ok(), "DropAllSnapshots: %s",
             drop.ok() ? "" : drop.message().c_str());
  SOAK_CHECK(engine.RetiredBlocks() == 0, "retired blocks not reclaimed");
  for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
    engine.component(c).CheckInvariants();
  }

  // RSS high-water check: with all pins released and retired memory
  // back on the free lists, we must sit within 10% of the post-warmup
  // baseline (16 MiB fixed slack absorbs allocator bookkeeping noise on
  // small baselines). The balanced churn keeps the live structure at
  // the warmed size, so growth past the bound means pinned versions —
  // or their retired forests — accumulated instead of being reclaimed.
  const std::size_t final_rss = CurrentRssBytes();
  const std::size_t limit =
      baseline_rss + baseline_rss / 10 + (std::size_t{16} << 20);
  SOAK_CHECK(baseline_rss == 0 || final_rss <= limit,
             "RSS grew past the pin-release bound: %.1f MiB > %.1f MiB",
             final_rss / (1024.0 * 1024.0), limit / (1024.0 * 1024.0));

  std::printf("%llu rounds, final count=%llu, rss %.1f -> %.1f MiB: %s\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(engine.Count()),
              baseline_rss / (1024.0 * 1024.0),
              final_rss / (1024.0 * 1024.0),
              g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}
