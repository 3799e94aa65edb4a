// E6 — constant-delay enumeration (Theorem 3.2 / Algorithm 1): per-tuple
// delay (avg, p99, max) should not grow with the database size; the
// first tuple after an update arrives in O(k) ("restart within constant
// time"), while a recompute baseline pays Θ(evaluation) before its first
// tuple.
#include <iostream>

#include "bench_util.h"
#include "workload/stream_gen.h"

namespace dyncq::bench {
namespace {

void Run() {
  Banner("E6", "constant-delay enumeration (Algorithm 1)",
         "delay td = poly(phi), independent of n; enumeration restarts "
         "in O(k) after an update");

  Query q = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  TablePrinter t({"n (adom)", "|result|", "avg ns/tuple", "p99 ns",
                  "max ns", "first-tuple ns", "recompute first-tuple ns",
                  "pinned avg ns/tuple", "fork write ns"});
  JsonWriter json;

  for (std::size_t n : {1000u, 4000u, 16000u, 64000u}) {
    workload::StreamOptions opts;
    opts.seed = 7;
    opts.domain_size = n;
    auto engine = MustCreateEngine(q);
    baseline::RecomputeEngine rec(q);
    workload::StreamGenerator gen(q.schema_ptr(), opts);
    for (const UpdateCmd& c : gen.Take(4 * n)) {
      engine->Apply(c);
      rec.Apply(c);
    }

    // Per-tuple delays across a full enumeration.
    Samples delays;
    std::size_t result_size = 0;
    {
      auto en = engine->NewCursor();
      Tuple tup;
      Timer timer;
      while (true) {
        Timer per;
        bool more = en->Next(&tup) == CursorStatus::kOk;
        delays.Add(per.ElapsedNs());
        if (!more) break;
        ++result_size;
      }
      (void)timer;
    }

    // Restart latency: update, then time-to-first-tuple.
    engine->Apply(gen.Next(0));
    double first_ns;
    {
      Timer per;
      auto en = engine->NewCursor();
      Tuple tup;
      en->Next(&tup);
      first_ns = per.ElapsedNs();
    }

    rec.Apply(gen.Next(1));
    double rec_first_ns;
    {
      Timer per;
      auto en = rec.NewCursor();
      Tuple tup;
      en->Next(&tup);
      rec_first_ns = per.ElapsedNs();
    }

    // Fork cost: the first write under a pin forks the version off and
    // copies only the item blocks it touches, so it should stay flat in
    // n. Median over several pin -> write -> unpin cycles; the retired
    // copies are reclaimed outside the timer.
    Samples fork_samples;
    for (int trial = 0; trial < 9; ++trial) {
      auto pin = engine->PinEpoch();
      DYNCQ_CHECK_MSG(pin.ok(), pin.error());
      Timer per;
      engine->Apply(gen.Next(0));
      fork_samples.Add(per.ElapsedNs());
      DYNCQ_CHECK(engine->UnpinEpoch(pin.value()).ok());
      DYNCQ_CHECK(engine->DropAllSnapshots().ok());
    }
    const double fork_update_ns = fork_samples.Percentile(0.5);

    // Epoch-pinned read: pin, let one update fork the pinned version
    // off, then drain the snapshot cursor. The per-tuple delay over the
    // version should match the live cursor's — same walk, same item
    // layout — and stay flat in n.
    double pin_ns;
    std::uint64_t epoch;
    {
      Timer per;
      auto pin = engine->PinEpoch();
      pin_ns = per.ElapsedNs();
      DYNCQ_CHECK_MSG(pin.ok(), pin.error());
      epoch = pin.value();
    }
    engine->Apply(gen.Next(0));  // first post-pin write forks
    Samples snap_delays;
    std::size_t snap_size = 0;
    {
      auto cur = engine->NewSnapshotCursor(epoch);
      DYNCQ_CHECK_MSG(cur.ok(), cur.error());
      Tuple tup;
      while (true) {
        Timer per;
        bool more = cur.value()->Next(&tup) == CursorStatus::kOk;
        snap_delays.Add(per.ElapsedNs());
        if (!more) break;
        ++snap_size;
      }
    }
    DYNCQ_CHECK(engine->UnpinEpoch(epoch).ok());

    t.AddRow({std::to_string(engine->db().ActiveDomainSize()),
              std::to_string(result_size), FormatDouble(delays.Mean(), 1),
              FormatDouble(delays.Percentile(0.99), 1),
              FormatDouble(delays.Max(), 1), FormatDouble(first_ns, 1),
              FormatDouble(rec_first_ns, 1),
              FormatDouble(snap_delays.Mean(), 1),
              FormatDouble(fork_update_ns, 1)});

    const std::string prefix = "enum.n" + std::to_string(n);
    json.Add(prefix + ".avg_ns_per_tuple", delays.Mean());
    json.Add(prefix + ".p99_ns", delays.Percentile(0.99));
    json.Add(prefix + ".first_tuple_ns", first_ns);
    // Gated trajectory metrics (check_bench_trajectory.py, e6 preset):
    // pinned-read delay over the forked version, and the fork cost.
    json.Add(prefix + ".e6_snapshot_read_ns", snap_delays.Mean());
    json.Add(prefix + ".e6_snapshot_pin_ns", pin_ns);
    json.Add(prefix + ".e6_snapshot_fork_update_ns", fork_update_ns);
    json.Add(prefix + ".snapshot_result_size", snap_size);
  }
  t.Print();
  json.Write("BENCH_e6.json");
  std::cout << "\nExpected: dyncq delay columns flat in n (pinned reads "
               "and the fork write included); the recompute baseline's "
               "first tuple scales with the evaluation cost.\n";
}

}  // namespace
}  // namespace dyncq::bench

int main() { dyncq::bench::Run(); }
