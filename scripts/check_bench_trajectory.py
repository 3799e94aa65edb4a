#!/usr/bin/env python3
"""Bench-trajectory check: compare a freshly produced bench JSON against
the committed one and fail on throughput regressions.

Supports two formats:
  * the flat dyncq JsonWriter format (BENCH_e5.json / BENCH_e14.json):
    {"chain.n64000.single_ns_per_update": 123.4, ...}
  * the google-benchmark format (BENCH_e12.json): {"benchmarks":
    [{"name": ..., "cpu_time": ...}, ...]}

Gated metrics are ns-per-operation keys matched by --gate-pattern
(default: the E5 single-update and batch hot-path numbers). A regression
of more than --max-regress (default 25%) of throughput — i.e. fresh_ns >
committed_ns / (1 - max_regress) — fails the check. Everything else is
compared report-only. Use --report-only to never fail (e.g. for the
google-benchmark micro suite, whose absolute numbers are host-bound).

A gated metric that cannot be checked is an explicit FAILURE, never a
silent pass: missing from the committed baseline (regenerate and commit
it alongside the change that added the metric), missing from the fresh
output (the bench stopped emitting it), or unusable in the committed
file (zero, negative, NaN/inf, or non-numeric). Ungated metrics in those
states are reported as skips.

Usage:
  scripts/check_bench_trajectory.py COMMITTED.json FRESH.json
      [--max-regress 0.25] [--gate-pattern REGEX] [--report-only]
"""

import argparse
import json
import math
import re
import sys

DEFAULT_GATE = r"\.(single|batch)_ns_per_update$"

# GATED since PR 5 (was report-only in PR 4, which committed the
# same-host baseline): the E12 relation probe micro numbers (swiss-table
# hit/miss/erase-insert at 4k/64k adom, bench/bench_e12_micro.cc). The
# CI step that compares BENCH_e12.json selects this pattern via
# --gate-preset e12; micro ns/op numbers are noisier than the e5
# aggregates, so that step pairs the preset with a wider --max-regress.
E12_RELATION_PROBE = r"^BM_RelationProbe(Hit|Miss|EraseInsert)/\d+$"

# GATED since PR 9 (rode report-only from PR 5 while the committed
# baseline aged — the same promotion path the relation probes took):
# the structure micros (single-update churn on the path-compressed
# 3-level chain and the strided k=2 leaf — BM_EngineUpdateChain3Compressed
# and BM_EngineUpdateMultiLeafStrided at 4k/64k adom). Folded into
# the e12 preset below; CI pairs that preset with --max-regress 0.5,
# the micro-suite tolerance.
E12_STRUCTURE_MICROS = r"^BM_EngineUpdate(Chain3Compressed|MultiLeafStrided)/\d+$"

# GATED since PR 10 (registered report-only with the PR 9 hive
# ItemPool, promoted after the committed BENCH_e12.json baseline aged
# one PR — the standard promotion path): the allocator micros
# (BM_ItemPoolChurn — skipfield alloc/free churn at fixed live size;
# BM_PoolBlockReclaim — the fill+drain sawtooth including block
# reclamation, reported per alloc/free op). Folded into the e12 preset
# below, which CI pairs with --max-regress 0.5: single-digit-ns
# alloc/free ops amplify host noise, and the 50% micro-suite tolerance
# is what the relation-probe and structure micros already ride.
E12_POOL_MICROS = r"^BM_(ItemPoolChurn|PoolBlockReclaim)/\d+$"

# Registered report-only in PR 6 alongside the snapshot-cursor work: the
# E6 pinned-read delay (enum.n<k>.e6_snapshot_read_ns from
# bench_e6_enum_delay.cc — per-tuple delay draining a pinned snapshot
# cursor after a write forked the pinned version off). GATED together
# with the fork cost below once the copy-on-write fork landed: the
# read baseline had ridden report-only for many PRs.
E6_SNAPSHOT_READ = r"\.e6_snapshot_read_ns$"

# GATED from registration with the copy-on-write snapshot fork: the
# first write under a pin (enum.n<k>.e6_snapshot_fork_update_ns — median
# of nine pin -> write -> unpin cycles). It used to rebuild the whole
# engine (0.6 ms at n=1k, 110 ms at n=64k); now it forks the block
# directory and copies only the blocks the write touches (~10 us, flat
# in n), so a regression back to an O(engine) fork shows as a 10-1000x
# jump at every n. The CI step pairs the e6 preset with --max-regress
# 0.5: a ~10 us single-write median carries more host noise than the e5
# aggregates' 25% tolerance absorbs.
E6_SNAPSHOT_FORK = r"\.e6_snapshot_fork_update_ns$"

# Registered report-only in PR 7 with the serving layer
# (bench/bench_e14_registry.cc) and PROMOTED to gated one PR later,
# once the committed BENCH_e14.json baseline had aged — the same
# promotion path the E12 micros took. The preset covers the registry
# routing sweep (per-delta dispatch cost as registered queries grow —
# routing.n*.ns_per_delta) and the sustained batch streams
# (sustained.*.ns_per_cmd). CI gates it at --max-regress 0.5: per-delta
# ns numbers (hundreds of ns) carry more host-to-host noise than the
# e5 aggregates' 25% tolerance absorbs, and the headroom also covers
# the registry's one uncontended annotated-mutex acquisition per
# ApplyDelta/ApplyBatch (~tens of ns, the price of making the write
# protocol compiler-checkable). The dedup/engine *ratios* in that file
# stay report-only forever — they compare configurations within one
# run, not against a trajectory.
E14_REGISTRY = r"\.(ns_per_delta|ns_per_cmd)$"

# --gate-preset: named gate patterns, so the CI steps reference the
# constants above instead of duplicating regexes in ci.yml.
GATE_PRESETS = {
    "e5": DEFAULT_GATE,
    "e6": f"(?:{E6_SNAPSHOT_READ})|(?:{E6_SNAPSHOT_FORK})",
    "e12": (f"(?:{E12_RELATION_PROBE})|(?:{E12_STRUCTURE_MICROS})"
            f"|(?:{E12_POOL_MICROS})"),
    "e14": E14_REGISTRY,
}


def load_metrics(path):
    """Returns ({name: float}, {unusable name: reason}) for either
    supported format. Non-numeric and non-finite values land in the
    unusable map instead of being silently dropped."""
    with open(path) as f:
        data = json.load(f)
    out, unusable = {}, {}
    if "benchmarks" in data:  # google-benchmark
        for b in data["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b.get("name")
            if name is None:
                continue
            try:
                v = float(b["cpu_time"])
            except (KeyError, TypeError, ValueError):
                unusable[name] = "non-numeric cpu_time"
                continue
            if not math.isfinite(v):
                unusable[name] = f"non-finite cpu_time ({v})"
                continue
            out[name] = v
        return out, unusable
    for k, v in data.items():
        try:
            v = float(v)
        except (TypeError, ValueError):
            # String metadata (provenance etc.) is expected and silent —
            # unless the key looks like a metric, in which case it must
            # surface as unusable rather than vanish.
            unusable[k] = f"non-numeric value ({v!r})"
            continue
        if not math.isfinite(v):
            unusable[k] = f"non-finite value ({v})"
            continue
        out[k] = v
    return out, unusable


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="maximum tolerated throughput regression (0.25 "
                         "= fresh may be at most 1/0.75x slower)")
    ap.add_argument("--gate-pattern", default=None,
                    help="regex over metric names selecting gated "
                         "ns-per-op metrics (default: the e5 preset)")
    ap.add_argument("--gate-preset", choices=sorted(GATE_PRESETS),
                    default=None,
                    help="named gate pattern (e5: update-path "
                         "aggregates; e12: relation probe micros)")
    ap.add_argument("--report-only", action="store_true",
                    help="report all metrics, never fail")
    args = ap.parse_args()
    if not 0.0 <= args.max_regress < 1.0:
        ap.error(f"--max-regress must be in [0, 1), got {args.max_regress}")
    if args.gate_pattern is not None and args.gate_preset is not None:
        ap.error("--gate-pattern and --gate-preset are mutually exclusive")
    if args.gate_pattern is None:
        args.gate_pattern = GATE_PRESETS[args.gate_preset or "e5"]

    committed, committed_bad = load_metrics(args.committed)
    fresh, fresh_bad = load_metrics(args.fresh)
    gate = re.compile(args.gate_pattern)
    limit = 1.0 / (1.0 - args.max_regress)

    def gated(name):
        return bool(gate.search(name)) and not args.report_only

    failures = []
    shared = sorted(set(committed) & set(fresh))
    print(f"{'metric':58} {'committed':>12} {'fresh':>12} {'ratio':>7}")
    for name in shared:
        old, new = committed[name], fresh[name]
        if old <= 0:
            msg = (f"{name}: committed value {old} is not a positive "
                   "ns/op — regenerate and commit the baseline")
            if gated(name):
                print(f"{name:58} {old:12.2f} {new:12.2f}      -  "
                      "UNCHECKABLE (gated)")
                failures.append(msg)
            else:
                print(f"{name:58} {old:12.2f} {new:12.2f}      -  "
                      "skipped (committed value not positive)")
            continue
        ratio = new / old
        verdict = ""
        if gated(name) and ratio > limit:
            verdict = f"  REGRESSION (>{args.max_regress:.0%} throughput)"
            failures.append(f"{name}: {old:.1f} -> {new:.1f} ns/op "
                            f"({ratio:.2f}x)")
        elif gated(name):
            verdict = "  ok"
        print(f"{name:58} {old:12.2f} {new:12.2f} {ratio:6.2f}x{verdict}")

    # Every key that could not be compared — missing or unusable on
    # either side, in any combination: loud failure for gated metrics,
    # loud skip for the rest, never a silent pass.
    all_names = (set(committed) | set(fresh) | set(committed_bad) |
                 set(fresh_bad))
    for name in sorted(all_names - set(shared)):
        parts = []
        if name not in committed:
            parts.append("committed: " +
                         committed_bad.get(name, "missing — regenerate "
                                           f"and commit {args.committed}"))
        if name not in fresh:
            parts.append("fresh: " +
                         fresh_bad.get(name, "missing — did the bench "
                                      "stop emitting it?"))
        desc = "; ".join(parts)
        if gated(name):
            print(f"{name:58} FAIL: gated metric uncheckable ({desc})")
            failures.append(f"{name}: uncheckable ({desc})")
        else:
            print(f"{name:58} ({desc}; skipped)")

    if not shared and not failures:
        print(f"WARNING: no shared metrics between {args.committed} and "
              f"{args.fresh}; nothing to check")
        return 0

    if failures:
        print(f"\nFAIL: {len(failures)} gated metric(s) regressed beyond "
              f"{args.max_regress:.0%} or could not be checked:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    print("\nOK: no gated regression beyond "
          f"{args.max_regress:.0%} of throughput")
    return 0


if __name__ == "__main__":
    sys.exit(main())
