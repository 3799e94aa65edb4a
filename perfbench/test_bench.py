#!/usr/bin/env python3
"""Self-tests of the serving benchmark. Run from the root of a checkout:

    python3 perfbench/test_bench.py

Builds the benchmark through perfbench/run.py, then checks that

  * a wrong correctness checkpoint (--inject-mismatch) makes the
    benchmark exit nonzero and report correct=false;
  * two traced runs with the same seed report identical exact work
    counts (probes, notifications, effective ratio, engines, items, pool
    stats, strategies) on every workload;
  * every run reports the metrics BENCHMARK.json names, as numbers;
  * run.py exits nonzero without a result line when the engine sources
    are missing.

Takes a few minutes: ingest_large builds a ~1M-tuple database per
set-up.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ("ingest_large", "pinned_scan", "mixed_storm")
EXACT = (
    "serve.notifications_per_delta", "serve.effective_ratio",
    "serve.engines_per_registration", "serve.strategy_qtree",
    "serve.strategy_core", "serve.strategy_delta_ivm",
    "storage.probes_per_cmd", "storage.live_tuples", "core.items",
    "core.pool_slab_mb", "core.pool_occupancy", "core.pool_released_blocks",
)


def run(args: list[str], cwd: pathlib.Path = ROOT):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result(proc) -> dict:
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def build_base() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def binary() -> pathlib.Path:
    return build_base() / "perfbench" / "serving_bench"


class ServingBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the binary (run.py builds before every run).
        p = run(RUN + ["--workload", "pinned_scan", "--seconds", "1"])
        assert p.returncode == 0, p.stderr[-4000:]
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_mismatch_exits_nonzero(self):
        p = run([str(binary()), "--workload", "pinned_scan", "--seed", "7",
                 "--seconds", "1", "--trace", "0", "--inject-mismatch"])
        self.assertEqual(p.returncode, 1, p.stdout[-2000:])
        self.assertFalse(result(p)["correct"])
        self.assertGreater(result(p)["failed"], 0)
        self.assertIn("error: checkpoint:", p.stdout)

    def test_exact_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = (run(RUN + ["--workload", w, "--seed", "5",
                                   "--seconds", "1", "--trace", "1"])
                        for _ in range(2))
                self.assertEqual(a.returncode, 0, a.stdout[-2000:])
                self.assertEqual(b.returncode, 0, b.stdout[-2000:])
                ma, mb = result(a)["metrics"], result(b)["metrics"]
                for k in EXACT:
                    self.assertEqual(ma[k]["value"], mb[k]["value"], k)
                names = [m["name"] for m in self.spec["per_layer"]]
                self.assertEqual(sorted(ma), sorted(names))

    def test_end_to_end_metrics_present(self):
        names = sorted(m["name"] for m in self.spec["end_to_end"])
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(RUN + ["--workload", w, "--seed", "9",
                               "--seconds", "2", "--trace", "0"])
                self.assertEqual(p.returncode, 0, p.stdout[-2000:])
                r = result(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual(sorted(r["metrics"]), names)
                for k, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, k)

    def test_fails_without_sources(self):
        # A bare copy of the benchmark's own files, inside the build dir.
        with tempfile.TemporaryDirectory(dir=build_base()) as d:
            shutil.copytree(HERE, pathlib.Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", d)
            p = run([sys.executable, "perfbench/run.py", "--workload",
                     "pinned_scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=pathlib.Path(d))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
