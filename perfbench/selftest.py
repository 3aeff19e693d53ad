"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size, traced and untraced, and checks that
each metric named in BENCHMARK.json is printed with its unit; and checks
that a job forced to fail is counted.  The file name keeps it out of the
package's own pytest collection.
"""
import argparse
import json
import shutil
import sys
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_toy(workload, size=None, trace=0, seconds=0.5):
    """One in-process run of a workload at toy size."""
    args = argparse.Namespace(seed=3, trace=trace, seconds=seconds)
    workdir = run.OUT / f"selftest-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run.run_workload(workload, args, size or workload.sizes["toy"],
                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class PrintedMetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(WORKLOADS))
        for workload in WORKLOADS.values():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload.name, trace=trace):
                    result, _summary = run_toy(workload, trace=trace)
                    json.dumps(result)  # printable as one JSON line
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(
                        printed, {m["name"]: m["unit"] for m in spec[key]})
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)


class ForcedFailureTest(unittest.TestCase):
    def test_unconverged_picard_jobs_count_as_failed(self):
        workload = WORKLOADS["desk_picard"]
        size = dict(workload.sizes["toy"], max_iter=1, tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result, summary = run_toy(workload, size, seconds=0.0)
        # one repetition: five Picard jobs and one comparison, none of
        # which can converge in one iteration at this tolerance
        self.assertEqual(result["attempted"], 6)
        self.assertEqual(result["failed"], 6)
        self.assertFalse(result["correct"])
        self.assertEqual(summary["failed_frac"], 1.0)


if __name__ == "__main__":
    unittest.main()
