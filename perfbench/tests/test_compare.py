"""Tests of the compare tool and of the benchmark's failure paths.

    python3 -m unittest discover -s perfbench/tests -v

The run tests need the built benchmark binary: $PERFBENCH_BINARY, else
.bench_build/perfbench/perfbench under the checkout; they are skipped when
neither exists.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = [m["name"] for m in json.load(f)["end_to_end"]]


def record(workload, seed, wall, exact=None, trace=0):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": True, "attempted": 1, "failed": 0,
        "wall": {k: {"value": v, "unit": "x"} for k, v in wall.items()},
        "exact": {k: {"value": v, "unit": "x"}
                  for k, v in (exact or {}).items()},
    }


def write_set(directory, records):
    os.makedirs(directory, exist_ok=True)
    for i, r in enumerate(records):
        with open(os.path.join(directory, "r%d.json" % i), "w") as f:
            json.dump(r, f)


def run_compare(*dirs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare.main(["compare.py"] + list(dirs))
    return code, out.getvalue()


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def make(self, name, throughputs, gap=0.36):
        """A set whose throughput varies as given; every other end-to-end
        metric holds steady."""
        records = []
        for i, t in enumerate(throughputs):
            wall = {m: 10.0 for m in END_TO_END}
            wall["throughput_per_s"] = t
            records.append(record("w", i, wall, {"modelled_gap_pct": gap}))
        path = os.path.join(self.tmp, name)
        write_set(path, records)
        return path

    def test_quartiles_match_statistics_quantiles(self):
        median, q1, q3, spread = compare.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(median, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(spread, 1.0)

    def test_equal_sets_pass(self):
        base = self.make("base", [100, 101, 99, 100, 102])
        new = self.make("new", [101, 100, 100, 99, 101])
        code, out = run_compare(base, new)
        self.assertEqual(code, 0, out)
        self.assertIn("exact fields: equal", out)

    def test_regression_beyond_bound_is_flagged(self):
        base = self.make("base", [100, 101, 99, 100, 102])
        new = self.make("new", [60, 61, 59, 60, 62])
        code, out = run_compare(base, new)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_improvement_is_not_flagged(self):
        base = self.make("base", [100, 101, 99, 100, 102])
        new = self.make("new", [150, 151, 149, 150, 152])
        self.assertEqual(run_compare(base, new)[0], 0)

    def test_noisy_base_is_unresolved(self):
        base = self.make("base", [50, 150, 60, 140, 100])
        new = self.make("new", [70, 71, 69, 70, 72])
        code, out = run_compare(base, new)
        self.assertEqual(code, 1)
        self.assertIn("UNRESOLVED", out)

    def test_exact_mismatch_is_flagged(self):
        base = self.make("base", [100, 101, 99, 100, 102])
        new = self.make("new", [100, 101, 99, 100, 102], gap=0.37)
        code, out = run_compare(base, new)
        self.assertEqual(code, 1)
        self.assertIn("EXACT MISMATCH", out)

    def test_single_set_reports_spread(self):
        steady = self.make("steady", [100, 101, 99, 100, 102])
        self.assertEqual(run_compare(steady)[0], 0)
        noisy = self.make("noisy", [50, 150, 60, 140, 100])
        code, out = run_compare(noisy)
        self.assertEqual(code, 1)
        self.assertIn("UNSTEADY", out)

    def test_traced_records_do_not_count_as_timed_runs(self):
        base = self.make("base", [100, 101, 99, 100, 102])
        write_set(os.path.join(self.tmp, "base2"),
                  [record("w", 9, {"throughput_per_s": 1.0}, trace=1)])
        shutil.copy(os.path.join(self.tmp, "base2", "r0.json"),
                    os.path.join(base, "traced.json"))
        new = self.make("new", [100, 101, 99, 100, 102])
        self.assertEqual(run_compare(base, new)[0], 0)


def binary():
    path = os.environ.get("PERFBENCH_BINARY") or os.path.join(
        ROOT, ".bench_build", "perfbench", "perfbench")
    return path if os.path.isfile(path) else None


@unittest.skipIf(binary() is None, "benchmark binary not built")
class CorruptedReferenceTest(unittest.TestCase):
    """A perturbed reference value must fail the run: exit 1, failed > 0."""

    def check(self, workload):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "record.json")
            env = dict(os.environ, HIPACC_JIT_DISABLE="1")
            done = subprocess.run(
                [binary(), "--workload=" + workload, "--seed=5", "--seconds=1",
                 "--trace=0", "--record-out=" + out, "--repo-root=" + ROOT,
                 "--out-dir=" + tmp, "--corrupt-reference"],
                stdout=subprocess.PIPE, env=env, text=True, timeout=170)
            self.assertEqual(done.returncode, 1, done.stdout)
            with open(out) as f:
                doc = json.load(f)
            self.assertFalse(doc["correct"])
            self.assertGreaterEqual(doc["failed"], 1)
            self.assertGreater(doc["error_rate"], 0)

    def test_isp_stream(self):
        self.check("isp_stream")

    def test_kernel_tune(self):
        self.check("kernel_tune")


@unittest.skipIf(binary() is None, "benchmark binary not built")
class TracedStreamTest(unittest.TestCase):
    """A traced isp_stream run is correct: among its checks, every traced
    frame must own exactly its own stage spans in the ledger."""

    def test_frames_own_their_stages(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "record.json")
            env = dict(os.environ, HIPACC_JIT_DISABLE="1")
            done = subprocess.run(
                [binary(), "--workload=isp_stream", "--seed=5", "--seconds=1",
                 "--trace=1", "--record-out=" + out, "--repo-root=" + ROOT,
                 "--out-dir=" + tmp],
                stdout=subprocess.PIPE, env=env, text=True, timeout=170)
            self.assertEqual(done.returncode, 0, done.stdout)
            with open(out) as f:
                doc = json.load(f)
            self.assertTrue(doc["correct"], doc["failures"])
            self.assertGreater(doc["wall"]["runtime.exec_share"]["value"], 0)


class MissingSourcesTest(unittest.TestCase):
    """With only BENCHMARK.json and perfbench/ present, run.py fails
    without printing a result."""

    def test_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "isp_stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
