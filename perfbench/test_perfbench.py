"""Self-tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

worker.load_package()

SMALL = {
    "tree-serve": lambda seed: gen.tree_serve_text(seed, n=300),
    "path-serve": lambda seed: gen.path_serve_text(seed, m=300),
    "frac-serve": lambda seed: gen.frac_serve_text(seed, m=300, requests=100),
}

# a path 0-1-2-3 whose only links are its three edges: the request 0-3
# needs all of them
THREE_LINKS = """n 4 root 0
edge 0 1
edge 1 2
edge 2 3
link 0 1 1
link 1 2 1
link 2 3 1
request 0 3
"""


def digest(result: dict) -> str:
    return checks.output_digest(result["records"], result["final_cost"])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_text(self):
        for workload in gen.WORKLOADS:
            a = gen.workload_text(workload, 7).encode()
            self.assertEqual(a, gen.workload_text(workload, 7).encode(), workload)

    def test_seed_changes_the_instances(self):
        for workload in ("tree-serve", "path-serve", "frac-serve"):
            self.assertNotEqual(gen.workload_text(workload, 7),
                                gen.workload_text(workload, 8), workload)


class CheckTest(unittest.TestCase):
    def test_removing_a_bought_link_fails_coverage(self):
        result = worker.run_workload("tree-serve", THREE_LINKS)
        self.assertEqual(result["bought"], [0, 1, 2])
        self.assertEqual(checks.check_rep("tree-serve", THREE_LINKS, result)[0], 0)
        for lid in result["bought"]:
            cut = dict(result, bought=[b for b in result["bought"] if b != lid])
            self.assertEqual(checks.check_rep("tree-serve", THREE_LINKS, cut)[0], 1)

    def test_altering_a_record_fails_the_digest(self):
        workload, seed = "lowerbound", run.DEFAULT_SEED
        text = gen.workload_text(workload, seed)
        result = worker.run_workload(workload, text)
        self.assertEqual(digest(result), checks.committed_digest(workload, text))
        good = run.evaluate(workload, text, [run.Rep(False, result)])
        self.assertEqual(good["failed"], 0)
        records = list(result["records"])
        records[3] += " 0"
        altered = dict(result, records=records)
        bad = run.evaluate(workload, text, [run.Rep(False, altered)])
        self.assertEqual(bad["failed"], 1)
        self.assertIn("digest matches committed", " ".join(bad["notes"]))


class MetricsTest(unittest.TestCase):
    # three repetitions of the same work: a set-up step, two requests with
    # the gaps before them, a verifier step
    REPS = [
        {"steps": [("setup", 2.0), ("serve", 9.0), ("verify", 1.0)],
         "latencies_s": [0.3, 0.1], "gaps_s": [0.0, 0.1], "peak_rss_mb": 10.0},
        {"steps": [("setup", 1.0), ("serve", 9.0), ("verify", 3.0)],
         "latencies_s": [0.1, 0.3], "gaps_s": [0.1, 0.0], "peak_rss_mb": 12.0},
        {"steps": [("setup", 1.5), ("serve", 9.0), ("verify", 2.0)],
         "latencies_s": [0.2, 0.2], "gaps_s": [0.0, 0.0], "peak_rss_mb": 11.0},
    ]

    def metrics(self, piece_s):
        metrics, samples, scale = run.end_to_end(self.REPS, [piece_s] * 10)
        self.assertEqual(samples, 2)
        return metrics, scale

    def test_each_piece_counts_at_its_median(self):
        m, scale = self.metrics(speed.REFERENCE_S)
        self.assertEqual(scale, 1.0)
        self.assertAlmostEqual(m["setup_s"], 1.5)
        self.assertAlmostEqual(m["serve_rps"], 2 / 0.4)
        self.assertAlmostEqual(m["serve_p50_us"], 0.2e6)
        self.assertAlmostEqual(m["total_s"], 1.5 + 0.4 + 2.0)
        self.assertEqual(m["peak_rss_mb"], 11.0)

    def test_times_scale_with_the_machine_speed(self):
        m, scale = self.metrics(2 * speed.REFERENCE_S)
        self.assertEqual(scale, 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.75)
        self.assertAlmostEqual(m["serve_rps"], 2 / 0.2)
        self.assertAlmostEqual(m["total_s"], 1.95)
        self.assertEqual(m["peak_rss_mb"], 11.0)


class TracerTest(unittest.TestCase):
    def test_restore_puts_back_every_wrapped_attribute(self):
        tr = tracing.Tracer()
        targets = tr.targets()
        before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        tr.install()
        for owner, attr, original in before:
            self.assertIsNot(owner.__dict__[attr], original, f"{owner}.{attr}")
        tr.restore()
        for owner, attr, original in before:
            self.assertIs(owner.__dict__[attr], original, f"{owner}.{attr}")

    def test_traced_run_gives_the_untraced_outputs(self):
        for workload, make in SMALL.items():
            text = make(3)
            plain = worker.run_workload(workload, text)
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = worker.run_workload(workload, text, tr)
            finally:
                tr.restore()
            self.assertEqual(digest(plain), digest(traced), workload)
            layers = tr.metrics(traced["total_s"])
            self.assertGreater(layers["instance.parse_s"], 0, workload)
            self.assertGreater(layers["pruning.links_kept"], 0, workload)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(gen.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        layer_names = set(tracing.Tracer().metrics(1.0)) | {"trace_overhead_s"}
        self.assertEqual({m["name"] for m in bench["per_layer"]}, layer_names)
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])
        with open(run.LAYER_MAP, encoding="utf-8") as fh:
            self.assertLessEqual(set(json.load(fh)), layer_names)

    def test_fails_without_the_package_source(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in HERE.iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lowerbound",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
