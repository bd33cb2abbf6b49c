"""Quick self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the result line is well formed, that every output was checked and right, and
that every metric BENCHMARK.json names appears with its unit.  Also checks
that the tracer rebinds imported aliases, and that the benchmark fails
without printing a result when the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    command = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=300)


class WorkloadRuns(unittest.TestCase):
    def check_result(self, done, spec_key: str):
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for name, value in result["metrics"].items():
            self.assertIsInstance(value["value"], (int, float), name)
        return result

    def test_end_to_end(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check_result(run(workload, 0), "end_to_end")
                for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_per_layer(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check_result(run(workload, 1), "per_layer")
                self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0)


class Tracer(unittest.TestCase):
    def test_rebinds_every_alias_and_restores(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        import nchopf.cli
        import nchopf.superfunctions as superfunctions
        import tracer

        original = superfunctions.kappa_to_chi
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(superfunctions.kappa_to_chi, original)
            self.assertIs(nchopf.kappa_to_chi, superfunctions.kappa_to_chi)
            self.assertIs(nchopf.cli.CONVERSIONS[("kappa", "chi")], superfunctions.kappa_to_chi)
            self.assertIs(superfunctions.product, nchopf.elements.product)
            lam = nchopf.LabeledSetPartition.from_text("2; 1-1-2")
            x = nchopf.kappa_element(2, lam)
            y = nchopf.product(x, x)
            self.assertEqual(t.calls["elements.product"], 1)
            nchopf.antipode(y)
        finally:
            t.uninstall()
        self.assertIs(superfunctions.kappa_to_chi, original)
        metrics = tracer.metrics(t.snapshot())
        self.assertGreater(metrics["elements.antipode.recursions"], 0)
        self.assertGreater(metrics["cyclotomic.mul.calls"], 0)
        self.assertGreater(metrics["elements.basis_coproduct.self_pct"], 0)


class MissingProgram(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as empty:
            shutil.copy(ROOT / "BENCHMARK.json", empty)
            shutil.copytree(BENCH_DIR, Path(empty) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("hopf-stream", 0, cwd=Path(empty), tiny=False)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run is using it
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
