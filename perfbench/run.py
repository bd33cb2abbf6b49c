"""The nchopf benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: hopf-stream, tables-cold, oracle, cli (see workloads.py and
BENCHMARK.json for why each was chosen).  Every run starts fresh interpreters
(worker.py) with a fresh, empty table cache directory inside the checkout,
so no in-memory or on-disk cache carries work from one run to the next.

--trace 0 prints the end-to-end metrics: set-up time (median of three fresh
set-ups), throughput, median and tail latency and peak memory.  --trace 1
runs the same seed once with the per-layer tracer and once without, and
prints the per-layer metrics (calls, counts, and self and busy time as a
share of ``trace.base_wall_s``, the time the tracer was installed), the
tracing overhead, a scalar-multiply probe and the bare import time.  Either way every output is checked, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The error rate is ``failed / attempted``; it is printed on the line before,
with the tail's percentile and sample count.  Times are in reference seconds:
scaled by the host speed sampled during the same interval (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("hopf-stream", "tables-cold", "oracle", "cli")
SETUP_RUNS = 3
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PROBES = (
    ("cyclotomic.mul_us.p2", "us"),
    ("cyclotomic.mul_us.p3", "us"),
    ("cyclotomic.mul_us.p5", "us"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.base_wall_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    return tracer.metric_names() + list(PROBES)


class BenchError(Exception):
    pass


def run_python(args: list[str], deadline: float, env: dict | None = None) -> dict:
    """Run a Python helper and parse the JSON object on its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + args[0])
    try:
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {remaining:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{args[0]} exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value in seconds, percentile, sample count).  With ten samples
    or fewer no percentile has ten beyond it, and the maximum is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def worker(opts, mode: str, tmp: Path, index: int, deadline: float, rounds=None) -> dict:
    workdir = tmp / f"{mode}-{index}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["NCHOPF_CACHE_DIR"] = str(workdir / "cache")
    args = [str(BENCH_DIR / "worker.py"), "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--mode", mode, "--root", str(ROOT),
            "--tmp", str(workdir)]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    if opts.tiny:
        args.append("--tiny")
    return run_python(args, deadline, env)


def end_to_end(opts, tmp: Path, deadline: float) -> tuple[dict, dict]:
    setups = [worker(opts, "setup", tmp, i, deadline)["setup_s"] for i in range(SETUP_RUNS - 1)]
    run = worker(opts, "measure", tmp, SETUP_RUNS - 1, deadline)
    setups.append(run["setup_s"])
    latencies = run["latencies_s"]
    tail, percentile, count = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["completed"] / run["busy_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run["note"] = (f"tail=p{percentile:.1f} of {count} samples; unscaled: "
                   f"{run['completed'] / run['raw_busy_s']:.4g} ops/s, "
                   f"p50 {statistics.median(run['raw_latencies_s']) * 1e3:.4g} ms, "
                   f"host scale {run['busy_s'] / run['raw_busy_s']:.3f}")
    return run, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(opts, tmp: Path, deadline: float) -> tuple[dict, dict]:
    traced = worker(opts, "trace", tmp, 0, deadline)
    untraced = worker(opts, "replay", tmp, 1, deadline, rounds=traced["rounds"])
    probe_args = [str(BENCH_DIR / "probes.py"), "--root", str(ROOT), "--seed", str(opts.seed)]
    probes = run_python(probe_args, deadline)

    def wall(run):
        return run["warm_s"] + run["busy_s"]

    values = tracer.metrics(traced["trace"])
    values.update(probes)
    values["trace.overhead_ratio"] = wall(traced) / wall(untraced)
    values["trace.traced_wall_s"] = wall(traced)
    values["trace.untraced_wall_s"] = wall(untraced)
    values["trace.base_wall_s"] = traced["trace"]["wall_s"]["traced"]
    traced["note"] = f"traced {wall(traced):.3f} s vs untraced {wall(untraced):.3f} s"
    return traced, {name: {"value": values[name], "unit": unit}
                    for name, unit in per_layer_names()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's self-test")
    opts = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nchopf" / "__init__.py").is_file():
        print(f"run.py: no nchopf sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if opts.trace:
            run, metrics = per_layer(opts, tmp, deadline)
        else:
            run, metrics = end_to_end(opts, tmp, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    attempted, failed = run["attempted"], run["failed"]
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    info = " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in run["info"].items())
    print(f"{opts.workload} seed={opts.seed}: {run['rounds']} rounds, {attempted} requests, "
          f"error_rate={failed / attempted if attempted else 1.0:.4g} ({failed}/{attempted}), "
          f"{run['note']} {info}")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
