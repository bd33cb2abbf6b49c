"""One benchmark process: set-up, then (unless only set-up is asked for) the
timed closed loop, then the output checks.  Started by ``run.py`` in a fresh
interpreter for every run, so no module cache carries work between runs.

Modes:
  setup    import and warm up, report the set-up time only;
  measure  set-up, then whole rounds (at least two) for about ``--seconds``;
  trace    like measure with the per-layer tracer installed after import;
  replay   like measure, untraced, for exactly ``--rounds`` rounds (the
           reference the tracing overhead is taken against).

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "replay"), required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    root, tmp = Path(args.root), Path(args.tmp)
    sys.path.insert(0, str(root / "src"))
    from calibrate import Calibrator

    calibrator = Calibrator()
    calibrator.start()
    start, spent = time.perf_counter(), calibrator.spent
    import nchopf  # noqa: F401
    import_s = time.perf_counter() - start - (calibrator.spent - spent)
    if not Path(nchopf.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"imported nchopf from {nchopf.__file__}, outside {root}")

    import tracer as tracing
    import workloads

    trace_dir = tmp / "cli-traces" if args.mode == "trace" and args.workload == "cli" else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, root, tmp, args.tiny, trace_dir)

    # In process the tracer wraps this interpreter; for the CLI each child
    # installs its own (cli_child.py) and this process only merges.
    tracer = None
    if args.mode == "trace":
        workload.prepare()
        if args.workload != "cli":
            tracer = tracing.Tracer()
            tracer.install()
    start, spent = time.perf_counter(), calibrator.spent
    workload.setup()
    warm_s = time.perf_counter() - start - (calibrator.spent - spent)
    setup_scale = calibrator.scale_since(0)
    result = {"setup_s": (import_s + warm_s) * setup_scale}
    if args.mode == "setup":
        calibrator.stop()
        print(json.dumps(result))
        return 0
    if args.mode != "trace":
        workload.prepare()

    # Times below are in reference seconds (see calibrate.py): a round is
    # scaled by the host speed sampled during it, a request by the speed
    # sampled around it, and the chunks that interrupted either are
    # subtracted.  Whole rounds run until about ``--seconds`` reference
    # seconds of work are done.
    def scaled_since(start, spent, first):
        raw = time.perf_counter() - start - (calibrator.spent - spent)
        return raw * calibrator.scale_since(first), raw

    spans, raw_latencies, outputs = [], [], []
    busy = raw_busy = 0.0
    rounds_done = 0
    rng = random.Random(args.seed)
    waits = workload.waits_on_children
    if waits:
        calibrator.stop()

    def more_rounds() -> bool:
        if args.rounds is not None:
            return rounds_done < args.rounds
        # At least two rounds, so every request kind is measured twice.
        return rounds_done < 2 or busy + busy / rounds_done <= args.seconds

    batches = workload.rounds(rng)
    while more_rounds():
        batch = next(batches)
        round_start, round_spent = time.perf_counter(), calibrator.spent
        round_first = len(calibrator.samples)
        workload.begin_round()
        for request in batch:
            if waits:
                calibrator.sample(spin=True)
            t, spent = time.perf_counter(), calibrator.spent
            try:
                output, error = workload.execute(request), None
            except Exception as exc:  # a failed request is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            spans.append((t, end))
            raw_latencies.append(end - t - (calibrator.spent - spent))
            outputs.append((request, output, error))
        scaled, raw = scaled_since(round_start, round_spent, round_first)
        busy += scaled
        raw_busy += raw
        rounds_done += 1
    calibrator.stop()
    latencies = [raw * calibrator.scale_around(*span) for raw, span in zip(raw_latencies, spans)]
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        snapshot = tracer.snapshot()
    elif trace_dir is not None:
        snapshot = None
        for path in sorted(trace_dir.glob("cli-*.json")):
            snapshot = tracing.merge(snapshot, json.loads(path.read_text()))
    else:
        snapshot = None

    failures = []
    for request, output, error in outputs:
        reason = error if error is not None else workload.check(request, output)
        if reason is not None:
            failures.append(f"{workload.name} {request!r:.160}: {reason}")
    result.update(
        warm_s=warm_s * setup_scale,
        latencies_s=latencies,
        raw_latencies_s=raw_latencies,
        busy_s=busy,
        raw_busy_s=raw_busy,
        rounds=rounds_done,
        attempted=len(outputs),
        completed=sum(1 for _, _, error in outputs if error is None),
        failed=len(failures),
        failures=failures[:5],
        peak_rss_mb=peak_rss_mb,
        info=workload.info(),
        trace=snapshot,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
