"""Kernel probes for the traced run.

* ``cyclotomic.mul_us.p{2,3,5}``: microseconds per ``CycRational`` multiply
  on seeded operands with small rational coefficients (median of batches);
* ``cli.import_s``: a bare ``import nchopf`` in a fresh interpreter (median
  of five).

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

IMPORT_RUNS = 5
BATCHES = 7
MULS_PER_BATCH = 400


def import_seconds(src: Path) -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nchopf; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def mul_microseconds(p: int, rng: random.Random) -> float:
    from nchopf.cyclotomic import CycRational

    def operand():
        return CycRational(p, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(p - 1)])

    pairs = [(operand(), operand()) for _ in range(MULS_PER_BATCH)]
    batches = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        batches.append((time.perf_counter() - start) / MULS_PER_BATCH * 1e6)
    return statistics.median(batches)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    src = Path(args.root) / "src"
    result = {"cli.import_s": import_seconds(src)}
    sys.path.insert(0, str(src))
    rng = random.Random(args.seed)
    for p in (2, 3, 5):
        result[f"cyclotomic.mul_us.p{p}"] = mul_microseconds(p, rng)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
