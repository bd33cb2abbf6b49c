"""Regenerate ``expected.json``, the reference digests the benchmark checks
outputs against.

    python3 perfbench/make_expected.py

Computes every request the hopf-stream workload can draw and every table the
tables-cold workload builds (full and self-test sizes), and stores the first
16 hex digits of the SHA-256 of each output's canonical JSON.  Run it only
when an output is meant to change; the program keeps exact values and
byte-identical JSON, so the digests hold across optimisations.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    scratch = BENCH_DIR.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        os.environ["NCHOPF_CACHE_DIR"] = cache
        import workloads

        stream = workloads.HopfStream()
        hopf = {}
        for request in stream.universe():
            output = stream.execute(request)
            hopf[stream.key(request)] = workloads.digest(workloads.output_json(output))
        superfunctions = workloads.nchopf("superfunctions")
        tables = {}
        for n, q in sorted(set(workloads.TablesCold.SIZES + workloads.TablesCold.TINY_SIZES)):
            table = superfunctions.supercharacter_table(n, q, use_disk_cache=False)
            inverse = [[v.to_json() for v in row] for row in table.inverse()]
            tables[f"{n},{q}"] = {"table": workloads.digest(table.to_json()),
                                  "inverse": workloads.digest(inverse)}
    expected = {"hopf-stream": dict(sorted(hopf.items())), "tables": tables}
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=0) + "\n")
    print(f"{len(hopf)} hopf-stream digests, {len(tables)} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
