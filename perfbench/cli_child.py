"""Run one ``nchopf`` CLI command under the per-layer tracer.

Usage: python3 cli_child.py STATS_JSON <nchopf arguments...>

Behaves like ``python3 -m nchopf.cli`` (same stdin, stdout and exit code) and
writes the tracer's aggregates to STATS_JSON when the command ends.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import nchopf.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return nchopf.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
