"""Traced stand-in for `python -m floquet_zeno`: wraps every layer, runs
the CLI, and writes the span totals as JSON to the path given first.

Usage: python3 bench/cli_child.py STATS.json SUBCOMMAND [ARGS...]
"""

import json
import sys

import tracer as tracing


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from floquet_zeno import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.run(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
