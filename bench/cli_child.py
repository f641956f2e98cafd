"""A traced cold CLI process: ``python -X importtime bench/cli_child.py <cli args>``.

Imports ``quadgames.cli`` first (so ``-X importtime`` sees the same
import as ``python -m quadgames.cli``), wraps the library in spans, runs
``cli.main`` once and writes the span aggregate to stderr on a line
that starts with ``MARKER``.  Stdout and the exit code are the CLI's.
"""

import sys

import quadgames.cli as cli

import json  # noqa: E402  (after the import being profiled)

import spans  # noqa: E402

MARKER = "@@bench-spans "


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    scope = tracer.start()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.stop()
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(scope) + "\n")


if __name__ == "__main__":
    sys.exit(main())
