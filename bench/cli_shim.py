"""Run the cdbundle CLI with the benchmark's tracer installed.

    python bench/cli_shim.py SPANS_JSON [cdbundle arguments...]

Behaves like ``python -m cdbundle`` (same output, same exit code) and writes
the spans of the call to SPANS_JSON for the parent benchmark to merge.
"""

import sys

import env

env.use_source_tree()

from cdbundle import cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return cli.main(argv)
    finally:
        tracer.op = None
        sys.stdout.flush()
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
