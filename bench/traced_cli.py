"""Run the ``gburgers`` CLI with the benchmark's tracer installed.

Used by the traced cli_export run in place of ``python -m gburgers.cli``; the
layer aggregates go to the file named by ``GBURGERS_BENCH_TRACE_OUT`` when
the command exits, whatever its exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> None:
    from gburgers import cli  # imported first, so its by-name imports get wrapped too

    tracer = Tracer()
    tracer.install()
    try:
        cli.cli.main(args=sys.argv[1:], prog_name="gburgers")
    finally:
        tracer.dump(os.environ["GBURGERS_BENCH_TRACE_OUT"])


if __name__ == "__main__":
    main()
