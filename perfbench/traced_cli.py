"""Run one heckelab CLI command under the benchmark's tracer.

    python3 perfbench/traced_cli.py TRACE_OUT RUN_ID COMMAND [ARGS...]

Equivalent to ``python -m heckelab COMMAND [ARGS...]`` (same modules, same
entry point, same exit code), except that the layers' imports and public
calls are recorded as spans and written to TRACE_OUT as JSON when the
command ends.
"""

import sys

from tracer import Tracer, write_trace


def main() -> int:
    trace_out, run_id, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    tracer.trace_imports()
    try:
        import heckelab.shell as shell

        tracer.patch()
        return shell.main(argv)
    finally:
        write_trace(tracer, trace_out)


if __name__ == "__main__":
    sys.exit(main())
