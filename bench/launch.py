"""Run one betaforge CLI invocation in this process, through
`betaforge.cli.main`, the entry point of the `betaforge` console script.

    python3 bench/launch.py <subcommand> [args...]

`python -m betaforge.cli` is not used: it imports the module twice and warns
on stderr.  With BENCH_TRACE=1 the call runs under the tracer, and one line
starting with TRACE_MARK, holding the trace summary, start-up time (from
BENCH_SPAWN, the parent's wall clock at spawn) and the enclosure state before
and after the command, is appended to stderr.
"""

import json
import os
import sys
import time

TRACE_MARK = "BENCHTRACE "


def traced(argv) -> int:
    import betaforge
    import betaforge.cli

    startup_ms = (time.time() - float(os.environ["BENCH_SPAWN"])) * 1e3
    from tracer import Tracer, state_bits

    cold = state_bits(betaforge)
    tracer = Tracer()
    tracer.install()
    try:
        status = betaforge.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = {"summary": tracer.summary(), "startup_ms": startup_ms, "cold": cold, "warm": state_bits(betaforge)}
    print(TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return status


if __name__ == "__main__":
    if os.environ.get("BENCH_TRACE") == "1":
        sys.exit(traced(sys.argv[1:]))
    from betaforge.cli import main

    sys.exit(main(sys.argv[1:]))
