"""qi-cli with the perfbench tracer installed, for traced cli_mix requests.

Usage: python3 perfbench/cli_shim.py [qi-cli arguments]

Behaves as ``qi-cli``: same arguments, stdout, stderr and exit code.  Spans
go to the file named by PERFBENCH_SPANS: the interpreter start-up (from the
wall-clock time PERFBENCH_SPAWN_NS at which the parent started the process),
the ``import qilab.cli``, and every traced call.
"""
import os
import sys
import time

_START_NS = time.time_ns()
_START_MONO = time.perf_counter_ns()

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer()
    startup = _START_NS - int(os.environ["PERFBENCH_SPAWN_NS"])
    tracer.record("cli.interpreter", _START_MONO - startup, _START_MONO)
    t = time.perf_counter_ns()
    import qilab.cli
    tracer.record("cli.import", t, time.perf_counter_ns())
    install(tracer, cli_handlers=True)
    tracer.active = True
    try:
        return qilab.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
