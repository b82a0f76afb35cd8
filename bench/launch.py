"""Child-process launcher: time the start-up, then optionally run the CLI traced.

    python3 bench/launch.py import
        start the interpreter and import littlegroup; print the start-up
        split as JSON on stdout.
    python3 bench/launch.py cli ARGV...
        the same, then install the span wrappers and run
        littlegroup.cli.main(ARGV) exactly as `python -m littlegroup`
        would; spans and start-up go to the file named by
        BENCH_SPANS_OUT, stdout and the exit code stay the CLI's own.

BENCH_SPAWN_NS is the parent's time.monotonic_ns() just before it
started this process; the interval to the first line here is the
interpreter start.  littlegroup must be importable (PYTHONPATH=src).
"""

import os
import sys
import time

_started = time.monotonic_ns()

import json  # noqa: E402


def _startup() -> dict:
    spawn = int(os.environ.get("BENCH_SPAWN_NS", _started))
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401
    t1 = time.perf_counter_ns()
    import littlegroup  # noqa: F401
    t2 = time.perf_counter_ns()
    return {"interpreter_s": (_started - spawn) / 1e9,
            "numpy_import_s": (t1 - t0) / 1e9,
            "littlegroup_import_s": (t2 - t1) / 1e9}


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    startup = _startup()
    if mode == "import":
        print(json.dumps(startup))
        return 0
    import littlegroup.cli
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return littlegroup.cli.main(argv)
    finally:
        with open(os.environ["BENCH_SPANS_OUT"], "w", encoding="utf-8") as f:
            json.dump({"startup": startup, **tracer.export()}, f)


if __name__ == "__main__":
    sys.exit(main())
