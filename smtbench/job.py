"""One `smt` job in a fresh interpreter, as a user's command would run.

Usage: python3 job.py REQUEST.json SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start-up and every import up
to `sphmean.cli`.  The job itself is the `cli.main(argv)` call.  Results go
to the request's result file; stdout and stderr belong to the program.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    request_path, spawn = sys.argv[1], float(sys.argv[2])
    src = sys.argv[3]
    traced = sys.argv[4] == "1"
    sys.path.insert(0, src)
    imports = {}
    if traced:
        t = _now()
        import numpy  # noqa: F401
        imports["numpy"] = _now() - t
        t = _now()
        import mpmath  # noqa: F401
        imports["mpmath"] = _now() - t
    t = _now()
    import sphmean.cli as cli
    ready = _now()
    imports["sphmean"] = ready - t

    import json
    import os
    import traceback

    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sphmean imported from {cli.__file__}, not {src}")

    recorder = None
    if traced:
        import spans
        recorder = spans.Recorder()
        recorder.install()
        entry = recorder.wrap(cli.main, "cli.main")
    else:
        entry = cli.main

    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        rc = entry(request["argv"])
    except Exception:
        error = traceback.format_exc()
    main_s = time.perf_counter() - t0
    sys.stdout.flush()

    result = {"setup_s": ready - spawn, "main_s": main_s, "rc": rc,
              "error": error, "imports": imports}
    if recorder is not None:
        result["layers"] = recorder.summary(request["spans"])
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
