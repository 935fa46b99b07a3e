"""Run one wkpdom CLI call in this fresh interpreter and report on it.

Usage: python3 task.py import|run|trace [CLI ARGS...]

The process first times the calibration loop of ``calib.py``; the next
thing timed is ``import wkpdom.cli``, before this script imports anything
else, so the import pays for every module wkpdom needs.  ``import`` stops
there.  ``run`` calls ``wkpdom.cli.main(argv)`` in-process with
stdout and stderr captured; ``trace`` does the same with spans installed
(see ``spans.py``).  Standard output gets one JSON header line (import time,
exit code, time inside ``cli.main``, peak RSS, traceback, span summary,
calibration loop times, before the import and after the verb) followed by
the verb's captured standard output.
"""

import sys
import time

import calib

CALIBRATION_S = [calib.calibrate()]
_start = time.perf_counter_ns()
import wkpdom.cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    header: dict = {"import_s": IMPORT_NS / 1e9, "calibration_s": CALIBRATION_S}
    out = io.StringIO()
    if mode in ("run", "trace"):
        tracer = spans.Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        err = io.StringIO()
        rc, tb = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                rc = wkpdom.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                tb = traceback.format_exc()
            end = time.perf_counter_ns()
        # ru_maxrss is in KiB on Linux.
        header["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        header.update(rc=rc, wall_s=(end - start) / 1e9, traceback=tb,
                      stderr=err.getvalue()[-2000:])
        if tracer is not None:
            tracer.uninstall()
            tracer.add_root("cli.main", "cli", start, end)
            header["trace"] = tracer.summary()
        CALIBRATION_S.append(calib.calibrate())
    elif mode != "import":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(header) + "\n")
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
