"""Run the `orefield` command line in a fresh process, measured from inside.

    python3 perfbench/child.py [--trace REQUEST] [--spans FILE] verify --scenario T1 ...

stdout and the exit code are exactly orefield's own.  One stderr line that
starts with `MARKER` carries JSON: without `--trace`, the time of the
command itself (`orefield.cli.main`, the function the `orefield` console
script calls; importing the package is set-up, timed by run.py), raw and
speed-normalised (speed.py); with `--trace`, the outside-in tracer's layer
summary (tracer.py), and with `--spans` the spans are written to FILE.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

MARKER = "perfbench-child "


def main(argv: list[str]) -> int:
    request = spans_path = None
    while argv and argv[0] in ("--trace", "--spans"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            request = int(value)
        else:
            spans_path = value
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from orefield import cli

    if request is None:
        from speed import Speedometer

        with Speedometer() as speed:
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
        report = {"raw_s": t1 - t0, "normalised_s": speed.normalise(t0, t1)}
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.set_request(request)
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        report = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path, f"{' '.join(argv)} request {request}")
    sys.stdout.flush()
    print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
