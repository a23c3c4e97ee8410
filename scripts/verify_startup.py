#!/usr/bin/env python3
"""Split the time of a fresh-process `orefield verify` into its parts.

    python3 scripts/verify_startup.py [--towers T1,T2,T3] [--runs 5] [--seed 7]

For each run and tower, a new interpreter imports `orefield.cli`, runs
`cli.main(["verify", ...])` once, once more in the same process, and a third
time after emptying the catalog's caches of fields, scenarios and towers.
The script prints, per tower, the median of each of the four times over the
runs and the modules that the first `main` imports.  The second `main`
reuses what the first left in the process (imported modules, the catalog's
built and validated tower with its lifted roots and Galois data, the
interpreter's warm-up), so first minus second is what a fresh process pays
once.  The third (`rebuilt`) builds the fields and the tower again and
derives their data anew, with the modules imported and the interpreter
warm: rebuilt minus second is the tower's construction and validation, and
first minus rebuilt the first-use imports and the warm-up.

Then it prints, for each `orefield` module that a verify has loaded, its
line count and the `compile()` time of its source: what every fresh import
pays when no bytecode cache is written or read (as under
PYTHONDONTWRITEBYTECODE).  Each of 7 rounds compiles every module once; the
first round, which warms the interpreter up, is dropped, and the column is
each module's median over the other 6.  The children run in this process's
environment, with this checkout's `orefield` first on their path.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import orefield

# the child: one JSON line with the four times and the modules loaded
CHILD = """
import contextlib, io, json, sys, time
argv = ["verify", "--scenario", sys.argv[1], "--seed", sys.argv[2], "--format", "json"]
t0 = time.perf_counter()
import orefield.cli
t1 = time.perf_counter()
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as first:
    code = orefield.cli.main(argv)
t2 = time.perf_counter()
loaded = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()) as second:
    again = orefield.cli.main(argv)
t3 = time.perf_counter()
from orefield import catalog
for built in (catalog._FIELDS, catalog._SCENARIOS, catalog._TOWERS):
    built.clear()
t4 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as third:
    rebuilt = orefield.cli.main(argv)
t5 = time.perf_counter()
print(json.dumps({
    "import_ms": 1e3 * (t1 - t0), "first_ms": 1e3 * (t2 - t1), "second_ms": 1e3 * (t3 - t2),
    "rebuilt_ms": 1e3 * (t5 - t4), "exit": [code, again, rebuilt],
    "same_report": first.getvalue() == second.getvalue() == third.getvalue(),
    "loaded": loaded, "orefield": sorted(m for m in sys.modules if m.split(".")[0] == "orefield"),
}))
"""

TIMES = ("import_ms", "first_ms", "second_ms", "rebuilt_ms")


def child_env() -> dict:
    paths = [str(Path(orefield.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_child(tower: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, tower, str(seed)],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


COMPILE_ROUNDS = 7  # the first is a warm-up and is dropped


def compile_ms(paths: list[Path]) -> list[float]:
    """The median compile() time of each source, in ms, over the rounds after
    the first; each round compiles every source once."""
    sources = [(path.read_text(encoding="utf-8"), str(path)) for path in paths]
    times: list[list[float]] = [[] for _ in paths]
    for _ in range(COMPILE_ROUNDS):
        for source, spent in zip(sources, times):
            t0 = time.perf_counter()
            compile(*source, "exec")
            spent.append(time.perf_counter() - t0)
    return [1e3 * statistics.median(spent[1:]) for spent in times]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--towers", default="T1,T2,T3")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    towers = args.towers.split(",")

    results = {tower: [] for tower in towers}
    for _ in range(args.runs):
        for tower in towers:
            results[tower].append(run_child(tower, args.seed))

    worst = 0
    modules = set()
    print(f"{'tower':<6} {'import ms':>10} {'first ms':>10} {'second ms':>10} {'rebuilt ms':>11}  modules the first main loads")
    for tower, runs in results.items():
        medians = [statistics.median(r[key] for r in runs) for key in TIMES]
        loaded = sorted(set().union(*(r["loaded"] for r in runs)))
        print(f"{tower:<6} {medians[0]:>10.2f} {medians[1]:>10.2f} {medians[2]:>10.2f} {medians[3]:>11.2f}  {', '.join(loaded)}")
        for r in runs:
            worst = max(worst, *r["exit"])
            if not r["same_report"]:
                print(f"  {tower}: a later verify printed a different report")
                worst = max(worst, 1)
            modules.update(r["orefield"])

    package = Path(orefield.__file__).resolve().parent
    print(f"\n{'module':<22} {'lines':>6} {'compile ms':>11}")
    total_lines = total_ms = 0
    names = sorted(modules)
    paths = [package / (name.split(".", 1)[1] + ".py" if "." in name else "__init__.py") for name in names]
    for name, path, ms in zip(names, paths, compile_ms(paths)):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        total_lines, total_ms = total_lines + lines, total_ms + ms
        print(f"{name:<22} {lines:>6} {ms:>11.2f}")
    print(f"{'total':<22} {total_lines:>6} {total_ms:>11.2f}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
