"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py --base base/*.json --change change/*.json

Result files are the ones `run.py --out DIR` writes.  Untraced files
(`trace 0`) are compared per workload and end-to-end metric: each side's
median and quartiles, the change of the median in the metric's bad
direction as a share of the base median, and a verdict against the bound
in BENCHMARK.json:

* `worse`       the change is worse by more than the bound;
* `unresolved`  the base runs spread (quartile distance over median) wider
                than the bound, so the bound cannot separate the two;
* `better`      every change run beats every base run;
* `same`        otherwise.

Traced files (`trace 1`) are compared on the exact per-layer measures
(calls, bit sizes, degrees, iterations, ratios): any difference is listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

EXACT_SUFFIXES = (".calls", ".max_bits", ".max_degree", ".iterations", "_ratio")


def load(paths: list[Path]) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            out[(record["workload"], record["trace"])][name].append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    b1, bm, b3 = quartiles(base)
    cm = quartiles(change)[1]
    sign = 1 if better == "lower" else -1
    worse_by = sign * (cm - bm) / bm
    if worse_by > bound:
        return worse_by, "worse"
    if (b3 - b1) / bm > bound:
        return worse_by, "unresolved"
    if all(sign * (c - b) < 0 for c in change for b in base):
        return worse_by, "better"
    return worse_by, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument(
        "--benchmark", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(args.base), load(args.change)
    regressions = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name in sorted(set(base[key]) & set(change[key])):
            b, c = base[key][name], change[key][name]
            if trace == 0 and name in bounds:
                m = bounds[name]
                worse_by, word = verdict(b, c, m["better"], m["bound"])
                regressions += word == "worse"
                bq, cq = quartiles(b), quartiles(c)
                print(
                    f"  {name:<14} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}  "
                    f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}  "
                    f"worse by {worse_by:+.1%} (bound {m['bound']:.0%}): {word}"
                )
            elif trace == 1 and name.endswith(EXACT_SUFFIXES) and sorted(set(b)) != sorted(set(c)):
                print(f"  {name:<40} base {sorted(set(b))}  change {sorted(set(c))}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
