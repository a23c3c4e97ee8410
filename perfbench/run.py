"""orefield benchmark: one workload, one run.

    python3 perfbench/run.py --workload frac-arith --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from anywhere; the package is imported from the `src/` next to this
directory.  Workloads (see perfbench/README.md for why each exists):

* `verify-towers`  fresh-process `orefield verify` of towers T1, T2, T3;
* `frac-arith`     `SkewFraction` make/+/*/==/inv over H_Q, Q(i) and Q;
* `series-arith`   `TwistedSeries` products, inverses, embeddings and a
                   Newton lift over the same three fields;
* `all`            the three above in turn, each in its own process.

With `--trace 0` the run measures the end-to-end metrics for `--seconds`
seconds; times are speed-normalised (speed.py) and the raw medians are
printed beside them.  With `--trace 1` it makes one fixed pass over the
workload twice, untraced and then under the outside-in tracer (tracer.py),
and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  `--out DIR`
also writes the full result (timing percentiles, raw times, environment)
and, when tracing, the spans.  The exit code is 0 when every correctness
check passed, 1 when one failed, 2 when there are no orefield sources, and
3 when the run used RUN_LIMIT_S of CPU time (a hang in orefield), without
a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from speed import Speedometer
from tracer import Tracer, layer_metrics, merge
from workloads import (
    DEFAULT_SEED,
    MIXES,
    PINNED,
    SRC,
    TOWERS,
    VERIFY,
    run_verify,
    verify_failures,
    verify_schedule,
    verify_setup,
)

WORKLOADS = (VERIFY, *MIXES)
SETUP_REPEATS = 3  # one in this process, the others in fresh processes
RUN_LIMIT_S = 170  # a run must end within 180 s, even when orefield hangs
TOWER_LABEL = {tower: label for label, tower in TOWERS.items()}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


# -- measurements ---------------------------------------------------------------


def timing(samples: list[float], scale: float = 1.0) -> dict:
    """Median, the highest listed percentile with >= 10 samples beyond it,
    and the sample count."""
    ordered = sorted(x * scale for x in samples)
    n = len(ordered)
    median = statistics.median(ordered) if ordered else 0.0  # 0: every operation failed
    out = {"median": median, "n": n, "tail_pct": None, "tail": None}
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            out["tail_pct"], out["tail"] = pct, ordered[rank - 1]
            break
    return out


def setup_once(workload: str, seed: int):
    """(raw and normalised seconds, state) of import, fields, catalog and
    operand sampling."""
    with Speedometer() as speed:
        t0 = time.perf_counter()
        state = verify_setup() if workload == VERIFY else MIXES[workload](seed)
        t1 = time.perf_counter()
    return {"raw_s": t1 - t0, "normalised_s": speed.normalise(t0, t1)}, state


def setup_in_child(workload: str, seed: int, deadline: float) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=remaining(deadline), check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int, deadline: float):
    """SETUP_REPEATS set-ups: (their times, the state of the in-process one)."""
    first, state = setup_once(workload, seed)
    children = [setup_in_child(workload, seed, deadline) for _ in range(SETUP_REPEATS - 1)]
    return [first] + children, state


class RunTimeout(BaseException):
    """This process spent RUN_LIMIT_S of CPU time; not an `Exception`, so
    that no per-operation handler swallows it."""


def _raise_run_timeout(signum, frame):
    raise RunTimeout(f"the run used {RUN_LIMIT_S} s of CPU time")


def remaining(deadline: float) -> float:
    """Seconds a child process may still take."""
    return max(deadline - time.monotonic(), 0.001)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


class Tally:
    """Attempted and failed operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, ops: int = 1):
        """fn() counted as `ops` operations; None (and a traceback) if it raised."""
        self.attempted += ops
        try:
            return fn()
        except Exception:  # noqa: BLE001 -- a failed operation is counted, not fatal
            traceback.print_exc()
            self.failed += ops
            return None


def end_to_end(label_times: dict, setups: list[dict], rss_mb: float) -> tuple[dict, dict]:
    """(metrics, timings) from per-label (raw_s, normalised_s) samples."""
    timings = {}
    for label, samples in label_times.items():
        timings[f"{label}_ms"] = timing([n for _, n in samples], 1e3)
        timings[f"{label}_ms_raw"] = timing([r for r, _ in samples], 1e3)
    timings["setup_s"] = timing([s["normalised_s"] for s in setups])
    timings["setup_s_raw"] = timing([s["raw_s"] for s in setups])
    metrics = {f"{label}_ms": (timings[f"{label}_ms"]["median"], "ms") for label in label_times}
    metrics["setup_s"] = (timings["setup_s"]["median"], "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, timings


# -- in-process mixes -------------------------------------------------------------


def one_pass(mix, tally: Tally, tracer: Tracer | None = None):
    """Every lift and every pool entry once; returns (outputs, roots, seconds)."""
    t0 = time.perf_counter()
    request = 0
    roots = {}
    for label, lift in mix.lifts().items():
        if tracer:
            tracer.set_request(request)
        request += 1
        roots[label] = tally.attempt(lift)
    outputs = {}
    for label, pool in mix.pools.items():
        outputs[label] = []
        for item in pool:
            if tracer:
                tracer.set_request(request)
            request += 1
            outputs[label].append(tally.attempt(lambda: mix.run_round(item), mix.ops_per_round))
    return outputs, roots, time.perf_counter() - t0


def timed_loop(mix, seconds: float, tally: Tally):
    """The lifts, then rounds for `seconds`, each on the next pool
    entry of the field that has had the least time so far; so every field
    gets about a third of the run, and cheap fields make more rounds.

    Returns ((start, end) of each round per field, first output per pool
    entry, lift roots, (start, end) of each lift)."""
    measure_until = time.perf_counter() + seconds
    roots, lift_spans = {}, {}
    for label, lift in mix.lifts().items():
        t0 = time.perf_counter()
        roots[label] = tally.attempt(lift)
        lift_spans[label] = (t0, time.perf_counter())
    spans = {label: [] for label in mix.pools}
    busy = {label: 0.0 for label in mix.pools}
    rounds = {label: 0 for label in mix.pools}
    outputs = {label: [None] * len(pool) for label, pool in mix.pools.items()}
    while min(rounds.values()) == 0 or time.perf_counter() < measure_until:
        label = min(busy, key=busy.get)
        pool = mix.pools[label]
        idx = rounds[label] % len(pool)
        rounds[label] += 1
        t0 = time.perf_counter()
        out = tally.attempt(lambda: mix.run_round(pool[idx]), mix.ops_per_round)
        t1 = time.perf_counter()
        busy[label] += t1 - t0
        if out is None:
            continue
        spans[label].append((t0, t1))
        if outputs[label][idx] is None:
            outputs[label][idx] = out
    return spans, outputs, roots, lift_spans


def fill_outputs(mix, outputs: dict, tally: Tally) -> None:
    """Pool entries the timed loop did not reach still get an (untimed)
    result."""
    for label, pool in mix.pools.items():
        for idx, item in enumerate(pool):
            if outputs[label][idx] is None:
                outputs[label][idx] = tally.attempt(lambda: mix.run_round(item), mix.ops_per_round)


def results_digest(outputs: dict, roots: dict) -> str:
    """sha256 of the printed results, one per line, in pool order."""
    texts = [f"{label} {root}" for label, root in roots.items()]
    for label, outs in outputs.items():
        texts += [f"{label} {x}" for out in outs for x in (out or ("<failed>",))]
    return hashlib.sha256("".join(t + "\n" for t in texts).encode()).hexdigest()


def check_outputs(mix, outputs: dict, roots: dict) -> int:
    failed = 0
    for label, pool in mix.pools.items():
        for idx, (item, out) in enumerate(zip(pool, outputs[label])):
            if out is not None:
                failed += mix.check(idx, item, out)
    for label, root in roots.items():
        if root is not None:
            failed += mix.check_lift(label, root)
    return failed


def pinned_failures(key: str, seed: int, value: str) -> int:
    return int(seed == DEFAULT_SEED and PINNED[key] != value)


def measure_mix(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups, mix = measure_setup(workload, seed, deadline)
    tally = Tally()
    with Speedometer() as speed:
        spans, outputs, roots, lift_spans = timed_loop(mix, seconds, tally)
    samples = {
        label: [(t1 - t0, speed.normalise(t0, t1)) for t0, t1 in ivs] for label, ivs in spans.items()
    }
    lifts = {
        label: {"raw_s": t1 - t0, "normalised_s": speed.normalise(t0, t1)}
        for label, (t0, t1) in lift_spans.items()
    }
    fill_outputs(mix, outputs, tally)
    tally.failed += check_outputs(mix, outputs, roots)
    result_digest = results_digest(outputs, roots)
    tally.failed += pinned_failures(workload, seed, result_digest)
    metrics, timings = end_to_end(samples, setups, peak_rss_mb(resource.RUSAGE_SELF))
    detail = {"timings": timings, "newton_lift": lifts, "digest": result_digest}
    return {"tally": tally, "metrics": metrics, "detail": detail}


def trace_mix(workload: str, seed: int, out_dir: Path | None) -> dict:
    _, mix = setup_once(workload, seed)
    tally = Tally()
    plain_out, plain_roots, plain_s = one_pass(mix, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out, traced_roots, traced_s = one_pass(mix, tally, tracer)
    finally:
        tracer.uninstall()
    tally.failed += check_outputs(mix, plain_out, plain_roots)
    plain_digest = results_digest(plain_out, plain_roots)
    tally.failed += int(results_digest(traced_out, traced_roots) != plain_digest)
    tally.failed += pinned_failures(workload, seed, plain_digest)
    if out_dir:
        tracer.write_spans(str(out_dir / f"{workload}-seed{seed}-spans.json"), f"{workload} {seed}")
    summary = tracer.summary()
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "summary": summary, "digest": plain_digest}
    return {"tally": tally, "layers": layer_metrics(summary, traced_s - plain_s), "detail": detail}


# -- verify-towers ------------------------------------------------------------------


def measure_verify(seed: int, seconds: float, deadline: float) -> dict:
    setups, _ = measure_setup(VERIFY, seed, deadline)
    tally = Tally()
    samples = {label: [] for label in TOWERS}
    walls = {label: [] for label in TOWERS}
    measure_until = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < measure_until:
        for tower, probe_seed in verify_schedule(seed):
            run = tally.attempt(lambda: run_verify(tower, probe_seed, remaining(deadline)))
            if run is None:
                continue
            wall, proc, report = run
            bad = verify_failures(tower, probe_seed, proc) or report is None
            tally.failed += bad
            if not bad:
                samples[TOWER_LABEL[tower]].append((report["raw_s"], report["normalised_s"]))
                walls[TOWER_LABEL[tower]].append(wall)
        rounds += 1
    metrics, timings = end_to_end(samples, setups, peak_rss_mb(resource.RUSAGE_CHILDREN))
    return {"tally": tally, "metrics": metrics, "detail": {"timings": timings, "process_wall_s": walls}}


def trace_verify(seed: int, out_dir: Path | None, deadline: float, towers=tuple(TOWERS.values())) -> dict:
    """Each tower, at its first probe seed of the schedule, untraced and
    then traced in a fresh process; the two stdout reports must be
    byte-identical."""
    tally = Tally()
    summaries, per_tower = [], {}
    plain_total = traced_total = 0.0
    probe_seeds = {}
    for tower, probe_seed in verify_schedule(seed):
        probe_seeds.setdefault(tower, probe_seed)
    for request, tower in enumerate(towers):
        probe_seed = probe_seeds[tower]
        spans = str(out_dir / f"{VERIFY}-seed{seed}-spans-{tower}.json") if out_dir else None
        plain = tally.attempt(lambda: run_verify(tower, probe_seed, remaining(deadline)))
        traced = tally.attempt(
            lambda: run_verify(tower, probe_seed, remaining(deadline), request, spans)
        )
        if plain is None or traced is None:
            continue
        (plain_s, plain_proc, _), (traced_s, traced_proc, summary) = plain, traced
        tally.failed += verify_failures(tower, probe_seed, plain_proc)
        tally.failed += verify_failures(tower, probe_seed, traced_proc)
        tally.failed += int(plain_proc.stdout != traced_proc.stdout or summary is None)
        if summary is None:
            continue
        summaries.append(summary)
        plain_total += plain_s
        traced_total += traced_s
        per_tower[tower] = {"untraced_s": plain_s, "traced_s": traced_s, "summary": summary}
    summary = merge(summaries)
    detail = {"untraced_s": plain_total, "traced_s": traced_total, "towers": per_tower}
    return {"tally": tally, "layers": layer_metrics(summary, traced_total - plain_total), "detail": detail}


# -- reporting ---------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def report(args, result: dict) -> dict:
    tally = result["tally"]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    detail = result["detail"]
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, t in detail.get("timings", {}).items():
        tail = f"p{t['tail_pct']:g} {t['tail']:.6g}" if t["tail_pct"] else "no tail percentile"
        print(f"  {name:<18} median {t['median']:.6g}  {tail}  n={t['n']}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(
            f"  tracing overhead: {detail['traced_s'] - detail['untraced_s']:.3f} s "
            f"(traced {detail['traced_s']:.3f} s, untraced {detail['untraced_s']:.3f} s)"
        )
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  failed_ratio {ratio:.6g} ({tally.failed} of {tally.attempted})")
    final = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "failed_ratio": ratio,
            **final,
            "detail": detail,
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return final


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line adds
    the runs up and prefixes each metric with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        final = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for name, metric in final["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the result file and spans")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "orefield" / "__init__.py").is_file():
        print(f"error: no orefield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps(setup_once(args.workload, args.seed)[0]))
        return 0
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGVTALRM, _raise_run_timeout)
    signal.setitimer(signal.ITIMER_VIRTUAL, RUN_LIMIT_S)
    try:
        if args.workload == VERIFY and args.trace:
            result = trace_verify(args.seed, args.out, deadline)
        elif args.workload == VERIFY:
            result = measure_verify(args.seed, args.seconds, deadline)
        elif args.trace:
            result = trace_mix(args.workload, args.seed, args.out)
        else:
            result = measure_mix(args.workload, args.seed, args.seconds, deadline)
    except RunTimeout as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    final = report(args, result)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
