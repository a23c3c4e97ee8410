"""The benchmark's own tests: the traced runs measure what the layer table
in README.md predicts, and they measure it reproducibly.

    python3 -m pytest perfbench -q

They are not part of the repository's test suite (pyproject's `testpaths`
names only `tests/`), because they take a minute or two.
"""

from __future__ import annotations

import sys
import time

import pytest

import run
from tracer import PER_LAYER_METRICS, Tracer, layer_metrics
from workloads import DEFAULT_SEED, SRC, FracArith, SeriesArith, run_verify

sys.path.insert(0, str(SRC))

EXACT = (".calls", ".max_bits", ".max_degree", ".iterations", "_ratio")

# Per-layer metric prefix -> the workloads the README's table marks heavy.
HEAVY = {
    "ground.": ("frac-arith", "series-arith"),
    "linalg.rref.": ("frac-arith",),
    "linalg.solve_right_generic.": ("verify-towers",),
    "skewpoly.": ("frac-arith",),
    "skewfrac.": ("frac-arith", "verify-towers"),
    "laurent.": ("series-arith",),
    "extend.": ("verify-towers",),
    "tower.": ("verify-towers",),
}


def traced_pass(mix_class, labels=None) -> dict:
    """The per-layer metrics of one traced pass, restricted to some fields."""
    mix = mix_class(DEFAULT_SEED)
    if labels is not None:
        mix.pools = {label: mix.pools[label] for label in labels}
    tally = run.Tally()
    tracer = Tracer()
    tracer.install()
    try:
        run.one_pass(mix, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    return {name: m["value"] for name, m in layer_metrics(tracer.summary(), 0.0).items()}


@pytest.fixture(scope="module")
def layers() -> dict:
    """Per-layer metrics of each workload; verify-towers through T2, which
    reaches every extension and tower layer in a few seconds."""
    verify = run.trace_verify(DEFAULT_SEED, None, time.monotonic() + 120, towers=("T2",))
    assert verify["tally"].failed == 0  # traced stdout == untraced == pinned digest
    return {
        "frac-arith": traced_pass(FracArith),
        "series-arith": traced_pass(SeriesArith),
        "verify-towers": {name: m["value"] for name, m in verify["layers"].items()},
    }


def test_every_layer_metric_is_busy_where_the_table_says_heavy(layers):
    idle = []
    for name, _ in PER_LAYER_METRICS:
        if name.endswith(".retry_ratio") or name.startswith("tracer."):
            continue
        prefix = next(p for p in HEAVY if name.startswith(p))
        idle += [(name, w) for w in HEAVY[prefix] if not layers[w][name] > 0]
    assert idle == []


def test_light_predictions_hold(layers):
    frac, series = layers["frac-arith"], layers["series-arith"]
    assert [n for n, v in frac.items() if n.startswith("laurent.") and n.endswith(".calls") and v] == []
    assert series["skewpoly.gcld.calls"] == 0
    for mix_class in (FracArith, SeriesArith):
        hamilton = traced_pass(mix_class, labels=["hamilton"])
        assert hamilton["linalg.rref.calls"] <= hamilton["ground.mul_coords.calls"] // 1000


def test_traced_counts_repeat(layers):
    again = traced_pass(FracArith)
    exact = [name for name, _ in PER_LAYER_METRICS if name.endswith(EXACT)]
    assert {n: again[n] for n in exact} == {n: layers["frac-arith"][n] for n in exact}
    first, second = (run_verify("T2", DEFAULT_SEED, 120, traced_request=0)[2] for _ in range(2))
    assert {k: v for k, v in first.items() if not k.endswith("self_s")} == {
        k: v for k, v in second.items() if not k.endswith("self_s")
    }
