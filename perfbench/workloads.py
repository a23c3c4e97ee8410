"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The package sees only operands made
here from the seed, through its public API (`frac-arith`, `series-arith`)
or its command line (`verify-towers`).

The orefield modules are imported inside the set-up code, after `run.py`
has put the checkout's `src/` first on the path, so that importing them is
part of the measured set-up time.  Operations look methods and functions up
at call time, so a tracer installed after set-up sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from child import MARKER as CHILD_MARKER

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 7

# Ground field label -> (catalog scenario over that field, series precision,
# series pool size).  The scenario supplies the field of the in-process
# mixes and the Newton lift of `series-arith`; its tower is the one
# `verify-towers` runs.  A series pool is about the number of rounds a
# 20-second run makes over that field on a slow core, so a run sees every
# entry at least once; the precisions keep a round under a second there.
FIELDS = {
    "hamilton": ("T1L1", 48, 14),
    "gauss": ("T2L1", 96, 12),
    "rational": ("T3L1", 96, 48),
}
TOWERS = {"hamilton": "T1", "gauss": "T2", "rational": "T3"}

FRAC_POOL = 64  # operand tuples per field
SERIES_CHECKED = 1  # pairs per field given the full series checks

# sha256 of the first-pass results (frac-arith, series-arith) at the default
# seed, and of the `verify --format json` stdout for a tower and probe seed.
PINNED = {
    "frac-arith": "41bd2c40508d4be38c86ab53fd5efdf67d4f6515703637beb4e4d689fcde7d6a",
    "series-arith": "1d7dfc06edb841ee0154c8bd1fd34ab572115299056846f0e42e90b3d7ac60ec",
    "verify-towers/T1/7": "c3ae4d356e32dbf683bba3539b7f52831e86090a78488693edc83af335fcba8c",
    "verify-towers/T2/7": "d7112cf0d0cffdb0531111b2e6cd4d0ec40071cd8c10c453657d10781b6146ee",
    "verify-towers/T3/7": "2cbe347f890d860c47816f576f48e35a19e08d5ba3e83b3a3c4fe6d445ea6a46",
    "verify-towers/T3/8": "26dd664024db23292099bb888c156697608e3b79b1873805389b042a26a104ec",
    "verify-towers/T3/9": "2cbe347f890d860c47816f576f48e35a19e08d5ba3e83b3a3c4fe6d445ea6a46",
}


def _rng(workload: str, label: str, seed: int) -> random.Random:
    # a string seed is hashed with sha512, so pools do not depend on
    # PYTHONHASHSEED or on the order in which fields are set up
    return random.Random(f"{workload}:{label}:{seed}")


def _full_polynomial(field, rng, degree: int):
    from orefield.sampling import random_nonzero_element
    from orefield.skewpoly import SkewPolynomial

    coeffs = [random_nonzero_element(field, rng, span=3) for _ in range(degree + 1)]
    return SkewPolynomial.from_coeffs(field, coeffs)


def _full_fraction(field, rng):
    """A reduced fraction whose numerator and denominator both have degree 2
    and only nonzero coefficients.  Every operation on such operands takes
    the general path (no polynomial or central shortcut), so all rounds cost
    about the same and a run's median does not hinge on which shortcuts its
    seed happened to draw; their series and the series of their inverses
    are infinite, with coefficients that keep growing."""
    from orefield.skewfrac import SkewFraction

    while True:
        x = SkewFraction.make(_full_polynomial(field, rng, 2), _full_polynomial(field, rng, 2))
        if x.num.degree == 2 and x.den.degree == 2:
            return x


class FracArith:
    """`SkewFraction.make` of a pair with a common left factor, `+`, `*`,
    `==` and `inv` on small random fractions over each ground field."""

    name = "frac-arith"
    ops_per_round = 5

    def __init__(self, seed: int) -> None:
        from orefield.catalog import scenario_catalog
        from orefield.skewfrac import SkewFraction

        self.SkewFraction = SkewFraction
        self.pools = {}
        for label, (scenario, _, _) in FIELDS.items():
            field = scenario_catalog(scenario).field
            rng = _rng(self.name, label, seed)
            pool = []
            for _ in range(FRAC_POOL):
                a, b = _full_fraction(field, rng), _full_fraction(field, rng)
                common = _full_polynomial(field, rng, 1)
                pool.append((a, b, common * a.num, common * a.den))
            self.pools[label] = pool

    def lifts(self) -> dict:
        return {}

    def run_round(self, item):
        a, b, common_num, common_den = item
        return (self.SkewFraction.make(common_num, common_den), a + b, a * b, a == b, b.inv())

    def check(self, index: int, item, out) -> int:
        """Number of failed identities for one operand tuple."""
        a, b, _, _ = item
        made, total, _, _, inverse = out
        one = self.SkewFraction.one(a.field)
        return (made != a) + (total - b != a) + (b * inverse != one)

    def check_lift(self, label: str, rho) -> int:
        return 0


def _agree(x, y) -> bool:
    prec = min(x.prec, y.prec)
    return x.truncate(prec) == y.truncate(prec)


class SeriesArith:
    """Products, inverses and embeddings (`solve_left`) of pre-embedded
    series, plus one Newton lift of each field's catalog polynomial."""

    name = "series-arith"
    ops_per_round = 3

    def __init__(self, seed: int) -> None:
        from orefield import laurent
        from orefield.catalog import scenario_catalog

        self.laurent = laurent
        self.pools = {}
        self._lifts = {}
        for label, (scenario, prec, size) in FIELDS.items():
            scn = scenario_catalog(scenario)
            rng = _rng(self.name, label, seed)
            fractions = [_full_fraction(scn.field, rng) for _ in range(size + 1)]
            series = [laurent.embed_fraction(x, prec) for x in fractions]
            # entry k pairs operand k with operand k+1
            self.pools[label] = [
                (fractions[k], series[k], series[k + 1], prec) for k in range(size)
            ]
            coeffs = scn.newton_coeffs if scn.newton_coeffs is not None else scn.f.coeffs
            self._lifts[label] = (list(coeffs), scn.newton_seed, scn.precision)

    def lifts(self) -> dict:
        """One Newton lift per field in the pools: label -> callable
        returning the root."""
        return {
            label: (lambda c=coeffs, s=seed, p=prec: self.laurent.newton_root(c, s, p))
            for label, (coeffs, seed, prec) in self._lifts.items()
            if label in self.pools
        }

    def run_round(self, item):
        a, sa, sb, prec = item
        return (sa * sb, sb.inv(), self.laurent.embed_fraction(a, prec))

    def check(self, index: int, item, out) -> int:
        a, sa, sb, prec = item
        _, inverse, embedded = out
        bad = int(embedded != sa)
        if index < SERIES_CHECKED:
            one = self.laurent.TwistedSeries.one(sa.field, prec)
            bad += not _agree(sb * inverse, one)
            bad += not _agree(sb * self.laurent.solve_left(sb, sa), sa)
        return bad

    def check_lift(self, label: str, rho) -> int:
        coeffs, _, prec = self._lifts[label]
        embedded = [self.laurent.embed_fraction(c, rho.prec) for c in coeffs]
        value = self.laurent.evaluate_poly(embedded, rho)
        return int(not value.is_zero() or value.prec < prec)


MIXES = {FracArith.name: FracArith, SeriesArith.name: SeriesArith}


# -- verify-towers --------------------------------------------------------------

VERIFY = "verify-towers"


def verify_schedule(seed: int) -> list[tuple[str, int]]:
    """The (tower, probe seed) verifies of one run, in order.

    T1 and T2 take their probe seeds from the run's seed.  T3, the control,
    always runs with the probe seeds 7, 8 and 9: its cost changes about
    twofold with the probe seed, which would bury a change in the field
    kernels under the draw of the seeds.
    """
    return [("T3", 7), ("T2", seed), ("T1", seed), ("T3", 8), ("T2", seed + 1), ("T3", 9)]


def verify_argv(tower: str, seed: int) -> list[str]:
    return ["verify", "--scenario", tower, "--seed", str(seed), "--format", "json"]


def run_verify(
    tower: str,
    seed: int,
    timeout: float,
    traced_request: int | None = None,
    spans: str | None = None,
):
    """One fresh-process `orefield verify`, run by child.py and killed after
    `timeout` seconds (subprocess.TimeoutExpired).

    Returns (wall seconds, completed process, the child's report: its
    speed-normalised time, or with `traced_request` the tracer summary).
    """
    cmd = [sys.executable, str(Path(__file__).with_name("child.py"))]
    if traced_request is not None:
        cmd += ["--trace", str(traced_request)]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + verify_argv(tower, seed),
        capture_output=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - t0
    lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(CHILD_MARKER)]
    report = json.loads(lines[-1][len(CHILD_MARKER) :]) if lines else None
    return wall, proc, report


def verify_failures(tower: str, seed: int, proc) -> int:
    """0 when the report is whole: exit 0, every row `pass`, and the pinned
    stdout digest where one is pinned for this tower and probe seed."""
    if proc.returncode != 0:
        return 1
    try:
        rows = json.loads(proc.stdout)
    except ValueError:
        return 1
    if not rows or any(row.get("status") != "pass" for row in rows):
        return 1
    expected = PINNED.get(f"{VERIFY}/{tower}/{seed}")
    return int(expected is not None and hashlib.sha256(proc.stdout).hexdigest() != expected)


def verify_setup() -> None:
    """What every verify process builds before its checks: the package and
    the three towers of the catalog."""
    from orefield import cli  # noqa: F401  (the import is the measured work)
    from orefield.catalog import tower_catalog

    for tower in TOWERS.values():
        tower_catalog(tower, validate=False)
