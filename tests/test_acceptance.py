"""Acceptance battery: eight seeded end-to-end criteria with pinned budgets.

Each test prints one summary line; every numeric comparison is exact
(Fraction arithmetic throughout), so the only tolerances are the series
precisions named in the criteria themselves.
"""

import json
import random
import subprocess
import sys
import time

from conftest import GAUSS, HAMILTON, checked_decomposition, fresh_env

from orefield.catalog import scenario_catalog, tower_catalog
from orefield.extend import (
    ExtensionScenario,
    TensorElement,
    ext_tau,
    fixed_space,
    run_scenario_checks,
)
from orefield.laurent import embed_fraction
from orefield.sampling import (
    random_element,
    random_fraction,
    random_nonzero_polynomial,
    random_polynomial,
    random_tensor,
)
from orefield.skewfrac import SkewFraction, center_basis
from orefield.skewpoly import SkewPolynomial, common_left_multiple, ore_witness
from orefield.tower import check_compatibility, degree_ledger, run_tower_checks
from orefield.scenario_io import load_document, tower_document
import yaml


def verdict(elapsed: float, budget: float) -> str:
    return "PASS" if elapsed < budget else "FAIL"


def report(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {num} ({label}): {verdict(elapsed, budget)} in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} overran its {budget:.0f}s budget: {elapsed:.1f}s"


# -- 1: twisted ring laws -----------------------------------------------------------


def test_criterion_1_twisted_ring_laws():
    t0 = time.perf_counter()
    for field in (GAUSS, HAMILTON):
        rng = random.Random(1001)
        for _ in range(1000):
            a = random_polynomial(field, rng, 4)
            b = random_polynomial(field, rng, 4)
            c = random_polynomial(field, rng, 4)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
        t = SkewPolynomial.t_power(field, 1)
        for _ in range(100):
            e = random_element(field, rng)
            lhs = t * SkewPolynomial.constant(field, e)
            rhs = SkewPolynomial.constant(field, e.sigma()) * t
            assert lhs == rhs
    report(1, "twisted ring laws, 1000 triples per ring", time.perf_counter() - t0, 10.0)


# -- 2: Euclidean division ----------------------------------------------------------


def test_criterion_2_euclidean_division():
    t0 = time.perf_counter()
    field = GAUSS
    rng = random.Random(1002)
    for _ in range(1000):
        f = random_polynomial(field, rng, 8)
        g = random_nonzero_polynomial(field, rng, 8)
        q, r = f.divmod_right(g)
        assert f == q * g + r
        assert r.degree < g.degree
        # uniqueness probe: any other quotient breaks the degree bound
        d = random_nonzero_polynomial(field, rng, 2)
        assert (r - d * g).degree >= g.degree
    # the worked instance: t^2 + i = (t - i)(t - i) + (1 + i)
    i = field.basis_element(1)
    f = SkewPolynomial.t_power(field, 2) + SkewPolynomial.constant(field, i)
    g = SkewPolynomial.t_power(field, 1) - SkewPolynomial.constant(field, i)
    q, r = f.divmod_right(g)
    assert q == g
    assert r == SkewPolynomial.constant(field, field.one() + i)
    report(2, "Euclidean division, 1000 pairs at degree <= 8", time.perf_counter() - t0, 5.0)


# -- 3: fraction field consistency ----------------------------------------------------


def test_criterion_3_fraction_field_consistency():
    t0 = time.perf_counter()
    field = GAUSS
    rng = random.Random(1003)
    one = SkewFraction.one(field)
    zero = SkewFraction.zero(field)
    for _ in range(500):
        a = random_fraction(field, rng)
        b = random_fraction(field, rng, nonzero=True)
        # skew field axioms
        assert a + b == b + a
        assert (a + b) - b == a
        assert a + zero == a and a * one == a and one * a == a
        assert (a * b) * a == a * (b * a)
        assert a * (b + one) == a * b + a
        assert (a + one) * b == a * b + b
        assert b * b.inv() == one and b.inv() * b == one
        if not a.is_zero():
            assert (a * b).inv() == b.inv() * a.inv()
        # representation coherence: a common left factor changes nothing
        u = random_nonzero_polynomial(field, rng, 2)
        assert SkewFraction.make(u * a.num, u * a.den) == a
        # witness identities on the underlying polynomials
        fpoly = random_nonzero_polynomial(field, rng, 3)
        gpoly = random_nonzero_polynomial(field, rng, 3)
        a1, b1 = ore_witness(fpoly, gpoly)
        assert not b1.is_zero()
        assert fpoly * b1 == gpoly * a1
        u2, v2 = common_left_multiple(fpoly, gpoly)
        assert not u2.is_zero() and not v2.is_zero()
        assert u2 * fpoly == v2 * gpoly
    report(3, "fraction axioms + witnesses, 500 pairs", time.perf_counter() - t0, 20.0)


# -- 4: the central subring -----------------------------------------------------------


def test_criterion_4_center_is_generated_by_t_squared():
    t0 = time.perf_counter()
    basis = center_basis(GAUSS, 8)
    assert [p.degree for p in basis] == [0, 2, 4, 6, 8]
    for p in basis:
        assert p.coefficient(p.degree) == GAUSS.one()  # monic rational monomials
        assert all(c.is_zero() for m, c in enumerate(p.coeffs) if m < p.degree)
    assert [str(p) for p in basis] == [
        "[1,0]",
        "[1,0]*t^2",
        "[1,0]*t^4",
        "[1,0]*t^6",
        "[1,0]*t^8",
    ]
    report(4, "center basis {1, t^2, t^4, t^6, t^8}", time.perf_counter() - t0, 5.0)


# -- 5: the series embedding -----------------------------------------------------------


def test_criterion_5_series_embedding_is_a_faithful_homomorphism():
    t0 = time.perf_counter()
    field = GAUSS
    rng = random.Random(1005)
    precision = 64
    for _ in range(250):
        a = random_fraction(field, rng)
        b = random_fraction(field, rng, nonzero=True)
        ea = embed_fraction(a, precision)
        eb = embed_fraction(b, precision)
        esum = embed_fraction(a + b, precision)
        eprod = embed_fraction(a * b, precision)
        prec = min(esum.prec, (ea + eb).prec)
        assert esum.truncate(prec) == (ea + eb).truncate(prec)
        prec = min(eprod.prec, (ea * eb).prec)
        assert eprod.truncate(prec) == (ea * eb).truncate(prec)
        # finite-precision injectivity: distinct fractions stay distinct
        if a != b:
            assert ea != eb
    report(5, "embedding of 500 fractions at precision 64", time.perf_counter() - t0, 30.0)


# -- 6: scalar extension scenarios ------------------------------------------------------


def _with_precision(scn: ExtensionScenario, precision: int) -> ExtensionScenario:
    """The same scenario data carrying more series precision."""
    return ExtensionScenario(
        scn.name,
        scn.field,
        scn.f,
        scn.group,
        scn.generator_images,
        precision,
        newton_seed=scn.newton_seed,
        newton_coeffs=scn.newton_coeffs,
    )


def _run_extension_criterion(name: str, rng: random.Random) -> None:
    t0 = time.perf_counter()
    scn = _with_precision(scenario_catalog(name), 64)
    one = TensorElement.make(scn, [1])

    # every certificate, including the exhaustive action table
    rows = run_scenario_checks(scn)
    assert all(r.status == "pass" for r in rows), [
        (r.name, r.details) for r in rows if r.status != "pass"
    ]

    # 200 random nonzero elements invert exactly, both sides
    for _ in range(200):
        element = random_tensor(scn, rng, max_degree=4)
        inverse = element.inv()
        assert element * inverse == one
        assert inverse * element == one

    # the fixed space of the full group is exactly the scalar line
    basis = fixed_space(scn)
    assert len(basis) == 1
    assert basis[0][0] == SkewFraction.one(scn.field)
    assert all(c.is_zero() for c in basis[0][1:])

    # tau is multiplicative to precision 48
    for _ in range(20):
        a = random_tensor(scn, rng, max_degree=2)
        b = random_tensor(scn, rng, max_degree=2)
        lhs = ext_tau(a * b, 48)
        rhs = ext_tau(a, 56) * ext_tau(b, 56)
        assert lhs.prec >= 48 and rhs.prec >= 48
        assert lhs.truncate(48) == rhs.truncate(48)

    # canonical decomposition: the zero-test at precision 48
    z = ext_tau(one + TensorElement.x(scn) ** scn.degree, 48)
    h = random_nonzero_polynomial(scn.field, rng, 3)
    table = checked_decomposition(scn.field, [(h, z), (-h, z)])
    assert all(entry.is_zero() for entry in table.values())
    alone = checked_decomposition(scn.field, [(h, z)])
    assert any(not entry.is_zero() for entry in alone.values())

    elapsed = time.perf_counter() - t0
    print(
        f"  {name}: 200 inversions + table + tau + decomposition: "
        f"{verdict(elapsed, 60.0)} in {elapsed:.1f}s (budget 60s)"
    )
    assert elapsed < 60.0, f"{name} overran the per-scenario budget: {elapsed:.1f}s"


def test_criterion_6_scalar_extension_scenarios():
    t0 = time.perf_counter()
    rng = random.Random(1006)
    for name in ("T1L1", "T2L1", "T3L1"):
        _run_extension_criterion(name, rng)
    report(6, "extension batteries on all three catalog scenarios", time.perf_counter() - t0, 180.0)


# -- 7: towers ----------------------------------------------------------------------------


def test_criterion_7_towers_and_corrupted_labelling():
    t0 = time.perf_counter()
    for name in ("T1", "T2", "T3"):
        ts = tower_catalog(name, validate=False)
        # degree ledger: dimension matches group order on every level
        for row in degree_ledger(ts):
            assert row.degree_matches, f"{name} level {row.level}"
        rows = run_tower_checks(ts)
        assert all(r.status != "fail" for r in rows), [
            (r.name, r.details) for r in rows if r.status == "fail"
        ]
        # compatibility was exhaustive: one check per upper-level group element
        compat = {r.name for r in rows if r.name.startswith("compat[")}
        expected = {
            f"compat[{n + 2}->{n + 1}:{g}]"
            for n in range(ts.depth - 1)
            for g in ts.levels[n + 1].group.elements
        }
        assert compat == expected

    # corrupted labelling: fails, and the report names the two bad labels
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["eps"][1] = {"00": "00", "10": "01", "01": "10", "11": "11"}
    corrupted = load_document(yaml.safe_dump(doc))
    verdicts = {r.name: r.status for r in check_compatibility(corrupted)}
    assert verdicts == {
        "compat[2->1:00]": "pass",
        "compat[2->1:01]": "fail",
        "compat[2->1:10]": "fail",
        "compat[2->1:11]": "pass",
    }
    report(7, "towers T1-T3 + located corrupted-labelling report", time.perf_counter() - t0, 60.0)


# -- 8: byte-level determinism --------------------------------------------------------------


def test_criterion_8_verify_reports_are_byte_identical():
    t0 = time.perf_counter()
    command = [
        sys.executable,
        "-m",
        "orefield.cli",
        "verify",
        "--scenario",
        "T1",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    first = subprocess.run(command, capture_output=True, check=True, env=fresh_env())
    second = subprocess.run(command, capture_output=True, check=True, env=fresh_env())
    assert first.stdout == second.stdout
    rows = json.loads(first.stdout)
    assert rows and all(r["status"] == "pass" for r in rows)
    report(8, "two seeded verify runs, byte-identical JSON", time.perf_counter() - t0, 120.0)
