"""The f-irreducible and nonsquare certificates against their sympy oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from orefield.catalog import scenario_catalog, scenario_names, tower_catalog, tower_names
from orefield.errors import ScenarioValidationError
from orefield.extend import (
    CentralPolynomial,
    ExtensionScenario,
    FiniteGroup,
    _irreducibility_certificate,
    _specialisation_point,
)
from orefield.ground import make_number_field
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial
from orefield.tower import nonsquare_certificate

from conftest import GAUSS, HAMILTON, RATIONALS

CENTRAL_FIELDS = [RATIONALS, GAUSS, HAMILTON]
STATIC = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
Z2 = FiniteGroup(
    ("e", "s"), "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
)


def upoly(field, coeffs):
    """sum coeffs[k] * u^k with u = t^n and rational coefficients."""
    n = field.sigma_order
    rows = [[Fraction(0)] * field.dim for _ in range(n * max(len(coeffs) - 1, 0) + 1)]
    for k, c in enumerate(coeffs):
        rows[k * n][0] = Fraction(c)
    return SkewPolynomial.from_coeffs(field, rows)


def uratio(field, num, den=(1,)):
    return SkewFraction.make(upoly(field, num), upoly(field, den))


def product(*polys):
    out = [Fraction(1)]
    for g in polys:
        out = [
            sum(out[i] * g[k - i] for i in range(len(out)) if 0 <= k - i < len(g))
            for k in range(len(out) + len(g) - 1)
        ]
    return out


def scenario(field, coeffs, name="random"):
    f = CentralPolynomial.from_coeffs(field, coeffs)
    return ExtensionScenario(
        name=name, field=field, f=f, group=Z2, generator_images={}, precision=8,
        newton_seed=field.one(),
    )


def assert_nonsquare_matches(label, witness):
    result = nonsquare_certificate(label, witness)
    assert (result.status, result.details) == schoolbook.nonsquare_certificate(label, witness)
    return result


# -- catalog --------------------------------------------------------------------

# the first point of 0, 1, -1, 2, -2, 3, -3 at which f(x, u0) is irreducible:
# x^2 - 2 at 1 for the quadratics, x^4 - 16x^2 + 4 at 2 for the quartics, and
# x^3 - x^2 - 2x + 1 at 1 for the cubic (its coefficients have the pole u = 0)
CATALOG_POINTS = {"T1L1": 1, "T1L2": 2, "T2L1": 1, "T2L2": 2, "T3L1": 1}


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_levels_certify_by_specialisation(name):
    scn = scenario_catalog(name)
    assert _specialisation_point(scn) == CATALOG_POINTS[name]
    assert _irreducibility_certificate(scn) == schoolbook.irreducibility_certificate(scn)


@pytest.mark.parametrize("name", tower_names())
def test_catalog_witnesses_match_the_oracle(name):
    for label, witness in tower_catalog(name, validate=False).nonsquare_witnesses:
        assert assert_nonsquare_matches(label, witness).status == "pass"


# -- random central inputs ----------------------------------------------------------

small_upolys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=1, max_size=3
).filter(lambda c: c[-1] != 0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CENTRAL_FIELDS),
    st.lists(st.tuples(small_upolys, st.integers(1, 3)), min_size=0, max_size=3),
    st.lists(st.tuples(small_upolys, st.integers(1, 2)), min_size=0, max_size=2),
)
def test_random_witnesses_match_the_oracle(field, num_parts, den_parts):
    num = product(*(g for g, m in num_parts for _ in range(m)))
    den = product(*(g for g, m in den_parts for _ in range(m)))
    assert_nonsquare_matches("w", uratio(field, num, den))


def test_random_witnesses_match_the_oracle_at_fixed_seeds():
    rng = random.Random(11)
    for field in CENTRAL_FIELDS:
        for _ in range(12):
            parts = [
                [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randrange(1, 4))]
                + [Fraction(rng.choice([-2, 1, 3]))]
                for _ in range(rng.randrange(1, 4))
            ]
            split = rng.randrange(len(parts) + 1)
            num = product(*(g for g in parts[:split] for _ in range(rng.choice([1, 2]))))
            den = product(*parts[split:])
            assert_nonsquare_matches("w", uratio(field, num, den))
    assert_nonsquare_matches("zero", SkewFraction.zero(GAUSS))
    assert_nonsquare_matches("square", uratio(HAMILTON, product([1, 1], [1, 1]), [0, 0, 1]))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(CENTRAL_FIELDS),
    st.integers(2, 3),
    st.lists(st.tuples(small_upolys, small_upolys), min_size=3, max_size=3),
    st.booleans(),
)
def test_random_polynomials_match_the_oracle(field, degree, pairs, split):
    one = SkewFraction.one(field)
    if split:
        # (x - a(u)) * (x^(d-1) + b(u)): reducible, so the fallback must say so
        a, b = uratio(field, *pairs[0]), uratio(field, *pairs[1])
        coeffs = [-(a * b), b - a, one] if degree == 2 else [-(a * b), b, -a, one]
    else:
        coeffs = [uratio(field, num, den) for num, den in pairs[:degree]] + [one]
    scn = scenario(field, coeffs)
    assert _irreducibility_certificate(scn) == schoolbook.irreducibility_certificate(scn)


# -- the fallback and the error paths --------------------------------------------------


def test_fallback_certifies_what_no_specialisation_point_can():
    # c = u(u^2-1)(u^2-4)(u^2-9) vanishes at every point tried, so every
    # f(x, u0) = x^2 is reducible; c has odd degree, so it is no square in Q(u)
    c = product([0, 1], [-1, 0, 1], [-4, 0, 1], [-9, 0, 1])
    for field in (HAMILTON, GAUSS):
        scn = scenario(field, [-uratio(field, c), SkewFraction.zero(field), SkewFraction.one(field)])
        assert _specialisation_point(scn) is None
        expected = schoolbook.irreducibility_certificate(scn)
        assert expected[0] == "pass"
        assert _irreducibility_certificate(scn) == expected


def test_split_polynomials_fall_back_and_fail():
    one = SkewFraction.one(HAMILTON)
    scn = scenario(HAMILTON, [-one, SkewFraction.zero(HAMILTON), one])
    assert _specialisation_point(scn) is None
    status, details = _irreducibility_certificate(scn)
    assert status == "fail" and "splits" in details
    assert (status, details) == schoolbook.irreducibility_certificate(scn)


def test_exponents_off_the_twist_order_raise_as_before():
    t = SkewFraction.t_power(GAUSS)
    # an f with such a coefficient is refused where it is built, so no
    # certificate reads it
    with pytest.raises(ScenarioValidationError, match="is not central"):
        scenario(GAUSS, [t, SkewFraction.zero(GAUSS), SkewFraction.one(GAUSS)])
    with pytest.raises(ScenarioValidationError) as ours:
        nonsquare_certificate("t", t)
    with pytest.raises(ScenarioValidationError) as oracle:
        schoolbook.nonsquare_certificate("t", t)
    assert str(ours.value) == str(oracle.value)


def test_nonrational_invariants_are_skipped_as_before():
    w = SkewFraction.from_ground(STATIC.element([0, 1]))
    result = nonsquare_certificate("w", w)
    assert (result.status, result.details) == schoolbook.nonsquare_certificate("w", w)
    assert result.status == "skipped"
    scn = scenario(STATIC, [w, SkewFraction.zero(STATIC), SkewFraction.one(STATIC)])
    assert _irreducibility_certificate(scn) == schoolbook.irreducibility_certificate(scn)


def test_witnesses_off_the_center_fail():
    # over Q(i): 1 + (1+i)*u and i*u sit on the multiples of n, but are not in Q(u)
    for coeffs in ([[1, 0], [0, 0], [1, 1]], [[0, 0], [0, 0], [0, 1]]):
        witness = SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(GAUSS, coeffs))
        result = nonsquare_certificate("w", witness)
        assert (result.status, result.details) == ("fail", f"the witness {witness} is not in Q(u)")
