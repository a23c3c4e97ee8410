"""The integer-row kernels against the schoolbook reference routines.

Every kernel result must equal, exactly, what the straightforward Fraction
implementation in `schoolbook` computes, on random inputs (hypothesis plus
fixed seeds) over every shipped field and over fields whose structure
constants or automorphism matrices are not integral.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schoolbook as sb
from conftest import ALL_FIELDS, GAUSS, HAMILTON, RATIONALS, ROOT2, elements, nonzero_polys, polys
from orefield.errors import (
    DivisionByZero,
    InsufficientPrecision,
    MixedFields,
    NotInvertible,
    OrefieldError,
    ZeroSeries,
)
from orefield.ground import make_number_field, make_quaternions
from orefield.laurent import TwistedSeries, newton_root, solve_left
from orefield.sampling import (
    random_element,
    random_nonzero_element,
    random_nonzero_polynomial,
    random_polynomial,
)
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial, common_left_multiple, gcld, ore_witness

# i^2 = -1/2: the structure constants have denominator 2
HALF_QUATERNIONS = make_quaternions(Fraction(-1, 2), -3, name="(-1/2,-3)")
# y = 2*theta for theta^3 - 3 theta + 1 = 0; sigma(y) = y^2/2 - 4 has a
# denominator, and the order-3 automorphism needs the eliminated adjugate
CUBIC = make_number_field([8, -12, 0, 1], sigma_image=[-4, 0, Fraction(1, 2)], name="cubic")
STATIC_ROOT2 = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
# y^2 + y + 1: a quadratic with a nonzero y-coefficient
EISENSTEIN = make_number_field([1, 1, 1], sigma_image=[-1, -1], name="Q(w)/conj")
# definite quaternions over the real quadratic field Q[y]/(y^2 - y - 1): the
# adjugate goes through the norm of the base field
H_GOLDEN = make_quaternions(-1, -1, min_poly=[-1, -1, 1], name="H over Q(sqrt5)")

FIELDS = ALL_FIELDS + [HALF_QUATERNIONS, CUBIC, STATIC_ROOT2, EISENSTEIN]
FIELD_IDS = [f.name for f in FIELDS]


def same(p, q):
    """Equal values and equal printed forms."""
    return p == q and str(p) == str(q)


# -- ground fields ------------------------------------------------------------------


def test_non_integral_fields_exercise_the_scaled_kernel():
    assert HALF_QUATERNIONS.mul_den == 2
    assert CUBIC.sig_den == 2 and CUBIC.sigma_order == 3
    assert all(f.mul_den == f.sig_den == 1 for f in ALL_FIELDS)


@pytest.mark.parametrize("field", FIELDS + [H_GOLDEN], ids=FIELD_IDS + [H_GOLDEN.name])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ground_kernel_matches_reference(field, data):
    a = data.draw(elements(field)).coords
    b = data.draw(elements(field)).coords
    assert field.mul_coords(a, b) == sb.mul_coords(field, a, b)
    for k in range(-2, 2 * field.sigma_order + 2):
        assert field.sigma_coords(a, k) == sb.sigma_coords(field, a, k)
    if any(a):
        assert field.inv_coords(a) == sb.inv_coords(field, a)
    else:
        for inv in (field.inv_coords, lambda x: sb.inv_coords(field, x)):
            with pytest.raises(DivisionByZero):
                inv(a)


def test_ground_inverse_errors_match_reference():
    split = make_quaternions(1, 1, name="split")
    x = split.element([1, 1, 0, 0]).coords
    with pytest.raises(NotInvertible):
        split.inv_coords(x)
    with pytest.raises(NotInvertible):
        sb.inv_coords(split, x)
    with pytest.raises(DivisionByZero):
        split.inv_coords(split.zero().coords)


def test_split_algebra_zero_norm_lead_raises_in_division():
    split = make_quaternions(1, 1, name="split")
    g = SkewPolynomial.from_coeffs(split, [[1, 0, 0, 0], [1, 1, 0, 0]])
    f = SkewPolynomial.t_power(split, 3)
    with pytest.raises(NotInvertible):
        f.divmod_left(g)
    with pytest.raises(NotInvertible):
        sb.divmod_left(f, g)


# -- twisted polynomials -------------------------------------------------------------


def _check_polys(f, g):
    assert same(f * g, sb.poly_mul(f, g))
    if g.is_zero():
        for op in (f.divmod_left, f.divmod_right, lambda x: sb.divmod_left(f, x)):
            with pytest.raises(DivisionByZero):
                op(g)
    else:
        for mine, ref in ((f.divmod_left(g), sb.divmod_left(f, g)), (f.divmod_right(g), sb.divmod_right(f, g))):
            assert same(mine[0], ref[0]) and same(mine[1], ref[1])
    if f.is_zero() and g.is_zero():
        with pytest.raises(DivisionByZero):
            gcld(f, g)
    else:
        assert same(gcld(f, g), sb.gcld(f, g))
    if not g.is_zero():
        for mine, ref in zip(ore_witness(f, g), sb.ore_witness(f, g)):
            assert same(mine, ref)
    if not (f.is_zero() or g.is_zero()):
        for mine, ref in zip(common_left_multiple(f, g), sb.common_left_multiple(f, g)):
            assert same(mine, ref)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_polynomial_kernels_match_reference(field, data):
    f = data.draw(polys(field, max_degree=4))
    g = data.draw(polys(field, max_degree=3))
    _check_polys(f, g)
    # a common left factor makes gcld, ore_witness and clm nontrivial
    d = data.draw(polys(field, max_degree=2))
    _check_polys(d * f, d * g)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_polynomial_kernels_match_reference_fixed_seed(field):
    rng = random.Random(2024)
    t = SkewPolynomial.t_power(field, 1)
    one = SkewPolynomial.one(field)
    for _ in range(12):
        f = random_polynomial(field, rng, 5)
        g = random_polynomial(field, rng, 3)
        u = SkewPolynomial.constant(field, random_element(field, rng))
        # leading-zero operands (t-power multiples), units and zero
        for a, b in ((f, g), (t * t * f, t * g), (f, one), (one, g), (u, f), (f, u), (f, f)):
            _check_polys(a, b)
    _check_polys(SkewPolynomial.zero(field), SkewPolynomial.t_power(field, 4))


def test_mixed_fields_rejected_by_every_kernel():
    f = SkewPolynomial.t_power(GAUSS, 2)
    g = SkewPolynomial.t_power(ROOT2, 1)
    ops = (
        lambda: f * g,
        lambda: f.divmod_left(g),
        lambda: f.divmod_right(g),
        lambda: gcld(f, g),
        lambda: ore_witness(f, g),
        lambda: common_left_multiple(f, g),
        lambda: TwistedSeries.from_polynomial(f, 8) * TwistedSeries.from_polynomial(g, 8),
        lambda: solve_left(TwistedSeries.one(GAUSS, 8), TwistedSeries.one(ROOT2, 8)),
    )
    for op in ops:
        with pytest.raises(MixedFields):
            op()
    with pytest.raises(MixedFields):
        sb.poly_mul(f, g)


# -- left fractions ------------------------------------------------------------------


def same_fraction(x, y):
    return x.same_representation(y) and str(x) == str(y)


def _check_fraction(num, den):
    """make (and inv) normalise on integer rows to the reference's form."""
    x = SkewFraction.make(num, den)
    assert same_fraction(x, sb.fraction_make(num, den))
    if not x.is_zero():
        assert same_fraction(x.inv(), sb.fraction_inv(x))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fraction_normalisation_matches_reference(field, data):
    num = data.draw(polys(field, max_degree=2))
    den = data.draw(nonzero_polys(field, max_degree=2))
    c = data.draw(nonzero_polys(field, max_degree=1))
    _check_fraction(num, den)
    _check_fraction(c * num, c * den)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_fraction_normalisation_matches_reference_fixed_seed(field):
    rng = random.Random(77)
    for _ in range(8):
        num = random_polynomial(field, rng, 3)
        den = random_nonzero_polynomial(field, rng, 2)
        c = random_nonzero_polynomial(field, rng, 1)
        _check_fraction(num, den)
        _check_fraction(c * num, c * den)
        _check_fraction(den, SkewPolynomial.constant(field, random_nonzero_element(field, rng)))


# -- twisted Laurent series ---------------------------------------------------------


def _series(p, val, prec):
    s = TwistedSeries.from_polynomial(p, prec - val)
    return TwistedSeries.make(p.field, val, list(s.coeffs), prec)


def _check_series(a, b):
    assert a * b == sb.series_mul(a, b)
    if b.is_zero():
        for op in (lambda: solve_left(b, a), b.inv, lambda: sb.series_inv(b)):
            with pytest.raises(ZeroSeries):
                op()
    else:
        assert solve_left(b, a) == sb.solve_left(b, a)
        assert b.inv() == sb.series_inv(b)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_series_kernels_match_reference(field, data):
    p = data.draw(polys(field, max_degree=4))
    q = data.draw(polys(field, max_degree=3))
    va = data.draw(st.integers(-2, 3))
    vb = data.draw(st.integers(-2, 3))
    prec = data.draw(st.integers(4, 12))
    _check_series(_series(p, va, prec), _series(q, vb, prec + vb))


@pytest.mark.parametrize("field", [GAUSS, HAMILTON, CUBIC], ids=["gauss", "hamilton", "cubic"])
def test_series_kernels_match_reference_fixed_seed(field):
    rng = random.Random(77)
    for _ in range(6):
        p = random_polynomial(field, rng, 4)
        q = random_polynomial(field, rng, 3)
        _check_series(_series(p, 0, 24), _series(q, 0, 24))
        _check_series(_series(p, -1, 20), _series(q, 2, 22))


def same_series(a, b):
    """Equal values, equal eager data and equal printed forms."""
    return a == b and sb.series_data(a) == sb.series_data(b) and str(a) == str(b)


def _check_series_ring(a, b):
    assert same_series(a + b, sb.series_add(a, b))
    assert same_series(a - b, sb.series_sub(a, b))
    assert same_series(-a, sb.series_neg(a))
    assert (a == b) == sb.series_eq(a, b)
    for prec in {a.prec + 1, a.prec, a.prec - 1, a.val + 1, a.val, a.val - 1}:
        if prec > a.prec:
            for op in (a.truncate, lambda p: sb.series_truncate(a, p)):
                with pytest.raises(InsufficientPrecision):
                    op(prec)
        else:
            assert same_series(a.truncate(prec), sb.series_truncate(a, prec))
    # a value built another way compares and hashes equal
    again = sb.series_sub(sb.series_add(a, b), b)
    cut = min(a.prec, b.prec)
    assert again == a.truncate(cut) and hash(again) == hash(a.truncate(cut))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_series_ring_operations_match_reference(field, data):
    p = data.draw(polys(field, max_degree=4))
    q = data.draw(polys(field, max_degree=4))
    va = data.draw(st.integers(-2, 4))
    vb = data.draw(st.integers(-2, 4))
    prec = data.draw(st.integers(-1, 10))
    a = _series(p, va, prec)
    b = _series(q, vb, prec + data.draw(st.integers(-3, 3)))
    _check_series_ring(a, b)
    _check_series_ring(b, a)
    _check_series_ring(a, a)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_series_ring_operations_match_reference_fixed_seed(field):
    rng = random.Random(404)
    zero = TwistedSeries.zero(field, 9)
    for _ in range(8):
        p = random_polynomial(field, rng, 5)
        q = random_polynomial(field, rng, 5)
        a, b = _series(p, rng.randint(-2, 3), 12), _series(q, rng.randint(-2, 3), 10)
        for x, y in ((a, b), (b, a), (a, -a), (a, zero), (zero, a), (a, a.truncate(6))):
            _check_series_ring(x, y)


# -- Newton lifting -------------------------------------------------------------------


def _invariant(field, rng):
    """A random element of the invariant subfield (possibly zero)."""
    coords = [Fraction(0)] * field.dim
    for w in field.invariant_basis:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        coords = [x + c * y for x, y in zip(coords, w)]
    return field.element(coords)


def _central_fraction(field, rng, poles):
    """num/den with invariant coefficients in t^n; den may vanish at t = 0."""
    n = field.sigma_order

    def poly(degree, low):
        coeffs = [field.zero()] * (n * (low + degree) + 1)
        for k in range(low, low + degree + 1):
            coeffs[n * k] = _invariant(field, rng)
        return SkewPolynomial.from_coeffs(field, coeffs)

    den = poly(rng.randint(0, 1), rng.randint(0, poles))
    if den.is_zero():
        den = SkewPolynomial.one(field)
    return SkewFraction.make(poly(rng.randint(0, 2), 0), den)


def _newton_case(field, rng):
    """(coefficients, seed, precision); the seed is usually a residual root,
    and the coefficients have poles at t = 0 about half the time."""
    poles = rng.choice([0, 0, 1, 2])
    coeffs = [_central_fraction(field, rng, poles) for _ in range(rng.randint(2, 4))]
    seed = _invariant(field, rng)
    if rng.random() < 0.8:
        # a_0 = -sum a_i seed^i + t^n r  makes f(seed) = t^n r
        s = SkewFraction.from_ground(seed)
        acc, power = SkewFraction.zero(field), SkewFraction.one(field)
        for a in coeffs[1:]:
            power = power * s
            acc = acc + a * power
        shift = SkewFraction.t_power(field, field.sigma_order)
        coeffs[0] = shift * _central_fraction(field, rng, poles) - acc
    return coeffs, seed, rng.randint(1, 14)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrefieldError as exc:
        return type(exc)


def _check_newton(coeffs, seed, precision):
    mine = _outcome(newton_root, coeffs, seed, precision)
    ref = _outcome(sb.newton_root, coeffs, seed, precision)
    if isinstance(ref, type):
        assert mine is ref
    else:
        assert not isinstance(mine, type), mine
        assert same_series(mine, ref)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_newton_root_matches_full_precision_loop(field, seed):
    _check_newton(*_newton_case(field, random.Random(seed)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_newton_root_matches_full_precision_loop_fixed_seed(field):
    rng = random.Random(1978)
    for _ in range(10):
        _check_newton(*_newton_case(field, rng))


def test_newton_root_matches_full_precision_loop_when_poles_cost_precision():
    """f = x^2 - 1 - t^(k+1) + (x - 1)^2 / t^k at the seed 1: every round
    loses precision to the poles, so long lifts run out of it."""
    field = RATIONALS
    outcomes = []
    for k in (1, 2):
        t_k = SkewPolynomial.t_power(field, k)

        def frac(*coeffs):
            return SkewFraction.make(SkewPolynomial.from_coeffs(field, list(coeffs)), t_k)

        coeffs = [frac(*([1] + [0] * (k - 1) + [-1] + [0] * k + [-1])), frac(-2), frac(*([1] + [0] * (k - 1) + [1]))]
        for precision in (8, 30, 64, 100):
            _check_newton(coeffs, field.one(), precision)
            outcomes.append(_outcome(newton_root, coeffs, field.one(), precision))
    assert InsufficientPrecision in outcomes and any(isinstance(x, TwistedSeries) for x in outcomes)


# -- one path for every field ---------------------------------------------------------

_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_field_runs_on_integer_rows(field, monkeypatch):
    """Products, divisions, Euclidean loops, series recurrences, series
    sums, negation, truncation and comparison, and the reduction, inversion
    and comparison of fractions do no Fraction arithmetic at all once their
    operands are in row form."""
    rng = random.Random(5)
    f = random_polynomial(field, rng, 4) * SkewPolynomial.t_power(field, 2)
    g = random_polynomial(field, rng, 3) + SkewPolynomial.t_power(field, 3)
    d = g + SkewPolynomial.one(field)
    sf, sg = TwistedSeries.from_polynomial(f, 16), TwistedSeries.from_polynomial(d, 16)
    for x in (f, g, d, sf, sg):
        x.int_rows()

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic inside an integer-row kernel")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, forbidden)
    f * g
    f.divmod_left(g)
    f.divmod_right(g)
    gcld(f * d, g * d)
    ore_witness(f, g)
    common_left_multiple(f, g)
    sf * sg
    solve_left(sg, sf)
    sg.inv()
    sf + sg
    sf - sg
    -sf
    sf.truncate(9)
    sf == sg
    x = SkewFraction.make(f, g * d)
    x.inv() == x
    monkeypatch.undo()
    with pytest.raises(AssertionError):
        for name in _ARITHMETIC:
            monkeypatch.setattr(Fraction, name, forbidden)
        sb.poly_mul(f, g)
