"""The integer-row kernels against the schoolbook reference routines.

Every kernel result must equal, exactly, what the straightforward Fraction
implementation in `schoolbook` computes, on random inputs (hypothesis plus
fixed seeds) over every shipped field and over fields whose structure
constants or automorphism matrices are not integral.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schoolbook as sb
from conftest import ALL_FIELDS, GAUSS, HAMILTON, RATIONALS, ROOT2, elements, fractions_of, nonzero_polys, polys
from orefield.errors import (
    DivisionByZero,
    InsufficientPrecision,
    MixedFields,
    NotInvertible,
    OrefieldError,
    ZeroSeries,
)
from orefield.ground import make_number_field, make_quaternions
from orefield import kernel
from orefield.laurent import CentralSeries, TwistedSeries, embed_fraction, newton_root, solve_left
from orefield.sampling import (
    random_element,
    random_fraction,
    random_nonzero_element,
    random_nonzero_polynomial,
    random_polynomial,
)
from orefield.skewfrac import CENTER_DEGREE_CAP, SkewFraction, center_basis
from orefield.factor import content as fcontent
from orefield.skewpoly import (
    SkewPolynomial,
    _trace,
    central_polynomial,
    common_left_multiple,
    gcld,
    norm_conjugate,
    ore_witness,
)

# i^2 = -1/2: the structure constants have denominator 2
HALF_QUATERNIONS = make_quaternions(Fraction(-1, 2), -3, name="(-1/2,-3)")
# y = 2*theta for theta^3 - 3 theta + 1 = 0; sigma(y) = y^2/2 - 4 has a
# denominator, and its degree 3 takes the Cayley-Hamilton ground adjugate
CUBIC = make_number_field([8, -12, 0, 1], sigma_image=[-4, 0, Fraction(1, 2)], name="cubic")
STATIC_ROOT2 = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
# y^2 + y + 1: a quadratic with a nonzero y-coefficient
EISENSTEIN = make_number_field([1, 1, 1], sigma_image=[-1, -1], name="Q(w)/conj")
# the fifth cyclotomic field with sigma(z) = z^2 of order 4: its ground
# adjugate divides by 3 in Newton's identities, and its norm conjugate has
# reduced degree 4 over a commutative ground
ZETA5 = make_number_field([1, 1, 1, 1, 1], sigma_image=[0, 0, 1, 0], name="Q(zeta5)")
# definite quaternions over the real quadratic field Q[y]/(y^2 - y - 1): the
# adjugate goes through the norm of the base field
H_GOLDEN = make_quaternions(-1, -1, min_poly=[-1, -1, 1], name="H over Q(sqrt5)")

FIELDS = ALL_FIELDS + [HALF_QUATERNIONS, CUBIC, STATIC_ROOT2, EISENSTEIN, ZETA5]
FIELD_IDS = [f.name for f in FIELDS]
# quaternions over Q(sqrt2) with sigma(sqrt2) = -sqrt2: reduced degree 4, and
# the full norm of left multiplication has four times the degree of the
# minimal central multiple
H_FLIP = make_quaternions(-1, -1, min_poly=[-2, 0, 1], sigma_image=[0, -1], name="H over Q(sqrt2)/flip")
NORM_FIELDS = FIELDS + [H_GOLDEN, H_FLIP]
NORM_IDS = [f.name for f in NORM_FIELDS]


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


# R, the big-integer products per pair of rows in a series product
PAIRED_RANKS = {"Q": 1, "Q(i)/conj": 3, "H_Q": 10, "cubic": 6, "Q(zeta5)": 10, "H over Q(sqrt5)": 36}


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_paired_forms_give_the_product(field):
    """kcombine(L_r(a) * R_r(b)) = dT * a*b in every coordinate, on integer
    rows of 1 to 700 bits, with at most dim^2 products and the pinned
    counts where they are known."""
    rng = random.Random(59)
    assert field.mul_rank <= field.dim**2
    assert field.mul_rank == PAIRED_RANKS.get(field.name, field.mul_rank)
    for bits in (1, 3, 40, 300, 700):
        for _ in range(6):
            a, b = ([rng.randint(-(2**bits), 2**bits) for _ in range(field.dim)] for _ in range(2))
            products = tuple(x * y for x, y in zip(field.kleft(a), field.kright(b)))
            assert len(products) == field.mul_rank
            expected = tuple(field.mul_den * x for x in sb.mul_coords(field, a, b))
            assert field.kcombine(products) == expected


def test_rational_paired_forms_are_the_identity():
    row = (5,)
    assert RATIONALS.kleft(row) is RATIONALS.kright(row) is RATIONALS.kcombine(row) is row


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


def _check_construction_paths(field, coeffs, scale, power):
    """A polynomial built from its coefficients (also given straight to the
    constructor, with a zero on top), from its rows (times a scale, with a
    zero row on top) and by the named constructor that makes it, when one
    does: equal, with the same hash, print, degree, coefficients, leading
    coefficient, negative and twist, which match the coefficientwise ones."""
    made = SkewPolynomial.from_coeffs(field, coeffs)
    rows, den = kernel.rows_of(made.coeffs)
    paths = [made, SkewPolynomial(field, (*coeffs, field.zero()))]
    paths.append(SkewPolynomial._from_rows(field, kernel.scale(rows, scale) + [field.zero_row], den * scale))
    nonzero = [m for m, c in enumerate(made.coeffs) if not c.is_zero()]
    if not nonzero:
        paths.append(SkewPolynomial.zero(field))
    elif nonzero == [made.degree]:
        lead = made.coeffs[-1]
        paths.append(SkewPolynomial.t_power(field, made.degree, lead))
        if made.degree == 0:
            paths.append(SkewPolynomial.constant(field, lead))
            if lead == field.one():
                paths.append(SkewPolynomial.one(field))
    for p in paths:
        assert p == made and hash(p) == hash(made) and str(p) == str(made) and p + SkewPolynomial.one(field) != made
        assert p.degree == made.degree == len(made.coeffs) - 1 and p.coeffs == made.coeffs
        if made.coeffs:
            assert p.leading() == made.coeffs[-1]
        assert same(-p, SkewPolynomial.from_coeffs(field, [-c for c in made.coeffs]))
        assert same(p.apply_sigma(power), SkewPolynomial.from_coeffs(field, [c.sigma(power) for c in made.coeffs]))


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_construction_path_gives_the_same_polynomial(field, data):
    coeffs = data.draw(st.lists(st.one_of(elements(field), st.just(field.zero())), max_size=4))
    scale = data.draw(st.integers(-6, 6).filter(bool))
    _check_construction_paths(field, coeffs, scale, data.draw(st.integers(-3, 3)))


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_every_construction_path_gives_the_same_polynomial_fixed_seed(field):
    rng = random.Random(23)
    monomials = [[], [field.one()], [random_nonzero_element(field, rng)], [field.zero()] * 2 + [random_nonzero_element(field, rng)]]
    for coeffs in monomials + [random_polynomial(field, rng, 4).coeffs for _ in range(6)]:
        _check_construction_paths(field, list(coeffs), rng.choice([-3, -1, 1, 2, 5]), rng.randrange(-3, 4))


# the row routines over every catalog field, the invariant subfield Q(sqrt2)
# (sigma = id), a cubic twist and quaternions over Q(sqrt5): dimensions 1 to
# 8, twists of order 1 to 3, and both forms of `kernel.central_sum`
ROW_FIELDS = ALL_FIELDS + [STATIC_ROOT2, CUBIC, H_GOLDEN]
ROW_IDS = [f.name for f in ROW_FIELDS]


def _padded_sum(field, *parts):
    out = []
    for rows in parts:
        out = kernel.lincomb(out, 1, rows, 1, field.zero_row)
    return out


def _check_row_products(field, f, g, h, c, b):
    """`mul_into` accumulates what separate `mul_rows` calls make, and
    `central_rows` is the old `times_central` loop, alone, summed and cut."""
    zero = field.zero_row
    expected = _padded_sum(field, sb.mul_rows(field, f, g), sb.mul_rows(field, h, f))
    out = [zero] * len(expected)
    kernel.mul_into(field, out, f, g)
    kernel.mul_into(field, out, h, f)
    assert out == expected
    assert kernel.mul_rows(field, f, g) == sb.mul_rows(field, f, g)
    alone = sb.times_central_rows(field, f, c)
    assert kernel.central_rows(field, [(f, c)]) == alone
    both = _padded_sum(field, alone, sb.times_central_rows(field, g, b))
    assert kernel.central_rows(field, [(f, c), (g, b)]) == both
    assert kernel.central_rows(field, [(f, c), (g, b)], len(both) // 2) == both[: len(both) // 2]
    # c(t^n) as an element of the center, in the form central_sum reads
    p, q = SkewPolynomial._from_rows(field, f, 1), central_polynomial(field, c)
    rows, k = kernel.central_sum(field, [(f, kernel.center(field).lift(c))])
    assert SkewPolynomial._from_rows(field, rows, k) == p * q


def int_rows(field, max_len=5):
    """Integer rows, a third of them zero."""
    row = st.tuples(*[st.integers(-9, 9)] * field.dim)
    return st.lists(st.one_of(row, row, st.just(field.zero_row)), max_size=max_len)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=ROW_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_accumulating_and_central_row_products_match_the_loops(field, data):
    f, g, h = (data.draw(int_rows(field)) for _ in range(3))
    c, b = (data.draw(st.lists(st.integers(-3, 3), max_size=10)) for _ in range(2))
    _check_row_products(field, f, g, h, c, b)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=ROW_IDS)
def test_accumulating_and_central_row_products_match_the_loops_fixed_seed(field):
    rng = random.Random(19)
    zero = field.zero_row

    def rows(size):
        return [zero if rng.random() < 0.3 else tuple(rng.randint(-99, 99) for _ in zero) for _ in range(size)]

    for size in range(6):
        f, g, h = rows(size + 1), rows(size), rows(3)
        dense = [rng.randint(1, 9) for _ in range(field.dim + size)]
        # a one-term c, a dense one and one with zero coefficients
        for c, b in (([rng.randint(-5, 5)], dense), (dense, [0, 0, 3]), ([1], [])):
            _check_row_products(field, f, g, h, c, b)


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


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_fraction_powers_match_repeated_products(field, monkeypatch):
    """x ** k is the product of |k| factors x (or x^-1), and x ** -1 is the
    inverse itself: no `make`, so no multiplication by one."""
    rng = random.Random(61)
    one = SkewFraction.one(field)
    for _ in range(3):
        x = SkewFraction.make(random_nonzero_polynomial(field, rng, 2), random_nonzero_polynomial(field, rng, 2))
        for k in range(-3, 4):
            factor, expected = x if k > 0 else x.inv(), one
            for _ in range(abs(k)):
                expected = expected * factor
            assert same_fraction(x ** k, expected)
        calls = []
        make = SkewFraction.make

        def counting(num, den):
            calls.append(1)
            return make(num, den)

        monkeypatch.setattr(SkewFraction, "make", staticmethod(counting))
        assert same_fraction(x ** -1, x.inv())
        monkeypatch.undo()
        assert not calls


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


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
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


SHAPES = ("dense", "runs", "center")


def _big_series(field, rng, val, prec, shape):
    """A series at t^val + O(t^prec) with 150-700-bit numerators over a
    common denominator: dense, with runs of zero rows ("runs"), or on the
    exponents divisible by n only ("center")."""
    n = field.sigma_order
    den = rng.choice((1, 1, 3, 2**61 - 1))
    coeffs = []
    for k in range(prec - val):
        if (shape == "runs" and k % 7 in (2, 3, 4)) or (shape == "center" and (val + k) % n):
            coeffs.append(0)
        else:
            coeffs.append(
                [Fraction(rng.getrandbits(rng.randint(150, 700)) * rng.choice((1, -1)), den) for _ in range(field.dim)]
            )
    return TwistedSeries.make(field, val, coeffs, prec)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_series_products_match_reference_at_benchmark_sizes(field, data):
    seed = data.draw(st.integers(0, 2**32))
    va, vb = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    prec = data.draw(st.integers(48, 52))
    shape = data.draw(st.sampled_from(SHAPES))
    rng = random.Random(seed)
    a = _big_series(field, rng, va, va + prec, shape)
    b = _big_series(field, rng, vb, vb + prec, "dense")
    assert a * b == sb.series_mul(a, b)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_series_products_match_reference_at_benchmark_sizes_fixed_seed(field):
    """Every left shape against a dense right operand at precision 48 and
    valuations -3 .. 3, and a right operand with zero runs."""
    rng = random.Random(4848)
    for shape, (va, vb) in zip(SHAPES, ((-3, 3), (1, 2), (0, -1))):
        a = _big_series(field, rng, va, va + 48, shape)
        b = _big_series(field, rng, vb, vb + 48, "dense")
        assert a * b == sb.series_mul(a, b)
    b = _big_series(field, rng, -2, 46, "runs")
    assert a * b == sb.series_mul(a, b)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_series_division_matches_reference_at_every_valuation(field):
    """Inverses and left quotients through the center equal the schoolbook
    recurrence (value, valuation and precision) for divisors of valuation
    -3 .. 3, odd ones included where n = 2 or 4, for divisors known only at
    their valuation or one coefficient past it, and for central divisors,
    which divide a twisted series coordinate by coordinate."""
    rng = random.Random(314)
    n = field.sigma_order
    for v in range(-3, 4):
        lead = [random_nonzero_element(field, rng)] + [random_element(field, rng) for _ in range(3)]
        den = _series(SkewPolynomial.from_coeffs(field, lead), v, v + 9)
        assert den.val == v
        num = _series(random_polynomial(field, rng, 4), rng.randint(-2, 3), 10)
        _check_series(num, den)
        central = central_polynomial(field, [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(2)])
        _check_series(num, _series(central, n * v, n * v + 7))
        for known in (1, 2):
            short = den.truncate(den.val + known)
            assert short.inv() == sb.series_inv(short)
            _check_series(num, short)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_solve_left_keeps_the_pessimistic_precision_rule(field):
    """With num.val > den.val the quotient of the known parts is known past
    den.prec - den.val; `solve_left` still states the rule's precision."""
    rng = random.Random(2718)
    for dv, nv in ((0, 3), (-1, 2), (1, 5), (2, 3)):
        den = _series(random_nonzero_polynomial(field, rng, 2), dv, dv + 6)
        num = _series(random_nonzero_polynomial(field, rng, 3), nv, nv + 12)
        x = solve_left(den, num)
        assert x.prec == min(den.prec - 2 * dv + nv, den.prec - dv, num.prec - dv)
        assert x == sb.solve_left(den, num)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_embedding_with_a_denominator_of_positive_valuation_matches_reference(field):
    rng = random.Random(1618)
    for low in (1, 2, 3):
        den = random_nonzero_polynomial(field, rng, 2) * SkewPolynomial.t_power(field, low)
        x = SkewFraction.make(random_polynomial(field, rng, 3), den)
        for prec in (1, 4, 9):
            assert embed_fraction(x, prec) == sb._embed(x, prec)


SPLIT = make_quaternions(1, 1)


def test_zero_norm_leading_coefficients_keep_their_error():
    """Over the split algebra (1,1 / Q), 1 + i is a nonzero zero divisor: a
    series led by it has no inverse, and neither division through the
    center nor an embedding returns one.  A leading coefficient of nonzero
    norm still inverts, whatever the norms further on."""
    zero_norm, unit = [1, 1, 0, 0], [2, 1, 0, 0]
    for v in (0, 1):
        s = TwistedSeries.make(SPLIT, v, [zero_norm, [0, 1, 1, 0], 1], v + 6)
        num = TwistedSeries.make(SPLIT, 0, [1, [0, 0, 2, 1]], 8)
        den = SkewPolynomial.from_coeffs(SPLIT, [0] * v + [zero_norm, 1])
        x = SkewFraction.make(SkewPolynomial.one(SPLIT), den)
        for op in (s.inv, lambda: solve_left(s, num), lambda: embed_fraction(x, 6)):
            with pytest.raises(NotInvertible, match="not a division ring"):
                op()
    s = TwistedSeries.make(SPLIT, -1, [unit, zero_norm, [0, 3, 0, 1]], 6)
    assert s.inv() == sb.series_inv(s)
    assert solve_left(s, s) == sb.solve_left(s, s)


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


# -- central series ---------------------------------------------------------------------

# n = 1, 1, 2, 3: every one has the invariant subfield Q
CENTRAL_FIELDS = [RATIONALS, HAMILTON, GAUSS, CUBIC]
CENTRAL_IDS = [f.name for f in CENTRAL_FIELDS]
# and two with K' = Q(sqrt2) and Q(sqrt5), with the basis 1, e_1 of K'
SERIES_FIELDS = CENTRAL_FIELDS + [STATIC_ROOT2, H_GOLDEN]
SERIES_IDS = [f.name for f in SERIES_FIELDS]


def _central(field, ints, den, val_u, prec):
    """(CentralSeries, TwistedSeries) of sum_k ints[k]/den t^(n*(val_u + k)) + O(t^prec),
    an entry of ints an integer or the pair of coordinates of an element of K'
    on 1 and e_1."""
    n = field.sigma_order
    coeffs = []
    for c in ints:
        coords = [Fraction(x, den) for x in (c if isinstance(c, tuple) else (c,))]
        coeffs += [coords + [0] * (field.dim - len(coords))] + [0] * (n - 1)
    twisted = TwistedSeries.make(field, n * val_u, coeffs, prec)
    central = CentralSeries.from_twisted(twisted)
    assert central is not None and central.to_twisted() == twisted
    return central, twisted


def _same_central(c, t):
    """c is t's central form: equal values, precision and printed form."""
    return c.to_twisted() == t and CentralSeries.from_twisted(t) == c and str(c) == str(t)


def _check_central(a, ta, b, tb):
    """The central operations against the twisted ones, and the divisions,
    which the twisted series also run on the center, against the schoolbook
    recurrences."""
    assert _same_central(a + b, ta + tb)
    assert _same_central(a - b, ta - tb)
    assert _same_central(-a, -ta)
    assert _same_central(a * b, ta * tb)
    assert (a == b) == (ta == tb)
    if a == b:
        assert hash(a) == hash(b)
    for x, tx in ((a, ta), (b, tb)):
        if tx.is_zero():
            for op in (x.inv, tx.inv, lambda: x.solve_left(a), lambda: solve_left(tx, ta)):
                with pytest.raises(ZeroSeries):
                    op()
        else:
            assert _same_central(x.inv(), tx.inv())
            assert _same_central(x.solve_left(a), solve_left(tx, ta))
            assert _same_central(x.solve_left(b), solve_left(tx, tb))
            assert sb.series_eq(x.inv().to_twisted(), sb.series_inv(tx))
            assert sb.series_eq(x.solve_left(a).to_twisted(), sb.solve_left(tx, ta))
    for prec in {a.prec + 1, a.prec, a.prec - 1, a.val + 1, a.val, a.val - 1}:
        if prec > a.prec:
            with pytest.raises(InsufficientPrecision):
                a.truncate(prec)
        else:
            assert _same_central(a.truncate(prec), ta.truncate(prec))


def _random_central(field, rng):
    def entry():
        if field.invariant_degree == 1:
            return rng.randint(-4, 4)
        return (rng.randint(-4, 4), rng.randint(-4, 4))

    ints = [entry() if rng.random() < 0.7 else 0 for _ in range(rng.randint(0, 6))]
    val_u = rng.randint(-2, 2)
    prec = field.sigma_order * val_u + rng.randint(-1, 13)
    return _central(field, ints, rng.randint(1, 6), val_u, prec)


@pytest.mark.parametrize("field", SERIES_FIELDS, ids=SERIES_IDS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_central_series_match_twisted_series(field, seed):
    rng = random.Random(seed)
    (a, ta), (b, tb) = _random_central(field, rng), _random_central(field, rng)
    _check_central(a, ta, b, tb)
    _check_central(b, tb, a, ta)


@pytest.mark.parametrize("field", SERIES_FIELDS, ids=SERIES_IDS)
def test_central_series_match_twisted_series_fixed_seed(field):
    rng = random.Random(2024)
    n = field.sigma_order
    zero = _central(field, [], 1, 0, 7)
    for _ in range(10):
        (a, ta), (b, tb) = _random_central(field, rng), _random_central(field, rng)
        # odd t-precisions, a cut below the valuation, and zero results
        cut = a.val + 2 * n + 1 if a.val + 2 * n + 1 <= a.prec else a.prec
        pairs = [(b, tb), (a, ta), (-a, -ta), zero, (a.truncate(cut), ta.truncate(cut))]
        for x, tx in pairs:
            _check_central(a, ta, x, tx)
            _check_central(x, tx, a, ta)
    assert (a - a).is_zero() and _same_central(a - a, ta - ta)


def test_central_series_keep_pessimistic_precision():
    """1/(u - u^2) at n = 2 from  u - u^2 + O(t^7):  valuation -2, known to
    O(t^3)."""
    a, ta = _central(GAUSS, [1, -1], 1, 1, 7)
    inv = a.inv()
    assert (inv.val, inv.prec) == (-2, 3) and inv.int_coeffs() == ([1, 1, 1], 1)
    assert str(inv) == "[1,0]*t^-2 + [1,0] + [1,0]*t^2 + O(t^3)"
    # a product gains the precision of the other factor's valuation:
    # min(7 + 0, 5 + 2)
    s, _ = _central(GAUSS, [3], 2, 0, 5)
    assert (a * s).prec == 7 and (s * a).prec == 7


def test_only_rational_series_on_the_center_convert():
    n = GAUSS.sigma_order
    assert n == 2
    assert CentralSeries.from_twisted(TwistedSeries.make(GAUSS, 0, [[1, 0], [1, 0]], 4)) is None
    assert CentralSeries.from_twisted(TwistedSeries.make(GAUSS, 1, [[1, 0]], 4)) is None
    assert CentralSeries.from_twisted(TwistedSeries.make(GAUSS, 0, [[1, 1]], 4)) is None
    assert CentralSeries.from_twisted(TwistedSeries.make(HAMILTON, 0, [[0, 0, 1, 0]], 4)) is None
    zero = CentralSeries.from_twisted(TwistedSeries.zero(GAUSS, 3))
    assert zero.is_zero() and zero.prec == 3 and zero == CentralSeries.zero(GAUSS, 3)


@pytest.mark.parametrize("field", CENTRAL_FIELDS, ids=CENTRAL_IDS)
def test_central_embedding_matches_embed_fraction(field):
    rng = random.Random(77)
    n = field.sigma_order
    for _ in range(12):
        num = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den[-1] = 1
        prec = rng.randint(0, 12)
        x = SkewFraction.make(_upoly(field, num), _upoly(field, den))
        assert _same_central(CentralSeries.embed(field, num, den, prec), embed_fraction(x, prec))


def _upoly(field, c):
    """sum c[k] u^k with u = t^n."""
    rows = []
    for a in c:
        rows += [a] + [0] * (field.sigma_order - 1)
    return SkewPolynomial.from_coeffs(field, rows)


@pytest.mark.parametrize("field", CENTRAL_FIELDS, ids=CENTRAL_IDS)
def test_embed_fraction_at_or_below_the_valuation_is_zero(field):
    n = field.sigma_order
    t = SkewFraction.t_power(field, 1)
    for prec in range(-2, 2):
        assert embed_fraction(t, prec) == TwistedSeries.zero(field, prec)
    assert embed_fraction(t, 2).val == 1
    # u^a / (u^b (1 + u)) has valuation n(a - b): the zero series up to that
    # precision, whatever the valuation b of the denominator, and nonzero past it
    for a, b in ((0, 0), (2, 0), (0, 1), (1, 2), (2, 1)):
        num, den = [0] * a + [1], [0] * b + [1, 1]
        x = SkewFraction.make(_upoly(field, num), _upoly(field, den))
        v = n * (a - b)
        for prec in range(min(v, -n * b) - 2, v + 3):
            value = embed_fraction(x, prec)
            assert value.prec == prec and value.is_zero() == (prec <= v)
            assert _same_central(CentralSeries.embed(field, num, den, prec), value)


def test_newton_root_runs_on_the_center(monkeypatch):
    """The lift makes no twisted series product over any invariant subfield
    K': it runs on K'((u)), Q(sqrt2)((u)) over Q(sqrt2)/id and over H over
    Q(sqrt5)."""
    calls = []
    original = kernel.series_mul_rows
    monkeypatch.setattr(kernel, "series_mul_rows", lambda *a: calls.append(1) or original(*a))
    for field in (HAMILTON, GAUSS, CUBIC, STATIC_ROOT2, H_GOLDEN):
        n = field.sigma_order
        one_plus_u = SkewPolynomial.from_coeffs(field, [1] + [0] * (n - 1) + [1])
        coeffs = [SkewFraction.from_polynomial(-one_plus_u), SkewFraction.zero(field), SkewFraction.one(field)]
        root = newton_root(coeffs, field.one(), 20)
        assert root == sb.newton_root(coeffs, field.one(), 20)
    # x^2 - (3 + 2 sqrt2) - t at the seed 1 + sqrt2, off Q
    coeffs = [SkewFraction.coerce(STATIC_ROOT2, c) for c in ([-3, -2], 0, 1)]
    coeffs[0] = coeffs[0] - SkewFraction.t_power(STATIC_ROOT2, 1)
    seed = STATIC_ROOT2.element([1, 1])
    assert newton_root(coeffs, seed, 10) == sb.newton_root(coeffs, seed, 10)
    assert calls == []


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


# -- norm conjugates ------------------------------------------------------------------

# the fields of reduced degree at most 2 over the invariant subfield Q: c is
# the reduced norm, uncut; every other field cuts it to the minimal multiple
REDUCED_NORM_FIELDS = [RATIONALS, GAUSS, HAMILTON, ROOT2, HALF_QUATERNIONS, EISENSTEIN]


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_multiplication_matrices_and_derived_bases_match_the_fraction_products(field):
    rng = random.Random(83)
    for e in [sb._unit(field.dim, j) for j in range(field.dim)] + [random_element(field, rng).coords]:
        assert field._mult_matrices(e) == sb.mult_matrices(field, e)
    assert field.center_basis == sb.center_basis(field)
    assert field.invariant_basis == sb.invariant_basis(field)
    if len(field.invariant_basis) == 1:
        # a rational invariant subfield is spanned by 1: its anchor is coordinate 0
        assert field.invariant_basis == ((1,) + (0,) * (field.dim - 1),)
    assert field.h_basis == sb.h_basis(field)


def _check_norm_conjugate(p):
    q, c = norm_conjugate(p)
    assert c and c[-1] > 0 and fcontent(c) == 1
    central = central_polynomial(p.field, c)
    assert q * p == central and p * q == central
    assert central.is_invariant_central()
    if p.field not in REDUCED_NORM_FIELDS:
        assert sb.reduce_central(c, [q])[0] == c
    return q, c


def _central_poly(field, rng):
    coeffs = [field.zero()] * (field.sigma_order * 2 + 1)
    for k in range(3):
        coeffs[k * field.sigma_order] = _invariant(field, rng)
    coeffs[-1] = coeffs[-1] if not coeffs[-1].is_zero() else field.one()
    return SkewPolynomial.from_coeffs(field, coeffs)


def _centrality_cases(field, rng, noise):
    """A central fraction, given with a common left factor that `make`
    cancels, and three fractions near it: moved by noise, times t, and the
    noise alone."""
    g = random_nonzero_polynomial(field, rng, 1)
    central = SkewFraction.make(g * _central_poly(field, rng), g * _central_poly(field, rng))
    return central, [central + noise, central * SkewFraction.t_power(field), noise]


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_row_test_of_the_center_matches_the_ore_products(field, data):
    rng = data.draw(st.randoms(use_true_random=False))
    central, others = _centrality_cases(field, rng, data.draw(fractions_of(field, 1, 2)))
    assert central.is_invariant_central() and sb.is_central(central)
    for x in others:
        assert x.is_invariant_central() == sb.is_central(x)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_row_test_of_the_center_matches_the_ore_products_at_fixed_seeds(field):
    rng = random.Random(47)
    for _ in range(3):
        central, others = _centrality_cases(field, rng, random_fraction(field, rng, 1, 2))
        assert central.is_invariant_central() and sb.is_central(central, trials=2, rng=rng)
        for x in others:
            assert x.is_invariant_central() == sb.is_central(x, trials=2, rng=rng)


def test_pinned_centrality_verdicts_match_the_ore_products():
    """The fractions `test_skewfrac` pins the row test on, with the random
    commutation trials they were once checked with."""
    num = SkewPolynomial.from_coeffs(GAUSS, [1, 0, 1])
    den = SkewPolynomial.from_coeffs(GAUSS, [2, 0, 0, 0, 1])
    cases = [
        (SkewFraction.t_power(GAUSS, 2), 5),
        (SkewFraction.t_power(GAUSS), 0),
        (SkewFraction.from_ground(GAUSS.element([0, 1])), 0),
        (SkewFraction.t_power(HAMILTON), 0),
        (SkewFraction.from_ground(HAMILTON.basis_element(1)), 0),
        (SkewFraction.make(num, den), 3),
    ]
    for x, trials in cases:
        assert x.is_invariant_central() == sb.is_central(x, trials=trials)


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_center_basis_matches_the_commutation_search(field):
    search = sb.center_by_commutation(field, CENTER_DEGREE_CAP)
    for degree in range(CENTER_DEGREE_CAP + 1):
        expected = [str(p) for p in search if p.degree <= degree]
        assert [str(p) for p in center_basis(field, degree)] == expected


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_reduced_degree_and_reduced_trace(field):
    """m^2 w = dim n, Trd(1) = m, Trd(p) = m p for invariant-central p, and
    Trd(p) is invariant central for any p."""
    m, w = field.reduced_degree, field.invariant_degree
    assert w == len(field.invariant_basis)
    assert m * m * w == field.dim * field.sigma_order

    def trd(p):
        return _trace(p, field.ktrd, field.trd_den)

    one = SkewPolynomial.one(field)
    assert trd(one) == SkewPolynomial.constant(field, m)
    rng = random.Random(29)
    for _ in range(4):
        p = _central_poly(field, rng)
        assert trd(p) == SkewPolynomial.constant(field, m) * p
        assert trd(random_polynomial(field, rng, 5)).is_invariant_central()


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_norm_conjugate_is_central(field, data):
    _check_norm_conjugate(data.draw(nonzero_polys(field)))


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_norm_conjugate_is_central_fixed_seed(field):
    rng = random.Random(41)
    for _ in range(5):
        _check_norm_conjugate(random_nonzero_polynomial(field, rng, 4))
        e = random_nonzero_element(field, rng)
        _check_norm_conjugate(SkewPolynomial.constant(field, e))
        _check_norm_conjugate(SkewPolynomial.t_power(field, rng.randint(1, 5), e))
        _check_norm_conjugate(_central_poly(field, rng))


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_closed_form_norm_conjugates_match_the_bareiss_rule(field):
    """The Cayley-Hamilton rule and the adjugate of left multiplication
    (`schoolbook.bareiss_norm_conjugate`) both give p^-1 = c^-1 * q; reduced
    to the minimal central multiple c of p they are the same canonical pair."""
    rng = random.Random(43)
    cases = [random_nonzero_polynomial(field, rng, 3) for _ in range(6)]
    cases += [SkewPolynomial.t_power(field, 3, random_nonzero_element(field, rng)), _central_poly(field, rng)]
    for p in cases:
        q, c = norm_conjugate(p)
        adj, full = sb.bareiss_norm_conjugate(p)
        assert adj * p == central_polynomial(field, full)
        mine, bareiss = sb.reduce_central(c, [q]), sb.reduce_central(full, [adj])
        assert mine[0] == bareiss[0] and mine[1] == bareiss[1]


def _conjugate_pair(p, w):
    """(w / lam, c) for the lam that makes  w * p = lam * c(t^n)  with c
    primitive and a positive leading coefficient, written out in Fractions."""
    field = p.field
    prod = w * p
    values = [prod.coefficient(k).coords[0] for k in range(0, prod.degree + 1, field.sigma_order)]
    den = lcm(*(x.denominator for x in values))
    ints = [int(x * den) for x in values]
    lam = Fraction(gcd(*ints) * (1 if ints[-1] > 0 else -1), den)
    scaled = [field.element([x / lam for x in a.coords]) for a in w.coeffs]
    return SkewPolynomial.from_coeffs(field, scaled), [int(x / lam) for x in values]


@pytest.mark.parametrize("field", [RATIONALS, GAUSS, HAMILTON], ids=["Q", "gauss", "hamilton"])
def test_norm_conjugate_keeps_the_closed_forms(field):
    """Over Q, Q(i) and H_Q the pair is the written-out closed form: a
    rational constant, sigma(a) - b*t for p = a + b*t (a, b in Q(i)[t^2]),
    and the coefficientwise quaternion conjugate."""
    rng = random.Random(47)
    for _ in range(10):
        p = random_nonzero_polynomial(field, rng, 4)
        if field is RATIONALS:
            w = SkewPolynomial.one(field)
        elif field is GAUSS:
            w = SkewPolynomial.from_coeffs(
                field, [a.sigma() if k % 2 == 0 else -a for k, a in enumerate(p.coeffs)]
            )
        else:
            w = SkewPolynomial.from_coeffs(
                field, [[a.coords[0]] + [-x for x in a.coords[1:]] for a in p.coeffs]
            )
        q, c = norm_conjugate(p)
        expected_q, expected_c = _conjugate_pair(p, w)
        assert c == expected_c and same(q, expected_q)


def test_split_algebra_norm_conjugate_raises_on_zero_norm():
    """In the split algebra (1, 1 / Q), 1 + i has reduced norm 0, and so has
    every multiple of it; a polynomial of nonzero norm still gets one."""
    split = make_quaternions(1, 1, name="split")
    zero_norm = SkewPolynomial.from_coeffs(split, [[1, 1, 0, 0]])
    one_plus_t = SkewPolynomial.from_coeffs(split, [1, 1])
    for p in (zero_norm, zero_norm * one_plus_t):
        with pytest.raises(NotInvertible):
            norm_conjugate(p)
    p = SkewPolynomial.from_coeffs(split, [[1, 0, 1, 0], [0, 2, 0, 1], [3, 0, 0, 0]])
    q, c = norm_conjugate(p)
    central = central_polynomial(split, c)
    assert q * p == central and p * q == central


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_norm_conjugates_and_ground_adjugates_run_on_integer_rows(field, monkeypatch):
    """`norm_conjugate` and the ground adjugate `kadj` (Newton's identities
    over Z for base fields of degree 3 and up) do no Fraction arithmetic."""
    rng = random.Random(53)
    cases = [random_nonzero_polynomial(field, rng, 3) for _ in range(3)] + [_central_poly(field, rng)]
    rows = [p.int_rows()[0][-1] for p in cases]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in a norm conjugate or adjugate")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, forbidden)
    for p in cases:
        norm_conjugate(p)
    for a in rows:
        field.kadj(a)
