"""Twisted Laurent series: precision bookkeeping, inversion, embedding, Newton."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook as sb
from orefield import laurent
from orefield.errors import (
    InsufficientPrecision,
    NoResidualRoot,
    NotInvariantSeries,
    NotSimpleRoot,
    ZeroSeries,
)
from orefield.laurent import (
    CentralSeries,
    TwistedSeries,
    embed_fraction,
    evaluate_poly,
    is_invariant_series,
    newton_root,
    solve_left,
)
from orefield.sampling import random_fraction
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial

from conftest import GAUSS, HAMILTON, RATIONALS

F = Fraction


def P(field, *coeffs):
    return SkewPolynomial.from_coeffs(field, list(coeffs))


def binomial_half(k: int) -> Fraction:
    """Coefficient of t^k in the square root of 1 + t."""
    num = Fraction(1)
    for m in range(k):
        num *= Fraction(1, 2) - m
    return num / factorial(k)


# --------------------------------------------------------------- normalisation

def test_zero_series_normal_form():
    s = TwistedSeries.make(GAUSS, 0, [GAUSS.zero(), GAUSS.zero()], 5)
    assert s.is_zero()
    assert s.val == s.prec == 5
    assert str(s) == "O(t^5)"


def test_leading_zero_coefficients_raise_valuation():
    s = TwistedSeries.make(GAUSS, -1, [0, 0, [1, 0], [0, 1]], 4)
    assert s.val == 1
    assert s.coefficient(1) == GAUSS.one()
    assert str(s) == "[1,0]*t + [0,1]*t^2 + O(t^4)"


def central_pair(val, values, prec):
    """sum_k values[k] t^(val + 2k) + O(t^prec) over Q(i), u = t^2, as a
    twisted and as a central series."""
    coeffs = [c for a in values for c in ([a, 0], 0)]
    twisted = TwistedSeries.make(GAUSS, val, coeffs, prec)
    return twisted, CentralSeries.from_twisted(twisted)


@pytest.mark.parametrize("kind", [0, 1], ids=["TwistedSeries", "CentralSeries"])
def test_both_series_keep_the_window_rules(kind):
    x = central_pair(-2, [3, Fraction(1, 2), -1], 5)[kind]
    y = central_pair(0, [1, 0, 7], 4)[kind]
    with pytest.raises(InsufficientPrecision):
        x.truncate(6)
    assert x.truncate(5) is x and x.truncate(1).prec == 1
    twin = central_pair(-2, [3, Fraction(1, 2), -1], 5)[kind]
    assert twin is not x and twin == x and hash(twin) == hash(x)
    # the same value in the other class is another object
    other = central_pair(-2, [3, Fraction(1, 2), -1], 5)[1 - kind]
    assert x != other and other != x
    for value in (x + y, x - y, y - x):
        assert value.prec == 4 and value.val == -2
    assert x + y == central_pair(-2, [3, Fraction(3, 2), -1], 4)[kind]
    assert (x - x).is_zero() and x - x == type(x).zero(GAUSS, 5)
    assert str(type(x).zero(GAUSS, 3)) == "O(t^3)"


def test_printing_keeps_no_coefficients():
    a = TwistedSeries.make(GAUSS, 0, [[1, 2], [Fraction(1, 3), -1], [0, 5]], 6)
    b = TwistedSeries.make(GAUSS, -1, [[2, -1], [1, 1]], 6)
    lazy, eager = a * b, a * b
    eager.coeffs
    assert lazy._coeffs is None
    assert str(lazy) == str(eager) == (
        "[4,3]*t^-1 + [2/3,4/3] + [13/3,26/3]*t + [-5,5]*t^2 + O(t^5)"
    )
    assert lazy._coeffs is None


def test_coefficient_beyond_precision():
    s = TwistedSeries.from_ground(GAUSS.one(), 3)
    with pytest.raises(InsufficientPrecision):
        s.coefficient(3)


def test_truncate_cannot_extend():
    s = TwistedSeries.from_ground(GAUSS.one(), 3)
    with pytest.raises(InsufficientPrecision):
        s.truncate(4)
    assert s.truncate(2).prec == 2


# ------------------------------------------------------- precision propagation

def test_add_takes_min_precision():
    a = TwistedSeries.make(GAUSS, 0, [[1, 0]], 6)
    b = TwistedSeries.make(GAUSS, 2, [[0, 1]], 4)
    assert (a + b).prec == 4


def test_mul_precision_shifts_with_valuation():
    # N = min(N_f + val_g, N_g + val_f): multiplying by t^2 gains two digits
    f = TwistedSeries.make(GAUSS, 0, [[1, 0]], 5)
    g = TwistedSeries.t_power(GAUSS, 2, 7)
    assert (f * g).prec == 7
    assert (g * f).prec == 7
    h = TwistedSeries.t_power(GAUSS, -1, 4)
    assert (f * h).prec == 4  # min(5 - 1, 4 + 0)


def test_inv_precision_drop():
    # valuation v costs 2v digits: t*unit known mod t^6 inverts to mod t^4
    s = TwistedSeries.make(GAUSS, 1, [[1, 0], [1, 0]], 6)
    assert s.inv().prec == 4
    assert s.inv().val == -1


def test_twisted_multiplication_moves_constants():
    # (t)(i) = -i t over the conjugation twist
    t = TwistedSeries.t_power(GAUSS, 1, 5)
    i = TwistedSeries.from_ground(GAUSS.element([0, 1]), 5)
    assert (t * i).coefficient(1) == GAUSS.element([0, -1])
    assert (i * t).coefficient(1) == GAUSS.element([0, 1])


# ------------------------------------------------------------------- inversion

def test_inverse_of_i_t():
    it = TwistedSeries.make(GAUSS, 1, [[0, 1]], 6)
    inv = it.inv()
    assert inv.val == -1
    assert inv.coefficient(-1) == GAUSS.element([0, 1])  # i * t^-1
    assert (it * inv).coefficient(0) == GAUSS.one()
    assert (inv * it).coefficient(0) == GAUSS.one()
    square = it ** -2  # a negative power inverts first
    assert square == (inv * inv).truncate(square.prec) and square.coefficient(-2) == GAUSS.one()


def test_inverse_round_trips_randomized():
    rng = random.Random(5)
    for _ in range(25):
        x = random_fraction(GAUSS, rng, max_degree=2, nonzero=True)
        s = embed_fraction(x, 8)
        prod = s * s.inv()
        assert prod == TwistedSeries.one(GAUSS, prod.prec)


def test_zero_series_inversion():
    with pytest.raises(ZeroSeries):
        TwistedSeries.zero(GAUSS, 4).inv()
    # a series with no known nonzero coefficient normalises to zero
    s = TwistedSeries.make(GAUSS, 3, [[1, 0]], 3)
    assert s.is_zero()
    with pytest.raises(ZeroSeries):
        s.inv()


# ------------------------------------------------------------------- embedding

def test_embed_polynomial_is_truncation():
    p = P(GAUSS, [1, 0], [0, 1], [2, 0])
    s = embed_fraction(SkewFraction.from_polynomial(p), 2)
    assert s.prec == 2
    assert s.coefficient(1) == GAUSS.element([0, 1])


def test_embed_inverse_of_t_minus_i():
    x = SkewFraction.make(
        SkewPolynomial.one(GAUSS), P(GAUSS, [0, -1], [1, 0])
    )
    s = embed_fraction(x, 6)
    assert s.prec == 6
    den = TwistedSeries.from_polynomial(P(GAUSS, [0, -1], [1, 0]), 8)
    assert (den * s) == TwistedSeries.one(GAUSS, 6)


def test_embed_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(15):
        x = random_fraction(GAUSS, rng, max_degree=2)
        y = random_fraction(GAUSS, rng, max_degree=2)
        sx, sy = embed_fraction(x, 10), embed_fraction(y, 10)
        sm = embed_fraction(x * y, 10)
        prod = sx * sy
        cut = min(sm.prec, prod.prec)
        assert sm.truncate(cut) == prod.truncate(cut)
        sa = embed_fraction(x + y, 10)
        tot = sx + sy
        cut = min(sa.prec, tot.prec)
        assert sa.truncate(cut) == tot.truncate(cut)


def test_embed_respects_requested_precision_exactly():
    x = SkewFraction.make(
        SkewPolynomial.one(GAUSS), P(GAUSS, [0, 0], [0, 0], [1, 0])
    )
    for prec in (1, 3, 7):
        assert embed_fraction(x, prec).prec == prec


# ---------------------------------------------------------------- newton roots

def test_square_root_of_one_plus_t():
    """x^2 - (1+t) over the rational quaternions lifts the seed 1 to the
    binomial series; every coefficient matches the closed form."""
    coeffs = [
        SkewFraction.from_polynomial(P(HAMILTON, -1, -1)),
        SkewFraction.zero(HAMILTON),
        SkewFraction.one(HAMILTON),
    ]
    rho = newton_root(coeffs, HAMILTON.one(), 10)
    for k in range(10):
        assert rho.coefficient(k).coords[0] == binomial_half(k)
    square = rho * rho
    assert square.coefficient(0) == HAMILTON.one()
    assert square.coefficient(1) == HAMILTON.one()
    assert all(square.coefficient(k).is_zero() for k in range(2, 10))


def test_square_root_in_twisted_even_variable():
    """Over Q(i)/conj the coefficients live in t^2; the lifted root is an
    invariant series."""
    coeffs = [
        SkewFraction.from_polynomial(P(GAUSS, [-1, 0], [0, 0], [-1, 0])),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    rho = newton_root(coeffs, GAUSS.one(), 10)
    assert is_invariant_series(rho)
    for k in range(5):
        assert rho.coefficient(2 * k).coords == (binomial_half(k), F(0))
        if 2 * k + 1 < 10:
            assert rho.coefficient(2 * k + 1).is_zero()


def test_cubic_root_coefficients():
    """The cleared cubic s x^3 - x^2 + (1-3s) x + s at seed 0."""
    cs = [
        SkewFraction.from_polynomial(P(RATIONALS, 0, 1)),
        SkewFraction.from_polynomial(P(RATIONALS, 1, -3)),
        SkewFraction.from_polynomial(P(RATIONALS, -1)),
        SkewFraction.from_polynomial(P(RATIONALS, 0, 1)),
    ]
    rho = newton_root(cs, RATIONALS.zero(), 8)
    got = [rho.coefficient(k).coords[0] for k in range(8)]
    assert got == [F(0), F(-1), F(-2), F(-2), F(3), F(17), F(27), F(-30)]
    value = evaluate_poly([embed_fraction(c, 10) for c in cs], rho)
    assert value.is_zero()


def test_newton_rejects_non_root_seed():
    coeffs = [
        SkewFraction.from_polynomial(P(GAUSS, [-1, 0], [0, 0], [-1, 0])),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    with pytest.raises(NoResidualRoot):
        newton_root(coeffs, GAUSS.from_rational(3), 6)


def test_newton_rejects_double_root():
    coeffs = [
        SkewFraction.zero(GAUSS),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    with pytest.raises(NotSimpleRoot):
        newton_root(coeffs, GAUSS.zero(), 6)


def test_newton_rejects_non_invariant_data():
    # coefficient 1 + t is not supported on even exponents under the twist
    bad = [
        SkewFraction.from_polynomial(P(GAUSS, [-1, 0], [1, 0])),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    with pytest.raises(NotInvariantSeries):
        newton_root(bad, GAUSS.one(), 6)
    # an invariant polynomial but a non-invariant seed
    good = [
        SkewFraction.from_polynomial(P(GAUSS, [-1, 0], [0, 0], [-1, 0])),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    with pytest.raises(NotInvariantSeries):
        newton_root(good, GAUSS.element([0, 1]), 6)


def test_newton_refuses_a_coefficient_off_the_center_past_the_precision():
    # i*t^100 lies beyond the working precision, where the embedded
    # coefficient no longer shows it: the coefficient's rows are read instead
    rows = [[-1, 0], [0, 0], [-1, 0]] + [[0, 0]] * 97 + [[0, -1]]
    coeffs = [
        SkewFraction.from_polynomial(P(GAUSS, *rows)),
        SkewFraction.zero(GAUSS),
        SkewFraction.one(GAUSS),
    ]
    with pytest.raises(NotInvariantSeries):
        newton_root(coeffs, GAUSS.one(), 16)


def test_invariant_series_predicate():
    even = TwistedSeries.make(GAUSS, 0, [[1, 0], [0, 0], [2, 0]], 4)
    odd = TwistedSeries.make(GAUSS, 0, [[1, 0], [1, 0]], 4)
    moved = TwistedSeries.make(GAUSS, 0, [[0, 1]], 4)
    assert is_invariant_series(even)
    assert not is_invariant_series(odd)
    assert not is_invariant_series(moved)


def test_solve_left_matches_invert_then_multiply():
    rng = random.Random(31)
    for field in (GAUSS, HAMILTON):
        for _ in range(40):
            num = random_fraction(field, rng, max_degree=3)
            den = random_fraction(field, rng, max_degree=3, nonzero=True)
            prec = rng.choice([6, 13, 24])
            f = TwistedSeries.from_polynomial((num * den).num, prec)
            g = embed_fraction(den, prec)
            if g.is_zero():
                continue
            s = solve_left(g, f)
            assert s == g.inv() * f
            back = g * s
            cut = min(back.prec, f.prec)
            assert back.truncate(cut) == f.truncate(cut)


def test_solve_left_edge_cases():
    g = TwistedSeries.from_polynomial(P(GAUSS, [1, 0], [0, 1]), 8)
    zero = TwistedSeries.zero(GAUSS, 8)
    with pytest.raises(ZeroSeries):
        solve_left(zero, g)
    s = solve_left(g, zero)
    assert s.is_zero() and s.prec == 8
    # numerator with lower valuation than the denominator: a Laurent tail
    t2 = TwistedSeries.from_polynomial(P(GAUSS, [0, 0], [0, 0], [1, 0]), 8)
    one = TwistedSeries.from_polynomial(P(GAUSS, [1, 0]), 8)
    s = solve_left(t2, one)
    assert s.val == -2 and s.coefficient(-2).coords[0] == 1


# -- the central division: `_quotient` against the per-term recurrence -----------------


def check_quotient(d, num, size):
    """`_quotient` gives the (X, E) of the schoolbook recurrence, and
    X * d = E * num modulo u^size."""
    x, e = laurent._quotient(d, num, size)
    assert (x, e) == sb.quotient(d, num, size)
    assert len(x) == size and e > 0
    for j in range(size):
        lhs = sum(d[k] * x[j - k] for k in range(min(j, len(d) - 1) + 1))
        assert lhs == (e * num[j] if j < len(num) else 0)


@st.composite
def quotient_cases(draw):
    size = draw(st.integers(0, 20))
    bits = draw(st.integers(2, 200))
    coeff = st.integers(-(2**bits), 2**bits)
    d0 = draw(st.sampled_from([1, -1, -3, 2**61 + 15, -(2**63 - 25)]) | coeff.filter(bool))
    # gappy or dense, and possibly longer than size (terms past it are unused)
    tail = draw(st.lists(st.just(0) | coeff, max_size=size + 4))
    num = draw(st.lists(coeff, max_size=size + 3))
    return [d0, *tail], num, size


@settings(max_examples=150, deadline=None)
@given(quotient_cases())
def test_quotient_matches_the_per_term_recurrence(case):
    check_quotient(*case)


def test_quotient_matches_the_per_term_recurrence_at_fixed_seeds():
    rng = random.Random(61)
    for size in (0, 1, 2, 9, 32):
        for density in (1.0, 0.3, 0.0):
            for d0 in (1, -1, -7, 2**61 + 15, 3**60):
                bits = rng.choice((2, 20, 64, 200))
                # terms past size, and at times trailing zeros, go unused
                d = [d0] + [rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(size + 2)]
                d += [0] * rng.randint(0, 2)
                for length in (max(size - 1, 0), size, size + 2):
                    check_quotient(d, [rng.randint(-(2**bits), 2**bits) for _ in range(length)], size)


# -- the packed convolution: `_convolve` against the per-column loop -----------------


def check_convolve(ints, cols, count):
    """Each column of `_convolve` is the product of `ints` and that column
    cut to `count` terms, as the one-column loop and the plain sum give it."""
    out = laurent._convolve(ints, cols, count)
    assert len(out) == len(cols)
    for col, got in zip(cols, out):
        plain = [sum(ints[j - i] * col[i] for i in range(min(j + 1, len(col)))) for j in range(count)]
        assert got == plain == laurent._convolve(ints, [col], count)[0]


@st.composite
def convolve_cases(draw):
    count = draw(st.integers(1, 12))
    x_bits, col_bits = (draw(st.sampled_from([1, 8, 64, 700])) for _ in range(2))
    ints = draw(st.lists(st.just(0) | st.integers(-(2**x_bits), 2**x_bits), min_size=count, max_size=count))
    entry = st.just(0) | st.integers(-(2**col_bits), 2**col_bits)
    # columns of count or count - 1 entries: the residue classes of an odd size
    cols = draw(st.lists(st.integers(max(count - 1, 0), count).flatmap(lambda k: st.lists(entry, min_size=k, max_size=k)), min_size=1, max_size=6))
    return ints, cols, count


@settings(max_examples=200, deadline=None)
@given(convolve_cases())
def test_packed_convolution_matches_the_per_column_loop(case):
    check_convolve(*case)


def test_packed_convolution_matches_the_per_column_loop_at_fixed_seeds():
    rng = random.Random(67)
    for count in (1, 2, 5, 24):
        for bits in (1, 64, 700):
            ints = [rng.randint(-(2**bits), 2**bits) for _ in range(count)]
            for n, dim in ((1, 1), (1, 4), (2, 2), (2, 1)):
                # the columns of `_divide` for an odd size: n residue classes
                # of dim coordinates, the later classes one entry short
                size = n * count - (n - 1)
                rows = [tuple(rng.choice((0, 1, -1, rng.randint(-(2**bits), 2**bits))) for _ in range(dim)) for _ in range(size)]
                cols = [[row[l] for row in rows[r:size:n]] for r in range(n) for l in range(dim)]
                check_convolve(ints, cols, count)
                check_convolve(ints, [[0] * len(c) for c in cols], count)
                # every entry at the largest size of its bit length, of one
                # sign and then of the other: sums that need the whole slot
                top = [[2**bits - 1] * len(c) for c in cols]
                check_convolve([2**bits - 1] * count, top, count)
                check_convolve([1 - 2**bits] * count, top, count)
