"""Central coefficients: `RationalFunction` and `CentralPolynomial` against
the `SkewFraction` arithmetic they replace (the oracle in `schoolbook`)."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from orefield.errors import DivisionByZero, MixedFields, ScenarioValidationError
from orefield.extend import CentralPolynomial, ExtensionScenario, FiniteGroup, _central, _view
from orefield.factor import RationalFunction, content, gcd
from orefield.ground import make_number_field
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial

from conftest import GAUSS, HAMILTON, RATIONALS

# Q(sqrt2) with the identity twist: its invariant subfield is Q(sqrt2), so
# central coefficients stay `SkewFraction`s there
STATIC = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
Z_U_FIELDS = [RATIONALS, GAUSS, HAMILTON]
FIELDS = Z_U_FIELDS + [STATIC]

upolys = st.lists(st.integers(-3, 3), min_size=0, max_size=3)
nonzero_upolys = upolys.filter(any)


def upoly(field, coeffs, root2=()):
    """sum (coeffs[k] + root2[k]*sqrt2) * u^k with u = t^n; the sqrt2 part
    only over STATIC."""
    n = field.sigma_order
    size = max(len(coeffs), len(root2))
    rows = [[Fraction(0)] * field.dim for _ in range(n * max(size - 1, 0) + 1)]
    for k, c in enumerate(coeffs):
        rows[k * n][0] = Fraction(c)
    for k, c in enumerate(root2):
        rows[k * n][1] = Fraction(c)
    return SkewPolynomial.from_coeffs(field, rows)


def central_fraction(field, num, den, root2=()):
    return SkewFraction.make(upoly(field, num, root2), upoly(field, den))


def is_canonical(r):
    assert isinstance(r.num, tuple) and isinstance(r.den, tuple)
    assert r.den and r.den[-1] > 0
    assert not r.num or r.num[-1] != 0
    assert content(r.num + r.den) == 1
    if r.num:
        assert len(gcd(r.num, r.den)) == 1
    else:
        assert r.den == (1,)
    return True


# -- RationalFunction against central SkewFractions ----------------------------------


def check_pair(field, a, b):
    """Every operation on a, b = (num, den) pairs, over Z[u] and on the Ore
    path, with each view equal to the fraction the Ore path builds."""
    ra, rb = RationalFunction.make(*a), RationalFunction.make(*b)
    sa, sb = central_fraction(field, *a), central_fraction(field, *b)
    results = [(ra, sa), (rb, sb), (ra + rb, sa + sb), (ra - rb, sa - sb), (ra * rb, sa * sb)]
    results.append((-ra, -sa))
    if not rb.is_zero():
        results.append((rb.inv(), sb.inv()))
        results.append((ra * rb.inv(), sa * sb.inv()))
    else:
        with pytest.raises(DivisionByZero):
            rb.inv()
    for r, s in results:
        assert is_canonical(r)
        view = _view(field, r)
        made = SkewFraction.make(view.num, view.den)
        assert view.same_representation(s) and view.same_representation(made)
        assert str(view) == str(s)
        assert _central(field, s) == r and hash(_central(field, s)) == hash(r)
        assert (r == ra) == (s == sa)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(Z_U_FIELDS),
    st.tuples(upolys, nonzero_upolys),
    st.tuples(upolys, nonzero_upolys),
)
def test_rational_functions_match_central_fractions(field, a, b):
    check_pair(field, a, b)


def test_rational_functions_match_central_fractions_at_fixed_seeds():
    rng = random.Random(23)

    def pair():
        num = [rng.randint(-4, 4) for _ in range(rng.randrange(0, 4))]
        den = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))]
        den[-1] = den[-1] or 1
        return num, den

    for field in Z_U_FIELDS:
        for _ in range(10):
            check_pair(field, pair(), pair())
        # a shared factor: (u + 1)/(u^2 - 1) reduces to 1/(u - 1)
        check_pair(field, ([1, 1], [-1, 0, 1]), ([2, 2], [0, 4]))
        check_pair(field, ([], [3]), ([-5], [-2]))


def test_rational_function_edges():
    zero, one = RationalFunction.zero(), RationalFunction.one()
    assert zero.is_zero() and RationalFunction.make([], [5]) == zero
    assert RationalFunction.make([4], [4]) == one
    assert RationalFunction.make([2, 2], [-4, 0, 4]) == RationalFunction.make([-1], [2, -2])
    assert RationalFunction.make([3], [6]).den == (2,)
    assert (one + zero) == one and (zero * one) == zero
    with pytest.raises(DivisionByZero):
        RationalFunction.make([1], [0])
    with pytest.raises(DivisionByZero):
        zero.inv()
    x = RationalFunction.make([1, 1], [0, -2])
    assert x.inv() * x == one and x - x == zero


def test_rational_function_powers_match_repeated_products(monkeypatch):
    """x ** k is the product of |k| factors x (or x^-1), and x ** -1 is the
    inverse itself, with no product."""
    rng = random.Random(67)
    one = RationalFunction.one()
    for _ in range(6):
        num = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))]
        den = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))]
        num[-1], den[-1] = num[-1] or 1, den[-1] or 1
        x = RationalFunction.make(num, den)
        for k in range(-3, 4):
            factor, expected = x if k > 0 else x.inv(), one
            for _ in range(abs(k)):
                expected = expected * factor
            assert x ** k == expected
        calls = []
        mul = RationalFunction.__mul__
        monkeypatch.setattr(RationalFunction, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert x ** -1 == x.inv()
        monkeypatch.undo()
        assert not calls
    assert RationalFunction.zero() ** 0 == one
    with pytest.raises(DivisionByZero):
        RationalFunction.zero() ** -1


# -- CentralPolynomial against the schoolbook arithmetic --------------------------------


def central_values(field):
    pair = st.tuples(upolys, nonzero_upolys, upolys if field is STATIC else st.just(()))
    return pair.map(lambda p: central_fraction(field, p[0], p[1], p[2]))


def central_polys(field, max_degree=2):
    return st.lists(central_values(field), min_size=0, max_size=max_degree + 1).map(
        lambda cs: CentralPolynomial.from_coeffs(field, cs)
    )


def check_polys(field, p, q, g):
    a, b, c = p.coeffs, q.coeffs, g.coeffs
    assert (p + q).coeffs == schoolbook.central_add(field, a, b)
    assert (p - q).coeffs == schoolbook.central_add(field, a, tuple(-x for x in b))
    assert (p * q).coeffs == schoolbook.central_mul(field, a, b)
    assert p.compose(q).coeffs == schoolbook.central_compose(field, a, b)
    assert (p + q == q + p) and ((p == q) == (a == b))
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            p.divmod_by(g)
        with pytest.raises(DivisionByZero):
            schoolbook.central_divmod(field, a, c)
    else:
        quo, rem = p.divmod_by(g)
        assert (quo.coeffs, rem.coeffs) == schoolbook.central_divmod(field, a, c)
        assert quo * g + rem == p


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_central_polynomials_match_the_schoolbook_arithmetic(field):
    @settings(max_examples=25, deadline=None)
    @given(central_polys(field), central_polys(field), central_polys(field))
    def check(p, q, g):
        check_polys(field, p, q, g)

    check()


def test_central_polynomials_match_at_fixed_seeds():
    rng = random.Random(29)

    def value(field):
        num = [rng.randint(-3, 3) for _ in range(rng.randrange(0, 3))]
        den = [rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(rng.randrange(0, 2))]
        root2 = [rng.randint(-1, 1) for _ in range(2)] if field is STATIC else ()
        return central_fraction(field, num, den, root2)

    for field in FIELDS:
        one, zero = SkewFraction.one(field), SkewFraction.zero(field)
        x = CentralPolynomial.x(field)
        constants = [CentralPolynomial.zero(field), CentralPolynomial.one(field),
                     CentralPolynomial.from_coeffs(field, [value(field)])]
        for _ in range(6):
            p = CentralPolynomial.from_coeffs(field, [value(field) for _ in range(3)])
            q = CentralPolynomial.from_coeffs(field, [value(field), one])
            g = CentralPolynomial.from_coeffs(field, [value(field), zero, value(field)])
            check_polys(field, p, q, g)
            for k in constants:
                check_polys(field, p, k, k)
                check_polys(field, k, p, x)
        # the raw constructor converts its coefficients on first use
        raw = CentralPolynomial(field, (value(field), zero, one))
        assert raw == CentralPolynomial.from_coeffs(field, raw.coeffs)
        assert raw.is_monic() and raw.leading() == one


def test_raw_coefficients_off_the_center_are_refused():
    # i*u over Q(i): its exponent is a multiple of n, its coefficient is not invariant
    i_u = SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(GAUSS, [[0, 0], [0, 0], [0, 1]]))
    raw = CentralPolynomial(GAUSS, (i_u, SkewFraction.one(GAUSS)))
    assert raw.degree == 1 and raw.is_monic()
    with pytest.raises(ScenarioValidationError, match="is not central"):
        raw.central_coeffs
    with pytest.raises(ScenarioValidationError, match="is not central"):
        CentralPolynomial.x(GAUSS).scale(i_u)


def test_mixing_fields_raises():
    p, q = CentralPolynomial.x(RATIONALS), CentralPolynomial.x(GAUSS)
    binary = (operator.add, operator.sub, operator.mul, operator.eq)
    for op in (*binary, CentralPolynomial.divmod_by, CentralPolynomial.compose):
        with pytest.raises(MixedFields):
            op(p, q)
    with pytest.raises(MixedFields):
        p.scale(SkewFraction.one(GAUSS))
    group = FiniteGroup(("e",), "e", {("e", "e"): "e"})
    with pytest.raises(MixedFields):
        ExtensionScenario("mixed", GAUSS, p, group, {}, 8, newton_seed=GAUSS.one())


def t_valuation(p):
    return next(m for m, a in enumerate(p.coeffs) if not a.is_zero())


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_valuation_pad_reads_the_poles_of_f(field):
    # f = x^3 + (1 + u)/u^2 x + u/(1 - u): the pad covers the pole of order
    # 2 in u, which is 2n in t
    one, zero = SkewFraction.one(field), SkewFraction.zero(field)
    coeffs = [central_fraction(field, [0, 1], [1, -1]), central_fraction(field, [1, 1], [0, 0, 1]), zero, one]
    f = CentralPolynomial.from_coeffs(field, coeffs)
    group = FiniteGroup(("e",), "e", {("e", "e"): "e"})
    scn = ExtensionScenario("poles", field, f, group, {}, 8, newton_seed=field.one())
    worst = max(t_valuation(c.den) - t_valuation(c.num) for c in coeffs if not c.is_zero())
    assert worst == 2 * field.sigma_order
    assert scn._coefficient_valuation_pad() == 2 * 3 * worst + 4
