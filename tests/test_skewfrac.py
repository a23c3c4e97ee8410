"""Left fraction canonical forms, field laws and the center computation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schoolbook as sb
from orefield.errors import CapExceeded, DivisionByZero, MixedFields
from orefield.sampling import random_fraction, random_nonzero_polynomial
from orefield.skewfrac import SkewFraction, center_basis, is_central
from orefield.skewpoly import SkewPolynomial

from conftest import (
    ALL_FIELDS,
    GAUSS,
    HAMILTON,
    RATIONALS,
    ROOT2,
    fractions_of,
    nonzero_fractions_of,
    nonzero_polys,
)


def P(field, *coeffs):
    return SkewPolynomial.from_coeffs(field, list(coeffs))


T_MINUS_I = P(GAUSS, [0, -1], [1, 0])


# ---------------------------------------------------------------- frozen facts

def test_common_left_factor_cancels():
    t = P(GAUSS, 0, 1)
    x = SkewFraction.make(T_MINUS_I * t, T_MINUS_I)
    assert x.same_representation(SkewFraction.from_polynomial(t))


def test_reduction_is_canonical():
    t = P(GAUSS, 0, 1)
    plain = SkewFraction.make(t, P(GAUSS, 1, 1))
    blown = SkewFraction.make(T_MINUS_I * t, T_MINUS_I * P(GAUSS, 1, 1))
    assert blown.same_representation(plain)
    assert blown == plain


def test_denominator_made_monic():
    # (2t)^-1 * 1 stores denominator t - 1/2-scaled numerator
    x = SkewFraction.make(SkewPolynomial.one(GAUSS), P(GAUSS, [0, 0], [2, 0]))
    assert x.den == P(GAUSS, 0, 1)
    assert x.num == P(GAUSS, [Fraction(1, 2), 0])


def test_inverse_of_i_t():
    # (i t)^-1 = t^-1 * (-i)
    x = SkewFraction.make(SkewPolynomial.one(GAUSS), P(GAUSS, [0, 0], [0, 1]))
    assert x.den == P(GAUSS, 0, 1)
    assert x.num == P(GAUSS, [0, -1])
    it = SkewFraction.from_polynomial(P(GAUSS, [0, 0], [0, 1]))
    assert x * it == SkewFraction.one(GAUSS)
    assert it * x == SkewFraction.one(GAUSS)


def test_string_forms():
    assert str(SkewFraction.t_power(GAUSS)) == "[1,0]*t"
    assert str(SkewFraction.t_power(GAUSS, -1)) == "([1,0]*t)^-1*([1,0])"
    assert str(SkewFraction.zero(GAUSS)) == "0"


def test_noncommutativity_witness():
    t = SkewFraction.t_power(GAUSS)
    i = SkewFraction.from_ground(GAUSS.element([0, 1]))
    assert t * i != i * t
    assert t * i == SkewFraction.from_polynomial(P(GAUSS, [0, 0], [0, -1]))


# ------------------------------------------------------------------ field laws

@settings(max_examples=30)
@given(x=fractions_of(GAUSS), y=fractions_of(GAUSS), z=fractions_of(GAUSS))
def test_field_laws_gauss(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=15, deadline=None)
@given(x=fractions_of(HAMILTON, max_degree=1, span=2),
       y=fractions_of(HAMILTON, max_degree=1, span=2))
def test_field_laws_hamilton(x, y):
    assert x + y == y + x
    assert (x - y) + y == x
    if not y.is_zero():
        assert (x * y) * y.inv() == x


@settings(max_examples=30)
@given(x=nonzero_fractions_of(GAUSS))
def test_inverse_round_trip(x):
    assert x * x.inv() == SkewFraction.one(GAUSS)
    assert x.inv() * x == SkewFraction.one(GAUSS)


@settings(max_examples=30)
@given(x=fractions_of(GAUSS), y=fractions_of(GAUSS))
def test_equality_is_symmetric_with_canonical_forms(x, y):
    """Structural equality agrees with Ore cross-multiplication equality."""
    assert (x == y) == sb.fraction_eq(x, y)
    assert (x == y) == (y == x)


# ------------------------------------- == and inv against the Ore-condition oracle

FIELD_IDS = [f.name for f in ALL_FIELDS]


def same(x, y):
    """One canonical form and one printed form."""
    return x.same_representation(y) and str(x) == str(y)


def _check_eq_and_inv(x, y, c):
    """x == y and x.inv() against the oracle; c is a nonzero polynomial, so
    (c*den)^-1 (c*num) is x again, built from a pair with a common factor."""
    assert (x == y) == sb.fraction_eq(x, y) == (y == x)
    assert (x != y) == (not sb.fraction_eq(x, y))
    blown = SkewFraction.make(c * x.num, c * x.den)
    assert blown == x and sb.fraction_eq(blown, x) and same(blown, x)
    assert hash(blown) == hash(x)
    for z in (x, y):
        if z.is_zero():
            with pytest.raises(DivisionByZero):
                z.inv()
            continue
        mine = z.inv()
        assert same(mine, sb.fraction_inv(z))
        assert same(mine, SkewFraction.make(z.den, z.num))
        assert mine.den.is_monic()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_eq_and_inv_match_the_oracle(field, data):
    size = {"max_degree": 1, "span": 2} if field is HAMILTON else {}
    x = data.draw(fractions_of(field, **size))
    y = data.draw(st.one_of(fractions_of(field, **size), st.just(x)))
    c = data.draw(nonzero_polys(field, max_degree=2, span=2))
    _check_eq_and_inv(x, y, c)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
def test_eq_and_inv_match_the_oracle_fixed_seed(field):
    rng = random.Random(4)
    t = SkewFraction.t_power(field)
    specials = [SkewFraction.zero(field), SkewFraction.one(field), t, t ** -2]
    for _ in range(12):
        x = random_fraction(field, rng, max_degree=2)
        y = random_fraction(field, rng, max_degree=2)
        c = random_nonzero_polynomial(field, rng, 2)
        for a, b in ((x, y), (x, x), (x, -x), (x, (x + y) - y)):
            _check_eq_and_inv(a, b, c)
        for s in specials:
            _check_eq_and_inv(x, s, c)
            _check_eq_and_inv(s, x, c)


@pytest.mark.parametrize(
    "left, right", [(GAUSS, ROOT2), (HAMILTON, RATIONALS)], ids=["gauss-root2", "hamilton-rationals"]
)
def test_equality_across_fields_is_rejected(left, right):
    """Even two zeros over different fields are not comparable."""
    for x, y in (
        (SkewFraction.zero(left), SkewFraction.zero(right)),
        (SkewFraction.one(left), SkewFraction.one(right)),
        (SkewFraction.t_power(left, -1), SkewFraction.t_power(right, 2)),
    ):
        for op in (lambda: x == y, lambda: y == x, lambda: x != y):
            with pytest.raises(MixedFields):
                op()
        with pytest.raises(MixedFields):
            sb.fraction_eq(x, y)


@settings(max_examples=30)
@given(x=fractions_of(GAUSS))
def test_sub_and_neg(x):
    assert x - x == SkewFraction.zero(GAUSS)
    assert -(-x).num == x.num


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        SkewFraction.make(SkewPolynomial.one(GAUSS), SkewPolynomial.zero(GAUSS))
    with pytest.raises(DivisionByZero):
        SkewFraction.zero(GAUSS).inv()


def test_negative_powers():
    t = SkewFraction.t_power(GAUSS)
    assert t ** -2 == SkewFraction.t_power(GAUSS, -2)
    assert t ** -2 * t ** 2 == SkewFraction.one(GAUSS)


# ------------------------------------------------------------------ the center

def test_center_basis_gauss_degree_four():
    basis = center_basis(GAUSS, 4)
    assert [str(p) for p in basis] == ["[1,0]", "[1,0]*t^2", "[1,0]*t^4"]


def test_center_basis_hamilton_degree_two():
    basis = center_basis(HAMILTON, 2)
    assert [str(p) for p in basis] == [
        "[1,0,0,0]",
        "[1,0,0,0]*t",
        "[1,0,0,0]*t^2",
    ]


def test_center_basis_root2():
    basis = center_basis(ROOT2, 3)
    assert [str(p) for p in basis] == ["[1,0]", "[1,0]*t^2"]


def test_center_basis_rationals():
    basis = center_basis(RATIONALS, 2)
    assert len(basis) == 3  # sigma = id: everything commutes


def test_center_basis_cap():
    with pytest.raises(CapExceeded):
        center_basis(GAUSS, 9)


def test_centrality_of_fractions():
    t = SkewFraction.t_power(GAUSS)
    t2 = SkewFraction.t_power(GAUSS, 2)
    i = SkewFraction.from_ground(GAUSS.element([0, 1]))
    assert is_central(t2, trials=5)
    assert not is_central(t)
    assert not is_central(i)
    # over the quaternions with trivial twist, t is central but i is not
    assert is_central(SkewFraction.t_power(HAMILTON))
    assert not is_central(SkewFraction.from_ground(HAMILTON.basis_element(1)))


def test_central_fractions_of_central_polynomials():
    num = P(GAUSS, 1, 0, 1)  # 1 + t^2
    den = P(GAUSS, 2, 0, 0, 0, 1)  # 2 + t^4
    assert is_central(SkewFraction.make(num, den), trials=3)
