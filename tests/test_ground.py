"""Ground field arithmetic, automorphisms and derived structure."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from orefield.errors import (
    CapExceeded,
    DivisionByZero,
    InfiniteOrder,
    MixedFields,
    NotAnAutomorphism,
    NotInvertible,
    ReduciblePolynomial,
)
from orefield import ground
from orefield.ground import _irreducible, make_number_field, make_quaternions

from conftest import GAUSS, HAMILTON, RATIONALS, ROOT2, elements, nonzero_elements

F = Fraction


# ---------------------------------------------------------------- frozen facts

def test_terms_print_by_exponent_in_the_order_given():
    terms = [(-1, "[1]"), (0, "[2]"), (1, "[3]"), (2, "[4]")]
    assert ground.terms_str(terms, "t") == "[1]*t^-1 + [2] + [3]*t + [4]*t^2"
    assert ground.terms_str(reversed(terms[1:]), "x") == "[4]*x^2 + [3]*x + [2]"
    assert ground.terms_str([], "t") == "0"


def test_gauss_i_squared():
    i = GAUSS.element([0, 1])
    assert (i * i).coords == (F(-1), F(0))


def test_gauss_conjugation_order_two():
    i = GAUSS.element([0, 1])
    assert i.sigma().coords == (F(0), F(-1))
    assert i.sigma(2) == i
    assert GAUSS.sigma_order == 2


def test_hamilton_multiplication_table():
    """The full 4x4 table of basis products for i^2 = j^2 = -1, ji = -ij."""
    one, i, j, k = (HAMILTON.basis_element(m) for m in range(4))
    table = {
        (0, 0): one, (0, 1): i, (0, 2): j, (0, 3): k,
        (1, 0): i, (1, 1): -one, (1, 2): k, (1, 3): -j,
        (2, 0): j, (2, 1): -k, (2, 2): -one, (2, 3): i,
        (3, 0): k, (3, 1): j, (3, 2): -i, (3, 3): -one,
    }
    basis = [one, i, j, k]
    for (a, b), want in table.items():
        assert basis[a] * basis[b] == want, (a, b)


def test_hamilton_norm_inverse():
    # (1 + i + j)^-1 = (1 - i - j) / 3
    x = HAMILTON.element([1, 1, 1, 0])
    assert x.inv().coords == (F(1, 3), F(-1, 3), F(-1, 3), F(0))
    assert x * x.inv() == HAMILTON.one()


def test_root2_flip_automorphism():
    y = ROOT2.element([0, 1])
    assert (y * y).coords == (F(2), F(0))
    assert y.sigma() == -y
    assert ROOT2.sigma_order == 2


def test_invariant_and_h_bases():
    assert GAUSS.invariant_basis == ((F(1), F(0)),)
    assert [e.coords for e in GAUSS.h_basis] == [(F(1), F(0)), (F(0), F(1))]
    assert HAMILTON.center_basis == ((F(1), F(0), F(0), F(0)),)
    assert len(HAMILTON.h_basis) == 4
    assert ROOT2.invariant_basis == ((F(1), F(0)),)


def test_rationals_are_trivially_central():
    assert RATIONALS.dim == 1
    assert RATIONALS.sigma_order == 1
    x = RATIONALS.from_rational(F(7, 3))
    assert RATIONALS.is_central_coords(x.coords) and x.is_invariant()


# ---------------------------------------------------------------- construction

def test_min_poly_must_be_monic_integer():
    with pytest.raises(ValueError):
        make_number_field([1, 0, 2])
    with pytest.raises(ValueError):
        make_number_field([F(1, 2), 0, 1])
    with pytest.raises(ValueError):
        make_number_field([1])


def test_min_poly_degree_cap():
    with pytest.raises(CapExceeded):
        make_number_field([2] + [0] * 8 + [1])  # degree 9


def test_min_poly_irreducibility():
    with pytest.raises(ReduciblePolynomial):
        make_number_field([-1, 0, 1])  # y^2 - 1 = (y-1)(y+1)
    with pytest.raises(ReduciblePolynomial):
        make_number_field([4, 0, 0, 0, 1])  # y^4 + 4 = (y^2-2y+2)(y^2+2y+2)
    assert make_number_field([1, 0, 0, 0, 1]).dim == 4  # y^4 + 1 splits mod every prime


def test_irreducibility_matches_sympy_on_small_monic_polynomials():
    import sympy

    y = sympy.Symbol("y")
    for degree in (1, 2, 3, 4):
        for tail in itertools.product(range(-2, 3), repeat=degree):
            poly = tuple(F(c) for c in tail) + (F(1),)
            expected = sympy.Poly(sum(int(c) * y**m for m, c in enumerate(poly)), y).is_irreducible
            assert _irreducible(poly) == expected, poly


def test_sigma_image_must_be_a_root():
    with pytest.raises(NotAnAutomorphism):
        make_number_field([1, 0, 1], sigma_image=[1, 1])


def test_order_cap_trips(monkeypatch):
    monkeypatch.setattr(ground, "ORDER_CAP", 1)
    with pytest.raises(InfiniteOrder):
        make_number_field([1, 0, 1], sigma_image=[0, -1])


def test_quaternion_constants_fixed_by_sigma():
    # alpha = sqrt(2) is moved by the flip, so the twist is rejected
    with pytest.raises(NotAnAutomorphism):
        make_quaternions([0, 1], -1, min_poly=[-2, 0, 1], sigma_image=[0, -1])


def test_split_algebra_detected_on_inversion():
    split = make_quaternions(1, 1, name="split")
    x = split.element([1, 1, 0, 0])  # norm 1 - 1 = 0
    with pytest.raises(NotInvertible):
        x.inv()


def test_element_arity_checked():
    with pytest.raises(ValueError):
        GAUSS.element([1, 2, 3])


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GAUSS.one() + ROOT2.one()


def test_zero_inversion():
    for field in (RATIONALS, GAUSS, HAMILTON):
        with pytest.raises(DivisionByZero):
            field.zero().inv()


# ------------------------------------------------------------------ properties

@given(a=elements(ROOT2), b=elements(ROOT2))
def test_root2_product_closed_form(a, b):
    # (a0 + a1 y)(b0 + b1 y) = a0 b0 + 2 a1 b1 + (a0 b1 + a1 b0) y
    p, q = a.coords, b.coords
    assert (a * b).coords == (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


@given(a=elements(GAUSS))
def test_gauss_inverse_closed_form(a):
    x, y = a.coords
    n = x * x + y * y
    if n == 0:
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        assert a.inv().coords == (x / n, -y / n)


@settings(max_examples=40)
@given(a=elements(HAMILTON), b=elements(HAMILTON), c=elements(HAMILTON))
def test_hamilton_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=40)
@given(a=nonzero_elements(HAMILTON))
def test_hamilton_inverse_round_trip(a):
    assert a * a.inv() == HAMILTON.one()
    assert a.inv() * a == HAMILTON.one()


@given(a=elements(GAUSS), b=elements(GAUSS))
def test_sigma_is_multiplicative(a, b):
    assert (a * b).sigma() == a.sigma() * b.sigma()
    assert (a + b).sigma() == a.sigma() + b.sigma()


@given(a=elements(ROOT2), b=elements(ROOT2))
def test_sigma_is_multiplicative_root2(a, b):
    assert (a * b).sigma() == a.sigma() * b.sigma()


# --------------------------------------------------------- centrality queries

def test_hamilton_centrality():
    assert HAMILTON.is_central_coords(HAMILTON.one().coords)
    assert not HAMILTON.is_central_coords(HAMILTON.basis_element(1).coords)


def test_gauss_invariance():
    i = GAUSS.element([0, 1])
    assert GAUSS.is_central_coords(i.coords)  # the field is commutative
    assert not i.is_invariant()  # but conjugation moves i


def test_quaternion_center_over_number_field():
    """Quaternions over Q(sqrt2): the center is the base field."""
    field = make_quaternions(-1, -1, min_poly=[-2, 0, 1], name="H_root2")
    assert len(field.center_basis) == 2
    assert field.dim == 8
    y = field.element([0, 1, 0, 0, 0, 0, 0, 0])
    assert field.is_central_coords(y.coords)
    assert not field.is_central_coords(field.element([0, 0, 1, 0, 0, 0, 0, 0]).coords)
