"""Twisted polynomial arithmetic, the two divisions, gcld and Ore witnesses."""

import pytest
from hypothesis import given, settings

from orefield.errors import DivisionByZero
from orefield.skewpoly import (
    SkewPolynomial,
    common_left_multiple,
    exact_left_quotient,
    gcld,
    ore_witness,
)

from conftest import GAUSS, HAMILTON, RATIONALS, elements, nonzero_polys, polys


def P(field, *coeffs):
    return SkewPolynomial.from_coeffs(field, list(coeffs))


T_MINUS_I = P(GAUSS, [0, -1], [1, 0])


# ---------------------------------------------------------------- frozen facts

def test_twist_collapses_conjugate_factors():
    # (t - i)(t - i) = t^2 + (sigma(-i) - i) t + i^2 = t^2 - 1
    assert T_MINUS_I * T_MINUS_I == P(GAUSS, -1, 0, 1)


def test_right_division_example():
    f = P(GAUSS, [0, 1], [0, 0], [1, 0])  # t^2 + i
    q, r = f.divmod_right(T_MINUS_I)
    assert q == T_MINUS_I
    assert r == P(GAUSS, [1, 1])
    assert q * T_MINUS_I + r == f


def test_left_division_example():
    f = P(GAUSS, [0, 1], [0, 0], [1, 0])
    q, r = f.divmod_left(T_MINUS_I)
    assert T_MINUS_I * q + r == f
    assert r.degree < 1


def test_gcld_of_shifted_multiples():
    t = P(GAUSS, 0, 1)
    f = T_MINUS_I * P(GAUSS, 1, 1)
    g = T_MINUS_I * t
    assert gcld(f, g) == T_MINUS_I


def test_ore_witness_for_t_and_i():
    t = P(GAUSS, 0, 1)
    i = P(GAUSS, [0, 1])
    a1, b1 = ore_witness(t, i)
    assert a1 == P(GAUSS, [0, 0], [0, -1])  # -i t
    assert b1 == SkewPolynomial.one(GAUSS)
    assert t * b1 == i * a1


def test_string_form():
    assert str(P(GAUSS, [0, -1], [1, 0])) == "[0,-1] + [1,0]*t"
    assert str(SkewPolynomial.zero(GAUSS)) == "0"
    assert str(P(RATIONALS, 0, 0, 2)) == "[2]*t^2"


def test_degree_conventions():
    assert SkewPolynomial.zero(GAUSS).degree == -1
    assert SkewPolynomial.one(GAUSS).degree == 0
    assert SkewPolynomial.t_power(GAUSS, 3).degree == 3


def test_division_by_zero_polynomial():
    f = P(GAUSS, 1, 1)
    z = SkewPolynomial.zero(GAUSS)
    with pytest.raises(DivisionByZero):
        f.divmod_right(z)
    with pytest.raises(DivisionByZero):
        f.divmod_left(z)
    with pytest.raises(DivisionByZero):
        gcld(z, z)


# ------------------------------------------------------------------ properties

@given(a=elements(GAUSS))
def test_twist_rule(a):
    t = P(GAUSS, 0, 1)
    c = SkewPolynomial.constant(GAUSS, a)
    assert t * c == SkewPolynomial.from_coeffs(GAUSS, [GAUSS.zero(), a.sigma()])


@settings(max_examples=40)
@given(f=polys(GAUSS), g=polys(GAUSS), h=polys(GAUSS))
def test_ring_laws_gauss(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(max_examples=25)
@given(f=polys(HAMILTON, max_degree=2), g=polys(HAMILTON, max_degree=2),
       h=polys(HAMILTON, max_degree=2))
def test_ring_laws_hamilton(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(f=polys(GAUSS, max_degree=4), g=nonzero_polys(GAUSS, max_degree=3))
def test_divmod_right_contract(f, g):
    q, r = f.divmod_right(g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(f=polys(GAUSS, max_degree=4), g=nonzero_polys(GAUSS, max_degree=3))
def test_divmod_left_contract(f, g):
    q, r = f.divmod_left(g)
    assert g * q + r == f
    assert r.degree < g.degree


@settings(max_examples=25)
@given(f=polys(HAMILTON, max_degree=3), g=nonzero_polys(HAMILTON, max_degree=2))
def test_divmod_contracts_hamilton(f, g):
    q, r = f.divmod_right(g)
    assert q * g + r == f and r.degree < g.degree
    q, r = f.divmod_left(g)
    assert g * q + r == f and r.degree < g.degree


@settings(max_examples=30)
@given(d=nonzero_polys(GAUSS, max_degree=2), f=nonzero_polys(GAUSS, max_degree=2),
       g=nonzero_polys(GAUSS, max_degree=2))
def test_gcld_divides_and_absorbs_common_factor(d, f, g):
    """gcld(d f, d g) is monic, left-divisible by d, and left-divides both."""
    a, b = d * f, d * g
    h = gcld(a, b)
    assert h.is_monic()
    assert h.degree >= d.degree
    exact_left_quotient(h, d)  # d left-divides the gcld
    exact_left_quotient(a, h)  # the gcld left-divides both inputs
    exact_left_quotient(b, h)


@settings(max_examples=30)
@given(a=nonzero_polys(GAUSS, max_degree=2), b=nonzero_polys(GAUSS, max_degree=2))
def test_ore_witness_contract(a, b):
    a1, b1 = ore_witness(a, b)
    assert not b1.is_zero()
    assert a * b1 == b * a1
    assert b1.degree <= b.degree
    assert a1.degree <= a.degree
    assert b1.is_monic()


@settings(max_examples=30)
@given(a=nonzero_polys(GAUSS, max_degree=2), b=nonzero_polys(GAUSS, max_degree=2))
def test_common_left_multiple_contract(a, b):
    u, v = common_left_multiple(a, b)
    assert not u.is_zero() and not v.is_zero()
    assert u * a == v * b
    assert u.degree <= b.degree
    assert v.degree <= a.degree
    assert u.is_monic()


@settings(max_examples=25)
@given(a=nonzero_polys(HAMILTON, max_degree=2), b=nonzero_polys(HAMILTON, max_degree=2))
def test_ore_witness_contract_hamilton(a, b):
    a1, b1 = ore_witness(a, b)
    assert a * b1 == b * a1 and not b1.is_zero()


@given(f=polys(GAUSS), a=elements(GAUSS))
def test_right_scaling_matches_constant_product(f, a):
    c = SkewPolynomial.constant(GAUSS, a)
    assert f.scale_left(a) == c * f


def test_power_matches_repeated_product():
    f = P(GAUSS, [1, 1], [0, 1])
    assert f ** 3 == f * f * f
    assert f ** 0 == SkewPolynomial.one(GAUSS)
    with pytest.raises(ValueError):
        f ** -1
