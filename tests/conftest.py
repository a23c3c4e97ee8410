"""Shared fields and hypothesis strategies for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from orefield.extend import canonical_decomposition
from orefield.ground import (
    gauss_conjugation,
    hamilton_rationals,
    make_number_field,
    make_rationals,
)
from orefield.laurent import TwistedSeries
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial

# Shared field instances: building one runs the derived-structure solves,
# so the suite constructs each exactly once.
RATIONALS = make_rationals()
GAUSS = gauss_conjugation()
HAMILTON = hamilton_rationals()
ROOT2 = make_number_field([-2, 0, 1], sigma_image=[0, -1], name="Q(sqrt2)/flip")

ALL_FIELDS = [RATIONALS, GAUSS, HAMILTON, ROOT2]
TWISTED_FIELDS = [GAUSS, ROOT2]


@pytest.fixture
def rationals():
    return RATIONALS


@pytest.fixture
def gauss():
    return GAUSS


@pytest.fixture
def hamilton():
    return HAMILTON


@pytest.fixture
def root2():
    return ROOT2


def rationals_st(span: int = 5):
    return st.fractions(
        min_value=Fraction(-span), max_value=Fraction(span), max_denominator=3
    )


def elements(field, span: int = 5):
    return st.lists(
        rationals_st(span), min_size=field.dim, max_size=field.dim
    ).map(field.element)


def nonzero_elements(field, span: int = 5):
    return elements(field, span).filter(lambda e: not e.is_zero())


def polys(field, max_degree: int = 3, span: int = 3):
    coeff = st.lists(rationals_st(span), min_size=field.dim, max_size=field.dim)
    return st.lists(coeff, min_size=0, max_size=max_degree + 1).map(
        lambda rows: SkewPolynomial.from_coeffs(field, rows)
    )


def nonzero_polys(field, max_degree: int = 3, span: int = 3):
    return polys(field, max_degree, span).filter(lambda p: not p.is_zero())


def fractions_of(field, max_degree: int = 2, span: int = 2):
    return st.tuples(
        polys(field, max_degree, span), nonzero_polys(field, max_degree, span)
    ).map(lambda pair: SkewFraction.make(pair[0], pair[1]))


def nonzero_fractions_of(field, max_degree: int = 2, span: int = 2):
    return fractions_of(field, max_degree, span).filter(lambda x: not x.is_zero())


def checked_decomposition(field, terms):
    """`canonical_decomposition` with its identity checked: sum h*z,
    recomputed directly, equals sum (e_j t^r) * z_{r,j} to the common
    precision."""
    table = canonical_decomposition(field, terms)
    prec = min([z.prec for _, z in terms] + [s.prec for s in table.values()])
    direct = TwistedSeries.zero(field, prec)
    for h, z in terms:
        poly = SkewFraction.coerce(field, h).num
        direct = direct + TwistedSeries.from_polynomial(poly, prec) * z
    recomposed = TwistedSeries.zero(field, prec)
    for (r, j), s in table.items():
        basis = SkewPolynomial.t_power(field, r, field.h_basis[j])
        recomposed = recomposed + TwistedSeries.from_polynomial(basis, prec) * s
    common = min(direct.prec, recomposed.prec)
    assert direct.truncate(common) == recomposed.truncate(common)
    return table
