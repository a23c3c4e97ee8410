"""Seeded random generators for elements, polynomials and fractions.

Used by the randomized verification certificates and the test-suite; all
sampling is driven by an explicit `random.Random` so that reports are
reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ground import GroundElement, GroundField
from .skewfrac import SkewFraction
from .skewpoly import SkewPolynomial

_DENOMINATORS = (1, 1, 1, 2, 3)


def random_rational(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(_DENOMINATORS))


def random_element(field: GroundField, rng: random.Random, span: int = 5) -> GroundElement:
    return field.element([random_rational(rng, span) for _ in range(field.dim)])


def random_nonzero_element(field: GroundField, rng: random.Random, span: int = 5) -> GroundElement:
    while True:
        e = random_element(field, rng, span)
        if not e.is_zero():
            return e


def random_polynomial(
    field: GroundField,
    rng: random.Random,
    max_degree: int,
    span: int = 3,
    monic: bool = False,
) -> SkewPolynomial:
    deg = rng.randint(0, max_degree)
    coeffs = [random_element(field, rng, span) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = field.one()
    return SkewPolynomial.from_coeffs(field, coeffs)


def random_nonzero_polynomial(
    field: GroundField, rng: random.Random, max_degree: int, span: int = 3
) -> SkewPolynomial:
    while True:
        p = random_polynomial(field, rng, max_degree, span)
        if not p.is_zero():
            return p


def random_fraction(
    field: GroundField,
    rng: random.Random,
    max_degree: int = 2,
    span: int = 3,
    nonzero: bool = False,
) -> SkewFraction:
    num = random_polynomial(field, rng, max_degree, span)
    if nonzero:
        while num.is_zero():
            num = random_polynomial(field, rng, max_degree, span)
    den = random_nonzero_polynomial(field, rng, max_degree, span)
    return SkewFraction.make(num, den)


# Denominator degrees for random tensor coordinates.  Inversion cost over a
# quaternion ground field grows steeply with denominator size, so the mix
# leans towards polynomial coordinates while still exercising true fractions.
_TENSOR_DEN_DEGREES = (0, 0, 0, 1, 1, 2)


def random_tensor(scenario, rng: random.Random, max_degree: int = 4, span: int = 3):
    """Nonzero tensor element whose coordinates have degree <= max_degree.

    Each coordinate is den^-1 num for random polynomials, built straight
    from the pair (`TensorElement.from_quotients`) with no Ore reduction."""
    from .extend import TensorElement

    field = scenario.field
    zero, one = SkewPolynomial.zero(field), SkewPolynomial.one(field)
    while True:
        quotients = []
        for _ in range(scenario.degree):
            if rng.random() < 0.2:
                quotients.append((zero, one))
                continue
            num = random_nonzero_polynomial(field, rng, max_degree, span)
            den_degree = rng.choice(_TENSOR_DEN_DEGREES)
            den = one if den_degree == 0 else random_nonzero_polynomial(field, rng, den_degree, 2)
            quotients.append((num, den))
        element = TensorElement.from_quotients(scenario, quotients)
        if not element.is_zero():
            return element
