"""One way in: `GroundField.coerce` and `SkewFraction.coerce`, and the
constructors that take their inputs through them."""

from fractions import Fraction

import pytest

from orefield.catalog import scenario_catalog
from orefield.errors import MixedFields
from orefield.extend import CentralPolynomial, TensorElement, canonical_decomposition
from orefield.laurent import TwistedSeries
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial

from conftest import GAUSS, HAMILTON

QUAT = HAMILTON.element([1, 2, 3, 4])


def test_ground_coerce_takes_elements_rationals_and_coordinates():
    i = GAUSS.element([0, 1])
    assert GAUSS.coerce(i) is i
    assert GAUSS.coerce(3) == GAUSS.from_rational(3)
    assert GAUSS.coerce(Fraction(-1, 2)) == GAUSS.from_rational(Fraction(-1, 2))
    assert GAUSS.coerce([0, 1]) == i
    assert GAUSS.coerce((Fraction(1, 3), 2)) == GAUSS.element([Fraction(1, 3), 2])
    with pytest.raises(MixedFields):
        GAUSS.coerce(QUAT)
    with pytest.raises(ValueError):
        GAUSS.coerce([1, 2, 3])


def test_fraction_coerce_lifts_every_layer_below():
    t = SkewPolynomial.t_power(GAUSS)
    x = SkewFraction.make(SkewPolynomial.one(GAUSS), t)
    assert SkewFraction.coerce(GAUSS, x) is x
    assert SkewFraction.coerce(GAUSS, t) == SkewFraction.from_polynomial(t)
    assert SkewFraction.coerce(GAUSS, GAUSS.element([0, 1])) == SkewFraction.from_ground(
        GAUSS.element([0, 1])
    )
    assert SkewFraction.coerce(GAUSS, 2) == SkewFraction.from_rational(GAUSS, 2)
    assert SkewFraction.coerce(GAUSS, [0, 1]) == SkewFraction.from_ground(GAUSS.element([0, 1]))
    for other in (SkewFraction.one(HAMILTON), SkewPolynomial.one(HAMILTON), QUAT):
        with pytest.raises(MixedFields):
            SkewFraction.coerce(GAUSS, other)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwistedSeries.make(GAUSS, 0, [QUAT], 4),
        lambda: SkewPolynomial.constant(GAUSS, QUAT),
        lambda: SkewPolynomial.t_power(GAUSS, 2, coeff=QUAT),
        lambda: SkewPolynomial.from_coeffs(GAUSS, [1, QUAT]),
        lambda: TensorElement.make(scenario_catalog("T2L1"), [SkewFraction.one(HAMILTON)]),
        lambda: CentralPolynomial.from_coeffs(GAUSS, [SkewFraction.one(HAMILTON)]),
        lambda: canonical_decomposition(GAUSS, [(QUAT, TwistedSeries.one(GAUSS, 4))]),
    ],
    ids=[
        "series-make",
        "poly-constant",
        "poly-t-power",
        "poly-from-coeffs",
        "tensor-make",
        "central-from-coeffs",
        "decomposition",
    ],
)
def test_an_element_of_another_field_is_refused(build):
    with pytest.raises(MixedFields):
        build()


def test_constructors_still_take_rationals_and_coordinates():
    series = TwistedSeries.make(GAUSS, 0, [1, Fraction(1, 2), [0, 1]], 4)
    assert series.coeffs[:3] == (
        GAUSS.one(),
        GAUSS.from_rational(Fraction(1, 2)),
        GAUSS.element([0, 1]),
    )
    assert SkewPolynomial.constant(GAUSS, [0, 1]).coeffs == (GAUSS.element([0, 1]),)
    assert SkewPolynomial.constant(GAUSS, 0).is_zero()
    assert SkewPolynomial.t_power(GAUSS, 2, coeff=3).coeffs[-1] == GAUSS.from_rational(3)
    assert SkewPolynomial.t_power(GAUSS, 2, coeff=0).is_zero()
