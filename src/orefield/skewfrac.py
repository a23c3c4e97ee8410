"""The fraction skew field of a twisted polynomial ring.

Every element is kept as a *canonical reduced left fraction*
``den^-1 * num`` with

* ``den`` monic,
* the greatest common left divisor of ``den`` and ``num`` trivial.

Reduction removes the common left divisor (which cancels:
``(d*a)^-1 * (d*b) = a^-1 * d^-1 * d * b = a^-1 * b``) and then scales both
parts by the inverse of the denominator's leading coefficient on the left,
which leaves the value unchanged.

This form is unique.  For x = d^-1 * n the polynomials r with r*x
polynomial form the left ideal generated by one d_min; a left-coprime pair
has d = unit * d_min, and "monic" fixes the unit (then n = d*x as well).
So `==` and `hash` are structural: two fractions over the same field are
equal exactly when their denominators and numerators are, with no
polynomial product.  Inversion needs no reduction either: gcld(n, d) = 1 is
symmetric, so ``n^-1 * d`` is only scaled to make n monic.  Addition and
multiplication still go through the Ore condition (a common left multiple)
and reduce their result.

The center of this skew field is the rational function field in t^n (n the
automorphism order) over the invariant subfield K' (the part of the ground
field's center that the automorphism fixes).  So a fraction is central
exactly when both parts of its canonical form have coefficients in K' at
exponents divisible by n (`is_invariant_central`), and `center_basis` reads
the polynomial part of the center off the invariant basis.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import CapExceeded, DivisionByZero
from .ground import GroundElement, GroundField
from .skewpoly import (
    SkewPolynomial,
    common_left_multiple,
    exact_left_quotient,
    gcld,
    left_normalised,
)

CENTER_DEGREE_CAP = 8
# bound on what the certificates factor: the degree in t of a scenario file's
# nonsquare witnesses and of f's coefficients, and the degree of f in x
FACTOR_DEGREE_CAP = 64
# bounds on what an expression or the command line can ask for: the
# precision of a series (embed, tau, --precision) and the size of a power
PRECISION_CAP = 1024
EXPONENT_CAP = 64


class SkewFraction:
    """den^-1 * num; construct through `make` (or the classmethods) only."""

    __slots__ = ("den", "num")

    def __init__(self, den: SkewPolynomial, num: SkewPolynomial) -> None:
        self.den = den
        self.num = num

    @property
    def field(self) -> GroundField:
        return self.den.field

    @classmethod
    def make(cls, num: SkewPolynomial, den: SkewPolynomial) -> "SkewFraction":
        """Canonical fraction den^-1 * num."""
        if den.is_zero():
            raise DivisionByZero("fraction with zero denominator")
        field = num.field
        if num.is_zero():
            return cls(SkewPolynomial.one(field), SkewPolynomial.zero(field))
        d = gcld(den, num)
        if d.degree > 0:
            den = exact_left_quotient(den, d)
            num = exact_left_quotient(num, d)
        return cls._monic(den, num)

    @classmethod
    def _monic(cls, den: SkewPolynomial, num: SkewPolynomial) -> "SkewFraction":
        """den^-1 * num for a left-coprime pair: both parts scaled on the left
        by the unit that makes den monic, which keeps them coprime."""
        if den.is_monic():
            return cls(den, num)
        dr = den.int_rows()
        den, num = left_normalised(den.field, dr, [dr, num.int_rows()])
        return cls(den, num)

    @classmethod
    def from_polynomial(cls, p: SkewPolynomial) -> "SkewFraction":
        return cls(SkewPolynomial.one(p.field), p)

    @classmethod
    def from_ground(cls, e: GroundElement) -> "SkewFraction":
        return cls.from_polynomial(SkewPolynomial.constant(e.field, e))

    @classmethod
    def from_rational(cls, field: GroundField, x) -> "SkewFraction":
        return cls.from_ground(field.from_rational(Fraction(x)))

    @classmethod
    def coerce(cls, field: GroundField, value) -> "SkewFraction":
        """The one lift into the fraction field: a fraction or a polynomial
        over field, or anything `GroundField.coerce` takes."""
        if isinstance(value, SkewFraction):
            field.check_same(value.field)
            return value
        if isinstance(value, SkewPolynomial):
            field.check_same(value.field)
            return cls.from_polynomial(value)
        return cls.from_ground(field.coerce(value))

    @classmethod
    def t_power(cls, field: GroundField, power: int = 1) -> "SkewFraction":
        if power >= 0:
            return cls.from_polynomial(SkewPolynomial.t_power(field, power))
        return cls(
            SkewPolynomial.t_power(field, -power), SkewPolynomial.one(field)
        )

    @classmethod
    def zero(cls, field: GroundField) -> "SkewFraction":
        return cls(SkewPolynomial.one(field), SkewPolynomial.zero(field))

    @classmethod
    def one(cls, field: GroundField) -> "SkewFraction":
        return cls(SkewPolynomial.one(field), SkewPolynomial.one(field))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def size(self) -> int:
        return max(self.num.degree, self.den.degree)

    def same_representation(self, other: "SkewFraction") -> bool:
        return self.den == other.den and self.num == other.num

    def is_invariant_central(self) -> bool:
        """Whether this fraction is central: the row test on both parts.

        Parts that pass commute with everything, so such a fraction is
        central.  Conversely a central x is a/b with a, b coprime in K'[u],
        u = t^n, and b monic; a Bezout identity a*r + b*s = 1 in K'[u]
        holds in the skew ring too, so b and a are left-coprime and b^-1 a
        is the canonical form of x, whose parts both pass.
        """
        return self.den.is_invariant_central() and self.num.is_invariant_central()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewFraction):
            return NotImplemented
        if self.field is not other.field:
            self.field.check_same(other.field)
        # both sides are canonical, and the canonical form is unique
        return self.same_representation(other)

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    # -- field operations ----------------------------------------------------

    def __add__(self, other: "SkewFraction") -> "SkewFraction":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den.is_invariant_central() or other.den.is_invariant_central():
            return SkewFraction.make(
                other.den * self.num + self.den * other.num,
                other.den * self.den,
            )
        u, v = common_left_multiple(self.den, other.den)
        return SkewFraction.make(u * self.num + v * other.num, u * self.den)

    def __sub__(self, other: "SkewFraction") -> "SkewFraction":
        return self + (-other)

    def __neg__(self) -> "SkewFraction":
        return SkewFraction(self.den, -self.num)

    def __mul__(self, other: "SkewFraction") -> "SkewFraction":
        if self.is_zero() or other.is_zero():
            return SkewFraction.zero(self.field)
        if other.is_polynomial():
            # a^-1 b * p needs no rewriting
            return SkewFraction.make(self.num * other.num, self.den)
        if self.is_invariant_central() or other.is_invariant_central():
            # the commuting factor slides past the other denominator
            return SkewFraction.make(self.num * other.num, other.den * self.den)
        # a^-1 b c^-1 d: rewrite b c^-1 = v^-1 u from the common left
        # multiple u*c = v*b, giving (v a)^-1 (u d)
        u, v = common_left_multiple(other.den, self.num)
        return SkewFraction.make(u * other.num, v * self.den)

    def inv(self) -> "SkewFraction":
        if self.is_zero():
            raise DivisionByZero("inversion of the zero fraction")
        # gcld(num, den) = 1 as well, so only the unit is left to fix
        return SkewFraction._monic(self.num, self.den)

    def __pow__(self, n: int) -> "SkewFraction":
        if n == 0:
            return SkewFraction.one(self.field)
        x = self if n > 0 else self.inv()
        return kernel.power(x, abs(n) - 1, x)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num) if not self.num.is_zero() else "0"
        return f"({self.den})^-1*({self.num})"

    __repr__ = __str__


def center_basis(field: GroundField, max_degree: int) -> list[SkewPolynomial]:
    """Basis of the degree-bounded polynomial part of the center: w * t^m
    for m a multiple of the automorphism order and w in the invariant basis,
    ascending in m."""
    if max_degree > CENTER_DEGREE_CAP:
        raise CapExceeded(f"center basis degree {max_degree} exceeds cap {CENTER_DEGREE_CAP}")
    return [
        SkewPolynomial.from_coeffs(field, [field.zero()] * m + [field.element(w)])
        for m in range(0, max_degree + 1, field.sigma_order)
        for w in field.invariant_basis
    ]
