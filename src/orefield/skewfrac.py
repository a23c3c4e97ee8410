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
automorphism order) over the invariant subfield; `center_basis` computes an
exact basis of its polynomial part, degree by degree, by brute-force linear
algebra on the commutation constraints.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import kernel, linalg
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
        """Numerator and denominator both commute with everything."""
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


def is_central(
    x: SkewFraction, trials: int = 0, rng: random.Random | None = None
) -> bool:
    """Commutes with t and with the ground field basis (hence with everything).

    Optional extra randomized commutation trials against sampled fractions
    re-check the same fact through independently generated witnesses.
    """
    field = x.field
    t = SkewFraction.t_power(field)
    if x * t != t * x:
        return False
    for e in field.h_basis:
        ef = SkewFraction.from_ground(e)
        if x * ef != ef * x:
            return False
    if trials:
        from .sampling import random_fraction

        rng = rng or random.Random(0)
        for _ in range(trials):
            y = random_fraction(field, rng, max_degree=2)
            if x * y != y * x:
                return False
    return True


def center_basis(field: GroundField, max_degree: int, cap: int = CENTER_DEGREE_CAP) -> list[SkewPolynomial]:
    """Basis of the degree-bounded polynomial part of the center.

    Solves, degree by degree, the exact commutation constraints
    ``f*t = t*f`` and ``f*e = e*f`` for every ambient basis element e; the
    two constraint families force invariant coefficients sitting at
    exponents divisible by the automorphism order.
    """
    if max_degree > cap:
        raise CapExceeded(f"center basis degree {max_degree} exceeds cap {cap}")
    D = field.dim
    ident = linalg.identity(D)
    basis: list[SkewPolynomial] = []
    for m in range(max_degree + 1):
        rows: list[list[Fraction]] = []
        sig = field._sigma_pows[1 % field.sigma_order]
        for r in range(D):
            rows.append([sig[r][c] - ident[r][c] for c in range(D)])
        for j in range(D):
            e = tuple(Fraction(int(l == j)) for l in range(D))
            lm, _ = field._mult_matrices(e)
            _, rm = field._mult_matrices(field.sigma_coords(e, m))
            for r in range(D):
                rows.append([rm[r][c] - lm[r][c] for c in range(D)])
        for vec in linalg.nullspace(rows, D):
            coeffs = [field.zero()] * m + [field.element(vec)]
            basis.append(SkewPolynomial.from_coeffs(field, coeffs))
    return basis
