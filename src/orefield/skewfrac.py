"""The fraction skew field of a twisted polynomial ring.

Every element is kept as a *canonical reduced left fraction*
``den^-1 * num`` with

* ``den`` monic,
* the greatest common left divisor of ``den`` and ``num`` trivial.

Reduction removes the common left divisor (which cancels:
``(d*a)^-1 * (d*b) = a^-1 * d^-1 * d * b = a^-1 * b``) and then scales both
parts by the inverse of the denominator's leading coefficient on the left,
which leaves the value unchanged.

Equality is always decided through the Ore condition: find a common left
multiple ``u*den_x = v*den_y`` and compare ``u*num_x`` against ``v*num_y``.
The canonical forms make structural comparison possible as well, and the
test-suite checks the two agree, but the arithmetic never relies on it.

The center of this skew field is the rational function field in t^n (n the
automorphism order) over the invariant subfield; `center_basis` computes an
exact basis of its polynomial part, degree by degree, by brute-force linear
algebra on the commutation constraints.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .errors import CapExceeded, DivisionByZero
from .ground import GroundElement, GroundField
from .skewpoly import SkewPolynomial, common_left_multiple, exact_left_quotient, gcld

CENTER_DEGREE_CAP = 8
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
        c = den.leading().inv()
        if not den.is_monic():
            den = den.scale_left(c)
            num = num.scale_left(c)
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
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.den.is_invariant_central() or other.den.is_invariant_central():
            # one denominator commutes, so it is its own cross multiplier
            return other.den * self.num == self.den * other.num
        u, v = common_left_multiple(self.den, other.den)
        return u * self.num == v * other.num

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
        return SkewFraction.make(self.den, self.num)

    def __pow__(self, n: int) -> "SkewFraction":
        if n < 0:
            return self.inv() ** (-n)
        result = SkewFraction.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
