"""Twisted Laurent series at explicit finite precision.

A series is a triple (valuation, coefficients, precision): the coefficients
cover the exponents ``val .. prec-1`` and nothing is known from ``prec`` on.
They are stored as the integer rows of `orefield.kernel` over one common
denominator, and every operation works on those rows; the `GroundElement`
coefficients are built only when read.  The representation is normalised so
that a nonzero series has a nonzero coefficient at its valuation; a series
that is zero to its precision is stored with no coefficients and
``val == prec``.

Precision bookkeeping is pessimistic and explicit:

* ``add``: min of the two precisions;
* ``mul``: ``min(N_f + val_g, N_g + val_f)`` — multiplying by a series of
  positive valuation *gains* absolute precision, dividing loses it;
* ``inv``: a series of valuation v known mod t^N has an inverse of
  valuation -v known mod t^(N-2v).

Inversion and `solve_left` run one ascending coefficient recurrence on the
integer rows of `orefield.kernel` (the cost is one twisted convolution), and
products are row convolutions too.  Polynomials and fractions embed through
`from_polynomial` and `embed_fraction`; the embedding is the canonical one
fixing the ground field and sending t to t.

`newton_root` lifts a simple residual root of a polynomial with *central*
coefficients (invariant coefficients supported on exponents divisible by
the automorphism order) to a series root, doubling the contact valuation
each round.  The commutativity of everything in sight is what makes the
classical iteration legitimate; the inputs are checked for it.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from . import kernel
from .errors import (
    InsufficientPrecision,
    MixedFields,
    NoResidualRoot,
    NotInvariantSeries,
    NotSimpleRoot,
    ZeroSeries,
)
from .ground import GroundElement, GroundField
from .skewfrac import SkewFraction
from .skewpoly import SkewPolynomial


class TwistedSeries:
    """Stored as integer rows over one denominator (see `orefield.kernel`):
    rows[k]/den is the coefficient of t^(val+k) for val <= val+k < prec.
    The form is canonical (den > 0, no content common to den and the rows, a
    nonzero first row; the zero series has no rows and val == prec), so `==`
    compares rows, and `coeffs` is built from them on first use."""

    __slots__ = ("field", "val", "prec", "_rows", "_den", "_coeffs")

    def __init__(
        self,
        field: GroundField,
        val: int,
        coeffs: Sequence[GroundElement],
        prec: int,
    ) -> None:
        rows, den = kernel.rows_of(coeffs)
        self._set(field, val, rows, den, prec)

    @classmethod
    def _from_rows(
        cls, field: GroundField, val: int, rows: list, den: int, prec: int
    ) -> "TwistedSeries":
        """Normalised series with coefficients rows[k]/den at t^(val+k)."""
        s = cls.__new__(cls)
        s._set(field, val, rows, den, prec)
        return s

    def _set(self, field: GroundField, val: int, rows: list, den: int, prec: int) -> None:
        self.field = field
        self.prec = prec
        self._coeffs = None
        zero = field.zero_row
        start = next((k for k, r in enumerate(rows) if r != zero), None)
        if start is None or val + start >= prec:
            self.val, self._rows, self._den = prec, [], 1
            return
        val += start
        rows = rows[start : start + prec - val]
        self.val = val
        self._rows, self._den = kernel.reduce(rows + [zero] * (prec - val - len(rows)), den)

    @property
    def coeffs(self) -> tuple[GroundElement, ...]:
        """The coefficients of t^val .. t^(prec-1)."""
        if self._coeffs is None:
            self._coeffs = tuple(kernel.elements_of(self.field, self._rows, self._den))
        return self._coeffs

    def int_rows(self) -> tuple[list, int]:
        """Integer numerators of the coefficients over one common denominator."""
        return self._rows, self._den

    @classmethod
    def make(
        cls, field: GroundField, val: int, coeffs: Sequence, prec: int
    ) -> "TwistedSeries":
        """Normalised series from raw data; coefficients beyond prec are cut."""
        return cls(field, val, [field.coerce(c) for c in coeffs], prec)

    @classmethod
    def zero(cls, field: GroundField, prec: int) -> "TwistedSeries":
        return cls._from_rows(field, prec, [], 1, prec)

    @classmethod
    def from_ground(cls, e: GroundElement, prec: int) -> "TwistedSeries":
        return cls(e.field, 0, [e], prec)

    @classmethod
    def one(cls, field: GroundField, prec: int) -> "TwistedSeries":
        return cls.from_ground(field.one(), prec)

    @classmethod
    def t_power(cls, field: GroundField, power: int, prec: int) -> "TwistedSeries":
        return cls(field, power, [field.one()], prec)

    @classmethod
    def from_polynomial(cls, p: SkewPolynomial, prec: int) -> "TwistedSeries":
        rows, den = p.int_rows()
        return cls._from_rows(p.field, 0, rows, den, prec)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the stated precision."""
        return self.val >= self.prec

    def coefficient(self, exponent: int) -> GroundElement:
        if exponent >= self.prec:
            raise InsufficientPrecision(
                f"coefficient of t^{exponent} unknown at precision {self.prec}"
            )
        if exponent < self.val:
            return self.field.zero()
        return self.coeffs[exponent - self.val]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TwistedSeries)
            and self.field == other.field
            and self.val == other.val
            and self.prec == other.prec
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.val, self.prec, self._den, tuple(self._rows)))

    def truncate(self, prec: int) -> "TwistedSeries":
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend precision {self.prec} to {prec}"
            )
        if prec == self.prec:
            return self
        return TwistedSeries._from_rows(self.field, self.val, self._rows, self._den, prec)

    def shift(self, k: int) -> "TwistedSeries":
        """s * t^k: every exponent, and the precision, moves up by k."""
        s = self._canonical(self.val + k, self._rows, self.prec + k)
        s._coeffs = self._coeffs
        return s

    def _canonical(self, val: int, rows: list, prec: int) -> "TwistedSeries":
        """A series over this one's field and denominator from rows that
        are already in canonical form for them."""
        s = TwistedSeries.__new__(TwistedSeries)
        s.field, s.val, s.prec, s._rows, s._den, s._coeffs = (
            self.field, val, prec, rows, self._den, None
        )
        return s

    def _same(self, other: "TwistedSeries") -> None:
        if self.field is not other.field:
            self.field.check_same(other.field)

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "TwistedSeries", sign: int) -> "TwistedSeries":
        self._same(other)
        field = self.field
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val)
        size = prec - val
        if size <= 0:
            return TwistedSeries.zero(field, prec)
        zero = field.zero_row
        den = lcm(self._den, other._den)

        def window(s: "TwistedSeries") -> list:
            shift = s.val - val
            return [zero] * shift + s._rows[: size - shift] if shift < size else []

        rows = kernel.lincomb(
            window(self), den // self._den, window(other), sign * (den // other._den), zero
        )
        return TwistedSeries._from_rows(field, val, rows, den, prec)

    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TwistedSeries":
        return self._canonical(self.val, kernel.scale(self._rows, -1), self.prec)

    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._same(other)
        field = self.field
        prec = min(self.prec + other.val, other.prec + self.val)
        if self.is_zero() or other.is_zero():
            return TwistedSeries.zero(field, prec)
        val = self.val + other.val
        f, df = self.int_rows()
        g, dg = other.int_rows()
        rows = kernel.series_mul_rows(field, f, self.val, g, prec - val)
        den = df * dg * field.mul_den * field.sig_den
        return TwistedSeries._from_rows(field, val, rows, den, prec)

    def scale_ground_left(self, c: GroundElement) -> "TwistedSeries":
        field = self.field
        field.check_same(c.field)
        if c.is_zero() or self.is_zero():
            return TwistedSeries.zero(field, self.prec)
        (cr,), dc = kernel.rows_of([c])
        rows = [field.kmul(cr, r) for r in self._rows]
        return TwistedSeries._from_rows(
            field, self.val, rows, dc * self._den * field.mul_den, self.prec
        )

    def inv(self) -> "TwistedSeries":
        """Two-sided inverse to the propagated precision."""
        field = self.field
        if self.is_zero():
            # no known nonzero coefficient: nothing to pivot the recursion on
            raise ZeroSeries(f"inversion of a series that is zero mod t^{self.prec}")
        v = self.val
        r = self.prec - v
        d, dd = self.int_rows()
        one = [(1,) + field.zero_row[1:]]
        rows, den = kernel.solve_rows(field, d, v, one, r)
        return TwistedSeries._from_rows(field, -v, kernel.scale(rows, dd), den, r - v)

    def __pow__(self, n: int) -> "TwistedSeries":
        if n < 0:
            return self.inv() ** (-n)
        return kernel.power(self, n, TwistedSeries.one(self.field, self.prec))

    def __str__(self) -> str:
        if self.is_zero():
            return f"O(t^{self.prec})"
        # printing does not keep the coefficients it builds
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = kernel.elements_of(self.field, self._rows, self._den)
        parts = []
        for k, c in enumerate(coeffs):
            if c.is_zero():
                continue
            e = self.val + k
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts) + f" + O(t^{self.prec})"

    __repr__ = __str__


def solve_left(den: TwistedSeries, num: TwistedSeries) -> TwistedSeries:
    """The unique s with den * s = num, i.e. den^-1 * num.

    One ascending coefficient recurrence instead of invert-then-multiply:
    matching the coefficient of t^m leaves  d_v sigma^v(s_{m-v}) = known,
    so each new coefficient costs one back-substitution row.  The result
    precision is the same as `den.inv() * num` would propagate.
    """
    field = den.field
    den._same(num)
    if den.is_zero():
        raise ZeroSeries(f"division by a series that is zero mod t^{den.prec}")
    v = den.val
    out_prec = min(den.prec - 2 * v + num.val, den.prec - v, num.prec - v)
    if num.is_zero():
        return TwistedSeries.zero(field, out_prec)
    w = num.val - v
    size = out_prec - w
    if size <= 0:
        return TwistedSeries.zero(field, out_prec)
    d, dd = den.int_rows()
    nums, dn = num.int_rows()
    # den * x = num  <=>  (dd*den) * x = (dd/dn) * (dn*num)
    rows, x_den = kernel.solve_rows(field, d, v, nums, size)
    return TwistedSeries._from_rows(field, w, kernel.scale(rows, dd), x_den * dn, out_prec)


def embed_fraction(x: SkewFraction, prec: int) -> TwistedSeries:
    """Canonical embedding den^-1 num -> (den series)^-1 * (num series).

    The result precision is exactly `prec`; the embedding computes at an
    internally padded precision so the denominator's valuation cannot eat
    into the requested window.
    """
    field = x.field
    if x.is_zero():
        return TwistedSeries.zero(field, prec)
    work = prec + 2 * _low_degree(x.den)
    den = TwistedSeries.from_polynomial(x.den, work)
    num = TwistedSeries.from_polynomial(x.num, work)
    return solve_left(den, num).truncate(prec)


def _low_degree(p: SkewPolynomial) -> int:
    """The exponent of the lowest nonzero term of a nonzero polynomial."""
    zero = p.field.zero_row
    return next(i for i, r in enumerate(p.int_rows()[0]) if r != zero)


def is_invariant_series(s: TwistedSeries) -> bool:
    """Coefficients invariant and supported on exponents divisible by the
    automorphism order: the commutative series the twisted ring is built
    over."""
    field = s.field
    n, zero = field.sigma_order, field.zero_row
    return all(
        r == zero or ((s.val + k) % n == 0 and field.is_invariant_row(r))
        for k, r in enumerate(s.int_rows()[0])
    )


def evaluate_poly(
    coeff_series: list[TwistedSeries], point: TwistedSeries
) -> TwistedSeries:
    """Horner evaluation of a polynomial (given by coefficient series)."""
    acc = coeff_series[-1]
    for c in reversed(coeff_series[:-1]):
        acc = acc * point + c
    return acc


def newton_root(
    coeffs: Sequence[SkewFraction],
    seed: GroundElement,
    precision: int,
) -> TwistedSeries:
    """Series root of a polynomial with central coefficients.

    `coeffs` are the ascending x-coefficients; `seed` must be an invariant
    scalar with  f(seed) = 0 mod t  and  f'(seed) a unit mod t  (simple
    residual root).  The contact valuation c (the valuation of f at the
    current root) doubles every round, and a round only needs the series to
    about 2c: it runs at precision  min(work, 2c + pad),  where `work` is
    the padded precision of the whole lift and pad = work - precision
    (Brent & Kung, "Fast algorithms for manipulating formal power series",
    J. ACM 25, 1978).  So the lift costs about two rounds at full precision
    instead of one per round.  The root entering a round is a fixed series,
    so it moves to the higher precision by zero extension; it keeps the
    precision it lost to the coefficients' poles, so the result carries
    the same precision as a lift run at `work` throughout.
    """
    if not coeffs or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    field = coeffs[0].field
    if not seed.is_invariant():
        raise NotInvariantSeries("newton seed must lie in the invariant subfield")
    den_val = max((_low_degree(c.den) for c in coeffs if not c.is_zero()), default=0)
    depth = len(coeffs) - 1
    work = precision + 2 * depth * den_val + 2
    pad = work - precision
    fc = [embed_fraction(c, work) for c in coeffs]
    for s in fc:
        if not is_invariant_series(s):
            raise NotInvariantSeries(
                "polynomial coefficients must be invariant series in t^n"
            )
    dc = [
        fc[m].scale_ground_left(field.from_rational(m)) for m in range(1, len(fc))
    ]

    def at(series: list[TwistedSeries], x: TwistedSeries, p: int) -> TwistedSeries:
        return evaluate_poly([s.truncate(p) for s in series], x)

    def lift(x: TwistedSeries, p: int, q: int) -> TwistedSeries:
        # x, made in a round at precision p, for a round at precision q >= p
        if q == p:
            return x
        return TwistedSeries._from_rows(field, x.val, x._rows, x._den, x.prec + q - p)

    p = min(work, 2 + pad)
    rho = TwistedSeries.from_ground(seed, p)
    value, deriv = at(fc, rho, p), at(dc, rho, p)
    if deriv.is_zero() or deriv.val > 0:
        raise NotSimpleRoot("derivative at the seed is not a unit mod t")
    if not value.is_zero() and value.val <= 0:
        raise NoResidualRoot("seed is not a residual root mod t")
    guard = 0
    last_val = 0
    while True:
        if value.is_zero():
            if p == work:
                break
            # the root already holds to this precision: look further
            q = min(work, 2 * p + pad)
            rho, p = lift(rho, p, q), q
            value, deriv = at(fc, rho, p), None
            continue
        if value.val <= last_val or guard > precision:
            raise NotSimpleRoot("newton iteration stalled; root is not simple")
        last_val = value.val
        guard += 1
        q = min(work, 2 * value.val + pad)
        if q > p:
            rho, p = lift(rho, p, q), q
            value, deriv = at(fc, rho, p), None
        if deriv is None:
            deriv = at(dc, rho, p)
        rho = rho - value * deriv.inv()
        # the next contact is about twice this one: evaluate there
        q = min(work, 4 * last_val + pad)
        rho, p = lift(rho, p, q), q
        value, deriv = at(fc, rho, p), None
    if rho.prec < precision:
        raise InsufficientPrecision(
            f"newton produced precision {rho.prec} < requested {precision}"
        )
    return rho.truncate(precision)
