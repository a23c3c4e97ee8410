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

Products are row convolutions on the integer rows of `orefield.kernel`.
Inversion, `solve_left` and `embed_fraction` divide through the center: a
conjugate s* makes N = s * s* central, so  s^-1 * x = N^-1 * (s* * x),  and
dividing by N is an ascending recurrence on integers, not a twisted one.
`_quotient` is the scalar recurrence, one dot product over a window of the
last quotients per step; it inverts a dense norm once and divides in
Q((u)).  `_quotients` divides every coordinate by a central divisor of few
terms at once.  A central divisor needs no conjugate, and a fraction
den^-1 num embeds as the division of q num by the central norm c of den,
(q, c) = `norm_conjugate`(den).
Polynomials embed through `from_polynomial`; the embedding is the canonical
one fixing the ground field and sending t to t.

`CentralSeries` is the commutative field K'((u)), u = t^n (n the
automorphism order, K' the invariant subfield), inside the twisted series:
coefficients in K' on the exponents divisible by n, stored as one list of
ints in the layout of `kernel.center` over one positive denominator, in
canonical form.  Its `val` and `prec` stay t-exponents (coefficient k sits
at t^(val + n*k)), so the precision rules above, and those of `solve_left`,
hold for it unchanged, and it prints as the `TwistedSeries` it converts to.
A product costs w^2 integer convolutions (one when K' is Q) through K''s
multiplication table, instead of a twisted one on rows of the ground
field's dimension.

`newton_root` lifts a simple residual root of a polynomial with *central*
coefficients (invariant coefficients supported on exponents divisible by
the automorphism order) to a series root, doubling the contact valuation
each round.  The commutativity of everything in sight is what makes the
classical iteration legitimate; the inputs are checked for it.  The lift
lies in K'((u)) and runs on `CentralSeries` (`newton_lift`, which takes the
coefficients there).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul
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
from .skewpoly import SkewPolynomial, central_fraction_ints, central_polynomial, norm_conjugate


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
        return self._at_precision(prec)

    def _at_precision(self, prec: int) -> "TwistedSeries":
        """The same coefficients, cut at prec or known as zeros up to it."""
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
        """Two-sided inverse to the propagated precision, through the
        center (see `_divide`)."""
        if self.is_zero():
            # no known nonzero coefficient: nothing to divide by
            raise ZeroSeries(f"inversion of a series that is zero mod t^{self.prec}")
        return _divide(self, None, -self.val, self.prec - 2 * self.val)

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


class CentralSeries:
    """An element of K'((u)), u = t^n (n the automorphism order, K' the
    invariant subfield): the commutative series with coefficients in K' on
    the exponents divisible by n, the series analogue of a quotient in K'(u).

    Stored as one list of ints over one positive denominator, in the layout
    of `kernel.center`: ints[k*w + b]/den is the coordinate b of the
    coefficient of t^(val + n*k) for val <= val + n*k < prec.  `val` and
    `prec` are t-exponents, so the precision rules of `TwistedSeries` (add,
    mul, inv, `solve_left`) hold unchanged.  The form is canonical (den > 0,
    no content common to den and the ints, a nonzero first coefficient; the
    zero series has no ints and val == prec), so `==` compares the parts.
    `to_twisted` and `from_twisted` convert without changing the value or
    the precision.  Division goes through the norm, s^-1 = q (s q)^-1 with
    s q in Q((u)).
    """

    __slots__ = ("field", "val", "prec", "_ints", "_den")

    @classmethod
    def _make(cls, field: GroundField, val: int, ints: list, den: int, prec: int) -> "CentralSeries":
        """Normalised series with coefficients ints[k]/den at t^(val+n*k);
        val is a multiple of n unless every coefficient is zero."""
        s = cls.__new__(cls)
        s.field, s.prec = field, prec
        n, w = field.sigma_order, kernel.center(field).w
        start = next((k for k, c in enumerate(ints) if c), None)
        if start is None or val + n * (start // w) >= prec:
            s.val, s._ints, s._den = prec, [], 1
            return s
        start //= w
        val += n * start
        size = -((val - prec) // n)
        ints = ints[start * w : (start + size) * w]
        ints += [0] * (size * w - len(ints))
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
        s.val, s._ints, s._den = val, ints, den
        return s

    @classmethod
    def zero(cls, field: GroundField, prec: int) -> "CentralSeries":
        return cls._make(field, prec, [], 1, prec)

    @classmethod
    def from_ground(cls, e: GroundElement, prec: int) -> "CentralSeries":
        """A constant in K'."""
        ring = kernel.center(e.field)
        (row,), den = kernel.rows_of([e])
        ints = ring.ints([row])
        if ints is None:
            raise ValueError(f"{e} is not in the invariant subfield")
        return cls._make(e.field, 0, ints, den * ring.over, prec)

    @classmethod
    def embed(cls, field: GroundField, num: Sequence[int], den: Sequence[int], prec: int) -> "CentralSeries":
        """num(u)/den(u) for num in K'[u] and den in Z[u], to precision
        exactly prec: the value and precision `embed_fraction` gives the
        fraction."""
        ring = kernel.center(field)
        n, w = field.sigma_order, ring.w
        lo_num = next((k for k, c in enumerate(num) if c), None)
        if lo_num is None:
            return cls.zero(field, prec)
        lo_num //= w
        lo_den = next(k for k, c in enumerate(den) if c)
        val = n * (lo_num - lo_den)
        size = -((val - prec) // n)
        if size <= 0:
            return cls.zero(field, prec)
        ints, q_den = _central_quotient(ring, ring.lift(den[lo_den:]), num[lo_num * w :], size)
        return cls._make(field, val, ints, q_den, prec)

    @classmethod
    def from_twisted(cls, s: TwistedSeries) -> "CentralSeries | None":
        """s as a central series, or None unless every coefficient of s lies
        in K' and sits on an exponent divisible by n."""
        field = s.field
        if s.is_zero():
            return cls.zero(field, s.prec)
        ring = kernel.center(field)
        rows, den = s.int_rows()
        ints = ring.ints(rows)
        if s.val % field.sigma_order or ints is None:
            return None
        return cls._make(field, s.val, ints, den * ring.over, s.prec)

    def to_twisted(self) -> TwistedSeries:
        field = self.field
        if self.is_zero():
            return TwistedSeries.zero(field, self.prec)
        return TwistedSeries._from_rows(field, self.val, kernel.center(field).rows(self._ints), self._den, self.prec)

    def int_coeffs(self) -> tuple[list, int]:
        """Integer numerators of the coefficients over one common denominator."""
        return self._ints, self._den

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the stated precision."""
        return self.val >= self.prec

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CentralSeries)
            and self.field == other.field
            and self.val == other.val
            and self.prec == other.prec
            and self._den == other._den
            and self._ints == other._ints
        )

    def __hash__(self) -> int:
        return hash((self.val, self.prec, self._den, tuple(self._ints)))

    def truncate(self, prec: int) -> "CentralSeries":
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend precision {self.prec} to {prec}"
            )
        if prec == self.prec:
            return self
        return self._at_precision(prec)

    def _at_precision(self, prec: int) -> "CentralSeries":
        """The same coefficients, cut at prec or known as zeros up to it."""
        return CentralSeries._make(self.field, self.val, self._ints, self._den, prec)

    def _same(self, other: "CentralSeries") -> None:
        if self.field is not other.field:
            self.field.check_same(other.field)

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "CentralSeries", sign: int) -> "CentralSeries":
        self._same(other)
        field = self.field
        prec = min(self.prec, other.prec)
        terms = [(s, c) for s, c in ((self, 1), (other, sign)) if not s.is_zero()]
        if not terms:
            return CentralSeries.zero(field, prec)
        n, w = field.sigma_order, kernel.center(field).w
        val = min(s.val for s, _ in terms)
        size = -((val - prec) // n) * w
        if size <= 0:
            return CentralSeries.zero(field, prec)
        den = lcm(*(s._den for s, _ in terms))
        out = [0] * size
        for s, c in terms:
            shift = (s.val - val) // n * w
            scale = c * (den // s._den)
            for k, a in enumerate(s._ints[: max(size - shift, 0)], shift):
                out[k] += scale * a
        return CentralSeries._make(field, val, out, den, prec)

    def __add__(self, other: "CentralSeries") -> "CentralSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "CentralSeries") -> "CentralSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "CentralSeries":
        return CentralSeries._make(self.field, self.val, [-c for c in self._ints], self._den, self.prec)

    def __mul__(self, other: "CentralSeries") -> "CentralSeries":
        self._same(other)
        field = self.field
        prec = min(self.prec + other.val, other.prec + self.val)
        if self.is_zero() or other.is_zero():
            return CentralSeries.zero(field, prec)
        val = self.val + other.val
        size = -((val - prec) // field.sigma_order)
        out = kernel.center(field).mul_cut(self._ints, other._ints, size)
        return CentralSeries._make(field, val, out, self._den * other._den, prec)

    def times(self, k: int) -> "CentralSeries":
        """k * self for an integer k."""
        return CentralSeries._make(self.field, self.val, [k * a for a in self._ints], self._den, self.prec)

    def inv(self) -> "CentralSeries":
        """The inverse to the precision `TwistedSeries.inv` propagates."""
        if self.is_zero():
            raise ZeroSeries(f"inversion of a series that is zero mod t^{self.prec}")
        v, size = self.val, -((self.val - self.prec) // self.field.sigma_order)
        ints, den = _central_quotient(kernel.center(self.field), self._ints, [self._den], size)
        return CentralSeries._make(self.field, -v, ints, den, self.prec - 2 * v)

    def solve_left(self, num: "CentralSeries") -> "CentralSeries":
        """self^-1 * num, to the precision `laurent.solve_left` gives."""
        field = self.field
        self._same(num)
        if self.is_zero():
            raise ZeroSeries(f"division by a series that is zero mod t^{self.prec}")
        v = self.val
        out_prec = min(self.prec - 2 * v + num.val, self.prec - v, num.prec - v)
        if num.is_zero():
            return CentralSeries.zero(field, out_prec)
        w = num.val - v
        size = -((w - out_prec) // field.sigma_order)
        if size <= 0:
            return CentralSeries.zero(field, out_prec)
        ints, den = _central_quotient(kernel.center(field), self._ints, [c * self._den for c in num._ints], size)
        return CentralSeries._make(field, w, ints, den * num._den, out_prec)

    def __str__(self) -> str:
        return str(self.to_twisted())

    __repr__ = __str__


def _quotient(d: list, num: list, size: int) -> tuple[list, int]:
    """(X, E) with  sum_j X_j/E u^j = num/d  mod u^size, for integer
    polynomials with d[0] != 0.

    The recurrence  x_j = (num_j - sum_k d_k x_(j-k)) / d_0  keeps each x_j
    reduced, as O_j over its own denominator E_j, so the cancellation of a
    quotient keeps the numbers small; the result is put over one common
    denominator at the end.  An E_j may be negative; their lcm E is not.

    The sum runs on a window: with `every` the lcm of the |E_i| so far and
    `span` the index of d's last nonzero term below size, the window holds
    x_i * every for the last `span` quotients, so a step is one dot product
    with d_span .. d_1 and one gcd with d_0 * every, and the window is
    rescaled only when `every` grows.  Dense and gappy divisors run the same
    loop.  `_divide` brings every twisted division down to it, or to its
    several-column form `_quotients`.
    """
    d0 = d[0]
    span = next((k for k in range(min(len(d), size) - 1, 0, -1) if d[k]), 0)
    rev = d[span:0:-1]  # d_span .. d_1, against the window's oldest .. newest
    window: list[int] = []
    outs: list[int] = []
    dens: list[int] = []
    every = 1
    for j in range(size):
        acc = (num[j] * every if j < len(num) else 0) - sum(map(mul, rev if j >= span else rev[span - j :], window))
        e = d0 * every
        g = gcd(acc, e)
        o, e = acc // g, e // g
        outs.append(o)
        dens.append(e)
        r = abs(e) // gcd(every, e)
        if r > 1:
            every *= r
            window = [r * x for x in window]
        window.append(o * (every // e))
        if len(window) > span:
            del window[0]
    return [o * (every // e) for o, e in zip(outs, dens)], every


def _central_quotient(ring, d: list, num: list, size: int) -> tuple[list, int]:
    """(X, E) with X/E = num/d modulo u^size for num and d in K'[[u]]
    (`kernel.center`), d with a nonzero first coefficient: `_quotient`, one
    column for each coordinate of K', after d^-1 = q (d q)^-1 with d q in
    Z[[u]] when d is not there."""
    r = ring.rational(d)
    if r is None:
        q, r = ring.conjugate(d, size)
        num = ring.mul_cut(q, num, size)
    if ring.w == 1:
        return _quotient(r, num, size)
    cols, e = _quotients(r, ring.parts(num), size)
    return ring.join(cols), e


def _quotients(d: list, nums: list, size: int) -> tuple[list, int]:
    """`_quotient` for several numerators at once, over one common
    denominator: (X, E) with  sum_j X[c][j]/E u^j = nums[c]/d  mod u^size.

    Each step reduces every column over one denominator E_j and shares the
    factors d_k E/E_(j-k) among them, so dividing by a central polynomial
    costs its few terms per coefficient, with one lcm and one gcd per step
    for all the columns.  `_quotient` is the scalar form, on a window over
    one running lcm; on these few-term divisors with several columns the
    per-term factors here cost less than rescaling every column's window.
    """
    d0 = d[0]
    terms = [(k, dk) for k, dk in enumerate(d[1:size], 1) if dk]
    outs: list[list[int]] = [[] for _ in nums]
    dens: list[int] = []
    every = 1  # lcm of all the E_k so far
    active = 0
    for j in range(size):
        while active < len(terms) and terms[active][0] <= j:
            active += 1
        act = terms[:active]
        common = every if active == j else lcm(*(dens[j - k] for k, _ in act))
        factors = [(j - k, dk if dens[j - k] == common else dk * (common // dens[j - k])) for k, dk in act]
        accs = []
        for num, out in zip(nums, outs):
            acc = num[j] * common if j < len(num) else 0
            for i, f in factors:
                acc -= f * out[i]
            accs.append(acc)
        e = d0 * common
        g = gcd(e, *accs)
        for out, acc in zip(outs, accs):
            out.append(acc // g)
        dens.append(e // g)
        every = lcm(every, e // g)
    scales = [every // e for e in dens]
    return [[o * s for o, s in zip(out, scales)] for out in outs], every


def solve_left(den: TwistedSeries, num: TwistedSeries) -> TwistedSeries:
    """The unique s with den * s = num, i.e. den^-1 * num, through the
    center (see `_divide`).  The result precision is the same as
    `den.inv() * num` would propagate."""
    field = den.field
    den._same(num)
    if den.is_zero():
        raise ZeroSeries(f"division by a series that is zero mod t^{den.prec}")
    v = den.val
    out_prec = min(den.prec - 2 * v + num.val, den.prec - v, num.prec - v)
    if num.is_zero() or out_prec <= num.val - v:
        return TwistedSeries.zero(field, out_prec)
    return _divide(den, num, num.val - v, out_prec)


def _divide(den: TwistedSeries, num: TwistedSeries | None, w: int, prec: int) -> TwistedSeries:
    """den^-1 * num (den^-1 when num is None), of valuation w, to exactly
    the precision prec > w that `solve_left` and `inv` propagate.

    The division goes through the center Q((u)), u = t^n: with a conjugate
    den* such that N = den * den* = den* * den is central,
        den^-1 * num = N^-1 * (den* * num),
    and dividing a twisted series by the central N is one integer division
    per coordinate and residue class mod n, not a twisted recurrence.  The
    conjugate is
    * none when den is itself central (`CentralSeries.from_twisted`); the
      whole division runs on `CentralSeries` when num is central too, and
      otherwise, for den in Q((u)), on `_quotients`, which divides all the
      coordinates by N's recurrence at once (the central divisors that
      reach it, from `embed_fraction` and `ext_tau`, are polynomials of a
      few terms);
    * the rule of `kernel.conjugate_rows` at m = 2 over K' = Q,
      with only the rational coordinate of N computed (`_conjugate_norm`);
    * otherwise `norm_conjugate` of the known part of den as a polynomial,
      whose inverse agrees with den^-1 to the precision of the result.
    A norm from a conjugate is a dense series: it is inverted once
    (`_quotient`, one dot product over its window of quotients per
    coefficient) and the inverse convolved with each coordinate
    (`_convolve`).  Every route computes the exact quotient of the known
    parts on the result's window, so the canonical result is the same
    whichever runs.
    """
    field = den.field
    size = prec - w
    central = CentralSeries.from_twisted(den)
    if central is not None:
        if num is None:
            return central.inv().to_twisted()
        num_central = CentralSeries.from_twisted(num)
        if num_central is not None:
            return central.solve_left(num_central).to_twisted()
    norm = central and kernel.center(field).rational(central._ints)
    if norm:
        conj, norm_den = None, central._den
    else:
        d, dd = den.int_rows()
        # over a split quaternion algebra a leading coefficient of zero norm
        # is not a unit: `kadj` raises the field's classified error
        field.kadj(d[0])
        conjugate = _conjugate_norm if field.norm_terms is not None else _polynomial_conjugate
        conj, norm, norm_den = conjugate(field, d[:size], dd, den.val)
    if conj is None:
        rows, y_den = num.int_rows()
    elif num is None:
        rows, _, y_den = conj
    else:
        q, q_val, q_den = conj
        nums, dn = num.int_rows()
        rows = kernel.series_mul_rows(field, q, q_val, nums, size)
        y_den = q_den * dn * field.mul_den * field.sig_den
    # N^-1 y = norm_den * y / norm, one coordinate and residue class mod n
    # at a time
    n, dim = field.sigma_order, field.dim
    count = -(-size // n)
    cols = [[row[l] for row in rows[r:size:n]] for r in range(n) for l in range(dim)]
    if conj is None:
        cols, e = _quotients(norm, [[norm_den * a for a in col] for col in cols], count)
    else:
        inverse, e = _quotient(norm, [norm_den], count)
        cols = [_convolve(inverse, col, count) for col in cols]
    out = [field.zero_row] * size
    for r in range(n):
        for k, row in zip(range(r, size, n), zip(*cols[r * dim : (r + 1) * dim])):
            out[k] = row
    return TwistedSeries._from_rows(field, w, out, y_den * e, prec)


def _conjugate_norm(field: GroundField, d: list, dd: int, v: int) -> tuple[tuple, list, int]:
    """((conj, v, conj_den), ints, ints_den) for the series d/dd of
    valuation v at m = 2 over K' = Q: the rows of d* over conj_den, and the
    rational coefficients of N = d * d* at t^(2v + n*K), for the K with
    n*K < len(d), over ints_den.  N sums the `GroundField.norm_terms` forms
    over the pairs of rows in one residue class; each (p, l) is a
    convolution of two coordinates, which reads each pair once when p = l."""
    n, s = field.sigma_order, field.trd_den
    conj = kernel.conjugate_rows(field, d, v)
    count = -(-len(d) // n)
    ints = [0] * count
    for r in range(min(n, len(d))):
        cols = list(zip(*d[r::n]))
        length = len(cols[0])
        # terms r + n*a and r + n*b sit at t^(2v + n*K) for a + b = K - 2r/n
        shift = 2 * r // n
        for p, l, c in field.norm_terms[(v + r) % n]:
            x, y = cols[p], cols[l]
            for big_k in range(shift, count):
                m = big_k - shift
                lo = max(0, m - length + 1)
                if p == l:
                    # the pairs a < b twice, and the square when a = b
                    hi = (m + 1) // 2
                    total = 2 * sum(map(mul, x[lo:hi], x[m - lo : m - hi : -1])) if lo < hi else 0
                    if m % 2 == 0 and m // 2 < length:
                        total += x[m // 2] ** 2
                else:
                    total = sum(map(mul, x[lo : m + 1], y[m - lo :: -1]))
                ints[big_k] += c * total
    return (conj, v, dd * s), ints, dd * dd * field.mul_den * field.sig_den * s


def _polynomial_conjugate(field: GroundField, d: list, dd: int, v: int) -> tuple[tuple, list, int]:
    """((q, q_val, q_den), c, 1) for the known part of the series d/dd of
    valuation v: with u^a P = d/dd (P its rows at the exponents v mod n ...,
    a = v div n), `norm_conjugate` gives q * P = c(u), so
    (d/dd)^-1 = q * (u^a c)^-1.  q is returned as rows from its lowest term
    q_val, and c from its valuation, which puts the t-valuation of u^a c at
    v + q_val."""
    n, zero = field.sigma_order, field.zero_row
    q, c = norm_conjugate(SkewPolynomial._from_rows(field, [zero] * (v % n) + d, dd))
    rows, q_den = q.int_rows()
    q_val = next(k for k, r in enumerate(rows) if r != zero)
    return (rows[q_val:], q_val, q_den), c[next(k for k, a in enumerate(c) if a) :], 1


def _convolve(ints: list, col: list, count: int) -> list:
    """The first `count` coefficients of ints * col as power series: a
    multiple of `ints` added for each nonzero entry of col, so a polynomial
    costs its number of terms."""
    acc = [0] * count
    for i, a in enumerate(col[:count]):
        if a:
            acc[i:] = map(add, acc[i:], map(a.__mul__, ints[: count - i]))
    return acc


def embed_fraction(x: SkewFraction, prec: int) -> TwistedSeries:
    """Canonical embedding den^-1 num -> (den series)^-1 * (num series).

    With (q, c) = `norm_conjugate`(den), den^-1 num = c(t^n)^-1 (q num), so
    the series is a division by the central series c(t^n) (`solve_left`,
    which runs it on the center).  The result precision is exactly `prec`;
    the embedding computes at an internally padded precision so the
    divisor's valuation cannot eat into the requested window.  A fraction
    of valuation at least prec embeds as the zero series, as in
    `CentralSeries.embed`.
    """
    field = x.field
    if x.is_zero():
        return TwistedSeries.zero(field, prec)
    low = _low_degree(x.den)
    if _low_degree(x.num) - low >= prec:
        return TwistedSeries.zero(field, prec)
    # the series of den is a unit times t^low only if its lowest coefficient
    # is a unit, which `kadj` checks over a split quaternion algebra
    field.kadj(x.den.int_rows()[0][low])
    q, c = norm_conjugate(x.den)
    work = prec + 2 * field.sigma_order * next(k for k, a in enumerate(c) if a)
    den = TwistedSeries.from_polynomial(central_polynomial(field, c), work)
    num = TwistedSeries.from_polynomial(q * x.num, work)
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
    """Series root of a polynomial with central coefficients, the ascending
    x-coefficients `coeffs`, as a twisted series: `newton_lift` on
    `central_coefficients`."""
    return newton_lift(central_coefficients(coeffs, precision), seed, precision).to_twisted()


def central_coefficients(coeffs: Sequence[SkewFraction], precision: int) -> list[CentralSeries]:
    """The coefficients of a polynomial of degree d >= 1 in K'((u)), at the
    working precision of a lift to `precision`:  precision + 2 d v + 2,  v
    the worst pole order at t = 0 of a coefficient (in t).  A coefficient
    off the center is refused."""
    if not coeffs or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    pole = max((_low_degree(c.den) for c in coeffs if not c.is_zero()), default=0)
    work = precision + 2 * (len(coeffs) - 1) * pole + 2
    return [_embed_coefficient(c, work) for c in coeffs]


def newton_lift(coeffs: Sequence[CentralSeries], seed: GroundElement, precision: int) -> CentralSeries:
    """Series root in K'((u)) of the polynomial with the ascending
    x-coefficients `coeffs`, given to a working precision `work` >=
    precision.

    `seed` must be an invariant scalar with  f(seed) = 0 mod t  and
    f'(seed) a unit mod t  (simple residual root).  The contact valuation c
    (the valuation of f at the current root) doubles every round, and a round
    only needs the series to about 2c: it runs at precision
    min(work, 2c + pad),  pad = work - precision  (Brent & Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25, 1978).  So
    the lift costs about two rounds at full precision instead of one per
    round.  The root entering a round is a fixed series, so it moves to the
    higher precision by zero extension; it keeps the precision it lost to the
    coefficients' poles, so the result carries the same precision as a lift
    run at `work` throughout.
    """
    if not seed.is_invariant():
        raise NotInvariantSeries("newton seed must lie in the invariant subfield")
    work = min(c.prec for c in coeffs)
    pad = work - precision
    fc = list(coeffs)
    dc = [fc[m].times(m) for m in range(1, len(fc))]

    def at(series: list, x, p: int):
        return evaluate_poly([s.truncate(p) for s in series], x)

    def lift(x, p: int, q: int):
        # x, made in a round at precision p, for a round at precision q >= p
        return x if q == p else x._at_precision(x.prec + q - p)

    p = min(work, 2 + pad)
    rho = CentralSeries.from_ground(seed, p)
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


def _embed_coefficient(c: SkewFraction, prec: int) -> CentralSeries:
    """A polynomial coefficient of `newton_root` as a `CentralSeries` read
    straight from the rows of num and den, refused unless it lies in the
    center."""
    if not c.is_invariant_central():
        raise NotInvariantSeries("polynomial coefficients must be invariant series in t^n")
    return CentralSeries.embed(c.field, *central_fraction_ints(c), prec)
