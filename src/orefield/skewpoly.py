"""Twisted polynomials over a ground skew field.

Multiplication follows the rule  t*a = sigma(a)*t , so the coefficient of
t^m in a product f*g is  sum_{i+j=m} f_i * sigma^i(g_j)  with all
coefficients written on the left of the powers of t.

Because the ring is noncommutative there are two division algorithms and
they are not interchangeable:

* `divmod_right(f, g)` writes  f = q*g + r  (divisor on the right of the
  quotient).  Its Euclidean loop preserves common *right* divisors.
* `divmod_left(f, g)` writes  f = g*q + r  and preserves common *left*
  divisors; it is the loop behind `gcld`, whose output left-divides both
  inputs.  This is the reduction used by left fractions den^-1 * num.

The greatest common left divisor is canonical up to a unit multiplied on
the right (right scaling preserves left divisibility; left scaling does
not, because conjugating a constant through a polynomial usually leaves
the constants).  `gcld` therefore normalises its output to be monic by a
right unit.

Coefficients are `GroundElement`s, ascending with no trailing zeros (the
zero polynomial has none; its degree is reported as -1).  A polynomial is
stored once, as the canonical integer rows of `orefield.kernel`, converted
on construction; products, divisions and the Euclidean loops run on them,
and `coeffs` is a view built on first use.

u = t^n (n the order of the twist) is central.  `norm_conjugate` writes
p^-1 = c(t^n)^-1 * q with c an integer polynomial in u, in lowest terms by
`kernel.reduce_central`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import kernel
from .errors import DivisionByZero, NotInvertible, ScenarioValidationError
from .ground import GroundElement, GroundField, terms_str


class SkewPolynomial:
    """Construct from coefficients (or the classmethods), which are converted
    to integer rows and kept, less trailing zeros, as the `coeffs` view;
    results of the kernel carry rows only, and build `coeffs` on first use."""

    __slots__ = ("field", "_coeffs", "_chint", "_rows")

    def __init__(self, field: GroundField, coeffs: tuple[GroundElement, ...]) -> None:
        self.field = field
        self._rows: tuple[list, int] = kernel.normalise(*kernel.rows_of(coeffs), field.zero_row)
        self._coeffs: tuple[GroundElement, ...] | None = coeffs[: len(self._rows[0])]
        self._chint: bool | None = None

    @classmethod
    def _from_rows(cls, field: GroundField, rows: list, den: int) -> "SkewPolynomial":
        """The polynomial sum rows[m]/den * t^m."""
        p = cls.__new__(cls)
        p.field = field
        p._coeffs = None
        p._chint = None
        p._rows = kernel.normalise(rows, den, field.zero_row)
        return p

    @property
    def coeffs(self) -> tuple[GroundElement, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(kernel.elements_of(self.field, *self._rows))
        return self._coeffs

    def int_rows(self) -> tuple[list, int]:
        """Integer numerators of the coefficients over one common denominator:
        canonical (no trailing zero rows, den > 0, no common content)."""
        return self._rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, field: GroundField, coeffs: Iterable) -> "SkewPolynomial":
        out = [field.coerce(c) for c in coeffs]
        while out and out[-1].is_zero():
            out.pop()
        return cls(field, tuple(out))

    @classmethod
    def zero(cls, field: GroundField) -> "SkewPolynomial":
        return cls._from_rows(field, [], 1)

    @classmethod
    def one(cls, field: GroundField) -> "SkewPolynomial":
        return cls._from_rows(field, [(1,) + field.zero_row[1:]], 1)

    @classmethod
    def t_power(cls, field: GroundField, power: int = 1, coeff=None) -> "SkewPolynomial":
        lead = field.one() if coeff is None else field.coerce(coeff)
        if lead.is_zero():
            return cls.zero(field)
        return cls(field, (field.zero(),) * power + (lead,))

    @classmethod
    def constant(cls, field: GroundField, value) -> "SkewPolynomial":
        e = field.coerce(value)
        return cls.zero(field) if e.is_zero() else cls(field, (e,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._rows[0]) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def leading(self) -> GroundElement:
        if self.is_zero():
            raise DivisionByZero("zero polynomial has no leading coefficient")
        rows, den = self._rows
        return kernel.elements_of(self.field, rows[-1:], den)[0]

    def is_monic(self) -> bool:
        if self.is_zero():
            return False
        rows, den = self._rows
        return rows[-1] == (den,) + self.field.zero_row[1:]

    def is_invariant_central(self) -> bool:
        """Invariant coefficients at exponents divisible by the twist order.

        Such polynomials commute with everything, which several hot paths
        exploit; the verdict is cached because it is queried per operation.
        """
        if self._chint is None:
            field = self.field
            n, zero = field.sigma_order, field.zero_row
            self._chint = all(
                r == zero or (m % n == 0 and field.is_invariant_row(r))
                for m, r in enumerate(self._rows[0])
            )
        return self._chint

    def coefficient(self, m: int) -> GroundElement:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return self.field.zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewPolynomial)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        rows, den = self._rows
        return hash((den, tuple(rows)))

    # -- ring operations ----------------------------------------------------

    def _combine(self, other: "SkewPolynomial", sign: int) -> "SkewPolynomial":
        self.field.check_same(other.field)
        f, df = self.int_rows()
        g, dg = other.int_rows()
        rows = kernel.lincomb(f, dg, g, sign * df, self.field.zero_row)
        return SkewPolynomial._from_rows(self.field, rows, df * dg)

    def __add__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "SkewPolynomial":
        rows, den = self._rows
        return SkewPolynomial._from_rows(self.field, kernel.scale(rows, -1), den)

    def __mul__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        self.field.check_same(other.field)
        field = self.field
        if self.is_zero() or other.is_zero():
            return SkewPolynomial.zero(field)
        f, df = self.int_rows()
        g, dg = other.int_rows()
        return SkewPolynomial._from_rows(
            field,
            kernel.mul_rows(field, f, g),
            df * dg * field.mul_den * field.sig_den,
        )

    def __pow__(self, n: int) -> "SkewPolynomial":
        if n < 0:
            raise ValueError("negative powers are fractions, not polynomials")
        return kernel.power(self, n, SkewPolynomial.one(self.field))

    def scale_left(self, c: GroundElement) -> "SkewPolynomial":
        """c * f  (no twist: constants multiply coefficients directly)."""
        self.field.check_same(c.field)
        return SkewPolynomial.constant(self.field, c) * self

    def apply_sigma(self, power: int = 1) -> "SkewPolynomial":
        """Apply the automorphism coefficientwise."""
        field = self.field
        rows, den = self._rows
        sig = field.ksig[power % field.sigma_order]
        return SkewPolynomial._from_rows(field, list(map(sig, rows)), den * field.sig_den)

    # -- division ------------------------------------------------------------

    def _divmod(self, g: "SkewPolynomial", pdivmod) -> tuple["SkewPolynomial", "SkewPolynomial"]:
        self.field.check_same(g.field)
        if g.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        f, df = self.int_rows()
        gr, dg = g.int_rows()
        q, r, k = pdivmod(field, f, gr)
        # k * F = G*q + r on the numerators F = df*self, G = dg*g
        return (
            SkewPolynomial._from_rows(field, kernel.scale(q, dg), k * df),
            SkewPolynomial._from_rows(field, r, k * df),
        )

    def divmod_right(self, g: "SkewPolynomial") -> tuple["SkewPolynomial", "SkewPolynomial"]:
        """(q, r) with self = q*g + r and deg r < deg g."""
        return self._divmod(g, kernel.pdivmod_right)

    def divmod_left(self, g: "SkewPolynomial") -> tuple["SkewPolynomial", "SkewPolynomial"]:
        """(q, r) with self = g*q + r and deg r < deg g."""
        return self._divmod(g, kernel.pdivmod_left)

    def __str__(self) -> str:
        # a kernel result stays rows only: printing does not keep the
        # coefficients it builds
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = kernel.elements_of(self.field, *self._rows)
        return terms_str(((m, str(c)) for m, c in enumerate(coeffs) if not c.is_zero()), "t")

    __repr__ = __str__


def gcld(f: SkewPolynomial, g: SkewPolynomial) -> SkewPolynomial:
    """Greatest common left divisor, monic (normalised by a right unit).

    Computed by the Euclidean loop on left pseudo-division, whose remainders
    keep exactly the common left divisors of the pair (rational scalars are
    central); every common left divisor of f and g left-divides the result.
    """
    f.field.check_same(g.field)
    if f.is_zero() and g.is_zero():
        raise DivisionByZero("gcld(0, 0) is undefined")
    field = f.field
    d = kernel.gcld_rows(field, f.int_rows()[0], g.int_rows()[0])
    if len(d) == 1:
        return SkewPolynomial.one(field)
    return _right_normalised(field, d, [d])[0]


def _right_normalised(field: GroundField, lead_of: list, polys: list) -> list[SkewPolynomial]:
    """polys * c for the right unit c that makes `lead_of` monic."""
    adj, norm = field.kadj(lead_of[-1])
    # c = sigma^-deg(adj) / N; the product rows carry dT * s^2
    c = [field.ksig[-(len(lead_of) - 1) % field.sigma_order](adj)]
    den = field.mul_den * field.sig_den**2 * norm
    return [SkewPolynomial._from_rows(field, kernel.mul_rows(field, p, c), den) for p in polys]


def left_normalised(field: GroundField, lead_of: tuple, polys: list) -> list[SkewPolynomial]:
    """c * p for each p in polys, for the left unit c that makes `lead_of`
    monic; `lead_of` and each p are (rows, den) pairs as from `int_rows`."""
    rows, den = lead_of
    adj, norm = field.kadj(rows[-1])
    # c = den * adj / N; the product rows carry dT * s
    c = [field.kscale(den, adj)] if den != 1 else [adj]
    k = field.mul_den * field.sig_den * norm
    return [SkewPolynomial._from_rows(field, kernel.mul_rows(field, c, p), k * d) for p, d in polys]


def exact_left_quotient(f: SkewPolynomial, d: SkewPolynomial) -> SkewPolynomial:
    """The q with f = d*q; raises if d does not left-divide f."""
    q, r = f.divmod_left(d)
    if not r.is_zero():
        raise DivisionByZero("polynomial is not left-divisible by the given divisor")
    return q


def ore_witness(
    a: SkewPolynomial, b: SkewPolynomial
) -> tuple[SkewPolynomial, SkewPolynomial]:
    """(a1, b1) with a*b1 = b*a1 and b1 != 0, so  b^-1 a = a1 b1^-1.

    Computed by the extended Euclidean algorithm on left pseudo-division,
    tracking right cofactors r_k = a*u_k + b*v_k; the first vanishing
    remainder hands over the least common right multiple, so deg b1 <= deg b
    and deg a1 <= deg a.  The witness is normalised so that b1 is monic.
    """
    a.field.check_same(b.field)
    field = a.field
    if b.is_zero():
        raise DivisionByZero("ore witness needs b != 0")
    if a.is_zero():
        return SkewPolynomial.zero(field), SkewPolynomial.one(field)
    if b.degree == 0:
        a1 = a.scale_left(b.leading().inv())
        return a1, SkewPolynomial.one(field)
    ar, da = a.int_rows()
    br, db = b.int_rows()
    u, v = kernel.cofactor_rows(field, ar, da, br, db, right=True)
    # 0 = a*u + b*v with the minimal-degree cofactors: b1 = u, a1 = -v
    a1, b1 = _right_normalised(field, u, [kernel.scale(v, -1), u])
    return a1, b1


def common_left_multiple(
    a: SkewPolynomial, b: SkewPolynomial
) -> tuple[SkewPolynomial, SkewPolynomial]:
    """(u, v) with u*a = v*b, both nonzero.

    The extended Euclidean algorithm on right pseudo-division with left
    cofactors r_k = u_k*a + v_k*b ends on 0 = u*a + v*b, the least common
    left multiple; hence deg u <= deg b and deg v <= deg a.  u is normalised
    monic so the output is reproducible.
    """
    a.field.check_same(b.field)
    field = a.field
    if a.is_zero() or b.is_zero():
        raise DivisionByZero("common left multiple needs nonzero inputs")
    ar, da = a.int_rows()
    br, db = b.int_rows()
    u, v = kernel.cofactor_rows(field, ar, da, br, db, right=False)
    return tuple(left_normalised(field, (u, 1), [(u, 1), (kernel.scale(v, -1), 1)]))


# -- central scalars and the norm conjugate ----------------------------------------
#
# u = t^n (n the twist order) is central.  An element of Z[u] is a list of
# Python ints, ascending, as in `orefield.factor`.


def central_polynomial(field: GroundField, c: Sequence[int], over: int = 1) -> SkewPolynomial:
    """c(t^n) / over, for c in Z[u]."""
    n, zero = field.sigma_order, field.zero_row
    rows = [zero] * ((len(c) - 1) * n + 1) if c else []
    for k, a in enumerate(c):
        if a:
            rows[k * n] = (a,) + zero[1:]
    return SkewPolynomial._from_rows(field, rows, over)


def central_fraction_ints(c) -> tuple[list[int], list[int]] | None:
    """(N, D), N in K'[u] and D in Z[u] (see `kernel.center`), with N/D the
    fraction c = den^-1 * num: the elements of both parts, cross-multiplied
    by their row denominators, with den brought down to Z[u] by its norm when
    it is not there.  None unless both parts lie in K'[u]; a nonzero
    coefficient at an exponent off the multiples of the twist order raises
    `ScenarioValidationError`."""
    field = c.field
    ring = kernel.center(field)
    (num_rows, num_den), (den_rows, den_den) = c.num.int_rows(), c.den.int_rows()
    num, den = ring.ints(num_rows), ring.ints(den_rows)
    if num is None or den is None:
        n, zero = field.sigma_order, field.zero_row
        for p in (c.num, c.den):
            m = next((m for m, r in enumerate(p.int_rows()[0]) if m % n and r != zero), None)
            if m is not None:
                raise ScenarioValidationError(f"exponent {m} of {p} is not a multiple of the twist order")
        return None
    num, den = kernel.strip(num, 0), kernel.strip(den, 0)
    if (d := ring.rational(den)) is None:
        q, d = ring.unit_multiple(den)
        num = ring.mul(q, num)
    return [a * den_den for a in num], [a * num_den for a in d]


def norm_conjugate(p: SkewPolynomial) -> tuple[SkewPolynomial, list[int]]:
    """(q, c) with  q*p = p*q = c(t^n),  c in Z[u] nonzero, primitive, with a
    positive leading coefficient.

    So p^-1 = c(t^n)^-1 * q moves a denominator into the center (M.
    Giesbrecht, J. Symbolic Comput. 26, 1998; X. Caruso & J. Le Borgne,
    J. Symbolic Comput. 79, 2017).  q is 1 when p is central and the
    invariant subfield K' is Q.  Otherwise q comes from Cayley-Hamilton in
    D(t), of reduced degree m over its center K'(u)
    (`kernel.reduced_conjugate`): Newton's identities turn
    the reduced traces Trd(p^k) into the coefficients e_k of the reduced
    characteristic polynomial, and q = sum_(k<m) (-1)^k e_k p^(m-1-k) has
    p*q = +-Nrd(p).  At m = 2, q = Trd(p) - p: the quaternion conjugate, and
    sigma(a) - b*t for p = a + b*t over a quadratic field.  When K' is not Q,
    the norm of K'/Q (`kernel.center`'s `conjugate`) takes it down to Q[u];
    then, or when m > 2, one `kernel.reduce_central` cuts c to the minimal
    central multiple of p.

    Since D[t] is a domain, q*p = c central gives p*q = c too.
    """
    if p.is_zero():
        raise DivisionByZero("the zero polynomial has no norm")
    field = p.field
    w, m = field.invariant_degree, field.reduced_degree
    if w == 1 and p.is_invariant_central():
        q = SkewPolynomial.one(field)
    else:
        q = kernel.reduced_conjugate(field, p, _remap) or SkewPolynomial.one(field)
        if w > 1:
            ring = kernel.center(field)
            down = ring.conjugate(kernel.strip(ring.ints((q * p).int_rows()[0]), 0))[0]
            q = SkewPolynomial._from_rows(field, ring.rows(down), 1) * q
    prod, pden = (q * p).int_rows()
    scale, c = kernel.zprimitive([prod[k][0] for k in range(0, len(prod), field.sigma_order)])
    if not c:
        raise NotInvertible(
            f"nonzero polynomial with zero norm in {field.name}; "
            "the configured quaternion algebra is not a division ring"
        )
    # q*p = scale * c / pden, so (q * pden/scale) * p = c
    qrows, qden = q.int_rows()
    qrows, qden = kernel.scale(qrows, pden), qden * scale
    if w > 1 or m > 2:
        c, (qrows,), qden = kernel.reduce_central(field, c, [qrows], qden)
    return SkewPolynomial._from_rows(field, qrows, qden), c


def _remap(p: SkewPolynomial, f, k: int) -> SkewPolynomial:
    """The polynomial with rows f(rows) over k times p's denominator."""
    rows, den = p.int_rows()
    return SkewPolynomial._from_rows(p.field, f(rows), den * k)
