"""Finite extensions of the central function field inside a skew field.

The center of the twisted fraction field is a rational function field
K = k^sigma(t^n).  This module builds the algebra

    L = (fraction field) (x) _K  K[x]/(f)

for a monic irreducible f over K, together with the designated series root
rho of f, the Galois action x -> q_g(x) of a finite group, and the maps that
the rest of the package (towers, command line) consumes:

* `CentralPolynomial` -- polynomials in the central variable x whose
  coefficients are central fractions; ordinary commutative arithmetic,
  run on reduced N/D pairs over Z[u] (`orefield.factor.RationalFunction`)
  when the invariant subfield is Q, as at every catalog level, and on
  `SkewFraction`s over any other invariant subfield.
* `PowerRows` -- the rows q^k modulo f of one polynomial q, built once and
  read by everything that works modulo f: with q = x they are the reduction
  table x^p mod f, with q = q_g the Galois matrix of g, and for any q the
  table that composition modulo f reads, p(q) = sum_k p_k (q^k mod f), as a
  `Residue` over one common Z[u] denominator.  `twisted_table` shows the
  rows as twisted polynomials over one common denominator.
* `FiniteGroup` -- a small group given by an explicit multiplication table.
* `ExtensionScenario` -- f, the group, the generator images and the root
  recipe, plus lazily computed derived data: one `PowerRows` per image
  polynomial (x's rows are the reduction table), the full image closure and
  the lifted root.
* `TensorElement` -- an element of L as c(t^n)^-1 * sum_i P_i x^i: one
  central denominator c in Z[u] and twisted polynomials P_i, in a canonical
  form with structural `==`.  Multiplication and inversion reduce through
  the rows of x and `apply` acts by the rows of q_g, all read through
  `twisted_table`; inversion solves a one-sided system by fraction-free
  elimination with norm-conjugate pivots (`linalg.solve_right_generic`);
  fraction inputs enter through the norm conjugate
  (`skewpoly.norm_conjugate`), den^-1 num = c^-1 (q num).  None of these
  runs an Ore reduction; `coords` shows the coordinates as canonical
  `SkewFraction`s, built on first use.
* `ext_tau` -- evaluation at the series root, a homomorphism into the
  twisted Laurent series: c(t^n)^-1 * sum_i P_i rho^i, one division by the
  central denominator, computed once per element.  The root residual and
  the tower embedding check evaluate on rho's `CentralSeries` form when it
  has one.
* `canonical_decomposition` -- rewrites a sum of (polynomial) * (invariant
  series) products over the canonical left basis e_j t^r, so that the sum
  vanishes exactly when every table entry does.  It does not recompute the
  identity; the tests do, on every decomposition they make.

Inputs come in through one lift, `SkewFraction.coerce`, and the fixed space
is the kernel that `linalg.nullspace` computes on the central coefficients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Iterable, Mapping, Sequence

from . import kernel, linalg
from .errors import (
    DivisionByZero,
    InsufficientPrecision,
    MixedScenarios,
    NotInvariantSeries,
    NotPolynomial,
    OrefieldError,
    ScenarioValidationError,
    SingularElement,
    UnknownGroupElement,
)
from .ground import GroundElement, GroundField
from .laurent import (
    CentralSeries,
    TwistedSeries,
    embed_fraction,
    evaluate_poly,
    is_invariant_series,
    newton_root,
    solve_left,
)
from .skewfrac import SkewFraction
from .skewpoly import (
    SkewPolynomial,
    central_ints,
    central_polynomial,
    norm_conjugate,
    reduce_central,
    times_central,
)


# -- central coefficients -------------------------------------------------------
#
# When the invariant subfield is Q, the center is Q(u), u = t^n, and a central
# coefficient is held as a `RationalFunction`.  Over any other invariant
# subfield it stays a `SkewFraction`.  Both kinds have + - * inv == is_zero,
# so the central polynomials, their power rows and the fixed space run the
# same code on either.  `orefield.factor` is imported on first use: building
# the catalog scenarios needs no central arithmetic, so a process that builds
# them only to compute with their fields does not load it.


def _central(field: GroundField, c: SkewFraction):
    """A central fraction as a coefficient of the central layer."""
    if field.invariant_degree != 1:
        return c
    from .factor import RationalFunction

    (num_rows, num_den), (den_rows, den_den) = c.num.int_rows(), c.den.int_rows()
    num, den = central_ints(field, num_rows), central_ints(field, den_rows)
    if num is None or den is None:
        _check_stride(c)
        raise ScenarioValidationError(f"coefficient {c} of a central polynomial is not central")
    return RationalFunction.make([a * den_den for a in num], [a * num_den for a in den])


def _check_stride(c: SkewFraction) -> None:
    """Raise unless every exponent of c's numerator and denominator is a
    multiple of the twist order."""
    n = c.field.sigma_order
    for p in (c.num, c.den):
        m = next((m for m, a in enumerate(p.coeffs) if m % n and not a.is_zero()), None)
        if m is not None:
            raise ScenarioValidationError(f"exponent {m} of {p} is not a multiple of the twist order")


def _view(field: GroundField, c) -> SkewFraction:
    """A central coefficient as a `SkewFraction`, built without `gcld`.

    For N/D in Q(u), den = D(t^n)/lc(D) is monic and num = N(t^n)/lc(D),
    with the unit written as the first coordinate (as `from_rational` does).
    A Bezout identity D*a + N*b = 1 over Q[u] holds in the skew ring too,
    so every common left divisor of den and num is a unit: this is the
    canonical reduced form.
    """
    if isinstance(c, SkewFraction):
        return c
    lead = c.den[-1]
    return SkewFraction(central_polynomial(field, c.den, lead), central_polynomial(field, c.num, lead))


def _central_zero(field: GroundField):
    if field.invariant_degree != 1:
        return SkewFraction.zero(field)
    from .factor import RationalFunction

    return RationalFunction.zero()


def _central_one(field: GroundField):
    if field.invariant_degree != 1:
        return SkewFraction.one(field)
    from .factor import RationalFunction

    return RationalFunction.one()


class CentralPolynomial:
    """Polynomial in x with central-fraction coefficients.

    x is adjoined centrally, so this is plain commutative polynomial
    arithmetic on the central coefficients: reduced N/D pairs over Z[u]
    when the invariant subfield is Q (every catalog level), central
    `SkewFraction`s otherwise.  `coeffs` shows them as `SkewFraction`s,
    built once on first use.  Construct through `from_coeffs`, which checks
    centrality; the raw constructor takes `SkewFraction`s that are already
    known to be central, and converts them on first use.
    """

    __slots__ = ("field", "_coeffs", "_data", "_residue")

    def __init__(self, field: GroundField, coeffs: tuple[SkewFraction, ...]) -> None:
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self._coeffs: tuple[SkewFraction, ...] | None = tuple(coeffs)
        self._data: tuple | None = None
        self._residue: Residue | None = None

    @classmethod
    def _of(cls, field: GroundField, coeffs) -> "CentralPolynomial":
        """The polynomial with these central coefficients."""
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        p = cls.__new__(cls)
        p.field = field
        p._coeffs = p._residue = None
        p._data = tuple(coeffs)
        return p

    @classmethod
    def from_coeffs(cls, field: GroundField, coeffs: Iterable) -> "CentralPolynomial":
        out = []
        for c in coeffs:
            frac = SkewFraction.coerce(field, c)
            if not frac.is_invariant_central():
                raise ScenarioValidationError(
                    f"coefficient {frac} of a central polynomial is not central"
                )
            out.append(frac)
        return cls(field, tuple(out))

    @classmethod
    def zero(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, ())

    @classmethod
    def constant(cls, field: GroundField, c: SkewFraction) -> "CentralPolynomial":
        return cls(field, (c,))

    @classmethod
    def one(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, (SkewFraction.one(field),))

    @classmethod
    def x(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, (SkewFraction.zero(field), SkewFraction.one(field)))

    @property
    def central_coeffs(self) -> tuple:
        """The central coefficients, ascending in x."""
        if self._data is None:
            self._data = tuple(_central(self.field, c) for c in self._coeffs)
        return self._data

    @property
    def coeffs(self) -> tuple[SkewFraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(_view(self.field, c) for c in self._data)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs if self._coeffs is not None else self._data) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def coefficient(self, m: int) -> SkewFraction:
        if 0 <= m <= self.degree:
            return self.coeffs[m]
        return SkewFraction.zero(self.field)

    def leading(self) -> SkewFraction:
        if self.is_zero():
            raise DivisionByZero("zero polynomial has no leading coefficient")
        if self._coeffs is not None:
            return self._coeffs[-1]
        return _view(self.field, self._data[-1])

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == SkewFraction.one(self.field)

    def _same(self, other: "CentralPolynomial") -> None:
        if self.field is not other.field:
            self.field.check_same(other.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CentralPolynomial):
            return NotImplemented
        self._same(other)
        return self.central_coeffs == other.central_coeffs

    def __add__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        self._same(other)
        a, b = self.central_coeffs, other.central_coeffs
        if len(a) < len(b):
            a, b = b, a
        return CentralPolynomial._of(
            self.field, [c + b[m] if m < len(b) else c for m, c in enumerate(a)]
        )

    def __neg__(self) -> "CentralPolynomial":
        return CentralPolynomial._of(self.field, [-c for c in self.central_coeffs])

    def __sub__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        return self + (-other)

    def __mul__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        self._same(other)
        a, b = self.central_coeffs, other.central_coeffs
        if not a or not b:
            return CentralPolynomial.zero(self.field)
        out = [_central_zero(self.field)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return CentralPolynomial._of(self.field, out)

    def scale(self, c: SkewFraction) -> "CentralPolynomial":
        return self * CentralPolynomial.constant(c.field, c)

    def divmod_by(self, g: "CentralPolynomial") -> tuple["CentralPolynomial", "CentralPolynomial"]:
        self._same(g)
        if g.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        gd = g.central_coeffs
        lead_inv = gd[-1].inv()
        rem = list(self.central_coeffs)
        quo = [_central_zero(field)] * max(len(rem) - len(gd) + 1, 0)
        while len(rem) >= len(gd) and rem:
            top = rem.pop()
            if top.is_zero():
                continue
            shift = len(rem) + 1 - len(gd)
            c = top * lead_inv
            quo[shift] = c
            # the top term cancels; only the lower terms of g are subtracted
            for j, b in enumerate(gd[:-1]):
                if not b.is_zero():
                    rem[shift + j] = rem[shift + j] - c * b
        return CentralPolynomial._of(field, quo), CentralPolynomial._of(field, rem)

    def residue(self) -> "Residue":
        """self as a `Residue`: over one common Z[u] denominator, the lcm of
        the coefficient denominators, when the invariant subfield is Q
        (cached)."""
        if self._residue is None:
            if self.field.invariant_degree == 1:
                self._residue = Residue(self.field, *_over_one_denominator(self.central_coeffs))
            else:
                self._residue = Residue(self.field, None, list(self.central_coeffs))
        return self._residue

    def embed_coefficients(self, prec: int) -> list[TwistedSeries]:
        return [embed_fraction(c, prec) for c in self.coeffs]

    def evaluate_series(self, point):
        """The value at a `TwistedSeries`, or at a `CentralSeries` over a
        rational invariant subfield, as a series of the point's kind."""
        if isinstance(point, CentralSeries) and self.field.invariant_degree != 1:
            point = point.to_twisted()
        if self.is_zero():
            return type(point).zero(self.field, point.prec)
        return evaluate_poly(_series_coefficients(self, point, point.prec), point)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m in range(self.degree, -1, -1):
            c = self.coeffs[m]
            if c.is_zero():
                continue
            if m == 0:
                parts.append(f"({c})")
            elif m == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{m}")
        return " + ".join(parts)

    __repr__ = __str__


def _series_coefficients(p: CentralPolynomial, point, prec: int) -> list:
    """p's coefficients as series at precision prec, of the point's kind: a
    `CentralSeries` point takes them from the Z[u] pairs of `central_coeffs`."""
    if isinstance(point, CentralSeries):
        return [CentralSeries.embed(p.field, c.num, c.den, prec) for c in p.central_coeffs]
    return p.embed_coefficients(prec)


def _over_one_denominator(coeffs, den: Sequence[int] = (1,)) -> tuple[list[int], list[list[int]]]:
    """(D, N) with coeffs[m] = N[m]/D for `RationalFunction`s coeffs, where D
    in Z[u] is a multiple of den and of every denominator: their lcm over
    Q[u] times an integer."""
    from .factor import _divexact, _mul, gcd

    den = list(den)
    for c in coeffs:
        if c.num and c.den != (1,):
            cden = list(c.den)
            if cden != den:
                den = _mul(den, _divexact(cden, gcd(den, cden)))
    return den, [_mul(list(c.num), _divexact(den, list(c.den))) for c in coeffs]


class Residue:
    """den(u)^-1 * sum_m nums[m] x^m: a polynomial in x over one common
    denominator, as composition modulo f leaves it, before any gcd.

    When the invariant subfield is Q, den and the nums are integer
    polynomials in u = t^n; over any other, den is None and the nums are
    the central coefficients themselves.  `==` cross-multiplies, and
    `polynomial` reduces to the canonical `CentralPolynomial` with one
    `RationalFunction.make` per coefficient.
    """

    __slots__ = ("field", "den", "nums")

    def __init__(self, field: GroundField, den: list[int] | None, nums: list) -> None:
        self.field, self.den, self.nums = field, den, nums

    def is_zero(self) -> bool:
        if self.den is None:
            return all(c.is_zero() for c in self.nums)
        return not any(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Residue):
            return NotImplemented
        if self.den is None:
            return self.polynomial() == other.polynomial()
        from .factor import _mul

        return all(
            _mul(a, other.den) == _mul(b, self.den)
            for a, b in zip_longest(self.nums, other.nums, fillvalue=[])
        )

    def polynomial(self) -> CentralPolynomial:
        if self.den is None:
            return CentralPolynomial._of(self.field, self.nums)
        from .factor import RationalFunction

        return CentralPolynomial._of(
            self.field, [RationalFunction.make(a, self.den) for a in self.nums]
        )


class PowerRows:
    """The rows q^k modulo f, k = 0, 1, ..., built on demand on central
    coefficients: the matrix of powers that composition modulo f reads
    (R. P. Brent and H. T. Kung, "Fast algorithms for manipulating formal
    power series", J. ACM 25, 1978),

        p(q) = sum_k p_k (q^k mod f)   modulo f,

    for any polynomials p and q.  When the invariant subfield is Q the rows
    are also held as integer polynomials over one common Z[u] denominator,
    so a composite is a sum of integer polynomial products (a `Residue`)
    with no gcd.  With q = x the rows are the reduction table x^p mod f.
    """

    __slots__ = ("f", "q", "_rows", "_last", "_den", "_nums", "_twisted")

    def __init__(self, f: CentralPolynomial, q: CentralPolynomial) -> None:
        f._same(q)
        if f.is_zero():
            raise DivisionByZero("power rows modulo the zero polynomial")
        self.f, self.q = f, q
        self._rows: list[list] = []
        self._last: CentralPolynomial | None = None
        self._den: list[int] = [1]
        self._nums: list[list[list[int]]] = []
        self._twisted: tuple[list[int], list[tuple[SkewPolynomial, ...]]] | None = None

    def rows(self, count: int) -> list[list]:
        """Rows 0 .. count-1: row k holds the coordinates of q^k modulo f."""
        field, d = self.f.field, self.f.degree
        while len(self._rows) < count:
            if self._last is None:
                power = CentralPolynomial.one(field) if d else CentralPolynomial.zero(field)
            else:
                _, power = (self._last * self.q).divmod_by(self.f)
            self._last = power
            coeffs = power.central_coeffs
            self._rows.append([*coeffs, *[_central_zero(field)] * (d - len(coeffs))])
        return self._rows[:count]

    def _table(self, count: int) -> list[list[list[int]]]:
        """At least `count` rows as integer polynomials over the common
        denominator `_den` (rational invariant subfield)."""
        from .factor import _divexact, _mul

        for row in self.rows(count)[len(self._nums) :]:
            den, nums = _over_one_denominator(row, self._den)
            if den != self._den:
                scale = _divexact(den, self._den)
                self._nums = [[_mul(a, scale) for a in r] for r in self._nums]
                self._den = den
            self._nums.append(nums)
        return self._nums

    def twisted_table(self, count: int) -> tuple[list[int], list[tuple[SkewPolynomial, ...]]]:
        """(C, T) with  q^k = C(t^n)^-1 * sum_m T[k][m] x^m  modulo f for at
        least k < count, over one common denominator C in Z[u] (cached)."""
        if self._twisted is None or len(self._twisted[1]) < count:
            field = self.f.field
            if field.invariant_degree == 1:
                nums = self._table(count)
                table = [tuple(central_polynomial(field, a) for a in row) for row in nums]
                self._twisted = (self._den, table)
            else:
                rows = self.rows(count)
                den, flat = _over_common_denominator([c for row in rows for c in row])
                d = self.f.degree
                self._twisted = (den, [tuple(flat[k : k + d]) for k in range(0, len(flat), d)])
        return self._twisted

    def compose(self, p: CentralPolynomial) -> Residue:
        """p(q) modulo f, as sum_k p_k (q^k mod f)."""
        self.f._same(p)
        field, d = self.f.field, self.f.degree
        if field.invariant_degree != 1:
            out = [_central_zero(field)] * d
            for c, row in zip(p.central_coeffs, self.rows(p.degree + 1)):
                if c.is_zero():
                    continue
                for m, r in enumerate(row):
                    if not r.is_zero():
                        out[m] = out[m] + c * r
            return Residue(field, None, out)
        from .factor import _add, _mul

        common = p.residue()
        out: list[list[int]] = [[] for _ in range(d)]
        for a, row in zip(common.nums, self._table(p.degree + 1)):
            if a:
                for m, r in enumerate(row):
                    if r:
                        out[m] = _add(out[m], _mul(a, r))
        return Residue(field, _mul(common.den, self._den), out)


class FiniteGroup:
    """A finite group given by element names and a full multiplication table."""

    __slots__ = ("elements", "identity", "table")

    def __init__(
        self,
        elements: Sequence[str],
        identity: str,
        table: Mapping[tuple[str, str], str],
    ) -> None:
        self.elements = tuple(elements)
        self.identity = identity
        self.table = dict(table)

    def op(self, a: str, b: str) -> str:
        if a not in self.elements:
            raise UnknownGroupElement(f"unknown group element {a!r}")
        if b not in self.elements:
            raise UnknownGroupElement(f"unknown group element {b!r}")
        return self.table[(a, b)]

    def validate(self) -> None:
        """Exhaustive closure / identity / associativity / inverse checks."""
        if len(set(self.elements)) != len(self.elements) or not self.elements:
            raise ScenarioValidationError("group elements must be distinct and nonempty")
        if self.identity not in self.elements:
            raise ScenarioValidationError(
                f"identity {self.identity!r} is not a group element"
            )
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table:
                    raise ScenarioValidationError(f"group table missing entry ({a},{b})")
                if self.table[(a, b)] not in self.elements:
                    raise ScenarioValidationError(
                        f"group table value {self.table[(a, b)]!r} at ({a},{b}) "
                        "is not an element"
                    )
        extra = set(self.table) - {(a, b) for a in self.elements for b in self.elements}
        if extra:
            raise ScenarioValidationError(f"group table has stray entries {sorted(extra)}")
        e = self.identity
        for g in self.elements:
            if self.table[(e, g)] != g or self.table[(g, e)] != g:
                raise ScenarioValidationError(f"identity axiom fails at {g!r}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise ScenarioValidationError(
                            f"associativity fails at ({a},{b},{c})"
                        )
        for g in self.elements:
            if not any(
                self.table[(g, h)] == e and self.table[(h, g)] == e
                for h in self.elements
            ):
                raise ScenarioValidationError(f"no inverse for {g!r}")


@dataclass(frozen=True)
class CheckResult:
    """One validation verdict, shaped for both text and JSON reporting."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    law: str
    details: str


def guarded_check(name: str, law: str, fn) -> CheckResult:
    """The row of a check `fn() -> (status, details)`; an `OrefieldError`
    inside fn fails this row instead of ending the report."""
    try:
        status, details = fn()
    except OrefieldError as exc:
        status, details = "fail", str(exc)
    return CheckResult(name, status, law, details)


class ExtensionScenario:
    """A finite central extension with its Galois data and root recipe.

    Construction performs only shape checks; the expensive certificates run
    in `run_scenario_checks` (or `validate`, which raises on the first
    failure).  Derived data is computed lazily and cached:

    * one `PowerRows` per polynomial: `reduction`, the rows x^p modulo f
      that `TensorElement` multiplies and inverts with, and `power_rows(g)`,
      the rows q_g^k modulo f whose first d are the matrix of g (for the
      identity, `reduction` itself),
    * the image polynomial q_g for every group element (closure of the
      generator images under the table, with consistency checks),
    * the series root rho, lifted once at padded precision, and its central
      form (`root`, `root_work`) when it has one.
    """

    def __init__(
        self,
        name: str,
        field: GroundField,
        f: CentralPolynomial,
        group: FiniteGroup,
        generator_images: Mapping[str, CentralPolynomial],
        precision: int,
        newton_seed: GroundElement | None = None,
        newton_coeffs: Sequence[SkewFraction] | None = None,
        rho_override: TwistedSeries | None = None,
    ) -> None:
        self.name = name
        self.field = field
        self.f = f
        self.group = group
        self.generator_images = dict(generator_images)
        self.precision = precision
        self.newton_seed = newton_seed
        self.newton_coeffs = tuple(newton_coeffs) if newton_coeffs is not None else None
        self.rho_override = rho_override
        if f.field is not field:
            field.check_same(f.field)
        if f.is_zero() or f.degree < 1:
            raise ScenarioValidationError(f"{name}: f must have degree >= 1")
        if not f.is_monic():
            raise ScenarioValidationError(f"{name}: f must be monic")
        for g in self.generator_images:
            if g not in group.elements:
                raise ScenarioValidationError(
                    f"{name}: generator {g!r} is not a group element"
                )
        if rho_override is None and newton_seed is None:
            raise ScenarioValidationError(f"{name}: no root recipe (seed or override)")
        self._reduction: PowerRows | None = None
        self._images: dict[str, CentralPolynomial] | None = None
        self._powers: dict[str, PowerRows] = {}
        self._rho_work: TwistedSeries | None = None
        self._rho: TwistedSeries | None = None
        self._root_work: CentralSeries | TwistedSeries | None = None
        self._root_powers: list | None = None
        self._rho_powers: list[TwistedSeries] | None = None

    @property
    def degree(self) -> int:
        return self.f.degree

    # -- reduction modulo f --------------------------------------------------

    @property
    def reduction(self) -> PowerRows:
        """The rows x^p modulo f (built on first use)."""
        if self._reduction is None:
            self._reduction = PowerRows(self.f, CentralPolynomial.x(self.field))
        return self._reduction

    def reduce_polynomial(self, p: CentralPolynomial) -> "CentralPolynomial":
        _, rem = p.divmod_by(self.f)
        return rem

    # -- Galois data ----------------------------------------------------------

    @property
    def images(self) -> dict[str, CentralPolynomial]:
        """q_g modulo f for every group element, closed over the table.

        The closure walks products with the generators, q_(g*s) = q_s(q_g)
        read off the power rows of q_g; whenever an element is reached twice
        the two candidate images must agree, otherwise the declared table
        and the declared generator images are inconsistent.  Only an image
        reached for the first time is reduced to canonical form.
        """
        if self._images is None:
            group = self.group
            images = {group.identity: self.reduction.q}
            for name, q in self.generator_images.items():
                reduced = self.reduce_polynomial(q)
                if name in images and images[name] != reduced:
                    raise ScenarioValidationError(
                        f"{self.name}: image of {name!r} conflicts with identity"
                    )
                images[name] = reduced
            powers = {group.identity: self.reduction}
            queue = deque(images)
            while queue:
                g = queue.popleft()
                if g not in powers:
                    powers[g] = PowerRows(self.f, images[g])
                for s in self.generator_images:
                    h = group.op(g, s)
                    candidate = powers[g].compose(images[s])
                    if h in images:
                        if candidate != images[h].residue():
                            raise ScenarioValidationError(
                                f"{self.name}: image of {h!r} is path dependent "
                                f"(via {g!r}*{s!r})"
                            )
                    else:
                        images[h] = candidate.polynomial()
                        queue.append(h)
            missing = sorted(set(group.elements) - set(images))
            if missing:
                raise ScenarioValidationError(
                    f"{self.name}: generators do not reach {missing}"
                )
            self._images, self._powers = images, powers
        return self._images

    def power_rows(self, g: str) -> PowerRows:
        """The rows q_g^k modulo f: their first d are the matrix of g."""
        if g not in self.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
        self.images  # the closure builds the rows of every element it reaches
        return self._powers[g]

    # -- the series root -------------------------------------------------------

    def _coefficient_valuation_pad(self) -> int:
        """Extra working precision to absorb denominator valuations of f."""
        worst = 0
        for c in self.f.coeffs:
            if c.is_zero():
                continue
            num_val = next(m for m, a in enumerate(c.num.coeffs) if not a.is_zero())
            den_val = next(m for m, a in enumerate(c.den.coeffs) if not a.is_zero())
            worst = max(worst, den_val - num_val)
        return 2 * self.degree * worst + 4

    @property
    def rho_work(self) -> TwistedSeries:
        """The root at padded internal precision (residual checks use this)."""
        if self._rho_work is None:
            if self.rho_override is not None:
                self._rho_work = self.rho_override
            else:
                coeffs = (
                    list(self.newton_coeffs)
                    if self.newton_coeffs is not None
                    else list(self.f.coeffs)
                )
                self._rho_work = newton_root(
                    coeffs,
                    self.newton_seed,
                    self.precision + self._coefficient_valuation_pad(),
                )
        return self._rho_work

    @property
    def rho(self) -> TwistedSeries:
        if self._rho is None:
            work = self.rho_work
            self._rho = work if work.prec <= self.precision else work.truncate(self.precision)
        return self._rho

    @property
    def root_work(self) -> CentralSeries | TwistedSeries:
        """`rho_work` in the form the checks compute with: its `CentralSeries`
        when the invariant subfield is Q and rho lies in Q((u)), as every
        catalog root does, and `rho_work` itself otherwise."""
        if self._root_work is None:
            work = self.rho_work
            central = CentralSeries.from_twisted(work) if self.field.invariant_degree == 1 else None
            self._root_work = work if central is None else central
        return self._root_work

    @property
    def root(self) -> CentralSeries | TwistedSeries:
        """`rho` in the form of `root_work`."""
        work = self.root_work
        return work if work.prec <= self.precision else work.truncate(self.precision)

    @property
    def root_powers(self) -> list:
        """root^0 .. root^(d-1), in the form of `root`."""
        if self._root_powers is None:
            root = self.root
            powers = [type(root).from_ground(self.field.one(), root.prec)]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * root)
            self._root_powers = powers
        return self._root_powers

    @property
    def rho_powers(self) -> list[TwistedSeries]:
        if self._rho_powers is None:
            self._rho_powers = [
                p.to_twisted() if isinstance(p, CentralSeries) else p for p in self.root_powers
            ]
        return self._rho_powers

    def validate(self) -> None:
        """Run every check; raise ScenarioValidationError on the first failure."""
        for check in run_scenario_checks(self):
            if check.status == "fail":
                raise ScenarioValidationError(f"{self.name}: {check.name}: {check.details}")

    def __repr__(self) -> str:
        return f"ExtensionScenario({self.name}, degree {self.degree})"


class TensorElement:
    """Element of the extension:  c(t^n)^-1 * sum_i P_i x^i.

    c (`den`) lies in Z[u], u = t^n, and is primitive with a positive
    leading coefficient; the P_i (`polys`) are twisted polynomials, and no
    factor of c divides every Z[u]-coordinate of every P_i.  The c with
    c * element polynomial form an ideal of Q[u], and this c generates it,
    so the form is unique and `==` compares the parts.  x and c are central:
    sums, products, the Galois action and inversion run on polynomial
    products and the scenario's tables over one central denominator, with
    one gcd normalisation over Z[u] per result and no Ore reduction.
    `coords`, the coordinates over the skew field as canonical
    `SkewFraction`s, are built on first use.  The constructor takes d
    coordinates (anything `make` coerces) and brings them to that form.
    """

    __slots__ = ("scenario", "den", "polys", "_coords", "_tau")

    def __init__(self, scenario: ExtensionScenario, coords: Sequence) -> None:
        d = scenario.degree
        if len(coords) != d:
            raise ValueError(f"expected {d} coordinates, got {len(coords)}")
        made = TensorElement.make(scenario, coords)
        self.scenario, self.den, self.polys = scenario, made.den, made.polys
        self._coords: tuple[SkewFraction, ...] | None = None
        self._tau: TwistedSeries | None = None

    @classmethod
    def _raw(cls, scenario: ExtensionScenario, den: Sequence[int], polys: Sequence) -> "TensorElement":
        """den(t^n)^-1 * sum_i polys[i] x^i from parts in canonical form."""
        element = cls.__new__(cls)
        element.scenario, element.den, element.polys = scenario, tuple(den), tuple(polys)
        element._coords = element._tau = None
        return element

    @classmethod
    def _reduced(cls, scenario: ExtensionScenario, den: Sequence[int], polys: list) -> "TensorElement":
        """den(t^n)^-1 * sum_i polys[i] x^i in canonical form."""
        return cls._raw(scenario, *reduce_central(den, polys))

    @classmethod
    def _modulo_f(cls, scenario: ExtensionScenario, den: Sequence[int], conv: list) -> "TensorElement":
        """den(t^n)^-1 * sum_p conv[p] x^p, reduced modulo f."""
        from .factor import _mul

        d = scenario.degree
        while len(conv) > d and conv[-1].is_zero():
            conv.pop()
        if len(conv) <= d:
            return cls._reduced(scenario, den, conv + [SkewPolynomial.zero(scenario.field)] * (d - len(conv)))
        c, table = scenario.reduction.twisted_table(max(len(conv), 2 * d - 1))
        out = conv[:d] if c == [1] else [times_central(v, c) for v in conv[:d]]
        for p in range(d, len(conv)):
            v = conv[p]
            if v.is_zero():
                continue
            for m, entry in enumerate(table[p]):
                if not entry.is_zero():
                    out[m] = out[m] + entry * v
        return cls._reduced(scenario, _mul(den, c), out)

    @classmethod
    def make(cls, scenario: ExtensionScenario, values: Sequence) -> "TensorElement":
        """Coerce a (possibly long) coefficient list, reducing modulo f."""
        field = scenario.field
        den, conv = _over_common_denominator([SkewFraction.coerce(field, v) for v in values])
        return cls._modulo_f(scenario, den, conv)

    @classmethod
    def zero(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls._raw(scenario, (1,), (SkewPolynomial.zero(scenario.field),) * scenario.degree)

    @classmethod
    def one(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [SkewFraction.one(scenario.field)])

    @classmethod
    def x(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [0, 1])

    @property
    def coords(self) -> tuple[SkewFraction, ...]:
        """The coordinates c(t^n)^-1 * P_i as canonical `SkewFraction`s."""
        if self._coords is None:
            if self.den == (1,):
                self._coords = tuple(SkewFraction.from_polynomial(p) for p in self.polys)
            else:
                c = central_polynomial(self.scenario.field, self.den)
                self._coords = tuple(SkewFraction.make(p, c) for p in self.polys)
        return self._coords

    def _same(self, other: "TensorElement") -> None:
        if self.scenario is not other.scenario:
            raise MixedScenarios(
                f"cannot combine elements of {self.scenario.name} and {other.scenario.name}"
            )

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.polys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._same(other)
        # both sides are canonical, and the canonical form is unique
        return self.den == other.den and self.polys == other.polys

    def __add__(self, other: "TensorElement") -> "TensorElement":
        from .factor import _divexact, _mul, gcd

        self._same(other)
        a, b = self.den, other.den
        if a == b:
            return TensorElement._reduced(self.scenario, a, [p + q for p, q in zip(self.polys, other.polys)])
        g = gcd(a, b)
        ra, rb = _divexact(list(a), g), _divexact(list(b), g)
        sums = [times_central(p, rb) + times_central(q, ra) for p, q in zip(self.polys, other.polys)]
        if len(g) == 1:
            # coprime denominators leave nothing to cancel
            return TensorElement._raw(self.scenario, _mul(a, b), sums)
        return TensorElement._reduced(self.scenario, _mul(_mul(ra, rb), g), sums)

    def __neg__(self) -> "TensorElement":
        return TensorElement._raw(self.scenario, self.den, [-p for p in self.polys])

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        from .factor import _mul

        self._same(other)
        d = self.scenario.degree
        conv = [SkewPolynomial.zero(self.scenario.field)] * (2 * d - 1)
        for i, a in enumerate(self.polys):
            if a.is_zero():
                continue
            for j, b in enumerate(other.polys):
                if not b.is_zero():
                    conv[i + j] = conv[i + j] + a * b
        return TensorElement._modulo_f(self.scenario, _mul(self.den, other.den), conv)

    def inv(self) -> "TensorElement":
        """Right inverse (= two-sided: compose with the verify in tests).

        For self = c^-1 * sum_i P_i x^i and the table x^p = C^-1 T_p, the
        inverse sum_j y_j x^j solves  sum_j (sum_i P_i T'_(i+j)) y_j = c*C e_0
        with T'_p = C e_p for p < d; the unknowns y_j sit on the right of
        the known coefficients, which is what `linalg.solve_right_generic`
        eliminates.  A singular system means the element is a zero divisor
        (f reducible) or zero.
        """
        from .factor import _mul

        if self.is_zero():
            raise SingularElement("inversion of zero")
        scenario = self.scenario
        d = scenario.degree
        zero = SkewPolynomial.zero(scenario.field)
        c, table = scenario.reduction.twisted_table(2 * d - 1)
        rows = [[zero] * d for _ in range(d)]
        for i, a in enumerate(self.polys):
            if a.is_zero():
                continue
            scaled = a if c == [1] else times_central(a, c)
            for j in range(d):
                if i + j < d:
                    rows[i + j][j] = rows[i + j][j] + scaled
                    continue
                for m, entry in enumerate(table[i + j]):
                    if not entry.is_zero():
                        rows[m][j] = rows[m][j] + entry * a
        rhs = [central_polynomial(scenario.field, _mul(self.den, c))] + [zero] * (d - 1)
        sol = linalg.solve_right_generic(rows, rhs)
        if sol is None:
            raise SingularElement(
                f"element of {self.scenario.name} is not invertible"
            )
        # the solution comes in the canonical form already
        return TensorElement._raw(scenario, *sol)

    def __pow__(self, n: int) -> "TensorElement":
        if n == 0:
            return TensorElement.one(self.scenario)
        x = self if n > 0 else self.inv()
        return kernel.power(x, abs(n) - 1, x)

    def apply(self, g: str) -> "TensorElement":
        """The Galois action: x -> q_g(x), extended coefficient-linearly."""
        from .factor import _mul

        c, table = self.scenario.power_rows(g).twisted_table(self.scenario.degree)
        out = [SkewPolynomial.zero(self.scenario.field)] * self.scenario.degree
        for i, v in enumerate(self.polys):
            if v.is_zero():
                continue
            for m, entry in enumerate(table[i]):
                if not entry.is_zero():
                    out[m] = out[m] + entry * v
        return TensorElement._reduced(self.scenario, _mul(self.den, c), out)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c})")
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _over_common_denominator(values: Sequence[SkewFraction]) -> tuple[list[int], list[SkewPolynomial]]:
    """(C, P) with values[k] = C(t^n)^-1 * P[k], C in Z[u] primitive.

    Each den^-1 num is c^-1 (q num) for the norm conjugate q*den = c
    (`skewpoly.norm_conjugate`), and C is the lcm of the c.
    """
    from .factor import _divexact, _mul, gcd

    pairs = []
    for v in values:
        if v.is_polynomial():
            pairs.append(([1], v.num))
        else:
            q, c = norm_conjugate(v.den)
            pairs.append((c, q * v.num))
    common = [1]
    for c, _ in pairs:
        if c != common:
            common = _mul(common, _divexact(c, gcd(common, c)))
    return common, [p if c == common else times_central(p, _divexact(common, c)) for c, p in pairs]


def fixed_space(
    scenario: ExtensionScenario, elements: Sequence[str] | None = None
) -> list[list[SkewFraction]]:
    """Canonical basis of the joint fixed space of the listed group elements.

    Defaults to the full group.  The matrices have central entries, so the
    kernel computed over the commutative central coefficients has the same
    dimension as the fixed subspace over the whole skew field.  The basis is
    returned as `SkewFraction`s.
    """
    names = list(elements) if elements is not None else list(scenario.group.elements)
    for g in names:
        if g not in scenario.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
    d = scenario.degree
    field = scenario.field
    one, zero = _central_one(field), _central_zero(field)
    rows = []
    for g in names:
        if g == scenario.group.identity:
            continue
        M = scenario.power_rows(g).rows(d)
        for m in range(d):
            rows.append([M[i][m] - one if i == m else M[i][m] for i in range(d)])
    if rows:
        basis = linalg.nullspace(rows, d)
    else:
        basis = [[one if i == j else zero for i in range(d)] for j in range(d)]
    return [[_view(field, c) for c in vec] for vec in basis]


def ext_tau(element: TensorElement, precision: int) -> TwistedSeries:
    """Evaluate at the series root:  sum_i v_i rho^i,  then truncate.

    The value at the full precision the root allows is computed once and
    kept on the element, so a request at a lower precision only truncates.
    Raises InsufficientPrecision when denominator valuations eat more
    precision than the scenario's root supplies.
    """
    if element._tau is None:
        element._tau = _value_at_root(element)
    tau = element._tau
    if tau.prec < precision:
        raise InsufficientPrecision(
            f"tau reached O(t^{tau.prec}) but O(t^{precision}) was requested"
        )
    return tau.truncate(precision)


def _value_at_root(element: TensorElement) -> TwistedSeries:
    """c(t^n)^-1 * sum_i P_i rho^i: sparse polynomial-times-series products
    and one division by the central denominator, which `solve_left` reads as
    central and runs on Q((u)) with no conjugate.

    The result is cut to the precision the coordinate-wise sum
    sum_i embed(v_i, N) * rho^i  reaches, N = rho.prec:  the least of N and,
    for each nonzero v_i = c^-1 P_i of valuation w_i,
    min(N + val rho^i, prec rho^i + min(w_i, N))  (the product rule, with
    the embedded v_i known to N).  The sum itself is known beyond that.
    """
    scenario = element.scenario
    field = scenario.field
    top = scenario.rho.prec
    v = field.sigma_order * next(k for k, a in enumerate(element.den) if a)
    zero = field.zero_row
    reach = top
    acc = None
    for p, power in zip(element.polys, scenario.root_powers):
        if p.is_zero():
            continue
        low = next(m for m, r in enumerate(p.int_rows()[0]) if r != zero)
        reach = min(reach, top + power.val, power.prec + min(low - v, top))
        # P_i rho^i is known to prec rho^i + low, as the product rule says
        work = power.prec + low - power.val
        if isinstance(power, CentralSeries):
            # rho^i = t^val * (sum_k a_k u^k)/den commutes with P_i
            ints, den = power.int_coeffs()
            term = TwistedSeries.from_polynomial(times_central(p, ints, den), work).shift(power.val)
        else:
            term = TwistedSeries.from_polynomial(p, work) * power
        acc = term if acc is None else acc + term
    if acc is None:
        return TwistedSeries.zero(field, top)
    if element.den != (1,):
        c = central_polynomial(field, element.den)
        work = max(acc.prec, acc.prec + v - acc.val, v + 1)
        acc = solve_left(TwistedSeries.from_polynomial(c, work), acc)
    return acc.truncate(reach)


# -- canonical decomposition --------------------------------------------------

def _splitting_inverse(field: GroundField) -> list[list[Fraction]]:
    """Inverse of the matrix whose columns are w_l * e_j over the rationals.

    Writing a ground element along those columns yields the coefficients
    lambda_{j,l} of the invariant splitting  a = sum_j lambda_j e_j  with
    lambda_j in the invariant subfield.  Computed once and kept on the field.
    """
    if field._splitting is None:
        dim = field.dim
        cols = []
        for e in field.h_basis:
            for w in field.invariant_basis:
                cols.append(field.mul_coords(w, e.coords))
        mat = [[cols[c][r] for c in range(len(cols))] for r in range(dim)]
        inv = linalg.invert_matrix(mat)
        if inv is None:
            raise OrefieldError("invariant splitting matrix is singular")
        field._splitting = inv
    return field._splitting


def canonical_decomposition(
    field: GroundField,
    terms: Sequence[tuple],
) -> dict[tuple[int, int], TwistedSeries]:
    """Rewrite  sum (h * z)  over the canonical left basis  e_j t^r.

    h must be a polynomial over the ground field and z an invariant series;
    the result maps (r, j) with 0 <= r < n to the invariant series z_{r,j}
    such that

        sum h*z  =  sum_{r,j}  (e_j t^r) * z_{r,j}.

    Because the e_j t^r are a left basis over the invariant series field,
    the total sum vanishes (to precision) exactly when every table entry
    does.  The identity itself is checked by the tests, which recompute
    both sides directly.
    """
    n = field.sigma_order
    hb = field.h_basis
    nw = len(field.invariant_basis)
    pairs: list[tuple[SkewPolynomial, TwistedSeries]] = []
    min_prec: int | None = None
    for h, z in terms:
        frac = SkewFraction.coerce(field, h)
        if not frac.is_polynomial():
            raise NotPolynomial(f"{frac} has a nontrivial denominator")
        if not isinstance(z, TwistedSeries):
            raise TypeError(f"expected a series, got {z!r}")
        field.check_same(z.field)
        if not is_invariant_series(z):
            raise NotInvariantSeries(
                "decomposition input series must have invariant coefficients "
                "at exponents divisible by the automorphism order"
            )
        pairs.append((frac.num, z))
        min_prec = z.prec if min_prec is None else min(min_prec, z.prec)
    if min_prec is None:
        min_prec = 0
    inv_mat = _splitting_inverse(field)
    table = {
        (r, j): TwistedSeries.zero(field, min_prec)
        for r in range(n)
        for j in range(len(hb))
    }
    for poly, z in pairs:
        for k, a in enumerate(poly.coeffs):
            if a.is_zero():
                continue
            mu = linalg.mat_vec(inv_mat, list(a.coords))
            r, q = k % n, k // n
            for j in range(len(hb)):
                lam_coords = tuple(
                    sum(
                        (mu[j * nw + l] * field.invariant_basis[l][c] for l in range(nw)),
                        Fraction(0),
                    )
                    for c in range(field.dim)
                )
                if all(v == 0 for v in lam_coords):
                    continue
                lam = field.element(lam_coords)
                table[(r, j)] = table[(r, j)] + z.scale_ground_left(lam).shift(n * q)
    return table


def match_root_polynomial(
    scenario: ExtensionScenario,
    target: TwistedSeries,
    num_degree: int = 4,
    den_degree: int = 4,
) -> CentralPolynomial | None:
    """Search q with central coefficients, deg q < deg f, and q(rho) = target.

    Sets up the rational linear system  sum_i N_i(t^n) rho^i = D(t^n) target
    with polynomial ansatz degrees in t^n, and returns the polynomial built
    from the first kernel vector with nonzero denominator part.  The answer
    only matches to the available series precision: callers must verify it
    exactly (e.g. through  f(q) = 0 mod f).
    """
    field = scenario.field
    n = field.sigma_order
    d = scenario.degree
    wbasis = [field.element(w) for w in field.invariant_basis]
    nw = len(wbasis)
    cols: list[TwistedSeries] = []
    for i in range(d):
        base = scenario.rho_powers[i]
        for e in range(num_degree + 1):
            for w in wbasis:
                cols.append(base.scale_ground_left(w).shift(n * e))
    for e in range(den_degree + 1):
        for w in wbasis:
            cols.append(-target.scale_ground_left(w).shift(n * e))
    lo = min(s.val for s in cols)
    hi = min(s.prec for s in cols)
    if hi <= lo:
        return None
    rows = []
    for m in range(lo, hi):
        for c in range(field.dim):
            rows.append([col.coefficient(m).coords[c] for col in cols])
    nn = d * (num_degree + 1) * nw
    for vec in linalg.nullspace(rows, len(cols)):
        den_part = vec[nn:]
        if all(v == 0 for v in den_part):
            continue
        den_poly = SkewPolynomial.from_coeffs(field, _spread(field, den_part, nw, n, den_degree))
        if den_poly.is_zero():
            continue
        coeffs = []
        for i in range(d):
            seg = vec[i * (num_degree + 1) * nw : (i + 1) * (num_degree + 1) * nw]
            num_poly = SkewPolynomial.from_coeffs(field, _spread(field, seg, nw, n, num_degree))
            coeffs.append(
                SkewFraction.zero(field)
                if num_poly.is_zero()
                else SkewFraction.make(num_poly, den_poly)
            )
        return CentralPolynomial(field, tuple(coeffs))
    return None


def _spread(
    field: GroundField, flat: Sequence[Fraction], nw: int, n: int, degree: int
) -> list[GroundElement]:
    """Coefficient list in t with entries at exponents n*e from a flat vector."""
    out = []
    for e in range(degree + 1):
        coords = tuple(
            sum(
                (flat[e * nw + l] * field.invariant_basis[l][c] for l in range(nw)),
                Fraction(0),
            )
            for c in range(field.dim)
        )
        if e:
            out.extend([field.zero()] * (n - 1))
        out.append(field.element(coords))
    return out


# -- the check battery ---------------------------------------------------------


# integer points u0 tried, in this order, by the specialisation certificate
_SPECIALISATION_POINTS = (0, 1, -1, 2, -2, 3, -3)


def _horner(c: list[int], u0: int) -> int:
    value = 0
    for a in reversed(c):
        value = value * u0 + a
    return value


def _specialised(coeffs: list, u0: int) -> list[int] | None:
    """f(x, u0) cleared to Z[x] from the (i, N_i, D_i) of f's coefficients
    N_i/D_i in Q(u); None when a denominator vanishes at u0."""
    values = []
    for i, num, den in coeffs:
        d = _horner(den, u0)
        if d == 0:
            return None
        values.append((i, Fraction(_horner(num, u0), d)))
    scale = lcm(*(v.denominator for _, v in values))
    cleared = [0] * (values[-1][0] + 1)
    for i, v in values:
        cleared[i] = v.numerator * (scale // v.denominator)
    return cleared


def _specialisation_point(scenario: ExtensionScenario) -> int | None:
    """The first u0 in _SPECIALISATION_POINTS that certifies f irreducible.

    u0 certifies when every coefficient denominator of f is nonzero at u0,
    and f(x, u0), cleared to Z[x], factors as one irreducible factor of
    degree `scenario.degree` = deg f (so its multiplicity is 1, and the
    leading coefficient of f is nonzero at u0).  None when no point does.
    Exponents off the multiples of the twist order raise
    `ScenarioValidationError`.
    """
    from .factor import factor_list

    coeffs = [
        (i, c.num, c.den)
        for i, c in enumerate(scenario.f.central_coeffs)
        if not c.is_zero()
    ]
    for u0 in _SPECIALISATION_POINTS:
        cleared = _specialised(coeffs, u0)
        if cleared is None:
            continue
        factors = factor_list(cleared)[1]
        if len(factors) == 1 and len(factors[0][0]) - 1 == scenario.degree:
            return u0
    return None


def _irreducibility_certificate(scenario: ExtensionScenario) -> tuple[str, str]:
    """(status, details) for f over the central function field.

    Only available when the invariant subfield is the rationals: then f is a
    polynomial over Q(u).  Specialisation settles the usual case without
    sympy.  Let F be f cleared of denominators and made primitive in
    Q[u][x].  If at an integer u0 every coefficient denominator and the
    leading coefficient of f are nonzero, a factorization F = G*H in
    Q[u][x] with both x-degrees positive (Gauss's lemma) specialises to one
    of f(x, u0) with the same degrees; so f(x, u0) irreducible over Q of
    degree deg f proves f irreducible over Q(u) (`_specialisation_point`).
    When no point certifies, bivariate factorization over Q decides (sympy,
    imported only then; factors in u alone are content and do not matter),
    and only this fallback can report how f splits.
    """
    field = scenario.field
    if field.invariant_degree != 1:
        return (
            "skipped",
            "certificate needs a rational invariant subfield "
            f"(dimension {field.invariant_degree} here)",
        )
    passed = ("pass", f"bivariate factorization leaves one x-factor of degree {scenario.degree}")
    if _specialisation_point(scenario) is not None:
        return passed
    import sympy

    x_sym, u_sym = sympy.symbols("x u")

    def upoly(c: list[int]):
        return sum((a * u_sym**k for k, a in enumerate(c)), sympy.Integer(0))

    expr = sympy.Integer(0)
    for i, c in enumerate(scenario.f.central_coeffs):
        if not c.is_zero():
            expr += upoly(c.num) / upoly(c.den) * x_sym**i
    numerator, _ = sympy.fraction(sympy.together(expr))
    factors = sympy.factor_list(sympy.expand(numerator), x_sym, u_sym)[1]
    positive = [(p, e) for p, e in factors if sympy.degree(p, gen=x_sym) > 0]
    if (
        len(positive) == 1
        and positive[0][1] == 1
        and sympy.degree(positive[0][0], gen=x_sym) == scenario.degree
    ):
        return passed
    shapes = ", ".join(
        f"deg_x={sympy.degree(p, gen=x_sym)} mult={e}" for p, e in positive
    )
    return ("fail", f"f splits over the center: x-positive factors [{shapes}]")


def run_scenario_checks(scenario: ExtensionScenario) -> list[CheckResult]:
    """Every scenario-level certificate, as structured results sorted by name."""

    def check_shape():
        f = scenario.f
        if not f.is_monic():
            return ("fail", "f is not monic")
        for i, c in enumerate(f.coeffs):
            if not c.is_invariant_central():
                return ("fail", f"coefficient of x^{i} is not central")
        return ("pass", f"monic of degree {f.degree} with central coefficients")

    def check_irreducible():
        return _irreducibility_certificate(scenario)

    def check_residual():
        rho = scenario.root_work
        work = rho.prec + scenario._coefficient_valuation_pad()
        value = evaluate_poly(_series_coefficients(scenario.f, rho, work), rho)
        if not value.is_zero():
            first = value.val
            return ("fail", f"f(rho) has a nonzero coefficient at t^{first}")
        if value.prec < scenario.precision:
            return (
                "fail",
                f"residual only known to O(t^{value.prec}), "
                f"stated precision is {scenario.precision}",
            )
        return ("pass", f"f(rho) = O(t^{value.prec}), stated precision {scenario.precision}")

    def check_galois_roots():
        for g in scenario.group.elements:
            if not scenario.power_rows(g).compose(scenario.f).is_zero():
                return ("fail", f"f(q_{g}) is nonzero modulo f")
        return ("pass", f"all {len(scenario.group.elements)} images are roots of f modulo f")

    def check_table():
        images = scenario.images
        for a in scenario.group.elements:
            rows = scenario.power_rows(a)
            for b in scenario.group.elements:
                ab = scenario.group.op(a, b)
                if rows.compose(images[b]) != images[ab].residue():
                    return ("fail", f"q_({a}*{b}) differs from q_{b}(q_{a}(x)) modulo f")
        return ("pass", f"all {len(scenario.group.elements)**2} products compose correctly")

    def check_faithful():
        images = scenario.images
        names = list(scenario.group.elements)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if images[a] == images[b]:
                    return ("fail", f"{a!r} and {b!r} act identically")
        return ("pass", "images are pairwise distinct")

    def check_fixed():
        basis = fixed_space(scenario)
        if len(basis) != 1:
            return ("fail", f"fixed space has dimension {len(basis)}, expected 1")
        one = SkewFraction.one(scenario.field)
        vec = basis[0]
        if not (vec[0] == one and all(c.is_zero() for c in vec[1:])):
            return ("fail", "fixed space is one dimensional but not spanned by 1")
        return ("pass", "fixed space is exactly the span of 1")

    def check_group():
        scenario.group.validate()
        if len(scenario.group.elements) != scenario.degree:
            return (
                "fail",
                f"group order {len(scenario.group.elements)} "
                f"differs from the degree {scenario.degree}",
            )
        return ("pass", f"axioms hold, order {len(scenario.group.elements)} = degree")

    results = [
        guarded_check(name, law, fn)
        for name, law, fn in (
            ("f-shape", "f is monic with coefficients in the center", check_shape),
            (
                "f-irreducible",
                "f has no proper factor over the central function field",
                check_irreducible,
            ),
            ("root-residual", "f(rho) = 0 to the stated precision", check_residual),
            ("galois-roots", "f(q_g(x)) = 0 (mod f) for every g", check_galois_roots),
            ("galois-table", "q_(g*h)(x) = q_h(q_g(x)) (mod f)", check_table),
            ("galois-faithful", "distinct group elements act differently", check_faithful),
            ("fixed-space", "the full-group fixed space is spanned by 1", check_fixed),
            ("group-axioms", "the table is a group of order deg f", check_group),
        )
    ]
    return sorted(results, key=lambda r: r.name)
