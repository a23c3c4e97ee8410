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
* `FiniteGroup` -- a small group given by an explicit multiplication table.
* `ExtensionScenario` -- f, the group, the generator images and the root
  recipe, plus lazily computed derived data (reduction tables, the full
  image closure, matrices, the lifted root).  The tables, images and
  matrices are computed on the same central coefficients and read as
  `SkewFraction`s, each built once, without a `gcld`.
* `TensorElement` -- an element of L as c(t^n)^-1 * sum_i P_i x^i: one
  central denominator c in Z[u] and twisted polynomials P_i, in a canonical
  form with structural `==`.  Multiplication reduces through the reduction
  table, `apply` acts by the Galois matrices, both held over one common
  Z[u] denominator, and inversion solves a one-sided system by fraction-free
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
from .skewfrac import SkewFraction, is_central
from .skewpoly import (
    SkewPolynomial,
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
# so the central polynomials, the reduction table, the Galois matrices and the
# fixed space run the same code on either.  `orefield.factor` is imported on
# first use: building the catalog scenarios needs no central arithmetic, so a
# process that builds them only to compute with their fields does not load it.


def _central(field: GroundField, c: SkewFraction):
    """A central fraction as a coefficient of the central layer."""
    if not _rational_invariants(field):
        return c
    from .factor import RationalFunction

    num, num_den = _central_upoly(c.num, field)
    den, den_den = _central_upoly(c.den, field)
    if not c.is_invariant_central():
        raise ScenarioValidationError(f"coefficient {c} of a central polynomial is not central")
    return RationalFunction.make([a * den_den for a in num], [a * num_den for a in den])


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
    if not _rational_invariants(field):
        return SkewFraction.zero(field)
    from .factor import RationalFunction

    return RationalFunction.zero()


def _central_one(field: GroundField):
    if not _rational_invariants(field):
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

    __slots__ = ("field", "_coeffs", "_data")

    def __init__(self, field: GroundField, coeffs: tuple[SkewFraction, ...]) -> None:
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self._coeffs: tuple[SkewFraction, ...] | None = tuple(coeffs)
        self._data: tuple | None = None

    @classmethod
    def _of(cls, field: GroundField, coeffs) -> "CentralPolynomial":
        """The polynomial with these central coefficients."""
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        p = cls.__new__(cls)
        p.field = field
        p._coeffs = None
        p._data = tuple(coeffs)
        return p

    @classmethod
    def from_coeffs(cls, field: GroundField, coeffs: Iterable) -> "CentralPolynomial":
        out = []
        for c in coeffs:
            frac = SkewFraction.coerce(field, c)
            if not (frac.is_invariant_central() or is_central(frac)):
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
        return cls._of(field, (_central_one(field),))

    @classmethod
    def x(cls, field: GroundField) -> "CentralPolynomial":
        return cls._of(field, (_central_zero(field), _central_one(field)))

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

    def compose(self, other: "CentralPolynomial") -> "CentralPolynomial":
        """self(other(x)), by Horner in the polynomial ring."""
        self._same(other)
        coeffs = self.central_coeffs
        if not coeffs:
            return CentralPolynomial.zero(self.field)
        acc = CentralPolynomial._of(self.field, coeffs[-1:])
        for c in reversed(coeffs[:-1]):
            acc = acc * other + CentralPolynomial._of(self.field, (c,))
        return acc

    def embed_coefficients(self, prec: int) -> list[TwistedSeries]:
        return [embed_fraction(c, prec) for c in self.coeffs]

    def evaluate_series(self, point):
        """The value at a `TwistedSeries`, or at a `CentralSeries` over a
        rational invariant subfield, as a series of the point's kind."""
        if isinstance(point, CentralSeries) and not _rational_invariants(self.field):
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

    def inverse(self, g: str) -> str:
        for h in self.elements:
            if self.op(g, h) == self.identity and self.op(h, g) == self.identity:
                return h
        raise ScenarioValidationError(f"group element {g!r} has no inverse")

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


class ExtensionScenario:
    """A finite central extension with its Galois data and root recipe.

    Construction performs only shape checks; the expensive certificates run
    in `run_scenario_checks` (or `validate`, which raises on the first
    failure).  Derived data is computed lazily and cached:

    * reduction vectors of x^p modulo f,
    * the image polynomial q_g for every group element (closure of the
      generator images under the table, with consistency checks),
    * the matrices of the induced linear maps,
    * the series root rho, lifted once at padded precision, and its central
      form (`root`, `root_work`) when it has one.

    The reduction vectors and matrices are computed on central coefficients
    (see `CentralPolynomial`); `reduction_row` and `matrix` show them as
    `SkewFraction`s, each built once.
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
        self._rtables: list[tuple] = []
        self._rviews: list[tuple[SkewFraction, ...]] = []
        self._images: dict[str, CentralPolynomial] | None = None
        self._matrices: dict[str, list[list]] = {}
        self._matrix_views: dict[str, list[list[SkewFraction]]] = {}
        self._rtable: tuple[list[int], list[tuple[SkewPolynomial, ...]]] | None = None
        self._mtables: dict[str, tuple[list[int], list[tuple[SkewPolynomial, ...]]]] = {}
        self._rho_work: TwistedSeries | None = None
        self._rho: TwistedSeries | None = None
        self._root_work: CentralSeries | TwistedSeries | None = None
        self._root_powers: list | None = None
        self._rho_powers: list[TwistedSeries] | None = None

    @property
    def degree(self) -> int:
        return self.f.degree

    # -- reduction modulo f --------------------------------------------------

    def reduction_row(self, p: int) -> tuple[SkewFraction, ...]:
        """Coordinates of x^p modulo f (cached, extended on demand)."""
        while len(self._rviews) <= p:
            row = self._reduction_data(len(self._rviews))
            self._rviews.append(tuple(_view(self.field, c) for c in row))
        return self._rviews[p]

    def _reduction_data(self, p: int) -> tuple:
        """`reduction_row` on central coefficients."""
        d = self.degree
        zero = _central_zero(self.field)
        if not self._rtables:
            one = _central_one(self.field)
            for i in range(d):
                unit = [zero] * d
                unit[i] = one
                self._rtables.append(tuple(unit))
        f = self.f.central_coeffs
        while len(self._rtables) <= p:
            prev = self._rtables[-1]
            top = prev[d - 1]
            row = [zero, *prev[: d - 1]]
            if not top.is_zero():
                for m in range(d):
                    if not f[m].is_zero():
                        row[m] = row[m] - top * f[m]
            self._rtables.append(tuple(row))
        return self._rtables[p]

    def _reduction_table(self, size: int) -> tuple[list[int], list[tuple[SkewPolynomial, ...]]]:
        """(C, T) with  x^p = C(t^n)^-1 * sum_m T[p - d][m] x^m  modulo f for
        d <= p < size, over one common denominator C in Z[u] (cached)."""
        d = self.degree
        if self._rtable is None or len(self._rtable[1]) < size - d:
            rows = [self.reduction_row(p) for p in range(d, max(size, 2 * d - 1))]
            self._rtable = _table_over_common_denominator(rows)
        return self._rtable

    def reduce_polynomial(self, p: CentralPolynomial) -> "CentralPolynomial":
        _, rem = p.divmod_by(self.f)
        return rem

    # -- Galois data ----------------------------------------------------------

    @property
    def images(self) -> dict[str, CentralPolynomial]:
        """q_g modulo f for every group element, closed over the table.

        The closure walks products with the generators; whenever an element
        is reached twice the two candidate images must agree, otherwise the
        declared table and the declared generator images are inconsistent.
        """
        if self._images is None:
            group = self.group
            images = {group.identity: CentralPolynomial.x(self.field)}
            for name, q in self.generator_images.items():
                reduced = self.reduce_polynomial(q)
                if name in images and images[name] != reduced:
                    raise ScenarioValidationError(
                        f"{self.name}: image of {name!r} conflicts with identity"
                    )
                images[name] = reduced
            queue = deque(images)
            while queue:
                g = queue.popleft()
                for s in self.generator_images:
                    h = group.op(g, s)
                    candidate = self.reduce_polynomial(images[s].compose(images[g]))
                    if h in images:
                        if images[h] != candidate:
                            raise ScenarioValidationError(
                                f"{self.name}: image of {h!r} is path dependent "
                                f"(via {g!r}*{s!r})"
                            )
                    else:
                        images[h] = candidate
                        queue.append(h)
            missing = sorted(set(group.elements) - set(images))
            if missing:
                raise ScenarioValidationError(
                    f"{self.name}: generators do not reach {missing}"
                )
            self._images = images
        return self._images

    def matrix(self, g: str) -> list[list[SkewFraction]]:
        """Row i = coordinates of q_g(x)^i modulo f."""
        if g not in self._matrix_views:
            self._matrix_views[g] = [
                [_view(self.field, c) for c in row] for row in self._matrix_data(g)
            ]
        return self._matrix_views[g]

    def _matrix_data(self, g: str) -> list[list]:
        """`matrix` on central coefficients."""
        if g not in self.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
        if g not in self._matrices:
            d = self.degree
            zero = _central_zero(self.field)
            q = self.images[g]
            rows = []
            power = CentralPolynomial.one(self.field)
            for _ in range(d):
                rows.append([*power.central_coeffs] + [zero] * (d - 1 - power.degree))
                power = self.reduce_polynomial(power * q)
            self._matrices[g] = rows
        return self._matrices[g]

    def _matrix_table(self, g: str) -> tuple[list[int], list[tuple[SkewPolynomial, ...]]]:
        """`matrix` as (C, T) with row i, entry m = C(t^n)^-1 * T[i][m] (cached)."""
        if g not in self._mtables:
            self._mtables[g] = _table_over_common_denominator(self.matrix(g))
        return self._mtables[g]

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
            central = CentralSeries.from_twisted(work) if _rational_invariants(self.field) else None
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
        c, table = scenario._reduction_table(len(conv))
        out = conv[:d] if c == [1] else [times_central(v, c) for v in conv[:d]]
        for p in range(d, len(conv)):
            v = conv[p]
            if v.is_zero():
                continue
            for m, entry in enumerate(table[p - d]):
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
        c, table = scenario._reduction_table(2 * d - 1)
        rows = [[zero] * d for _ in range(d)]
        for i, a in enumerate(self.polys):
            if a.is_zero():
                continue
            scaled = a if c == [1] else times_central(a, c)
            for j in range(d):
                if i + j < d:
                    rows[i + j][j] = rows[i + j][j] + scaled
                    continue
                for m, entry in enumerate(table[i + j - d]):
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

        c, table = self.scenario._matrix_table(g)
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


def _table_over_common_denominator(rows) -> tuple[list[int], list[tuple[SkewPolynomial, ...]]]:
    """Rows of central fractions as (C, T), entry = C(t^n)^-1 * T[i][m]."""
    den, flat = _over_common_denominator([x for row in rows for x in row])
    width = len(rows[0]) if rows else 0
    return den, [tuple(flat[i : i + width]) for i in range(0, len(flat), width)]


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
        M = scenario._matrix_data(g)
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
    and one division by the central denominator.

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


def _rational_invariants(field: GroundField) -> bool:
    return len(field.invariant_basis) == 1


def _central_upoly(p: SkewPolynomial, field: GroundField) -> tuple[list[int], int]:
    """A central polynomial as integers in u = t^n (rational case).

    Returns (c, den) with p = sum_k c[k] / (den * w_a) * u^k, read from the
    integer rows at the anchor coordinate a, the first nonzero entry w_a of
    the invariant basis vector w.
    """
    n = field.sigma_order
    w = field.invariant_basis[0]
    anchor = next(i for i, v in enumerate(w) if v != 0)
    rows, den = p.int_rows()
    out = [0] * ((len(rows) - 1) // n + 1)
    for m, row in enumerate(rows):
        if not any(row):
            continue
        if m % n:
            raise ScenarioValidationError(
                f"exponent {m} of {p} is not a multiple of the twist order"
            )
        out[m // n] = row[anchor]
    return out, den


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
    if not _rational_invariants(field):
        return (
            "skipped",
            "certificate needs a rational invariant subfield "
            f"(dimension {len(field.invariant_basis)} here)",
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
    results: list[CheckResult] = []

    def guarded(name: str, law: str, fn) -> None:
        try:
            status, details = fn()
        except OrefieldError as exc:
            status, details = "fail", str(exc)
        results.append(CheckResult(name, status, law, details))

    def check_shape():
        f = scenario.f
        if not f.is_monic():
            return ("fail", "f is not monic")
        for i, c in enumerate(f.coeffs):
            if not (c.is_invariant_central() or is_central(c)):
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
            image = scenario.images[g]
            value = scenario.reduce_polynomial(scenario.f.compose(image))
            if not value.is_zero():
                return ("fail", f"f(q_{g}) is nonzero modulo f")
        return ("pass", f"all {len(scenario.group.elements)} images are roots of f modulo f")

    def check_table():
        images = scenario.images
        for a in scenario.group.elements:
            for b in scenario.group.elements:
                ab = scenario.group.op(a, b)
                composed = scenario.reduce_polynomial(images[b].compose(images[a]))
                if composed != images[ab]:
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

    guarded("f-shape", "f is monic with coefficients in the center", check_shape)
    guarded(
        "f-irreducible",
        "f has no proper factor over the central function field",
        check_irreducible,
    )
    guarded("root-residual", "f(rho) = 0 to the stated precision", check_residual)
    guarded("galois-roots", "f(q_g(x)) = 0 (mod f) for every g", check_galois_roots)
    guarded("galois-table", "q_(g*h)(x) = q_h(q_g(x)) (mod f)", check_table)
    guarded("galois-faithful", "distinct group elements act differently", check_faithful)
    guarded("fixed-space", "the full-group fixed space is spanned by 1", check_fixed)
    guarded("group-axioms", "the table is a group of order deg f", check_group)
    return sorted(results, key=lambda r: r.name)
