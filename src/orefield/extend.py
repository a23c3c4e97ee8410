"""Finite extensions of the central function field inside a skew field.

The center of the twisted fraction field is a rational function field
K = k^sigma(t^n).  This module builds the algebra

    L = (fraction field) (x) _K  K[x]/(f)

for a monic irreducible f over K, together with the designated series root
rho of f, the Galois action x -> q_g(x) of a finite group, and the maps that
the rest of the package (towers, command line) consumes:

* `CentralPolynomial` -- polynomials in the central variable x whose
  coefficients are central fractions; ordinary commutative arithmetic.
* `FiniteGroup` -- a small group given by an explicit multiplication table.
* `ExtensionScenario` -- f, the group, the generator images and the root
  recipe, plus lazily computed derived data (reduction tables, the full
  image closure, matrices, the lifted root).
* `TensorElement` -- an element of L as a coordinate vector over the skew
  field; multiplication reduces through the tables, inversion solves a
  one-sided linear system, `apply` acts by the Galois matrices.
* `ext_tau` -- evaluation at the series root, a homomorphism into the
  twisted Laurent series.
* `canonical_decomposition` -- rewrites a sum of (polynomial) * (invariant
  series) products over the canonical left basis e_j t^r, so that the sum
  vanishes exactly when every table entry does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
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
    TwistedSeries,
    embed_fraction,
    evaluate_poly,
    is_invariant_series,
    newton_root,
)
from .skewfrac import SkewFraction, is_central
from .skewpoly import SkewPolynomial


def _as_fraction(field: GroundField, value) -> SkewFraction:
    if isinstance(value, SkewFraction):
        field.check_same(value.field)
        return value
    if isinstance(value, SkewPolynomial):
        field.check_same(value.field)
        return SkewFraction.from_polynomial(value)
    if isinstance(value, GroundElement):
        field.check_same(value.field)
        return SkewFraction.from_ground(value)
    if isinstance(value, (int, Fraction)):
        return SkewFraction.from_rational(field, value)
    raise TypeError(f"cannot interpret {value!r} as a central fraction")


class CentralPolynomial:
    """Polynomial in x with central-fraction coefficients.

    x is adjoined centrally, so this is plain commutative polynomial
    arithmetic; the heavy lifting happens inside the coefficient field.
    Construct through `from_coeffs`, which checks centrality; the raw
    constructor is reserved for internal arithmetic on already-checked
    coefficients.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GroundField, coeffs: tuple[SkewFraction, ...]) -> None:
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, field: GroundField, coeffs: Iterable) -> "CentralPolynomial":
        out = []
        for c in coeffs:
            frac = _as_fraction(field, c)
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
        return cls(field, (SkewFraction.one(field),))

    @classmethod
    def x(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, (SkewFraction.zero(field), SkewFraction.one(field)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: int) -> SkewFraction:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return SkewFraction.zero(self.field)

    def leading(self) -> SkewFraction:
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == SkewFraction.one(self.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CentralPolynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return CentralPolynomial(
            self.field,
            tuple(self.coefficient(m) + other.coefficient(m) for m in range(n)),
        )

    def __neg__(self) -> "CentralPolynomial":
        return CentralPolynomial(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        return self + (-other)

    def __mul__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        if self.is_zero() or other.is_zero():
            return CentralPolynomial.zero(self.field)
        out = [SkewFraction.zero(self.field)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return CentralPolynomial(self.field, tuple(out))

    def scale(self, c: SkewFraction) -> "CentralPolynomial":
        return CentralPolynomial(self.field, tuple(c * a for a in self.coeffs))

    def divmod_by(self, g: "CentralPolynomial") -> tuple["CentralPolynomial", "CentralPolynomial"]:
        if g.is_zero():
            raise DivisionByZero("polynomial division by zero")
        lead_inv = g.leading().inv()
        rem = list(self.coeffs)
        quo = [SkewFraction.zero(self.field)] * max(len(rem) - len(g.coeffs) + 1, 0)
        while len(rem) >= len(g.coeffs) and rem:
            if rem[-1].is_zero():
                rem.pop()
                continue
            shift = len(rem) - len(g.coeffs)
            c = rem[-1] * lead_inv
            quo[shift] = c
            for j, b in enumerate(g.coeffs):
                rem[shift + j] = rem[shift + j] - c * b
            rem.pop()
        return (
            CentralPolynomial(self.field, tuple(quo)),
            CentralPolynomial(self.field, tuple(rem)),
        )

    def compose(self, other: "CentralPolynomial") -> "CentralPolynomial":
        """self(other(x)), by Horner in the polynomial ring."""
        if self.is_zero():
            return CentralPolynomial.zero(self.field)
        acc = CentralPolynomial.constant(self.field, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * other + CentralPolynomial.constant(self.field, c)
        return acc

    def embed_coefficients(self, prec: int) -> list[TwistedSeries]:
        return [embed_fraction(c, prec) for c in self.coeffs]

    def evaluate_series(self, point: TwistedSeries) -> TwistedSeries:
        if self.is_zero():
            return TwistedSeries.zero(self.field, point.prec)
        return evaluate_poly(self.embed_coefficients(point.prec), point)

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
    * the series root rho, lifted once at padded precision.
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
        self._rtables: list[tuple[SkewFraction, ...]] = []
        self._images: dict[str, CentralPolynomial] | None = None
        self._matrices: dict[str, list[list[SkewFraction]]] = {}
        self._rho_work: TwistedSeries | None = None
        self._rho: TwistedSeries | None = None
        self._rho_powers: list[TwistedSeries] | None = None

    @property
    def degree(self) -> int:
        return self.f.degree

    # -- reduction modulo f --------------------------------------------------

    def reduction_row(self, p: int) -> tuple[SkewFraction, ...]:
        """Coordinates of x^p modulo f (cached, extended on demand)."""
        d = self.degree
        if not self._rtables:
            for i in range(d):
                unit = [SkewFraction.zero(self.field)] * d
                unit[i] = SkewFraction.one(self.field)
                self._rtables.append(tuple(unit))
        while len(self._rtables) <= p:
            prev = self._rtables[-1]
            top = prev[d - 1]
            row = [SkewFraction.zero(self.field)] * d
            for m in range(1, d):
                row[m] = prev[m - 1]
            if not top.is_zero():
                for m in range(d):
                    c = self.f.coefficient(m)
                    if not c.is_zero():
                        row[m] = row[m] - top * c
            self._rtables.append(tuple(row))
        return self._rtables[p]

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
        if g not in self.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
        if g not in self._matrices:
            d = self.degree
            q = self.images[g]
            rows = []
            power = CentralPolynomial.one(self.field)
            for _ in range(d):
                rows.append([power.coefficient(m) for m in range(d)])
                power = self.reduce_polynomial(power * q)
            self._matrices[g] = rows
        return self._matrices[g]

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
    def rho_powers(self) -> list[TwistedSeries]:
        if self._rho_powers is None:
            powers = [TwistedSeries.one(self.field, self.rho.prec)]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * self.rho)
            self._rho_powers = powers
        return self._rho_powers

    def validate(self) -> None:
        """Run every check; raise ScenarioValidationError on the first failure."""
        for check in run_scenario_checks(self):
            if check.status == "fail":
                raise ScenarioValidationError(f"{self.name}: {check.name}: {check.details}")

    def __repr__(self) -> str:
        return f"ExtensionScenario({self.name}, degree {self.degree})"


class TensorElement:
    """Element of the extension, as coordinates over the skew fraction field.

    The coordinate vector v represents  sum_i v_i x^i  with x central of
    degree d over the center; products reduce through the scenario's tables.
    """

    __slots__ = ("scenario", "coords")

    def __init__(self, scenario: ExtensionScenario, coords: Sequence[SkewFraction]) -> None:
        d = scenario.degree
        if len(coords) != d:
            raise ValueError(f"expected {d} coordinates, got {len(coords)}")
        self.scenario = scenario
        self.coords = tuple(coords)

    @classmethod
    def make(cls, scenario: ExtensionScenario, values: Sequence) -> "TensorElement":
        """Coerce a (possibly long) coefficient list, reducing modulo f."""
        field = scenario.field
        fractions = [_as_fraction(field, v) for v in values]
        d = scenario.degree
        out = [SkewFraction.zero(field)] * d
        for p, c in enumerate(fractions):
            if c.is_zero():
                continue
            row = scenario.reduction_row(p)
            for m in range(d):
                if not row[m].is_zero():
                    out[m] = out[m] + c * row[m]
        return cls(scenario, out)

    @classmethod
    def zero(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls(scenario, [SkewFraction.zero(scenario.field)] * scenario.degree)

    @classmethod
    def one(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [SkewFraction.one(scenario.field)])

    @classmethod
    def x(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [0, 1])

    def _same(self, other: "TensorElement") -> None:
        if self.scenario is not other.scenario:
            raise MixedScenarios(
                f"cannot combine elements of {self.scenario.name} and {other.scenario.name}"
            )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._same(other)
        return all(a == b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._same(other)
        return TensorElement(
            self.scenario, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.scenario, [-a for a in self.coords])

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale_left(self, c: SkewFraction) -> "TensorElement":
        return TensorElement(self.scenario, [c * a for a in self.coords])

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        self._same(other)
        d = self.scenario.degree
        field = self.scenario.field
        conv = [SkewFraction.zero(field)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if b.is_zero():
                    continue
                conv[i + j] = conv[i + j] + a * b
        out = [SkewFraction.zero(field)] * d
        for p, c in enumerate(conv):
            if c.is_zero():
                continue
            row = self.scenario.reduction_row(p)
            for m in range(d):
                if not row[m].is_zero():
                    out[m] = out[m] + c * row[m]
        return TensorElement(self.scenario, out)

    def inv(self) -> "TensorElement":
        """Right inverse (= two-sided: compose with the verify in tests).

        Solves  sum_j (sum_i a_i R^(i+j)) b_j = 1  for the unknowns b_j that
        sit on the right of the known coefficients, which is exactly what
        one-sided elimination supports.  A singular system means the element
        is a zero divisor (f reducible) or zero.
        """
        if self.is_zero():
            raise SingularElement("inversion of zero")
        d = self.scenario.degree
        field = self.scenario.field
        zero = SkewFraction.zero(field)
        rows = []
        for m in range(d):
            row = []
            for j in range(d):
                entry = zero
                for i, a in enumerate(self.coords):
                    if a.is_zero():
                        continue
                    r = self.scenario.reduction_row(i + j)[m]
                    if not r.is_zero():
                        entry = entry + a * r
                row.append(entry)
            rows.append(row)
        rhs = [SkewFraction.one(field)] + [zero] * (d - 1)
        sol = linalg.solve_right_generic(rows, rhs)
        if sol is None:
            raise SingularElement(
                f"element of {self.scenario.name} is not invertible"
            )
        return TensorElement(self.scenario, sol)

    def __pow__(self, n: int) -> "TensorElement":
        if n < 0:
            return self.inv() ** (-n)
        return kernel.power(self, n, TensorElement.one(self.scenario))

    def apply(self, g: str) -> "TensorElement":
        """The Galois action: x -> q_g(x), extended coefficient-linearly."""
        M = self.scenario.matrix(g)
        d = self.scenario.degree
        out = [SkewFraction.zero(self.scenario.field)] * d
        for i, v in enumerate(self.coords):
            if v.is_zero():
                continue
            for m in range(d):
                if not M[i][m].is_zero():
                    out[m] = out[m] + v * M[i][m]
        return TensorElement(self.scenario, out)

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


def fixed_space(
    scenario: ExtensionScenario, elements: Sequence[str] | None = None
) -> list[list[SkewFraction]]:
    """Canonical basis of the joint fixed space of the listed group elements.

    Defaults to the full group.  The matrices have central entries, so the
    kernel computed over the commutative central fractions has the same
    dimension as the fixed subspace over the whole skew field.
    """
    names = list(elements) if elements is not None else list(scenario.group.elements)
    for g in names:
        if g not in scenario.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
    d = scenario.degree
    field = scenario.field
    one = SkewFraction.one(field)
    zero = SkewFraction.zero(field)
    rows = []
    for g in names:
        if g == scenario.group.identity:
            continue
        M = scenario.matrix(g)
        for m in range(d):
            row = []
            for i in range(d):
                entry = M[i][m]
                if i == m:
                    entry = entry - one
                row.append(entry)
            rows.append(row)
    if not rows:
        return [
            [one if i == j else zero for i in range(d)] for j in range(d)
        ]
    return linalg.nullspace_generic(rows, d, one, zero)


def ext_tau(element: TensorElement, precision: int) -> TwistedSeries:
    """Evaluate at the series root:  sum_i v_i rho^i,  then truncate.

    Raises InsufficientPrecision when denominator valuations eat more
    precision than the scenario's root supplies.
    """
    scenario = element.scenario
    field = scenario.field
    work = scenario.rho.prec
    acc = TwistedSeries.zero(field, work)
    for i, c in enumerate(element.coords):
        if c.is_zero():
            continue
        acc = acc + embed_fraction(c, work) * scenario.rho_powers[i]
    if acc.prec < precision:
        raise InsufficientPrecision(
            f"tau reached O(t^{acc.prec}) but O(t^{precision}) was requested"
        )
    return acc.truncate(precision)


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


def _as_polynomial(field: GroundField, h) -> SkewPolynomial:
    if isinstance(h, SkewFraction):
        field.check_same(h.field)
        if h.den.degree != 0:
            raise NotPolynomial(f"{h} has a nontrivial denominator")
        return h.num
    if isinstance(h, SkewPolynomial):
        field.check_same(h.field)
        return h
    if isinstance(h, GroundElement):
        field.check_same(h.field)
        return SkewPolynomial.constant(field, h)
    if isinstance(h, (int, Fraction)):
        return SkewPolynomial.constant(field, field.from_rational(h))
    raise TypeError(f"cannot interpret {h!r} as a polynomial")


def canonical_decomposition(
    field: GroundField,
    terms: Sequence[tuple],
    verify: bool = True,
) -> dict[tuple[int, int], TwistedSeries]:
    """Rewrite  sum (h * z)  over the canonical left basis  e_j t^r.

    h must be a polynomial over the ground field and z an invariant series;
    the result maps (r, j) with 0 <= r < n to the invariant series z_{r,j}
    such that

        sum h*z  =  sum_{r,j}  (e_j t^r) * z_{r,j}.

    Because the e_j t^r are a left basis over the invariant series field,
    the total sum vanishes (to precision) exactly when every table entry
    does.  With `verify` the identity is recomputed directly and compared.
    """
    n = field.sigma_order
    hb = field.h_basis
    nw = len(field.invariant_basis)
    pairs: list[tuple[SkewPolynomial, TwistedSeries]] = []
    min_prec: int | None = None
    for h, z in terms:
        poly = _as_polynomial(field, h)
        if not isinstance(z, TwistedSeries):
            raise TypeError(f"expected a series, got {z!r}")
        field.check_same(z.field)
        if not is_invariant_series(z):
            raise NotInvariantSeries(
                "decomposition input series must have invariant coefficients "
                "at exponents divisible by the automorphism order"
            )
        pairs.append((poly, z))
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
    if verify:
        prec = min(
            [min_prec] + [s.prec for s in table.values()]
        )
        direct = TwistedSeries.zero(field, prec)
        for poly, z in pairs:
            direct = direct + TwistedSeries.from_polynomial(poly, prec) * z
        recomposed = TwistedSeries.zero(field, prec)
        for (r, j), s in table.items():
            basis_series = TwistedSeries.from_polynomial(
                SkewPolynomial.t_power(field, r, hb[j]), prec
            )
            recomposed = recomposed + basis_series * s
        if direct.truncate(min(direct.prec, recomposed.prec)) != recomposed.truncate(
            min(direct.prec, recomposed.prec)
        ):
            raise OrefieldError("internal: decomposition identity failed")
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


def _central_fraction_to_uv(c: SkewFraction, field: GroundField, u_sym):
    """A central fraction as a sympy expression in u = t^n (rational case)."""
    import sympy

    n = field.sigma_order
    w = field.invariant_basis[0]
    anchor = next(i for i, v in enumerate(w) if v != 0)

    def poly_expr(p: SkewPolynomial):
        expr = sympy.Integer(0)
        for m, a in enumerate(p.coeffs):
            if a.is_zero():
                continue
            if m % n:
                raise ScenarioValidationError(
                    f"exponent {m} of {p} is not a multiple of the twist order"
                )
            ratio = Fraction(a.coords[anchor], w[anchor])
            expr += sympy.Rational(ratio.numerator, ratio.denominator) * u_sym ** (m // n)
        return expr

    return poly_expr(c.num) / poly_expr(c.den)


def _irreducibility_certificate(scenario: ExtensionScenario) -> tuple[str, str]:
    """(status, details) for f over the central function field.

    Only available when the invariant subfield is the rationals: then f is a
    polynomial over Q(u) and bivariate factorization over Q decides
    irreducibility (factors in u alone are content and do not matter).
    """
    import sympy

    field = scenario.field
    if not _rational_invariants(field):
        return (
            "skipped",
            "certificate needs a rational invariant subfield "
            f"(dimension {len(field.invariant_basis)} here)",
        )
    x_sym, u_sym = sympy.symbols("x u")
    expr = sympy.Integer(0)
    for i, c in enumerate(scenario.f.coeffs):
        if c.is_zero():
            continue
        expr += _central_fraction_to_uv(c, field, u_sym) * x_sym**i
    numerator, _ = sympy.fraction(sympy.together(expr))
    factors = sympy.factor_list(sympy.expand(numerator), x_sym, u_sym)[1]
    positive = [(p, e) for p, e in factors if sympy.degree(p, gen=x_sym) > 0]
    if (
        len(positive) == 1
        and positive[0][1] == 1
        and sympy.degree(positive[0][0], gen=x_sym) == scenario.degree
    ):
        return ("pass", f"bivariate factorization leaves one x-factor of degree {scenario.degree}")
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
        rho = scenario.rho_work
        work = rho.prec + scenario._coefficient_valuation_pad()
        value = evaluate_poly(scenario.f.embed_coefficients(work), rho)
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
