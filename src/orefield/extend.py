"""Finite extensions of the central function field inside a skew field.

The center of the twisted fraction field is a rational function field
K = k^sigma(t^n).  This module builds the algebra

    L = (fraction field) (x) _K  K[x]/(f)

for a monic irreducible f over K, together with the designated series root
rho of f, the Galois action x -> q_g(x) of a finite group, and the maps that
the rest of the package (towers, command line) consumes:

* `CentralPolynomial` -- polynomials in the central variable x whose
  coefficients are central fractions, in one form on every field:
  den(u)^-1 * sum_m N_m x^m, u = t^n, with den in Z[u] and the N_m in
  K'[u], K' the invariant subfield, the ring `kernel.center` (Z[u] when K'
  is Q, as at every catalog level).
  Ordinary commutative arithmetic on the numerators, no gcd per
  coefficient, in the Z[u] routines of `orefield.kernel` (`zadd`, `zsub`)
  and the product of `kernel.center`; `coeffs` shows canonical
  `SkewFraction`s, and a polynomial prints by descending powers of x.
* `PowerRows` -- the rows q^k modulo f of one polynomial q, built once and
  read by everything that works modulo f: with q = x they are the reduction
  table x^p mod f, with q = q_g the Galois matrix of g, and for any q the
  table that composition modulo f reads, p(q) = sum_k p_k (q^k mod f).
  They are kept once, as `table`: numerators in K'[u] over one common
  Z[u] denominator, grown from the last row, row k+1 = (row k * q) mod f;
  `powers` reads polynomials off it.
* `FiniteGroup` -- a small group given by an explicit multiplication table.
* `ExtensionScenario` -- f, the group, the generator images and the root
  recipe, plus lazily computed derived data: one `PowerRows` per image
  polynomial (x's rows are the reduction table), the full image closure and
  the root in K'((u)), stored once as `root_work`.
* `TensorElement` -- an element of L as c(t^n)^-1 * sum_i P_i x^i, stored
  once: c in Z[u] and the P_i as d lists of integer rows over one integer
  denominator, in a canonical form with structural `==`
  (`kernel.reduce_central`).  Products convolve the stored rows and reduce
  by the rows of x, `apply` acts by the rows of q_g, both read from
  `PowerRows.table` with one central reduction per result;
  inversion goes through reduced norms, e^-1 = c E* Pi N^-1, with
  E E* = nu in F = K'(u)[x]/(f) and nu Pi = N in the center, by
  Cayley-Hamilton (`kernel.cayley_hamilton`) on the rows of x alone, so it
  eliminates nothing and reads no Galois image; fraction inputs enter
  through the norm conjugate (`skewpoly.norm_conjugate`),
  den^-1 num = c^-1 (q num).  None of these runs an Ore reduction; `coords`
  shows the coordinates as canonical `SkewFraction`s, built on first use:
  through the central view `_view` when a coordinate lies in K'(u), through
  the Ore reduction otherwise.
* `ext_tau` -- evaluation at the series root, a homomorphism into the
  twisted Laurent series: c(t^n)^-1 * sum_i P_i rho^i, one division by the
  central denominator, computed once per element.  It sends the central x
  to rho, so rho lies in the center K'((u)) and is kept there, as a
  `CentralSeries`: the root residual and the tower embedding check
  evaluate on it.
* `canonical_decomposition` -- rewrites a sum of (polynomial) * (invariant
  series) products over the canonical left basis e_j t^r, so that the sum
  vanishes exactly when every table entry does.  It does not recompute the
  identity; the tests do, on every decomposition they make.

Inputs come in through one lift, `SkewFraction.coerce`.  The fixed space
is the kernel of the Galois matrices minus 1 over the center, which
`linalg.ring_nullspace` computes by fraction-free elimination, over
K'[u]: the rows N - C of each matrix over its
common Z[u] denominator C, so no fraction is formed until the basis is shown
as canonical `SkewFraction`s.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, zip_longest
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import kernel, linalg
from .errors import (
    CapExceeded,
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
from .ground import GroundElement, GroundField, terms_str
from .kernel import cayley_hamilton, center, common_denominator, zadd, zmul, zsub
from .laurent import (
    CentralSeries,
    TwistedSeries,
    central_coefficients,
    evaluate_poly,
    is_invariant_series,
    newton_lift,
    solve_left,
)
from .skewfrac import SkewFraction
from .skewpoly import (
    SkewPolynomial,
    central_fraction_ints,
    central_polynomial,
    norm_conjugate,
)


# -- central polynomials -----------------------------------------------------------
#
# A central polynomial is den(u)^-1 * sum_m N_m x^m, u = t^n: den in Z[u] and
# the N_m in K'[u], K' the invariant subfield, in the ring `kernel.center`
# that the polynomials, their power rows and the fixed space run on.  Beside
# it, `_view` shows a/den as a canonical `SkewFraction` and `_twisted` a as a
# twisted polynomial.  `orefield.factor` and the ring are loaded on first
# use: building the catalog scenarios, whose polynomials are written in this
# form, needs no central arithmetic.


def _view(field: GroundField, a: list, den: list[int]) -> SkewFraction:
    ring = center(field)
    if ring.rational(a) is None:
        # off Q[u] the lowest terms are a gcd over K'[u]: the Ore reduction's
        return SkewFraction.make(_twisted(field, a), central_polynomial(field, den))
    # in lowest terms (`reduce`), den = D(t^n)/lc(D) is monic and num =
    # N(t^n)/lc(D); a Bezout identity D*a + N*b = 1 over Q[u] holds in the
    # skew ring too, so this is the canonical reduced form
    den, (a,) = ring.reduce(den, [a])
    lead = den[-1]
    return SkewFraction(central_polynomial(field, den, lead), central_polynomial(field, ring.rational(a), lead))


def _twisted(field: GroundField, a: list) -> SkewPolynomial:
    return SkewPolynomial._from_rows(field, center(field).rows(a), 1)


class CentralPolynomial:
    """Polynomial in x with central-fraction coefficients.

    x is adjoined centrally, so this is plain commutative polynomial
    arithmetic, held as den(u)^-1 * sum_m N_m x^m over one denominator den
    in Z[u], with numerators N_m in K'[u] (see `kernel.center`): the one
    stored form.  Sums and products are numerator products over the product
    or lcm of the denominators, with no gcd per coefficient; `divmod_by`
    pseudo-divides and brings its remainder to lowest terms, and `==`
    cross-multiplies.  `from_coeffs` converts central `SkewFraction`s and
    refuses the rest; `coeffs` shows the coefficients as canonical
    `SkewFraction`s, a view built once on first use.
    """

    __slots__ = ("field", "den", "nums", "_coeffs")

    def __init__(self, field: GroundField, den: Sequence[int], nums: Iterable) -> None:
        """den(u)^-1 * sum_m nums[m] x^m, as given."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        self.field = field
        self.den, self.nums = (list(den), tuple(nums)) if nums else ([1], ())
        self._coeffs: tuple[SkewFraction, ...] | None = None

    @classmethod
    def from_coeffs(cls, field: GroundField, coeffs: Iterable) -> "CentralPolynomial":
        """The polynomial with these coefficients (anything
        `SkewFraction.coerce` takes), in lowest terms over Z[u]; a
        coefficient off the center raises `ScenarioValidationError`."""
        fracs, pairs = [], []
        for c in coeffs:
            frac = SkewFraction.coerce(field, c)
            if not frac.is_invariant_central():
                raise ScenarioValidationError(
                    f"coefficient {frac} of a central polynomial is not central"
                )
            fracs.append(frac)
            pairs.append(central_fraction_ints(frac))
        den, cofactors = common_denominator(d for _, d in pairs)
        ring = center(field)
        p = cls(field, *ring.reduce(den, [ring.scale(num, k) for (num, _), k in zip(pairs, cofactors)]))
        # the given fractions are canonical: they are the view
        p._coeffs = tuple(fracs[: len(p.nums)])
        return p

    @classmethod
    def zero(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, [1], ())

    @classmethod
    def one(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, [1], [[1]])

    @classmethod
    def x(cls, field: GroundField) -> "CentralPolynomial":
        return cls(field, [1], [[], [1]])

    def parts(self) -> tuple[list[int], tuple]:
        """(den, nums) with self = den(u)^-1 * sum_m nums[m] x^m."""
        return self.den, self.nums

    def reduced(self) -> "CentralPolynomial":
        """self with no common factor of den and the numerators left."""
        return CentralPolynomial(self.field, *center(self.field).reduce(self.den, self.nums))

    @property
    def coeffs(self) -> tuple[SkewFraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(_view(self.field, a, self.den) for a in self.nums)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def coefficient(self, m: int) -> SkewFraction:
        if 0 <= m <= self.degree:
            return self.coeffs[m]
        return SkewFraction.zero(self.field)

    def leading(self) -> SkewFraction:
        if self.is_zero():
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        """N_d = den, read on the numerators: 1 is the first basis element
        of K'."""
        if self.is_zero():
            return False
        lead, w = self.nums[-1], self.field.invariant_degree
        return lead[::w] == self.den and not any(any(lead[b::w]) for b in range(1, w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CentralPolynomial):
            return NotImplemented
        self.field.check_same(other.field)
        (da, a), (db, b) = self.parts(), other.parts()
        if len(a) != len(b):
            return False
        if da == db:
            return a == b
        scale = center(self.field).scale
        return all(scale(x, db) == scale(y, da) for x, y in zip(a, b))

    def __add__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        self.field.check_same(other.field)
        ring = center(self.field)
        (da, a), (db, b) = self.parts(), other.parts()
        den, (ka, kb) = common_denominator([da, db])
        if ka != [1]:
            a = [ring.scale(x, ka) for x in a]
        if kb != [1]:
            b = [ring.scale(y, kb) for y in b]
        return CentralPolynomial(self.field, den, [zadd(x, y) for x, y in zip_longest(a, b, fillvalue=[])])

    def __neg__(self) -> "CentralPolynomial":
        return CentralPolynomial(self.field, self.den, [[-x for x in a] for a in self.nums])

    def __sub__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        return self + (-other)

    def __mul__(self, other: "CentralPolynomial") -> "CentralPolynomial":
        self.field.check_same(other.field)
        ring = center(self.field)
        (da, a), (db, b) = self.parts(), other.parts()
        if not a or not b:
            return CentralPolynomial.zero(self.field)
        out = [[]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = zadd(out[i + j], ring.mul(x, y))
        return CentralPolynomial(self.field, zmul(da, db), out)

    def divmod_by(self, g: "CentralPolynomial") -> tuple["CentralPolynomial", "CentralPolynomial"]:
        """(q, r) with self = q*g + r and deg r < deg g: pseudo-division over
        K'[u], with r in lowest terms.

        With q_l * lead(G) = c in Z[u], each step scales the remainder by c
        and subtracts (top * q_l) x^s G, which cancels the top term; after k
        steps  c^k A = Q G + R  for the numerators A of self and G of g, so
        r = (den c^k)^-1 R  and  q = (den c^k)^-1 (den_g Q).
        """
        self.field.check_same(g.field)
        if g.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field, ring = self.field, center(self.field)
        (den, rem), (gden, gn) = self.parts(), g.parts()
        rem, lower = list(rem), list(enumerate(gn[:-1]))
        q_lead, c = ring.unit_multiple(gn[-1])
        quo = [[]] * max(len(rem) - len(gn) + 1, 0)
        for s in range(len(quo) - 1, -1, -1):
            top = rem.pop()
            if not top:
                continue
            if c != [1]:
                rem = [ring.scale(a, c) for a in rem]
                quo = [ring.scale(a, c) for a in quo]
                den = zmul(den, c)
            quo[s] = ring.mul(top, q_lead)
            for j, b in lower:
                if b:
                    rem[s + j] = zsub(rem[s + j], ring.mul(quo[s], b))
        if gden != [1]:
            quo = [ring.scale(a, gden) for a in quo]
        return CentralPolynomial(field, den, quo), CentralPolynomial(field, *ring.reduce(den, rem))

    def evaluate_series(self, point: CentralSeries) -> CentralSeries:
        """The value at a point of K'((u)), with the coefficients embedded to
        the point's precision."""
        if self.is_zero():
            return CentralSeries.zero(self.field, point.prec)
        return evaluate_poly(_series_coefficients(self, point.prec), point)

    def __str__(self) -> str:
        terms = [(m, f"({c})") for m, c in enumerate(self.coeffs) if not c.is_zero()]
        return terms_str(reversed(terms), "x")

    __repr__ = __str__


def _series_coefficients(p: CentralPolynomial, prec: int) -> list[CentralSeries]:
    """p's coefficients as series in K'((u)) at precision prec, read from its
    numerators and denominator."""
    return [CentralSeries.embed(p.field, a, p.den, prec) for a in p.nums]


class PowerRows:
    """The rows q^k modulo f, k = 0, 1, ..., built on demand: the matrix of
    powers that composition modulo f reads (R. P. Brent and H. T. Kung,
    "Fast algorithms for manipulating formal power series", J. ACM 25,
    1978),

        p(q) = sum_k p_k (q^k mod f)   modulo f,

    for any polynomials p and q.  Row k+1 is (row k * q) modulo f, one
    pseudo-division over K'[u] (J. von zur Gathen and J.
    Gerhard, *Modern Computer Algebra*, ch. 6) with one content reduction.
    `table` holds the rows over one common Z[u] denominator, so a composite
    is a sum of numerator products with no gcd.  With q = x the rows are the
    reduction table x^p mod f.
    """

    __slots__ = ("f", "q", "_shared")

    def __init__(self, f: CentralPolynomial, q: CentralPolynomial) -> None:
        f.field.check_same(q.field)
        if f.is_zero():
            raise DivisionByZero("power rows modulo the zero polynomial")
        self.f, self.q = f, q
        self._shared: tuple[list[int], list[list]] = ([1], [])

    def powers(self, count: int) -> list[CentralPolynomial]:
        """q^k modulo f for k < count, read from `table`."""
        den, table = self.table(count)
        return [CentralPolynomial(self.f.field, den, row) for row in table[:count]]

    def table(self, count: int) -> tuple[list[int], list[list]]:
        """(C, N) with  q^k = C(u)^-1 * sum_m N[k][m] x^m  modulo f for at
        least k < count, C in Z[u] and the N[k][m] in K'[u], each row padded
        to deg f numerators (cached, and grown on request from its last row
        into a new table, so a table handed out earlier keeps its rows)."""
        den, table = self._shared
        if len(table) < count:
            field, d = self.f.field, self.f.degree
            ring = center(field)
            table = list(table)
            while len(table) < count:
                power = CentralPolynomial(field, den, table[-1]) * self.q if table else CentralPolynomial.one(field)
                rden, nums = power.divmod_by(self.f)[1].parts()
                den, (k, kr) = common_denominator([den, rden])
                if k != [1]:
                    table = [[ring.scale(a, k) for a in row] for row in table]
                if kr != [1]:
                    nums = [ring.scale(a, kr) for a in nums]
                table.append([*nums, *[[]] * (d - len(nums))])
            self._shared = (den, table)
        return self._shared

    def compose(self, p: CentralPolynomial) -> CentralPolynomial:
        """p(q) modulo f, as sum_k p_k (q^k mod f), over the product of p's
        denominator and the rows' common one."""
        self.f.field.check_same(p.field)
        field = self.f.field
        ring = center(field)
        pden, nums = p.parts()
        den, table = self.table(len(nums))
        out = [[]] * self.f.degree
        for row, v in zip(table, nums):
            if v:
                for m, entry in enumerate(row):
                    if entry:
                        out[m] = zadd(out[m], ring.mul(entry, v))
        return CentralPolynomial(field, zmul(pden, den), out)


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


class CheckResult(NamedTuple):
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
    * the series root, kept once as `root_work` in K'((u)) (a
      `CentralSeries`): the given root, which must lie there, or the Newton
      lift at padded precision; `root` cuts it to the stated precision, and
      `rho` shows that as a twisted series,
    * the fixed space of the full group (`fixed_space`).
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
        if rho_override is not None:
            # tau sends the central x to the root, so the root is central too
            central = CentralSeries.from_twisted(rho_override)
            if central is None:
                raise ScenarioValidationError(
                    f"{name}: the root {rho_override} does not lie in the center K'((u)), "
                    "but tau sends the central x to it"
                )
            rho_override = central
        self.rho_override = rho_override
        self._reduction: PowerRows | None = None
        self._images: dict[str, CentralPolynomial] | None = None
        self._powers: dict[str, PowerRows] = {}
        self._fixed: list[list[SkewFraction]] | None = None
        self._root_work: CentralSeries | None = rho_override
        self._root_powers: list[CentralSeries] | None = None

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

    # -- Galois data ----------------------------------------------------------

    @property
    def images(self) -> dict[str, CentralPolynomial]:
        """q_g modulo f for every group element, closed over the table.

        The closure walks products with the generators, q_(g*s) = q_s(q_g)
        read off the power rows of q_g; whenever an element is reached twice
        the two candidate images must agree, otherwise the declared table
        and the declared generator images are inconsistent.  Only an image
        reached for the first time is brought to lowest terms.
        """
        if self._images is None:
            group = self.group
            images = {group.identity: self.reduction.q}
            for name, q in self.generator_images.items():
                reduced = q.divmod_by(self.f)[1]
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
                        if candidate != images[h]:
                            raise ScenarioValidationError(
                                f"{self.name}: image of {h!r} is path dependent "
                                f"(via {g!r}*{s!r})"
                            )
                    else:
                        images[h] = candidate.reduced()
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
        """Extra working precision to absorb denominator valuations of f:
        2 d v + 4 for the worst pole v at t = 0 of a coefficient N_m/den,
        n (v(den) - v(N_m)) in t, read on the numerators."""
        den, nums = self.f.parts()
        low, w = next(k for k, a in enumerate(den) if a), self.field.invariant_degree
        worst = max((low - next(k for k, c in enumerate(num) if c) // w for num in nums if num), default=0)
        return 2 * self.degree * self.field.sigma_order * max(worst, 0) + 4

    @property
    def root_work(self) -> CentralSeries:
        """The root at padded internal precision (residual checks use this):
        the given root or the Newton lift in K'((u)), which reads f's
        coefficients from its stored form (or the given `newton_coeffs`)."""
        if self._root_work is None:
            pad = self._coefficient_valuation_pad()
            if self.newton_coeffs is not None:
                coeffs = central_coefficients(self.newton_coeffs, self.precision + pad)
            else:  # at the working precision `central_coefficients` gives
                coeffs = _series_coefficients(self.f, self.precision + 2 * pad - 2)
            self._root_work = newton_lift(coeffs, self.newton_seed, self.precision + pad)
        return self._root_work

    @property
    def root(self) -> CentralSeries:
        """`root_work` at the stated precision."""
        work = self.root_work
        return work if work.prec <= self.precision else work.truncate(self.precision)

    @property
    def rho(self) -> TwistedSeries:
        """`root` as a twisted series."""
        return self.root.to_twisted()

    @property
    def root_powers(self) -> list[CentralSeries]:
        """root^0 .. root^(d-1)."""
        if self._root_powers is None:
            root = self.root
            powers = [CentralSeries.from_ground(self.field.one(), root.prec)]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * root)
            self._root_powers = powers
        return self._root_powers

    def validate(self) -> None:
        """Run every check; raise ScenarioValidationError on the first failure."""
        for check in run_scenario_checks(self):
            if check.status == "fail":
                raise ScenarioValidationError(f"{self.name}: {check.name}: {check.details}")

    def __repr__(self) -> str:
        return f"ExtensionScenario({self.name}, degree {self.degree})"


# the most deg c * bits of a coordinate that `TensorElement.coords` shows
# through the Ore reduction
COORDS_WORK_CAP = 2**14


class TensorElement:
    """Element of the extension:  c(t^n)^-1 * sum_i P_i x^i.

    Stored once: c (`den`) in Z[u], u = t^n, primitive with a positive
    leading coefficient, and the P_i as a tuple of d lists of integer rows
    (`rows`, see `orefield.kernel`) over one positive integer `over`, with
    no integer content common to `over` and the rows and no factor of c
    over Q[u] dividing every Z[u]-coordinate of the rows.  The c with
    c * element polynomial form an ideal of Q[u], and this c generates it,
    so the form is unique and `==` compares the parts.  x and c are central:
    products, the Galois action and inversion run on the rows and the
    scenario's tables, with one `kernel.reduce_central` per result and no
    Ore reduction; inversion multiplies by conjugates until the norm is
    central (`inv`).  `coords`, the coordinates as canonical `SkewFraction`s,
    are built on first use.  The constructor takes d coordinates (anything
    `make` coerces) and brings them to that form.
    """

    __slots__ = ("scenario", "den", "rows", "over", "_coords", "_tau")

    def __init__(self, scenario: ExtensionScenario, coords: Sequence) -> None:
        d = scenario.degree
        if len(coords) != d:
            raise ValueError(f"expected {d} coordinates, got {len(coords)}")
        made = TensorElement.make(scenario, coords)
        self.scenario, self.den, self.rows, self.over = scenario, made.den, made.rows, made.over
        self._coords: tuple[SkewFraction, ...] | None = None
        self._tau: TwistedSeries | None = None

    @classmethod
    def _raw(cls, scenario: ExtensionScenario, den: Sequence[int], rows: Sequence, over: int) -> "TensorElement":
        """den(t^n)^-1 * sum_i (rows[i]/over) x^i from parts in canonical form."""
        element = cls.__new__(cls)
        element.scenario, element.den, element.rows, element.over = scenario, tuple(den), tuple(rows), over
        element._coords = element._tau = None
        return element

    @classmethod
    def _reduced(cls, scenario: ExtensionScenario, den: Sequence[int], rows: Sequence, over: int) -> "TensorElement":
        """den(t^n)^-1 * sum_i (rows[i]/over) x^i in canonical form."""
        return cls._raw(scenario, *kernel.reduce_central(scenario.field, den, rows, over))

    @classmethod
    def _from_conv(cls, scenario: ExtensionScenario, den: Sequence[int], conv: list, over: int, rows: PowerRows | None = None) -> "TensorElement":
        """den(t^n)^-1 * sum_k (conv[k]/over) q^k modulo f for integer rows
        conv[k], q = x (reducing a conv longer than d) unless `rows` are q's:
        one `kernel.central_sum` per coordinate and one reduction."""
        field, d = scenario.field, scenario.degree
        if rows is None and len(kernel.strip(conv, [])) <= d:
            return cls._reduced(scenario, den, conv + [[]] * (d - len(conv)), over)
        c, table = (rows or scenario.reduction).table(len(conv))
        sums = [kernel.central_sum(field, [(v, row[m]) for v, row in zip(conv, table)]) for m in range(d)]
        return cls._reduced(scenario, zmul(den, c), [r for r, _ in sums], over * sums[0][1])

    @classmethod
    def make(cls, scenario: ExtensionScenario, values: Sequence) -> "TensorElement":
        """Coerce a (possibly long) coefficient list, reducing modulo f."""
        coerced = [SkewFraction.coerce(scenario.field, v) for v in values]
        return cls.from_quotients(scenario, [(v.num, v.den) for v in coerced])

    @classmethod
    def from_quotients(cls, scenario: ExtensionScenario, quotients: Sequence[tuple[SkewPolynomial, SkewPolynomial]]) -> "TensorElement":
        """sum_k den_k^-1 num_k x^k for a (possibly long) list of (num_k,
        den_k) pairs, den_k nonzero, reduced modulo f: no Ore reduction.  Each
        den^-1 num is c^-1 (q num) for the norm conjugate q*den = c
        (`skewpoly.norm_conjugate`), over the lcm of the c."""
        pairs = []
        for num, den in quotients:
            if den.degree == 0 and den.is_monic():  # den = 1
                pairs.append(([1], num.int_rows()))
            else:
                q, c = norm_conjugate(den)
                pairs.append((c, (q * num).int_rows()))
        common, cofactors = common_denominator(c for c, _ in pairs)
        conv, over = kernel.over_common([p for _, p in pairs])
        field = scenario.field
        conv = [r if k == [1] else kernel.central_rows(field, [(r, k)]) for k, r in zip(cofactors, conv)]
        return cls._from_conv(scenario, common, conv, over)

    @classmethod
    def zero(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls._raw(scenario, (1,), [[] for _ in range(scenario.degree)], 1)

    @classmethod
    def one(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [SkewFraction.one(scenario.field)])

    @classmethod
    def x(cls, scenario: ExtensionScenario) -> "TensorElement":
        return cls.make(scenario, [0, 1])

    @property
    def coords(self) -> tuple[SkewFraction, ...]:
        """The coordinates c(t^n)^-1 * P_i as canonical `SkewFraction`s: a
        P_i in K'[u] through `_view`, as the coefficients of a
        `CentralPolynomial` are shown, any other through the Ore reduction of
        `SkewFraction.make`.  The cost of that reduction, which `_view` also
        runs off Q[u], grows steeply with deg c * bits (bits the largest bit
        length in c, P_i and their denominator): past COORDS_WORK_CAP it
        raises `CapExceeded` before it runs."""
        if self._coords is None:
            field = self.scenario.field
            ring = center(field)
            c, den = central_polynomial(field, self.den), [self.over * ring.over * x for x in self.den]
            coords = []
            for p in self.rows:
                a = ring.ints(p)  # ring.over * P_i in K'[u]
                if a is None or ring.rational(a) is None:
                    bits = max(x.bit_length() for x in chain(self.den, (self.over,), *p))
                    if (work := (len(self.den) - 1) * bits) > COORDS_WORK_CAP:
                        raise CapExceeded(f"coordinate work {work} exceeds cap {COORDS_WORK_CAP}")
                if a is None:
                    coords.append(SkewFraction.make(SkewPolynomial._from_rows(field, p, self.over), c))
                else:
                    coords.append(_view(field, kernel.strip(a, 0), den))
            self._coords = tuple(coords)
        return self._coords

    def _same(self, other: "TensorElement") -> None:
        if self.scenario is not other.scenario:
            raise MixedScenarios(
                f"cannot combine elements of {self.scenario.name} and {other.scenario.name}"
            )

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._same(other)
        # both sides are canonical, and the canonical form is unique
        return self.den == other.den and self.over == other.over and self.rows == other.rows

    def __add__(self, other: "TensorElement") -> "TensorElement":
        """The sum over the lcm of the central denominators."""
        self._same(other)
        field, over = self.scenario.field, self.over * other.over
        den, (ka, kb) = common_denominator([self.den, other.den])
        ka, kb = [other.over * x for x in ka], [self.over * x for x in kb]
        sums = [kernel.central_rows(field, [(p, ka), (q, kb)]) for p, q in zip(self.rows, other.rows)]
        if len(ka) == len(other.den):
            # with coprime denominators a central factor of the sum would
            # divide a canonical numerator: only integers cancel
            return TensorElement._raw(self.scenario, den, *kernel.reduce_central(field, [1], sums, over)[1:])
        return TensorElement._reduced(self.scenario, den, sums, over)

    def __neg__(self) -> "TensorElement":
        return TensorElement._raw(self.scenario, self.den, [kernel.scale(p, -1) for p in self.rows], self.over)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        self._same(other)
        field = self.scenario.field
        over = self.over * other.over * field.mul_den * field.sig_den
        conv = kernel.convolve_rows(field, list(self.rows), list(other.rows))
        return TensorElement._from_conv(self.scenario, zmul(self.den, other.den), conv, over)

    def inv(self) -> "TensorElement":
        """Two-sided inverse through reduced norms (I. Reiner, *Maximal
        Orders*, 1975).  With self = c^-1 E, E = sum_i P_i x^i and x central:

        1. E* with nu = E E* in F = K'(u)[x]/(f) (`_reduced_norm`);
        2. Pi with nu Pi = N in K'(u): Cayley-Hamilton in F on the numerator
           ring, `CentralPolynomial` products reduced by the rows of x, with
           the traces Tr(x^j) read off the same rows (`_residue_trace`), so
           f alone decides it and no Galois image is read;
        3. N^-1 as a quotient by an element of Z[u], through the norm of
           K'/Q (`unit_multiple` of `kernel.center`);

        then self^-1 = c E* Pi N^-1, with one reduction modulo f and one
        `kernel.reduce_central`.  N = 0 means self is zero or a zero divisor
        (f reducible, or F splitting the algebra).
        """
        if self.is_zero():
            raise SingularElement("inversion of zero")
        scenario, field, d = self.scenario, self.scenario.field, self.scenario.degree
        ring, rows = center(field), scenario.reduction
        star, nu = _reduced_norm(TensorElement._raw(scenario, (1,), self.rows, self.over))

        def mul(a, b):
            p = a * b
            return p if p.degree < d else rows.compose(p)

        # a nu of degree < 1 in x lies in K'(u) already
        pi = CentralPolynomial.one(field) if nu.degree < 1 else cayley_hamilton(nu, d, _residue_trace(rows), _divide, mul)
        norm_den, norm = mul(nu, pi).parts()
        if not norm:
            raise SingularElement(f"element of {scenario.name} is not invertible")
        # N^-1 = norm_den q / c for q N = c in Z[u]; c joins Pi's
        # denominator, and self's c, norm_den and q its numerators
        q, norm = ring.unit_multiple(norm[0])
        top = ring.scale(q, zmul(self.den, norm_den))
        pi_den, pi = pi.parts()
        den, pi = zmul(pi_den, norm), [ring.mul(a, top) for a in pi]
        if star is None:
            return TensorElement._reduced(scenario, den, [ring.rows(a) for a in pi] + [[]] * (d - len(pi)), 1)
        conv, k = kernel.central_convolve(field, list(star.rows), pi)
        return TensorElement._from_conv(scenario, zmul(star.den, den), conv, star.over * k)

    def __pow__(self, n: int) -> "TensorElement":
        if n == 0:
            return TensorElement.one(self.scenario)
        x = self if n > 0 else self.inv()
        return kernel.power(x, abs(n) - 1, x)

    def apply(self, g: str) -> "TensorElement":
        """The Galois action: x -> q_g(x), extended coefficient-linearly."""
        return TensorElement._from_conv(self.scenario, self.den, list(self.rows), self.over, self.scenario.power_rows(g))

    def __str__(self) -> str:
        return terms_str(((i, f"({c})") for i, c in enumerate(self.coords) if not c.is_zero()), "x")

    __repr__ = __str__


def _reduced_norm(element: TensorElement) -> tuple[TensorElement | None, CentralPolynomial]:
    """(E*, nu) with nu = E E* in F = K'(u)[x]/(f) for E = `element`, nu
    reduced modulo f and read off the rows as K'[u] (`kernel.center`'s
    `ints`).  x is central, so E* is `kernel.reduced_conjugate` on the
    coordinates: at reduced degree m = 2 the conjugate Trd(P_i) - P_i of each
    coordinate (`kernel.conjugate_rows`); at m > 2 Cayley-Hamilton in the
    algebra over F, with the reduced trace taken coordinate by coordinate; at
    m = 1 E lies in F, and E* = 1 is None."""
    field = element.scenario.field
    star = kernel.reduced_conjugate(field, element, _remap)
    product = element if star is None else element * star
    ring = center(field)
    nums = [kernel.strip(ring.ints(p), 0) for p in product.rows]
    return star, CentralPolynomial(field, zmul(product.den, [product.over * ring.over]), nums)


def _remap(element: TensorElement, f, k: int) -> TensorElement:
    """The element with coordinates f(P_i) over k times its denominator."""
    return TensorElement._reduced(element.scenario, element.den, [f(p) for p in element.rows], element.over * k)


def _residue_trace(rows: PowerRows):
    """The trace of F = K'(u)[x]/(f) over K'(u) on `CentralPolynomial`s of
    degree < d, from the rows x^p mod f over their common denominator C:
    Tr(x^j) = sum_m (x^(j+m) mod f)_m, the trace of multiplication by x^j."""
    field, d = rows.f.field, rows.f.degree
    ring = center(field)
    common, table = rows.table(2 * d - 1)
    traces = []
    for j in range(d):
        acc = []
        for m in range(d):
            acc = zadd(acc, table[j + m][m])
        traces.append(acc)

    def trace(a):
        den, nums = a.parts()
        acc = []
        for x, t in zip(nums, traces):
            if x:
                acc = zadd(acc, ring.mul(x, t))
        return CentralPolynomial(field, zmul(den, common), [acc])

    return trace


def _divide(a: CentralPolynomial, k: int) -> CentralPolynomial:
    """a/k for an integer k."""
    den, nums = a.parts()
    return CentralPolynomial(a.field, [k * x for x in den], nums)


def fixed_space(
    scenario: ExtensionScenario, elements: Sequence[str] | None = None
) -> list[list[SkewFraction]]:
    """Canonical basis of the joint fixed space of the listed group elements.

    Defaults to the full group, whose basis is computed once per scenario.
    The matrices have central entries, so the kernel computed over the
    center has the same dimension as the fixed subspace over the whole skew
    field.  The basis is returned as `SkewFraction`s.
    """
    if elements is not None:
        return _fixed_space(scenario, list(elements))
    if scenario._fixed is None:
        scenario._fixed = _fixed_space(scenario, scenario.group.elements)
    return [list(vec) for vec in scenario._fixed]


def _fixed_space(scenario: ExtensionScenario, names: Sequence[str]) -> list[list[SkewFraction]]:
    """The kernel of the M_g - 1 over the center, by fraction-free
    elimination: M_g is C_g(u)^-1 N_g, the rows of q_g^i over one
    denominator, so the rows of N_g - C_g have the same kernel."""
    for g in names:
        if g not in scenario.group.elements:
            raise UnknownGroupElement(f"unknown group element {g!r}")
    d, field = scenario.degree, scenario.field
    ring = center(field)
    rows = []
    for g in names:
        if g == scenario.group.identity:
            continue
        common, table = scenario.power_rows(g).table(d)
        c = ring.scale([1], common)
        for m in range(d):
            rows.append([zsub(table[i][m], c) if i == m else table[i][m] for i in range(d)])
    return [[_view(field, a, den) for a in vec] for den, vec in linalg.ring_nullspace(ring, field, rows, d)]


def is_fixed_line(basis: Sequence[Sequence[SkewFraction]]) -> bool:
    """Whether a fixed-space basis is the one vector 1, 0, ..., 0: the fixed
    space is the base field."""
    return (
        len(basis) == 1
        and basis[0][0] == SkewFraction.one(basis[0][0].field)
        and all(c.is_zero() for c in basis[0][1:])
    )


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
    """c(t^n)^-1 * sum_i P_i rho^i: one sum of central products on integer
    rows, and one division by the central denominator, which `solve_left`
    reads as central and runs on Q((u)) with no conjugate.

    The result is cut to the precision the coordinate-wise sum
    sum_i embed(v_i, N) * rho^i  reaches, N = rho.prec:  the least of N and,
    for each nonzero v_i = c^-1 P_i of valuation w_i,
    min(N + val rho^i, prec rho^i + min(w_i, N))  (the product rule, with
    the embedded v_i known to N).  The sum itself is known beyond that.
    """
    scenario = element.scenario
    field = scenario.field
    top = scenario.root.prec
    v = field.sigma_order * next(k for k, a in enumerate(element.den) if a)
    zero = field.zero_row
    reach = top
    terms = []
    for p, power in zip(element.rows, scenario.root_powers):
        if not p:
            continue
        low = next(m for m, r in enumerate(p) if r != zero)
        reach = min(reach, top + power.val, power.prec + min(low - v, top))
        # P_i rho^i is known to prec rho^i + low, as the product rule says
        terms.append((p, power, power.prec + low))
    if not terms:
        return TwistedSeries.zero(field, top)
    val, prec = min(power.val for _, power, _ in terms), min(known for _, _, known in terms)
    # rho^i = t^val_i * (sum_k a_k u^k)/den_i commutes with P_i: the sum is
    # one `kernel.central_sum` over a common denominator
    parts = [(p, power.int_coeffs(), power.val - val) for p, power, _ in terms]
    common = lcm(*(dc for _, (_, dc), _ in parts))
    sums = [([zero] * shift + p, [a * (common // dc) for a in c]) for p, (c, dc), shift in parts]
    rows, k = kernel.central_sum(field, sums, max(prec - val, 0))
    acc = TwistedSeries._make(field, val, rows, element.over * common * k, prec)
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


# -- the check battery ---------------------------------------------------------


# integer points u0 tried, in this order, by the specialisation certificate
_SPECIALISATION_POINTS = (0, 1, -1, 2, -2, 3, -3)


def _horner(c: list[int], u0: int) -> int:
    value = 0
    for a in reversed(c):
        value = value * u0 + a
    return value


def _specialised(den: list[int], nums: Sequence[list[int]], u0: int) -> list[int] | None:
    """f(x, u0) cleared to Z[x], for f = den(u)^-1 * sum_i nums[i] x^i in
    lowest terms; None when den vanishes at u0."""
    if _horner(den, u0) == 0:
        return None
    return [_horner(num, u0) for num in nums]


def _specialisation_point(scenario: ExtensionScenario) -> int | None:
    """The first u0 in _SPECIALISATION_POINTS that certifies f irreducible.

    u0 certifies when the denominator of f is nonzero at u0, and f(x, u0),
    cleared to Z[x], factors as one irreducible factor of
    degree `scenario.degree` = deg f (so its multiplicity is 1, and the
    leading coefficient of f is nonzero at u0).  None when no point does.
    """
    from .factor import factor_list

    den, nums = scenario.f.reduced().parts()
    for u0 in _SPECIALISATION_POINTS:
        cleared = _specialised(den, nums, u0)
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

    # F = sum_i N_i x^i: the denominator of f lies in Q[u] and is content
    numerator = sum((upoly(a) * x_sym**i for i, a in enumerate(scenario.f.parts()[1])), sympy.Integer(0))
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
        return ("pass", f"monic of degree {f.degree} with central coefficients")

    def check_irreducible():
        return _irreducibility_certificate(scenario)

    def check_residual():
        rho = scenario.root_work
        work = rho.prec + scenario._coefficient_valuation_pad()
        value = evaluate_poly(_series_coefficients(scenario.f, work), rho)
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
                if rows.compose(images[b]) != images[ab]:
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
        if not is_fixed_line(basis):
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
