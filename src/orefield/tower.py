"""Nested extension towers realizing compatible systems of finite groups.

A tower stacks extension scenarios over one twisted ground field so that
each level's generator is expressible inside the next level (an explicit
embedding polynomial).  The declared group system must then match the
levelwise symmetries: restricting a level-(n+1) symmetry to the embedded
level-n subfield has to agree with the symmetry assigned to the projected
group element.  Everything is checked exhaustively — the groups are small.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import EmbeddingMissing, OrefieldError, ScenarioValidationError
from .extend import (
    CentralPolynomial,
    CheckResult,
    ExtensionScenario,
    FiniteGroup,
    PowerRows,
    fixed_space,
    guarded_check,
    is_fixed_line,
    run_scenario_checks,
)
from .skewfrac import SkewFraction
from .skewpoly import central_fraction_ints


class GroupSystem:
    """Finite groups G_1, G_2, ... with surjective connecting maps s_n.

    `epis[n]` sends the elements of `levels[n+1]` onto `levels[n]`; validation
    checks totality, surjectivity and the homomorphism law on every pair.
    """

    __slots__ = ("levels", "epis")

    def __init__(
        self,
        levels: Sequence[FiniteGroup],
        epis: Sequence[Mapping[str, str]],
    ) -> None:
        self.levels = tuple(levels)
        self.epis = tuple(dict(e) for e in epis)
        if len(self.epis) != max(len(self.levels) - 1, 0):
            raise ScenarioValidationError(
                f"{len(self.levels)} groups need {max(len(self.levels) - 1, 0)} "
                f"connecting maps, got {len(self.epis)}"
            )

    def validate(self) -> None:
        if not self.levels:
            raise ScenarioValidationError("a group system needs at least one group")
        for group in self.levels:
            group.validate()
        for n, s in enumerate(self.epis):
            upper, lower = self.levels[n + 1], self.levels[n]
            for g in upper.elements:
                if g not in s:
                    raise ScenarioValidationError(
                        f"connecting map {n + 2}->{n + 1} is undefined at {g!r}"
                    )
                if s[g] not in lower.elements:
                    raise ScenarioValidationError(
                        f"connecting map {n + 2}->{n + 1} sends {g!r} outside the lower group"
                    )
            if set(s) - set(upper.elements):
                raise ScenarioValidationError(
                    f"connecting map {n + 2}->{n + 1} names elements outside its domain"
                )
            if set(s.values()) != set(lower.elements):
                raise ScenarioValidationError(
                    f"connecting map {n + 2}->{n + 1} is not surjective"
                )
            if (broken := _first_break(s, upper, lower)) is not None:
                raise ScenarioValidationError(
                    f"connecting map {n + 2}->{n + 1} breaks the product at ({broken[0]!r}, {broken[1]!r})"
                )


def _first_break(phi: Mapping[str, str], upper: FiniteGroup, lower: FiniteGroup) -> tuple[str, str] | None:
    """The first pair (a, b) of `upper` with phi(a*b) != phi(a)*phi(b) in
    `lower`, or None when phi is a homomorphism."""
    return next(
        ((a, b) for a in upper.elements for b in upper.elements if phi[upper.op(a, b)] != lower.op(phi[a], phi[b])),
        None,
    )


class LedgerRow(NamedTuple):
    """One level of the degree bookkeeping table."""

    level: int
    dimension: int
    group_order: int
    degree_matches: bool
    fixed_line: bool


class TowerScenario:
    """Nested extension levels labelled by a group system.

    * `levels[n]` is the extension scenario for the n-th stage, all over the
      same ground field.
    * `eps[n]` identifies the system group `system.levels[n]` with the
      scenario's symmetry group (a relabelling, checked to be an isomorphism).
    * `embeddings[n]` expresses the level-n generator inside level n+1 as a
      polynomial with central coefficients; `None` marks a missing embedding,
      which the compatibility checks refuse to work around.
    * `nonsquare_witnesses` are labelled central fractions whose
      non-squareness certifies that the quadratic layers are independent.
    """

    def __init__(
        self,
        name: str,
        system: GroupSystem,
        levels: Sequence[ExtensionScenario],
        eps: Sequence[Mapping[str, str]],
        embeddings: Sequence[CentralPolynomial | None],
        nonsquare_witnesses: Sequence[tuple[str, SkewFraction]] = (),
    ) -> None:
        self.name = name
        self.system = system
        self.levels = tuple(levels)
        self.eps = tuple(dict(e) for e in eps)
        self.embeddings = tuple(embeddings)
        self.nonsquare_witnesses = tuple(nonsquare_witnesses)
        self._embedding_powers: dict[int, PowerRows] = {}
        if len(self.levels) != len(system.levels):
            raise ScenarioValidationError(
                f"{name}: {len(system.levels)} groups but {len(self.levels)} levels"
            )
        if len(self.eps) != len(self.levels):
            raise ScenarioValidationError(f"{name}: one labelling map per level")
        if len(self.embeddings) != max(len(self.levels) - 1, 0):
            raise ScenarioValidationError(
                f"{name}: {len(self.levels)} levels need "
                f"{max(len(self.levels) - 1, 0)} embeddings"
            )
        field = self.levels[0].field if self.levels else None
        for scn in self.levels:
            if scn.field is not field:
                raise ScenarioValidationError(
                    f"{name}: all levels must share one ground field"
                )
        for n, labelling in enumerate(self.eps):
            scenario = self.levels[n]
            for g in self.system.levels[n].elements:
                if g not in labelling:
                    raise ScenarioValidationError(
                        f"{name}: level {n + 1} labelling is undefined at {g!r}"
                    )
                if labelling[g] not in scenario.group.elements:
                    raise ScenarioValidationError(
                        f"{name}: level {n + 1} labelling sends {g!r} to an "
                        f"unknown symmetry"
                    )

    @property
    def depth(self) -> int:
        return len(self.levels)

    def restriction(self, upper: int, g: str) -> str:
        """Project a level-`upper` system element down one level."""
        return self.system.epis[upper - 1][g]

    def embedding_powers(self, n: int) -> PowerRows:
        """The powers of `embeddings[n]` modulo the level-(n+2) f (cached)."""
        if n not in self._embedding_powers:
            embedding = self.embeddings[n]
            if embedding is None:
                raise EmbeddingMissing(
                    f"{self.name}: no embedding of level {n + 1} into level {n + 2}"
                )
            self._embedding_powers[n] = PowerRows(self.levels[n + 1].f, embedding)
        return self._embedding_powers[n]


def _composition_mismatch(
    psi_rows: PowerRows, embedding: PowerRows, phi_image: CentralPolynomial
) -> bool:
    """Does restriction disagree?  p(q_psi(x)) vs q_phi(p(x)) modulo f, for
    the power rows of q_psi and of the embedding p modulo the upper f."""
    return psi_rows.compose(embedding.q) != embedding.compose(phi_image)


def check_compatibility(ts: TowerScenario) -> list[CheckResult]:
    """One result per (level, upper group element): restriction agreement.

    For g in G_(n+1) the symmetry eps_(n+1)(g) of level n+1, restricted to
    the embedded level-n subfield, must equal the symmetry eps_n(s_(n+1)(g)).
    On generators this reads p(q_psi(x)) = q_phi(p(x)) modulo f_(n+1).
    """
    law = "restriction of eps_(n+1)(g) equals eps_n(s_(n+1)(g))"
    results = []
    for n in range(ts.depth - 1):
        powers = ts.embedding_powers(n)
        upper, lower = ts.levels[n + 1], ts.levels[n]
        for g in ts.system.levels[n + 1].elements:
            psi = ts.eps[n + 1][g]
            phi = ts.eps[n][ts.restriction(n + 1, g)]

            def row() -> tuple[str, str]:
                if _composition_mismatch(upper.power_rows(psi), powers, lower.images[phi]):
                    return ("fail", f"{g!r} restricts to {psi!r}-action, expected {phi!r}")
                return ("pass", f"{g!r} projects to {phi!r}")

            results.append(guarded_check(f"compat[{n + 2}->{n + 1}:{g}]", law, row))
    return results


def check_embeddings(ts: TowerScenario) -> list[CheckResult]:
    """The embedded generator is a root of the lower f and hits the lower rho."""
    law = "the embedded generator satisfies the lower minimal polynomial"
    results = []
    for n in range(ts.depth - 1):
        powers = ts.embedding_powers(n)
        upper, lower = ts.levels[n + 1], ts.levels[n]
        results.append(
            guarded_check(f"embed[{n + 1}->{n + 2}]", law, lambda: _embedding_row(powers, upper, lower))
        )
    return results


def _embedding_row(
    powers: PowerRows, upper: ExtensionScenario, lower: ExtensionScenario
) -> tuple[str, str]:
    if not powers.compose(lower.f).is_zero():
        return ("fail", "f_lower(p(x)) is nonzero modulo f_upper")
    series, target = powers.q.evaluate_series(upper.root), lower.root
    common = min(series.prec, target.prec)
    if series.truncate(common) != target.truncate(common):
        return ("fail", f"p(rho_upper) differs from rho_lower before O(t^{common})")
    return ("pass", f"root of f_lower, matches rho_lower to O(t^{common})")


def degree_ledger(ts: TowerScenario) -> list[LedgerRow]:
    """Dimension vs group order per level, plus the fixed-line flag."""
    rows = []
    for n, scenario in enumerate(ts.levels):
        order = len(ts.system.levels[n].elements)
        rows.append(
            LedgerRow(
                level=n + 1,
                dimension=scenario.degree,
                group_order=order,
                degree_matches=scenario.degree == order,
                fixed_line=is_fixed_line(fixed_space(scenario)),
            )
        )
    return rows


def check_ledger(ts: TowerScenario) -> list[CheckResult]:
    law = "dimension over the base equals the group order, fixed space is the base"
    results = []
    for row in degree_ledger(ts):
        ok = row.degree_matches and row.fixed_line
        details = (
            f"dimension {row.dimension}, group order {row.group_order}, "
            f"fixed line {'yes' if row.fixed_line else 'no'}"
        )
        results.append(
            CheckResult(f"ledger[{row.level}]", "pass" if ok else "fail", law, details)
        )
    return results


def check_eps_isomorphisms(ts: TowerScenario) -> list[CheckResult]:
    law = "the level labelling is a group isomorphism onto the symmetry group"
    results = []
    for n, labelling in enumerate(ts.eps):
        name = f"eps-iso[{n + 1}]"
        system_group = ts.system.levels[n]
        scenario_group = ts.levels[n].group
        if len(set(labelling.values())) != len(scenario_group.elements):
            status, details = "fail", "labelling is not a bijection"
        elif (broken := _first_break(labelling, system_group, scenario_group)) is not None:
            status, details = "fail", f"product breaks at {broken!r}"
        else:
            status, details = "pass", "bijective and multiplicative"
        results.append(CheckResult(name, status, law, details))
    return results


def check_functoriality(ts: TowerScenario) -> list[CheckResult]:
    """Two-step restrictions factor through the intermediate level.

    The composite embedding of level n into level n+2 must intertwine the
    level-(n+2) action with the doubly projected level-n action, exactly as
    the one-step checks do for adjacent levels.
    """
    law = "restriction across two levels equals the composite of single steps"
    results = []
    for n in range(ts.depth - 2):
        lower_emb, upper_emb = ts.embeddings[n], ts.embeddings[n + 1]
        if lower_emb is None or upper_emb is None:
            raise EmbeddingMissing(
                f"{ts.name}: functoriality needs embeddings at levels "
                f"{n + 1} and {n + 2}"
            )
        top = ts.levels[n + 2]
        bottom = ts.levels[n]
        composite = PowerRows(top.f, ts.embedding_powers(n + 1).compose(lower_emb).reduced())
        for g in ts.system.levels[n + 2].elements:
            psi = ts.eps[n + 2][g]
            projected = ts.restriction(n + 1, ts.restriction(n + 2, g))
            phi = ts.eps[n][projected]
            name = f"functorial[{n + 3}->{n + 1}:{g}]"
            if _composition_mismatch(top.power_rows(psi), composite, bottom.images[phi]):
                status, details = "fail", f"{g!r} does not restrict to {phi!r} across two levels"
            else:
                status, details = "pass", f"{g!r} lands on {phi!r}"
            results.append(CheckResult(name, status, law, details))
    return results


_NONSQUARE_LAW = "the witness has an odd-multiplicity factor, so it is not a square"


def nonsquare_certificate(label: str, witness: SkewFraction) -> CheckResult:
    """Certify that a central fraction is not a square in the center.

    Over a rational invariant subfield the center is the rational function
    field Q(u), u = t^n.  The witness is the reduced N(u)/D(u), and being a
    square there forces every irreducible factor of N and D to even
    multiplicity; one odd factor is an exact disproof.  N and D are read as
    integer polynomials from the witness's rows (`central_fraction_ints`;
    integer factors do not change which factors are odd) and factored over Z by
    `orefield.factor`, so this certificate never imports sympy.  A witness
    outside Q(u) fails; an exponent off the multiples of n raises
    `ScenarioValidationError`.
    """
    name = f"nonsquare[{label}]"
    law = _NONSQUARE_LAW
    field = witness.field
    if field.invariant_degree != 1:
        return CheckResult(
            name,
            "skipped",
            law,
            "certificate needs a rational invariant subfield",
        )
    from .factor import factor_list, poly_str

    parts = central_fraction_ints(witness)
    if parts is None:
        return CheckResult(name, "fail", law, f"the witness {witness} is not in Q(u)")
    odd = [
        poly_str(factor, "u")
        for part in parts
        for factor, mult in factor_list(part)[1]
        if mult % 2 == 1
    ]
    if odd:
        return CheckResult(
            name, "pass", law, f"odd factors: {', '.join(sorted(odd))}"
        )
    return CheckResult(name, "fail", law, "every factor has even multiplicity")


def run_tower_checks(ts: TowerScenario) -> list[CheckResult]:
    """The full tower battery, one sorted list of structured results.

    Levelwise scenario checks are not repeated here — run them separately
    per level; this battery covers the relations *between* levels plus the
    group-system bookkeeping.
    """

    def system_axioms() -> tuple[str, str]:
        ts.system.validate()
        orders = ", ".join(str(len(g.elements)) for g in ts.system.levels)
        return ("pass", f"{ts.depth} levels, orders {orders}")

    results = [
        guarded_check(
            "system-axioms", "groups and connecting maps form a compatible system", system_axioms
        )
    ]
    results.extend(check_eps_isomorphisms(ts))
    results.extend(check_ledger(ts))
    results.extend(check_embeddings(ts))
    results.extend(check_compatibility(ts))
    results.extend(check_functoriality(ts))
    for label, witness in ts.nonsquare_witnesses:
        try:
            results.append(nonsquare_certificate(label, witness))
        except OrefieldError as exc:
            results.append(CheckResult(f"nonsquare[{label}]", "fail", _NONSQUARE_LAW, str(exc)))
    return sorted(results, key=lambda r: r.name)
