"""Built-in extension scenarios and towers with exactly verified symmetry data.

Three ground settings are covered:

* rational quaternions with the trivial twist (central variable t),
* the Gaussian rationals with conjugation (central variable t^2),
* the plain rationals (cyclic cubic via the parametric family whose
  splitting field is always cyclic of order three).

The quadratic layers adjoin square roots of 1+u and 1+u^2; the quartic level
is generated by the sum of the two roots, with the four sign symmetries as
its group.  Non-squareness of 1+u, 1+u^2 and their product certifies that
the layers are independent, so the quartic really has group (Z/2)^2.

f, the generator images and the quartic embedding are written in the one
stored form of `CentralPolynomial`, den(u)^-1 * sum_m N_m x^m with integer
coefficient lists in u (every catalog field has the invariant subfield Q),
so building a scenario or a tower runs no central arithmetic and no Ore
reduction.
"""

from __future__ import annotations

from .errors import ScenarioValidationError, UnknownCatalogEntry
from .extend import CentralPolynomial, ExtensionScenario, FiniteGroup
from .ground import (
    GroundField,
    gauss_conjugation,
    hamilton_rationals,
    make_rationals,
)
from .skewfrac import SkewFraction
from .skewpoly import central_polynomial
from .tower import GroupSystem, TowerScenario, run_tower_checks

_FIELD_BUILDERS = {
    "rationals": make_rationals,
    "gauss": gauss_conjugation,
    "hamilton": hamilton_rationals,
}

_FIELDS: dict[str, GroundField] = {}


def field_names() -> tuple[str, ...]:
    return tuple(_FIELD_BUILDERS)


def field_catalog(name: str) -> GroundField:
    """The named ground field, built once: the catalog scenarios, `--field`
    and the field names of scenario files all read this one."""
    if name not in _FIELDS:
        _FIELDS[name] = _FIELD_BUILDERS[name]()
    return _FIELDS[name]


def _upoly(field: GroundField, *coeffs: int) -> SkewFraction:
    """sum_k coeffs[k] u^k in the central variable u = t^n, as a fraction."""
    return SkewFraction.from_polynomial(central_polynomial(field, coeffs))


def _central(field: GroundField, den: tuple[int, ...], *nums: tuple[int, ...]) -> CentralPolynomial:
    """den(u)^-1 * sum_m nums[m] x^m, den and the nums[m] integer
    coefficients in u = t^n: the stored form of `CentralPolynomial`, as the
    invariant subfield of every catalog field is Q."""
    return CentralPolynomial(field, list(den), [list(a) for a in nums])


def _z2() -> FiniteGroup:
    names = ("e", "s")
    table = {(a, b): ("e" if a == b else "s") for a in names for b in names}
    return FiniteGroup(names, "e", table)


def _v4() -> FiniteGroup:
    names = ("00", "10", "01", "11")

    def op(a: str, b: str) -> str:
        return "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))

    return FiniteGroup(names, "00", {(a, b): op(a, b) for a in names for b in names})


def _z3() -> FiniteGroup:
    names = ("e", "g", "h")
    index = {name: k for k, name in enumerate(names)}
    table = {
        (a, b): names[(index[a] + index[b]) % 3] for a in names for b in names
    }
    return FiniteGroup(names, "e", table)


# -- level builders -------------------------------------------------------------


def _quadratic(name: str, field: GroundField) -> ExtensionScenario:
    """x^2 = 1 + u with the sign flip as the order-two symmetry."""
    f = _central(field, (1,), (-1, -1), (), (1,))
    flip = _central(field, (1,), (), (-1,))
    return ExtensionScenario(
        name=name,
        field=field,
        f=f,
        group=_z2(),
        generator_images={"s": flip},
        precision=48,
        newton_seed=field.one(),
    )


def _quartic(name: str, field: GroundField) -> ExtensionScenario:
    """The sum of the square roots of A = 1+u and B = 1+u^2.

    Its minimal polynomial is x^4 - 2(A+B)x^2 + (A-B)^2; the four symmetries
    flip the two square roots independently, and on the generator the flips
    act through the odd polynomials below (solve for sqrt(A), sqrt(B) in the
    basis 1, x, x^2, x^3).
    """
    f = _central(field, (1,), (0, 0, 1, -2, 1), (), (-4, -2, -2), (), (1,))
    # ((4 + 2u + 2u^2)x - x^3) / (u - u^2), over the denominator u^2 - u
    flip_b = _central(field, (0, -1, 1), (), (-4, -2, -2), (), (1,))
    return ExtensionScenario(
        name=name,
        field=field,
        f=f,
        group=_v4(),
        generator_images={"01": flip_b, "10": -flip_b},
        precision=48,
        newton_seed=field.from_rational(2),
    )


def _quartic_embedding(field: GroundField) -> CentralPolynomial:
    """sqrt(A) in the quartic basis: ((u^2+3u+4)x - x^3) / (2u - 2u^2),
    over the denominator 2u^2 - 2u."""
    return _central(field, (0, -2, 2), (), (-4, -3, -1), (), (1,))


def _cyclic_cubic(name: str, field: GroundField) -> ExtensionScenario:
    """x^3 - x^2/u + (1-3u)x/u + 1: a cubic whose group is cyclic for every u.

    The series root is lifted from the cleared form  u x^3 - x^2 + (1-3u)x + u,
    whose reduction at u = 0 has 0 as a simple root.  The generating symmetry
    sends x to  2 + (1-u)x/u - x^2.
    """
    u = (0, 1)
    f = _central(field, u, (0, 1), (1, -3), (-1,), (0, 1))
    advance = _central(field, u, (0, 2), (1, -1), (0, -1))
    cleared = [_upoly(field, 0, 1), _upoly(field, 1, -3), _upoly(field, -1), _upoly(field, 0, 1)]
    return ExtensionScenario(
        name=name,
        field=field,
        f=f,
        group=_z3(),
        generator_images={"g": advance},
        precision=48,
        newton_seed=field.zero(),
        newton_coeffs=cleared,
    )


# -- catalog plumbing -----------------------------------------------------------

_SCENARIO_BUILDERS = {
    "T1L1": lambda: _quadratic("T1L1", field_catalog("hamilton")),
    "T1L2": lambda: _quartic("T1L2", field_catalog("hamilton")),
    "T2L1": lambda: _quadratic("T2L1", field_catalog("gauss")),
    "T2L2": lambda: _quartic("T2L2", field_catalog("gauss")),
    "T3L1": lambda: _cyclic_cubic("T3L1", field_catalog("rationals")),
}

_SCENARIOS: dict[str, ExtensionScenario] = {}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIO_BUILDERS))


def scenario_catalog(name: str) -> ExtensionScenario:
    if name not in _SCENARIO_BUILDERS:
        raise UnknownCatalogEntry(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    if name not in _SCENARIOS:
        _SCENARIOS[name] = _SCENARIO_BUILDERS[name]()
    return _SCENARIOS[name]


def _first_coordinate() -> dict[str, str]:
    return {"00": "e", "10": "s", "01": "e", "11": "s"}


def _identity_eps(group: FiniteGroup) -> dict[str, str]:
    return {g: g for g in group.elements}


def _witnesses(field: GroundField) -> tuple[tuple[str, SkewFraction], ...]:
    return (
        ("u+1", _upoly(field, 1, 1)),
        ("u^2+1", _upoly(field, 1, 0, 1)),
        ("u^3+u^2+u+1", _upoly(field, 1, 1, 1, 1)),
    )


def _build_quadratic_tower(name: str, l1: str, l2: str, kind: str) -> TowerScenario:
    field = field_catalog(kind)
    level1, level2 = scenario_catalog(l1), scenario_catalog(l2)
    system = GroupSystem([_z2(), _v4()], [_first_coordinate()])
    return TowerScenario(
        name=name,
        system=system,
        levels=[level1, level2],
        eps=[_identity_eps(level1.group), _identity_eps(level2.group)],
        embeddings=[_quartic_embedding(field)],
        nonsquare_witnesses=_witnesses(field),
    )


def _build_t3() -> TowerScenario:
    level = scenario_catalog("T3L1")
    return TowerScenario(
        name="T3",
        system=GroupSystem([_z3()], []),
        levels=[level],
        eps=[_identity_eps(level.group)],
        embeddings=[],
    )


def _build_t4() -> TowerScenario:
    """Depth three by repeating the quartic stage along a group automorphism.

    The top connecting map swaps the two sign coordinates; the top labelling
    absorbs the swap, so restriction to the (identical) middle level matches.
    """
    field = field_catalog("hamilton")
    level1, level2 = scenario_catalog("T1L1"), scenario_catalog("T1L2")
    swap = {"00": "00", "10": "01", "01": "10", "11": "11"}
    system = GroupSystem([_z2(), _v4(), _v4()], [_first_coordinate(), swap])
    return TowerScenario(
        name="T4",
        system=system,
        levels=[level1, level2, level2],
        eps=[_identity_eps(level1.group), _identity_eps(level2.group), dict(swap)],
        embeddings=[_quartic_embedding(field), CentralPolynomial.x(field)],
        nonsquare_witnesses=_witnesses(field),
    )


_TOWER_BUILDERS = {
    "T1": lambda: _build_quadratic_tower("T1", "T1L1", "T1L2", "hamilton"),
    "T2": lambda: _build_quadratic_tower("T2", "T2L1", "T2L2", "gauss"),
    "T3": _build_t3,
    "T4": _build_t4,
}

_TOWERS: dict[str, TowerScenario] = {}
_VALIDATED: set[str] = set()


def tower_names() -> tuple[str, ...]:
    return tuple(sorted(_TOWER_BUILDERS))


def tower_catalog(name: str, validate: bool = True) -> TowerScenario:
    """A built-in tower; with `validate` every certificate must pass first."""
    if name not in _TOWER_BUILDERS:
        raise UnknownCatalogEntry(
            f"unknown tower {name!r}; available: {', '.join(tower_names())}"
        )
    if name not in _TOWERS:
        _TOWERS[name] = _TOWER_BUILDERS[name]()
    ts = _TOWERS[name]
    if validate and name not in _VALIDATED:
        for level in ts.levels:
            level.validate()
        for check in run_tower_checks(ts):
            if check.status == "fail":
                raise ScenarioValidationError(
                    f"{name}: {check.name}: {check.details}"
                )
        _VALIDATED.add(name)
    return ts
