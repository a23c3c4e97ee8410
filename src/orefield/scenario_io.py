"""Reading and writing scenario files.

A scenario file is a single YAML document describing either one algebra
extension (``kind: extension``) or a stack of compatible extensions
(``kind: tower``).  Coefficients are written in the same expression
language the command line accepts, so a file can say ``"1 + t"`` or
``"[0,1]*t^2"`` instead of spelling out coordinate tables.

Extension documents::

    kind: extension
    name: my-quadratic
    field: hamilton              # rationals | gauss | hamilton | mapping
    precision: 48
    f: ["-1 - t", 0, 1]          # coefficients of f, ascending in x
    group:
      elements: [e, s]
      identity: e
      table:
        e: {e: e, s: s}
        s: {e: s, s: e}
    images:
      s: [0, -1]                 # image of x under each non-trivial map
    newton:                      # optional: how to find the slot root
      seed: 1
      coeffs: ["t", "1 - 3*t"]   # optional cleared coefficient list
    root:                        # optional: pin the root series verbatim
      val: 1
      prec: 48
      coeffs: ["[1,0]", 0, "[0,-1]"]

Custom ground fields replace the field name with a mapping: a number
field is ``{min-poly: [...], sigma-image: [...], name: ...}`` and a
quaternion algebra adds ``alpha``/``beta``.  Rational entries may be
integers or strings like ``"1/2"``.

Tower documents share one ``field`` and carry the group system, the
per-level extension data, the labellings that align the two, and the
connecting maps::

    kind: tower
    name: my-tower
    field: hamilton
    system:
      groups: [ {elements: ..., identity: ..., table: ...}, ... ]
      maps: [ {"00": e, "10": s, "01": e, "11": s} ]
    levels: [ {name: ..., precision: ..., f: ..., group: ..., images: ...}, ... ]
    eps: [ {e: e, s: s}, ... ]
    embeddings: [ ["0", "(4 + 3*t + t^2)/(2*t - 2*t^2)", 0, ...], ... ]
    nonsquares: [ {label: u+1, witness: "1 + t"}, ... ]

Catalog entries can be exported back to this format, edited, and
re-validated from the command line.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

import yaml

from .catalog import field_catalog, field_names
from .errors import CapExceeded, OrefieldError, ScenarioFormatError, ScenarioValidationError
from .exprs import EvalContext, evaluate_text
from .extend import CentralPolynomial, ExtensionScenario, FiniteGroup
from .ground import GroundElement, GroundField, make_number_field, make_quaternions
from .laurent import TwistedSeries
from .skewfrac import FACTOR_DEGREE_CAP, PRECISION_CAP, SkewFraction
from .tower import GroupSystem, TowerScenario

__all__ = [
    "load_document",
    "load_path",
    "parse_field",
    "field_spec",
    "scenario_document",
    "tower_document",
    "dump_document",
]


# ---------------------------------------------------------------------------
# small strict-schema helpers


def _fail(where: str, message: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{where}: {message}")


def _mapping(value: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, Mapping):
        raise _fail(where, "expected a mapping")
    allowed = set(required) | set(optional)
    for key in value:
        if key not in allowed:
            raise _fail(where, f"unknown key {key!r}")
    for key in required:
        if key not in value:
            raise _fail(where, f"missing key {key!r}")
    return dict(value)


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(where, "expected a non-empty string")
    return value


def _int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, "expected an integer")
    if minimum is not None and value < minimum:
        raise _fail(where, f"expected an integer >= {minimum}")
    return value


def _precision(value: Any, where: str) -> int:
    """A series precision: at least 1 and at most PRECISION_CAP."""
    prec = _int(value, where, minimum=1)
    if prec > PRECISION_CAP:
        raise CapExceeded(f"{where} {prec} exceeds cap {PRECISION_CAP}")
    return prec


def _check_factor_degree(degree: int, where: str) -> None:
    """What the certificates factor: a degree of at most FACTOR_DEGREE_CAP."""
    if degree > FACTOR_DEGREE_CAP:
        raise CapExceeded(f"{where} degree {degree} exceeds cap {FACTOR_DEGREE_CAP}")


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise _fail(where, "expected a list")
    return value


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise _fail(where, "expected a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(where, f"bad rational {value!r} ({exc})") from None
    raise _fail(where, "expected a rational number (int or string)")


def _rational_str(value: Fraction) -> Any:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# ground fields


def parse_field(spec: Any, where: str = "field") -> GroundField:
    """The ground field of a scenario-file description: a name of the
    catalog's (`catalog.field_catalog`) or an inline field, built anew."""
    if isinstance(spec, str):
        if spec in field_names():
            return field_catalog(spec)
        raise _fail(where, f"unknown field name {spec!r} (try one of {', '.join(field_names())})")
    doc = _mapping(
        spec, where, (), ("min-poly", "sigma-image", "alpha", "beta", "name")
    )
    min_poly = None
    if "min-poly" in doc:
        min_poly = [_rational(c, f"{where}.min-poly") for c in _list(doc["min-poly"], f"{where}.min-poly")]
    sigma_image = None
    if "sigma-image" in doc:
        sigma_image = [
            _rational(c, f"{where}.sigma-image")
            for c in _list(doc["sigma-image"], f"{where}.sigma-image")
        ]
    name = _string(doc["name"], f"{where}.name") if "name" in doc else None
    quaternionic = "alpha" in doc or "beta" in doc
    try:
        if quaternionic:
            if "alpha" not in doc or "beta" not in doc:
                raise _fail(where, "alpha and beta must be given together")
            alpha = _constant(doc["alpha"], f"{where}.alpha")
            beta = _constant(doc["beta"], f"{where}.beta")
            return make_quaternions(alpha, beta, min_poly, sigma_image, name)
        if min_poly is None:
            raise _fail(where, "a custom field needs min-poly (and optionally alpha/beta)")
        return make_number_field(min_poly, sigma_image, name)
    except OrefieldError:
        raise
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _constant(value: Any, where: str) -> Fraction | list[Fraction]:
    if isinstance(value, list):
        return [_rational(c, where) for c in value]
    return _rational(value, where)


def field_spec(field: GroundField) -> Any:
    """The scenario-file description of a ground field (inverse of parse_field)."""
    for name in field_names():
        if field == field_catalog(name):
            return name
    doc: dict[str, Any] = {}
    if field.base_poly is not None:
        doc["min-poly"] = [_rational_str(c) for c in field.base_poly]
        if not field.sigma_is_identity:
            doc["sigma-image"] = [
                _rational_str(field.sigma_matrix[r][1]) for r in range(field.base_dim)
            ]
    if field.kind == "quaternions":
        doc["alpha"] = _constant_spec(field.alpha)
        doc["beta"] = _constant_spec(field.beta)
    doc["name"] = field.name
    return doc


def _constant_spec(coords: tuple[Fraction, ...]) -> Any:
    if len(coords) == 1:
        return _rational_str(coords[0])
    return [_rational_str(c) for c in coords]


# ---------------------------------------------------------------------------
# expression-valued entries


def _fraction(value: Any, field: GroundField, where: str) -> SkewFraction:
    if isinstance(value, bool):
        raise _fail(where, "expected a coefficient (number or expression string)")
    if isinstance(value, int):
        return SkewFraction.from_rational(field, value)
    if not isinstance(value, str):
        raise _fail(where, "expected a coefficient (number or expression string)")
    try:
        result = evaluate_text(value, EvalContext(field))
    except (CapExceeded, ScenarioValidationError):
        raise
    except OrefieldError as exc:
        raise _fail(where, f"bad coefficient {value!r} ({exc})") from None
    if not isinstance(result, SkewFraction):
        raise _fail(where, f"coefficient {value!r} is not a twisted fraction")
    return result


def _ground(value: Any, field: GroundField, where: str) -> GroundElement:
    frac = _fraction(value, field, where)
    if frac.den.degree != 0 or frac.num.degree > 0:
        raise _fail(where, "expected a ground-field constant")
    if frac.is_zero():
        return field.zero()
    return frac.num.coefficient(0)


def _fraction_list(value: Any, field: GroundField, where: str) -> list[SkewFraction]:
    return [_fraction(v, field, f"{where}[{m}]") for m, v in enumerate(_list(value, where))]


def _central(value: Any, field: GroundField, where: str) -> CentralPolynomial:
    return CentralPolynomial.from_coeffs(field, _fraction_list(value, field, where))


# ---------------------------------------------------------------------------
# groups


def _parse_group(doc: Any, where: str) -> FiniteGroup:
    data = _mapping(doc, where, ("elements", "identity", "table"))
    entries = _list(data["elements"], f"{where}.elements")
    if len(entries) > FACTOR_DEGREE_CAP:
        # the order must equal deg f, and the group checks grow as its cube
        raise CapExceeded(f"{where} order {len(entries)} exceeds cap {FACTOR_DEGREE_CAP}")
    elements = [_string(e, f"{where}.elements") for e in entries]
    identity = _string(data["identity"], f"{where}.identity")
    rows = data["table"]
    if not isinstance(rows, Mapping):
        raise _fail(f"{where}.table", "expected a mapping of mappings")
    table: dict[tuple[str, str], str] = {}
    for a, row in rows.items():
        if not isinstance(row, Mapping):
            raise _fail(f"{where}.table.{a}", "expected a mapping")
        for b, c in row.items():
            table[(str(a), str(b))] = _string(c, f"{where}.table.{a}.{b}")
    return FiniteGroup(elements, identity, table)


def _group_document(group: FiniteGroup) -> dict:
    table: dict[str, dict[str, str]] = {a: {} for a in group.elements}
    for (a, b), c in sorted(group.table.items()):
        table[a][b] = c
    return {
        "elements": list(group.elements),
        "identity": group.identity,
        "table": table,
    }


def _parse_labelling(doc: Any, where: str) -> dict[str, str]:
    if not isinstance(doc, Mapping):
        raise _fail(where, "expected a mapping of element names")
    return {str(a): _string(b, f"{where}.{a}") for a, b in doc.items()}


# ---------------------------------------------------------------------------
# extension scenarios


_LEVEL_REQUIRED = ("name", "precision", "f", "group", "images")
_LEVEL_OPTIONAL = ("newton", "root")


def _parse_scenario_body(
    doc: Mapping, field: GroundField, where: str
) -> ExtensionScenario:
    name = _string(doc["name"], f"{where}.name")
    precision = _precision(doc["precision"], f"{where}.precision")
    f = _central(doc["f"], field, f"{where}.f")
    _check_factor_degree(f.degree, f"{where}.f")
    for m, c in enumerate(f.coeffs):
        _check_factor_degree(max(c.num.degree, c.den.degree), f"{where}.f[{m}]")
    group = _parse_group(doc["group"], f"{where}.group")
    images_doc = doc["images"]
    if not isinstance(images_doc, Mapping):
        raise _fail(f"{where}.images", "expected a mapping")
    images = {
        str(g): _central(coeffs, field, f"{where}.images.{g}")
        for g, coeffs in images_doc.items()
    }
    seed = coeffs = root = None
    if "newton" in doc:
        newton = _mapping(doc["newton"], f"{where}.newton", ("seed",), ("coeffs",))
        seed = _ground(newton["seed"], field, f"{where}.newton.seed")
        if "coeffs" in newton:
            coeffs = _fraction_list(newton["coeffs"], field, f"{where}.newton.coeffs")
    if "root" in doc:
        root_doc = _mapping(doc["root"], f"{where}.root", ("val", "prec", "coeffs"))
        val = _int(root_doc["val"], f"{where}.root.val")
        prec = _precision(root_doc["prec"], f"{where}.root.prec")
        entries = [
            _ground(c, field, f"{where}.root.coeffs[{m}]")
            for m, c in enumerate(_list(root_doc["coeffs"], f"{where}.root.coeffs"))
        ]
        root = TwistedSeries.make(field, val, entries, prec)
    if seed is None and root is None:
        raise _fail(where, "needs either a newton block or an explicit root block")
    return ExtensionScenario(
        name,
        field,
        f,
        group,
        images,
        precision,
        newton_seed=seed,
        newton_coeffs=coeffs,
        rho_override=root,
    )


def _parse_extension(doc: Mapping) -> ExtensionScenario:
    data = _mapping(doc, "extension", ("kind", "field") + _LEVEL_REQUIRED, _LEVEL_OPTIONAL)
    field = parse_field(data["field"])
    return _parse_scenario_body(data, field, "extension")


# ---------------------------------------------------------------------------
# towers


def _parse_tower(doc: Mapping) -> TowerScenario:
    data = _mapping(
        doc,
        "tower",
        ("kind", "name", "field", "system", "levels", "eps", "embeddings"),
        ("nonsquares",),
    )
    name = _string(data["name"], "tower.name")
    field = parse_field(data["field"])
    system_doc = _mapping(data["system"], "tower.system", ("groups", "maps"))
    groups = [
        _parse_group(g, f"tower.system.groups[{n}]")
        for n, g in enumerate(_list(system_doc["groups"], "tower.system.groups"))
    ]
    maps = [
        _parse_labelling(m, f"tower.system.maps[{n}]")
        for n, m in enumerate(_list(system_doc["maps"], "tower.system.maps"))
    ]
    system = GroupSystem(groups, maps)
    levels = []
    for n, level_doc in enumerate(_list(data["levels"], "tower.levels")):
        where = f"tower.levels[{n}]"
        body = _mapping(level_doc, where, _LEVEL_REQUIRED, _LEVEL_OPTIONAL)
        levels.append(_parse_scenario_body(body, field, where))
    eps = [
        _parse_labelling(m, f"tower.eps[{n}]")
        for n, m in enumerate(_list(data["eps"], "tower.eps"))
    ]
    embeddings = []
    for n, entry in enumerate(_list(data["embeddings"], "tower.embeddings")):
        where = f"tower.embeddings[{n}]"
        embeddings.append(None if entry is None else _central(entry, field, where))
    witnesses = []
    for n, entry in enumerate(_list(data.get("nonsquares", []), "tower.nonsquares")):
        where = f"tower.nonsquares[{n}]"
        body = _mapping(entry, where, ("label", "witness"))
        label = _string(body["label"], f"{where}.label")
        witness = _fraction(body["witness"], field, f"{where}.witness")
        _check_factor_degree(max(witness.num.degree, witness.den.degree), f"{where}.witness")
        witnesses.append((label, witness))
    return TowerScenario(
        name, system, levels, eps, embeddings, nonsquare_witnesses=tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# entry points


def load_document(text: str) -> ExtensionScenario | TowerScenario:
    """Parse one YAML scenario document (extension or tower)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"bad YAML: {exc}") from None
    except ValueError as exc:
        # a scalar the YAML constructors cannot build, such as an integer
        # past the interpreter's limit on decimal digits
        raise ScenarioFormatError(f"bad YAML value: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ScenarioFormatError("scenario file must hold a mapping")
    kind = doc.get("kind")
    if kind == "extension":
        return _parse_extension(doc)
    if kind == "tower":
        return _parse_tower(doc)
    raise ScenarioFormatError(f"kind must be 'extension' or 'tower', got {kind!r}")


def load_path(path) -> ExtensionScenario | TowerScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return load_document(handle.read())


# ---------------------------------------------------------------------------
# export


def _coefficient_entry(frac: SkewFraction) -> Any:
    if frac.is_zero():
        return 0
    return str(frac)


def _scenario_body(scn: ExtensionScenario) -> dict:
    doc: dict[str, Any] = {
        "name": scn.name,
        "precision": scn.precision,
        "f": [_coefficient_entry(c) for c in scn.f.coeffs],
        "group": _group_document(scn.group),
        "images": {
            g: [_coefficient_entry(c) for c in img.coeffs]
            for g, img in sorted(scn.generator_images.items())
        },
    }
    if scn.newton_seed is not None:
        newton: dict[str, Any] = {"seed": str(scn.newton_seed)}
        if scn.newton_coeffs is not None:
            newton["coeffs"] = [_coefficient_entry(c) for c in scn.newton_coeffs]
        doc["newton"] = newton
    if scn.rho_override is not None:
        series = scn.rho_override.to_twisted()
        doc["root"] = {
            "val": series.val,
            "prec": series.prec,
            "coeffs": [str(c) for c in series.coeffs],
        }
    return doc


def scenario_document(scn: ExtensionScenario) -> dict:
    """Plain-data document for one extension scenario."""
    doc = {"kind": "extension", "field": field_spec(scn.field)}
    doc.update(_scenario_body(scn))
    return doc


def tower_document(ts: TowerScenario) -> dict:
    """Plain-data document for a tower scenario."""
    doc: dict[str, Any] = {
        "kind": "tower",
        "name": ts.name,
        "field": field_spec(ts.levels[0].field),
        "system": {
            "groups": [_group_document(g) for g in ts.system.levels],
            "maps": [dict(sorted(m.items())) for m in ts.system.epis],
        },
        "levels": [_scenario_body(level) for level in ts.levels],
        "eps": [dict(sorted(m.items())) for m in ts.eps],
        "embeddings": [
            None if emb is None else [_coefficient_entry(c) for c in emb.coeffs]
            for emb in ts.embeddings
        ],
    }
    if ts.nonsquare_witnesses:
        doc["nonsquares"] = [
            {"label": label, "witness": _coefficient_entry(witness)}
            for label, witness in ts.nonsquare_witnesses
        ]
    return doc


def dump_document(obj: ExtensionScenario | TowerScenario, header: str | None = None) -> str:
    """YAML text for a scenario, optionally preceded by comment lines."""
    if isinstance(obj, TowerScenario):
        doc = tower_document(obj)
    else:
        doc = scenario_document(obj)
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False, width=100)
    if header:
        lines = [f"# {line}".rstrip() for line in header.strip().splitlines()]
        return "\n".join(lines) + "\n" + text
    return text
