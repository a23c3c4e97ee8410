"""Scenario files: strict schema, expression coefficients, round trips."""

import pytest
import yaml

from conftest import GAUSS, HAMILTON, RATIONALS, ROOT2

from orefield import cli
from orefield.catalog import field_catalog, field_names, scenario_catalog, scenario_names, tower_catalog, tower_names
from orefield.errors import ScenarioFormatError, ScenarioValidationError
from orefield.extend import ExtensionScenario, run_scenario_checks
from orefield.scenario_io import (
    dump_document,
    field_spec,
    load_document,
    load_path,
    parse_field,
    scenario_document,
    tower_document,
)
from orefield.tower import TowerScenario


def reload(obj):
    return load_document(dump_document(obj))


# -- field specs ---------------------------------------------------------------


def test_named_fields_round_trip():
    for name, field in (("rationals", RATIONALS), ("gauss", GAUSS), ("hamilton", HAMILTON)):
        assert field_spec(field) == name
        assert parse_field(name) == field


@pytest.mark.parametrize("name", field_names())
def test_a_field_name_means_the_one_catalog_field(name):
    """A scenario file's field name, `--field` and the catalog scenarios all
    read the catalog's one table of named fields."""
    field = parse_field(name)
    assert field is field_catalog(name) and field_spec(field) == name
    args = cli.build_parser().parse_args(["eval", "--field", name, "t"])
    assert cli._evaluator(args)("t").field is field
    named = [s for s in scenario_names() if scenario_catalog(s).field == field]
    assert named and all(scenario_catalog(s).field is field for s in named)
    assert load_document(dump_document(scenario_catalog("T3L1"))).field is field_catalog("rationals")


def test_custom_number_field_round_trips():
    spec = field_spec(ROOT2)
    assert spec["min-poly"] == [-2, 0, 1]
    assert parse_field(spec) == ROOT2


def test_unknown_field_names_are_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown field name"):
        parse_field("octonions")
    with pytest.raises(ScenarioFormatError, match="min-poly"):
        parse_field({"name": "no-poly"})
    with pytest.raises(ScenarioFormatError, match="together"):
        parse_field({"alpha": -1})


def test_unnamed_quaternion_fields_are_labelled_by_their_constants():
    """A field given by alpha and beta without a name is labelled as the
    algebra (alpha, beta / k) is written, with no Fraction reprs."""
    assert parse_field({"alpha": 1, "beta": 1}).name == "(1,1 / Q)"
    assert parse_field({"alpha": "-1/2", "beta": -3}).name == "(-1/2,-3 / Q)"
    field = parse_field({"min-poly": [-2, 0, 1], "alpha": [0, 1], "beta": -1})
    assert field.name == "(1*y,-1 / Q[y])"


# -- extension documents ---------------------------------------------------------


def test_every_catalog_scenario_survives_a_round_trip():
    for name in scenario_names():
        scn = scenario_catalog(name)
        back = reload(scn)
        assert isinstance(back, ExtensionScenario)
        assert back.name == scn.name
        assert back.field == scn.field
        assert back.precision == scn.precision
        assert back.f.coeffs == scn.f.coeffs
        assert back.group.elements == scn.group.elements
        assert back.group.table == scn.group.table
        assert set(back.generator_images) == set(scn.generator_images)
        for g, img in scn.generator_images.items():
            assert back.generator_images[g].coeffs == img.coeffs
        assert back.newton_seed == scn.newton_seed
        assert back.newton_coeffs == scn.newton_coeffs


def test_reloaded_scenario_passes_its_certificates():
    back = reload(scenario_catalog("T3L1"))
    assert all(r.status != "fail" for r in run_scenario_checks(back))


def test_unknown_keys_are_rejected_at_every_level():
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["surprise"] = 1
    with pytest.raises(ScenarioFormatError, match="unknown key 'surprise'"):
        load_document(yaml.safe_dump(doc))
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["newton"]["flavor"] = "spicy"
    with pytest.raises(ScenarioFormatError, match="newton: unknown key 'flavor'"):
        load_document(yaml.safe_dump(doc))


def test_missing_required_keys_are_reported():
    doc = scenario_document(scenario_catalog("T3L1"))
    del doc["f"]
    with pytest.raises(ScenarioFormatError, match="missing key 'f'"):
        load_document(yaml.safe_dump(doc))


def test_kind_is_mandatory_and_checked():
    with pytest.raises(ScenarioFormatError, match="kind"):
        load_document("name: x")
    with pytest.raises(ScenarioFormatError, match="kind"):
        load_document("kind: sandwich")
    with pytest.raises(ScenarioFormatError, match="mapping"):
        load_document("- just\n- a list")


def test_yaml_syntax_errors_become_format_errors():
    with pytest.raises(ScenarioFormatError, match="bad YAML"):
        load_document("kind: [unclosed")


def test_bad_coefficient_expressions_are_located():
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["f"][1] = "t +* 3"
    with pytest.raises(ScenarioFormatError, match=r"extension.f\[1\]"):
        load_document(yaml.safe_dump(doc))
    doc["f"][1] = "[1,2,3]"  # wrong coordinate count over the rationals
    with pytest.raises(ScenarioFormatError, match=r"extension.f\[1\]"):
        load_document(yaml.safe_dump(doc))


def test_non_central_coefficients_fail_validation_not_format():
    doc = scenario_document(scenario_catalog("T1L1"))
    doc["f"][0] = "i"  # not central over the quaternions
    with pytest.raises(ScenarioValidationError, match="not central"):
        load_document(yaml.safe_dump(doc))


def test_newton_seed_must_be_a_ground_constant():
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["newton"]["seed"] = "1 + t"
    with pytest.raises(ScenarioFormatError, match="ground-field constant"):
        load_document(yaml.safe_dump(doc))


def test_some_root_recipe_is_required():
    doc = scenario_document(scenario_catalog("T3L1"))
    del doc["newton"]
    with pytest.raises(ScenarioFormatError, match="newton block or an explicit root"):
        load_document(yaml.safe_dump(doc))


def test_explicit_root_blocks_load_as_overrides():
    doc = scenario_document(scenario_catalog("T3L1"))
    rho = scenario_catalog("T3L1").rho
    del doc["newton"]
    # a pinned root must out-run the stated precision by whatever the
    # denominators of f consume when the residual is evaluated
    doc["precision"] = 12
    doc["root"] = {
        "val": rho.val,
        "prec": 16,
        "coeffs": [str(c) for c in rho.coeffs[:15]],
    }
    scn = load_document(yaml.safe_dump(doc))
    assert scn.rho_override is not None
    assert scn.rho.truncate(12) == rho.truncate(12)
    assert all(r.status != "fail" for r in run_scenario_checks(scn))
    # and exporting keeps the explicit root block
    assert "root" in scenario_document(scn)


# -- tower documents --------------------------------------------------------------


def test_every_catalog_tower_survives_a_round_trip():
    for name in tower_names():
        ts = tower_catalog(name, validate=False)
        back = reload(ts)
        assert isinstance(back, TowerScenario)
        assert back.name == ts.name
        assert back.eps == ts.eps
        assert back.system.epis == ts.system.epis
        assert [g.table for g in back.system.levels] == [g.table for g in ts.system.levels]
        assert [lv.f.coeffs for lv in back.levels] == [lv.f.coeffs for lv in ts.levels]
        assert [
            None if e is None else e.coeffs for e in back.embeddings
        ] == [None if e is None else e.coeffs for e in ts.embeddings]
        assert back.nonsquare_witnesses == ts.nonsquare_witnesses


def test_tower_levels_reject_their_own_field_key():
    doc = tower_document(tower_catalog("T3", validate=False))
    doc["levels"][0]["field"] = "rationals"
    with pytest.raises(ScenarioFormatError, match=r"levels\[0\]: unknown key 'field'"):
        load_document(yaml.safe_dump(doc))


def test_null_embeddings_load_as_missing():
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["embeddings"][0] = None
    ts = load_document(yaml.safe_dump(doc))
    assert ts.embeddings[0] is None


def test_shipped_scenario_files_load(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    names = {p.stem for p in root.glob("*.yaml")}
    assert set(scenario_names()) | set(tower_names()) <= names
    loaded = load_path(root / "T1.yaml")
    assert isinstance(loaded, TowerScenario)
    text = (root / "T1L1.yaml").read_text()
    assert text.startswith("#")  # annotated header survives
