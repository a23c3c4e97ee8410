"""Command line driver: output shapes, exit classes, determinism."""

import hashlib
import json
import time
from pathlib import Path

import pytest
import yaml

from orefield.catalog import scenario_catalog, tower_catalog
from orefield.cli import EXIT_CHECKS, EXIT_PARSE, EXIT_VALIDATION, main
from orefield.scenario_io import load_document, scenario_document, tower_document


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def bad_root_file(tmp_path_factory):
    """A scenario whose pinned root has one wrong coefficient."""
    doc = scenario_document(scenario_catalog("T3L1"))
    del doc["newton"]
    doc["root"] = {
        "val": 1,
        "prec": 12,
        "coeffs": ["[-1]", "[-2]", "[-2]", "[3]", "[17]", "[28]"],
    }
    path = tmp_path_factory.mktemp("scn") / "bad-root.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture(scope="module")
def bad_eps_file(tmp_path_factory):
    """T1 with the two non-trivial level-2 labels swapped."""
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["eps"][1] = {"00": "00", "10": "01", "01": "10", "11": "11"}
    path = tmp_path_factory.mktemp("scn") / "bad-eps.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# -- eval ------------------------------------------------------------------------


def test_eval_collapses_the_twist_commutator(capsys):
    code, out, _ = run(capsys, "eval", "t*i + i*t")
    assert code == 0 and out.strip() == "0"


def test_eval_prints_bracketed_coordinates(capsys):
    code, out, _ = run(capsys, "eval", "t*i")
    assert code == 0 and out.strip() == "[0,-1]*t"


def test_eval_json_payload(capsys):
    code, out, _ = run(capsys, "eval", "t*i", "--format", "json")
    assert code == 0 and json.loads(out) == {"value": "[0,-1]*t"}


def test_eval_reports_parse_errors_with_columns(capsys):
    code, _, err = run(capsys, "eval", "t*(")
    assert code == EXIT_PARSE and "column 3" in err


def test_eval_semantic_errors_are_validation_class(capsys):
    code, _, err = run(capsys, "eval", "y + 1")
    assert code == EXIT_VALIDATION and "unknown name" in err


def test_eval_accepts_scenario_contexts(capsys):
    code, out, _ = run(capsys, "eval", "x^2 - x^2", "--scenario", "T3L1")
    assert code == 0 and out.strip() == "0"


def test_eval_rejects_tower_contexts(capsys):
    code, _, err = run(capsys, "eval", "x", "--scenario", "T1")
    assert code == EXIT_PARSE and "tower" in err


# -- caps: each user-controlled size is bounded, and breaking a bound exits 3 at once


def _exceeds_cap(capsys, *argv):
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    return code == EXIT_VALIDATION and "exceeds cap" in err and time.perf_counter() - t0 < 1.0


def test_embed_precision_cap(capsys):
    assert _exceeds_cap(capsys, "eval", "--field", "gauss", "embed((1-t)^-1, 100000)")


def test_tau_precision_cap(capsys):
    assert _exceeds_cap(capsys, "eval", "--field", "gauss", "tau(1 - t, 100000)")


def test_precision_option_cap(capsys):
    assert _exceeds_cap(capsys, "eval", "--field", "gauss", "--precision", "100000", "embed(1 - t)")


def test_exponent_cap(capsys):
    assert _exceeds_cap(capsys, "eval", "--field", "gauss", "(1 + t)^100000")
    assert _exceeds_cap(capsys, "eval", "--field", "gauss", "t^-100000")


def _capped_scenario_file(tmp_path, doc):
    path = tmp_path / f"{doc['name']}-capped.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_scenario_file_precision_cap(capsys, tmp_path):
    doc = yaml.safe_load((SCENARIOS / "T3L1.yaml").read_text(encoding="utf-8"))
    doc["precision"] = 100000
    t0 = time.perf_counter()
    code, _, err = run(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "extension.precision 100000 exceeds cap 1024" in err
    assert time.perf_counter() - t0 < 5.0


def test_scenario_file_root_and_level_precision_caps(capsys, tmp_path):
    doc = scenario_document(scenario_catalog("T3L1"))
    del doc["newton"]
    doc["root"] = {"val": 1, "prec": 100000, "coeffs": ["[1]"]}
    code, _, err = run(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "root.prec 100000 exceeds cap" in err
    doc = tower_document(tower_catalog("T3", validate=False))
    doc["levels"][0]["precision"] = 1025
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "precision 1025 exceeds cap" in err


def test_scenario_file_precision_at_the_cap_is_accepted():
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["precision"] = 1024
    assert load_document(yaml.safe_dump(doc)).precision == 1024


def test_values_at_the_caps_are_accepted(capsys):
    code, out, _ = run(capsys, "eval", "--field", "gauss", "--precision", "1024", "embed((1-t)^-1)")
    assert code == 0 and out.strip().endswith("O(t^1024)")
    code, out, _ = run(capsys, "eval", "--field", "gauss", "t^64")
    assert code == 0 and out.strip() == "[1,0]*t^64"


# -- divmod / invert / center ------------------------------------------------------


def test_divmod_worked_example(capsys):
    code, out, _ = run(capsys, "divmod", "t^2 + i", "t - i")
    assert code == 0
    assert out.splitlines() == ["quotient: [0,-1] + [1,0]*t", "remainder: [1,1]"]


def test_divmod_left_side_option(capsys):
    code, out, _ = run(capsys, "divmod", "i*t^2", "t - i", "--side", "left")
    assert code == 0 and out.startswith("quotient: ")


def test_divmod_by_zero_is_validation(capsys):
    code, _, err = run(capsys, "divmod", "t", "0")
    assert code == EXIT_VALIDATION and "zero" in err


def test_divmod_demands_polynomials(capsys):
    code, _, err = run(capsys, "divmod", "(1-t)^-1", "t")
    assert code == EXIT_VALIDATION and "polynomial" in err


def test_invert_verifies_the_round_trip(capsys):
    code, out, _ = run(capsys, "invert", "1 - t")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "inverse: ([-1,0] + [1,0]*t)^-1*([-1,0])"
    assert lines[1] == "round_trip: exact"


def test_invert_zero_is_validation(capsys):
    code, _, err = run(capsys, "invert", "0")
    assert code == EXIT_VALIDATION and "zero" in err


def test_invert_tensor_elements(capsys):
    code, out, _ = run(capsys, "invert", "x + 1", "--scenario", "T3L1")
    assert code == 0 and "round_trip: exact" in out


def test_center_enumerates_even_powers_of_t(capsys):
    code, out, _ = run(capsys, "center", "--max-deg", "8")
    assert code == 0
    assert out.splitlines() == [
        "[1,0]",
        "[1,0]*t^2",
        "[1,0]*t^4",
        "[1,0]*t^6",
        "[1,0]*t^8",
    ]


def test_center_over_untwisted_rationals_keeps_everything(capsys):
    code, out, _ = run(capsys, "center", "--field", "rationals", "--max-deg", "3")
    assert code == 0 and len(out.splitlines()) == 4


# -- extend / tower ------------------------------------------------------------------


def test_extend_battery_passes_on_catalog_entries(capsys):
    code, out, _ = run(capsys, "extend", "--scenario", "T3L1")
    assert code == 0
    assert out.strip().endswith("8 pass, 0 fail, 0 skipped")


def test_extend_requires_a_scenario(capsys):
    code, _, err = run(capsys, "extend")
    assert code == EXIT_PARSE and "--scenario" in err


def test_extend_rejects_towers(capsys):
    code, _, err = run(capsys, "extend", "--scenario", "T1")
    assert code == EXIT_PARSE and "tower" in err


def test_extend_on_a_corrupted_root_exits_validation(capsys, bad_root_file):
    code, out, _ = run(capsys, "extend", "--scenario", bad_root_file)
    assert code == EXIT_VALIDATION
    assert "[fail] root-residual: f(rho) has a nonzero coefficient at t^5" in out


def test_missing_scenario_files_are_parse_errors(capsys):
    code, _, err = run(capsys, "extend", "--scenario", "no-such-file.yaml")
    assert code == EXIT_PARSE and "cannot read" in err


def test_tower_checks_pass_on_catalog_entries(capsys):
    code, out, _ = run(capsys, "tower", "--scenario", "T3")
    assert code == 0 and "0 fail" in out


def test_tower_rejects_single_extensions(capsys):
    code, _, err = run(capsys, "tower", "--scenario", "T3L1")
    assert code == EXIT_PARSE and "extend" in err


def test_tower_on_corrupted_labelling_exits_check_failure(capsys, bad_eps_file):
    code, out, _ = run(capsys, "tower", "--scenario", bad_eps_file)
    assert code == EXIT_CHECKS
    failing = [line for line in out.splitlines() if line.startswith("[fail]")]
    assert len(failing) == 2
    assert any("compat[2->1:01]" in line for line in failing)
    assert any("compat[2->1:10]" in line for line in failing)


def test_tower_json_rows_have_the_report_schema(capsys):
    code, out, _ = run(capsys, "tower", "--scenario", "T3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(set(r) == {"check-name", "status", "details", "law"} for r in rows)
    names = [r["check-name"] for r in rows]
    assert names == sorted(names)
    # canonical serialisation: keys sorted, two-space indent
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


# -- verify ---------------------------------------------------------------------------


def test_verify_runs_batteries_relations_and_probes(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "T3", "--seed", "7", "--format", "json")
    assert code == 0
    names = [r["check-name"] for r in json.loads(out)]
    assert "T3L1:root-residual" in names
    assert "T3L1:generator-invert" in names
    assert "T3L1:random-invert[0]" in names
    assert "T3L1:random-tau-hom[0]" in names
    assert "system-axioms" in names


def test_verify_is_deterministic_for_a_fixed_seed(capsys):
    code1, out1, _ = run(capsys, "verify", "--scenario", "T3", "--seed", "7", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--scenario", "T3", "--seed", "7", "--format", "json")
    assert (code1, code2) == (0, 0) and out1 == out2


# sha256 of `verify --scenario T --seed 7 --format json` stdout: the reports
# must stay byte-identical while the arithmetic under them changes
VERIFY_SHA256 = {
    "T1": "c3ae4d356e32dbf683bba3539b7f52831e86090a78488693edc83af335fcba8c",
    "T2": "d7112cf0d0cffdb0531111b2e6cd4d0ec40071cd8c10c453657d10781b6146ee",
    "T3": "2cbe347f890d860c47816f576f48e35a19e08d5ba3e83b3a3c4fe6d445ea6a46",
    "T4": "0321dace5ce7178abba8bcc68edf22171a5412e0f91498e23bb23031d5fce9a0",
}


@pytest.mark.parametrize("tower", sorted(VERIFY_SHA256))
def test_verify_report_is_pinned(capsys, tower):
    code, out, _ = run(capsys, "verify", "--scenario", tower, "--seed", "7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[tower]


def test_verify_accepts_extension_targets(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "T3L1", "--format", "json")
    assert code == 0
    names = [r["check-name"] for r in json.loads(out)]
    assert all(name.startswith("T3L1:") for name in names)


def test_verify_classifies_corrupted_roots_as_validation(capsys, bad_root_file):
    code, _, _ = run(capsys, "verify", "--scenario", bad_root_file)
    assert code == EXIT_VALIDATION


def test_verify_classifies_corrupted_labellings_as_check_failures(capsys, bad_eps_file):
    code, _, _ = run(capsys, "verify", "--scenario", bad_eps_file)
    assert code == EXIT_CHECKS


# -- argument handling ------------------------------------------------------------------


def test_unknown_commands_are_parse_errors(capsys):
    assert main(["polish"]) == EXIT_PARSE


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
