"""Command line driver: output shapes, exit classes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import orefield
from orefield.catalog import scenario_catalog, tower_catalog
from orefield.cli import EXIT_CHECKS, EXIT_PARSE, EXIT_VALIDATION, main
from orefield.extend import _irreducibility_certificate
from orefield.scenario_io import load_document, scenario_document, tower_document
from orefield.tower import nonsquare_certificate


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


def test_scenario_file_factor_degree_caps(capsys, tmp_path):
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["nonsquares"][0]["witness"] = "(1 + t)^64*(1 + t)^64*(1 + t)^64"
    t0 = time.perf_counter()
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "nonsquares[0].witness degree 192 exceeds cap 64" in err
    assert time.perf_counter() - t0 < 5.0
    doc = yaml.safe_load((SCENARIOS / "T3L1.yaml").read_text(encoding="utf-8"))
    doc["f"] = [1] + [0] * 64 + [1]
    t0 = time.perf_counter()
    code, _, err = run(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "extension.f degree 65 exceeds cap 64" in err
    doc["f"] = ["1/((1 + t)^64*(1 + t))", 0, 0, 1]
    code, _, err = run(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "extension.f[0] degree 65 exceeds cap 64" in err
    # an expression cap inside a file is a cap too, not a malformed file
    doc["f"] = ["(1 + t)^65", 0, 0, 1]
    code, _, err = run(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "exponent 65 exceeds cap 64" in err
    assert time.perf_counter() - t0 < 5.0


def test_scenario_file_group_order_cap(capsys, tmp_path):
    # the order is refused before the table is read: a group can only match
    # deg f <= 64, and its axioms are checked over all triples
    elements = [f"g{k}" for k in range(65)]
    doc = yaml.safe_load((SCENARIOS / "T3L1.yaml").read_text(encoding="utf-8"))
    doc["group"] = {"elements": elements, "identity": "g0", "table": {"g0": {"g0": "g0"}}}
    assert _exceeds_cap(capsys, "extend", "--scenario", _capped_scenario_file(tmp_path, doc))
    doc = tower_document(tower_catalog("T3", validate=False))
    doc["system"]["groups"][0] = {"elements": elements, "identity": "g0", "table": {}}
    path = _capped_scenario_file(tmp_path, doc)
    assert _exceeds_cap(capsys, "tower", "--scenario", path)
    assert "tower.system.groups[0] order 65 exceeds cap 64" in run(capsys, "tower", "--scenario", path)[2]


def test_scenario_file_expressions_stop_at_the_degree_cap(capsys, tmp_path):
    # the degree is bounded before each product is formed: 16 polynomial
    # factors reach degree 1024, and the 17th exits at once instead of
    # building the rest
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["nonsquares"][0]["witness"] = "*".join(["(1 + t)^64"] * 48)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "product degree 1088 exceeds cap 1024" in err
    assert time.perf_counter() - t0 < 5.0
    doc["nonsquares"][0]["witness"] = "((1 + t)^64)^17"
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "power degree 1088 exceeds cap 1024" in err
    assert time.perf_counter() - t0 < 5.0
    # arithmetic with denominators is capped at 128: each sum combines the
    # denominators through an Ore common multiple, so two terms reach degree
    # 128 and the third exits at once instead of growing it by 64 per term
    doc["nonsquares"][0]["witness"] = " + ".join(f"({c} + t)^-64" for c in range(1, 49))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "sum degree 192 exceeds cap 128" in err
    assert time.perf_counter() - t0 < 5.0
    # and so are a quotient and a power with a denominator
    doc["nonsquares"][0]["witness"] = "(1 + t)^64 / ((2 + t)^64 * (2 + t))"
    code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
    assert code == EXIT_VALIDATION and "product degree 129 exceeds cap 128" in err
    for witness in ("((1 + t)^-64)^3", "((1 + t)^3)^-64"):
        doc["nonsquares"][0]["witness"] = witness
        code, _, err = run(capsys, "tower", "--scenario", _capped_scenario_file(tmp_path, doc))
        assert code == EXIT_VALIDATION and "power degree 192 exceeds cap 128" in err
    assert time.perf_counter() - t0 < 5.0


def test_scenario_file_degrees_at_the_factor_cap_are_accepted():
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["nonsquares"][0]["witness"] = "(1 + t)^64"
    label, witness = load_document(yaml.safe_dump(doc)).nonsquare_witnesses[0]
    t0 = time.perf_counter()
    assert nonsquare_certificate(label, witness).details == "every factor has even multiplicity"
    doc = scenario_document(scenario_catalog("T3L1"))
    doc["f"] = ["(1 + t)^64"] + [0] * 63 + [1]  # x^64 + (1 + u)^64, irreducible
    scn = load_document(yaml.safe_dump(doc))
    assert scn.degree == 64
    assert _irreducibility_certificate(scn)[0] == "pass"
    assert time.perf_counter() - t0 < 5.0


def test_verify_extend_and_field_construction_never_import_sympy():
    """sympy is only the fallback of the f-irreducible certificate, which no
    catalog level reaches."""
    script = (
        "import contextlib, io, sys\n"
        "from fractions import Fraction\n"
        "from orefield import cli\n"
        "from orefield.ground import make_number_field\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for tower in ('T1', 'T2', 'T3', 'T4'):\n"
        "        assert cli.main(['verify', '--scenario', tower, '--seed', '7', '--format', 'json']) == 0\n"
        "    for level in ('T1L1', 'T1L2', 'T2L1', 'T2L2', 'T3L1'):\n"
        "        assert cli.main(['extend', '--scenario', level]) == 0\n"
        "make_number_field([8, -12, 0, 1], sigma_image=[-4, 0, Fraction(1, 2)])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    assert run_fresh(script) == "[]"


def run_fresh(script):
    """What the script prints, run in a fresh process on this checkout."""
    paths = [str(Path(orefield.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def loaded_after(commands, modules):
    """Those of the modules that running the commands, one after another in
    a fresh process, leaves in sys.modules."""
    script = (
        "import contextlib, io, sys\n"
        "from orefield import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        assert cli.main(argv) == 0\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    return run_fresh(script)


def test_building_the_catalog_scenarios_loads_no_central_arithmetic():
    """The central coefficients and every table modulo f are built on first
    use, so a process that only builds the scenarios never loads
    `orefield.factor`."""
    script = (
        "import sys\n"
        "from orefield.catalog import scenario_catalog, scenario_names\n"
        "for name in scenario_names():\n"
        "    scenario_catalog(name)\n"
        "print('orefield.factor' in sys.modules)\n"
    )
    assert run_fresh(script) == "False"


def test_catalog_verify_imports_neither_yaml_nor_the_expression_language():
    """A catalog target needs no scenario-file reader, and verify parses no
    expressions."""
    commands = [["verify", "--scenario", "T1", "--seed", "7"]]
    assert loaded_after(commands, ("yaml", "orefield.scenario_io", "orefield.exprs")) == "[]"


def test_eval_and_center_never_import_the_samplers():
    """Only verify's seeded probes draw random elements."""
    commands = [["eval", "t*i + i*t"], ["center", "--field", "gauss"]]
    assert loaded_after(commands, ("orefield.sampling",)) == "[]"


def test_values_at_the_caps_are_accepted(capsys):
    code, out, _ = run(capsys, "eval", "--field", "gauss", "--precision", "1024", "embed((1-t)^-1)")
    assert code == 0 and out.strip().endswith("O(t^1024)")
    code, out, _ = run(capsys, "eval", "--field", "gauss", "t^64")
    assert code == 0 and out.strip() == "[1,0]*t^64"
    code, out, _ = run(capsys, "eval", "--field", "gauss", "(t^64)^8 * (t^64)^8")
    assert code == 0 and out.strip() == "[1,0]*t^1024"
    code, out, _ = run(capsys, "eval", "--field", "gauss", "(t^60)^10 + (t^60)^10")
    assert code == 0 and out.strip() == "[2,0]*t^600"
    code, out, _ = run(capsys, "eval", "--field", "gauss", "(1 + t)^-64 - (2 + t)^-64")
    assert code == 0 and out.count("t^128") == 1


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


def test_tower_file_with_witnesses_off_the_center_fails(capsys, tmp_path):
    # 1 + (1+i)*u and i*u over Q(i): on the multiples of n, not in Q(u)
    doc = tower_document(tower_catalog("T2", validate=False))
    doc["nonsquares"][0]["witness"] = "[1,0] + [1,1]*t^2"
    doc["nonsquares"][1]["witness"] = "[0,1]*t^2"
    path = tmp_path / "off-center.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, out, _ = run(capsys, "tower", "--scenario", str(path))
    assert code == EXIT_CHECKS
    failing = [line for line in out.splitlines() if line.startswith("[fail]")]
    assert len(failing) == 2
    assert failing[0].startswith("[fail] nonsquare[u+1]: the witness ")
    assert failing[1].startswith("[fail] nonsquare[u^2+1]: the witness ")
    assert all(line.endswith(" is not in Q(u)") for line in failing)


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


def test_verify_report_is_pinned_at_another_probe_seed(capsys):
    """T3 at probe seed 8 steps the tau request down differently from seed 7."""
    code, out, _ = run(capsys, "verify", "--scenario", "T3", "--seed", "8", "--format", "json")
    assert code == 0
    digest = "26dd664024db23292099bb888c156697608e3b79b1873805389b042a26a104ec"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
