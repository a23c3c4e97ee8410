"""Command line driver: output shapes, exit classes, determinism."""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import fresh_env
from orefield.catalog import scenario_catalog, scenario_names, tower_catalog
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


def test_a_fraction_is_lifted_to_the_kind_of_either_operand(capsys):
    """A fraction on the left of an extension element or a series is lifted
    to its kind, and tau of a fraction is its embedding through the scenario."""
    code, out, _ = run(capsys, "eval", "--scenario", "T3L1", "(1+t)+x")
    assert code == 0 and out.strip() == "([1] + [1]*t) + ([1])*x"
    code, out, _ = run(capsys, "eval", "--field", "gauss", "(1+t)+embed(t)")
    assert code == 0 and out.strip() == "[1,0] + [2,0]*t + O(t^16)"
    code, out, _ = run(capsys, "eval", "--scenario", "T3L1", "tau((1+t)^-1, 6)")
    assert code == 0 and out.strip() == "[1] + [-1]*t + [1]*t^2 + [-1]*t^3 + [1]*t^4 + [-1]*t^5 + O(t^6)"


def test_series_invert_exactly_and_take_negative_powers(capsys):
    code, out, _ = run(capsys, "invert", "--field", "gauss", "embed(1+t)")
    terms = ["[1,0]", "[-1,0]*t"] + [f"[{(-1) ** k},0]*t^{k}" for k in range(2, 16)]
    assert code == 0 and out.splitlines() == ["inverse: " + " + ".join(terms) + " + O(t^16)", "round_trip: exact"]
    code, out, _ = run(capsys, "eval", "--field", "gauss", "embed(1+t, 6)^-2")
    assert code == 0 and out.strip() == "[1,0] + [-2,0]*t + [3,0]*t^2 + [-4,0]*t^3 + [5,0]*t^4 + [-6,0]*t^5 + O(t^6)"


def test_eval_rejects_tower_contexts(capsys):
    code, _, err = run(capsys, "eval", "x", "--scenario", "T1")
    assert code == EXIT_PARSE and "tower" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_leading_minus_is_an_option_unless_it_follows_a_double_dash(capsys, fmt):
    """argparse reads "-t" as an option, so the expression is missing (exit
    2); after "--" it is the expression, as the help text says."""
    for expr, value in (("-t", "[-1,0]*t"), ("-(0)", "0")):
        code, out, err = run(capsys, "eval", "--format", fmt, expr)
        assert code == EXIT_PARSE and not out and "required: expr" in err
        code, out, _ = run(capsys, "eval", "--format", fmt, "--", expr)
        assert code == 0
        assert (json.loads(out) == {"value": value}) if fmt == "json" else out.strip() == value
    code, out, _ = run(capsys, "eval", "-h")
    assert code == 0 and "after '--' when it starts with '-'" in " ".join(out.split())


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


def test_integer_literal_digit_cap(capsys):
    """A literal past CPython's 4300-digit str -> int limit is refused before
    it is converted; one at the cap is read."""
    assert _exceeds_cap(capsys, "eval", "1" * 4400)
    code, out, _ = run(capsys, "eval", "--field", "rationals", "9" * 4300)
    assert code == 0 and out.strip() == "[" + "9" * 4300 + "]"


@pytest.mark.parametrize("form", ["text", "json"])
def test_coefficients_past_the_digit_limit_print(capsys, form):
    """2^(2^14) has 4933 digits: more than CPython converts to a string in one
    piece by default, and the printer writes them all."""
    code, out, _ = run(capsys, "eval", "--format", form, "((2^64)^64)^4")
    assert code == 0
    value = json.loads(out)["value"] if form == "json" else out.strip()
    assert sys.get_int_max_str_digits() == 4300
    sys.set_int_max_str_digits(0)
    try:
        digits = str(2 ** (2**14))
    finally:
        sys.set_int_max_str_digits(4300)
    assert value == f"[{digits},0]" and len(digits) == 4933
    code, out, _ = run(capsys, "eval", "--field", "rationals", "(0 - ((2^64)^64)^4)/3")
    assert code == 0 and out.strip() == f"[-{digits}/3]"


# Powers of constants: each product counts the bits of its factors, as a
# fraction product does, so a short power cannot print megabytes or run for
# long; ((2^64)^64)^4 above stays below the cap.
CONSTANT_POWERS = [
    ("--field", "rationals", "((12345^64)^64)^64", "fraction work 55672 exceeds cap 32768"),
    ("--scenario", "T2L2", "(((123456789012345678901234567890)^61)^-51)^58", "fraction work 47162 exceeds cap 32768"),
]


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("option, where, expr, refusal", CONSTANT_POWERS, ids=[f"{w}:{e}" for _, w, e, _ in CONSTANT_POWERS])
def test_powers_of_constants_are_bounded_by_their_bits(capsys, form, option, where, expr, refusal):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", option, where, "--format", form, expr)
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_VALIDATION and refusal in err and not out


# two fractions of degree 16 with 1015- and 744-bit coefficients: (16 + 16) *
# (1015 + 744) = 56288 units of fraction work; at ^-8, 16 * 880 = 14080
BIG_COEFFICIENT_SUM = "(12345678901234567890+[0,1]*t)^{0} + (98765432109876+t)^{0}"


@pytest.mark.parametrize("form", ["text", "json"])
def test_fraction_work_cap(capsys, form):
    """A fraction sum whose degree times coefficient size is past the cap is
    refused before its Ore steps run; the same sum at half the degree and
    size is computed."""
    t0 = time.perf_counter()
    code, _, err = run(capsys, "eval", "--field", "gauss", "--format", form, BIG_COEFFICIENT_SUM.format(-16))
    assert code == EXIT_VALIDATION and "fraction work 56288 exceeds cap 32768" in err
    assert time.perf_counter() - t0 < 5.0
    code, out, _ = run(capsys, "eval", "--field", "gauss", "--format", form, BIG_COEFFICIENT_SUM.format(-8))
    assert code == 0
    value = json.loads(out)["value"] if form == "json" else out.strip()
    assert value.startswith("([630255428964940584411930494212205423900996034699246024728987985201657785172015947207")


# A = (1+i*t)^-8*(3+t)^8: A^8 squares A^4, a product past the cap, as A^4*A^4
# written out is
BIG_FRACTION_POWER = "((1+i*t)^-8*(3+t)^8)^{0}"


@pytest.mark.parametrize("form", ["text", "json"])
def test_fraction_power_work_cap(capsys, form):
    """Each product of a fraction power is bounded as a product is, before
    its Ore steps run; the power of half the size is computed."""
    t0 = time.perf_counter()
    code, _, err = run(capsys, "eval", "--field", "gauss", "--format", form, BIG_FRACTION_POWER.format(8))
    assert code == EXIT_VALIDATION and "fraction work 104832 exceeds cap 32768" in err
    assert time.perf_counter() - t0 < 5.0
    code, out, _ = run(capsys, "eval", "--field", "gauss", "--format", form, BIG_FRACTION_POWER.format(4))
    assert code == 0
    value = json.loads(out)["value"] if form == "json" else out.strip()
    assert value.startswith("([3721135185114176449457281366875176981969770006349682464584313415")


# Powers and inverses of extension elements with large constants, which ran
# for seconds to minutes: each now exits 0 or 3 within seconds.  A product,
# inverse or power step of extension elements is bounded by degree * bits
# before it runs, and so is a coordinate that is shown through the Ore
# reduction; one in K'[u] is shown through the central view at any size.
LONG_RUNS = [
    ("T3L1", "((x+t+12345)^-1)^32", None),
    ("T3L1", "((x+t+12345)^-1)^64", "extension work 668160 exceeds cap 262144"),
    ("T2L2", "((x+t+12345)^-1)^8", "coordinate work 55680 exceeds cap 16384"),
    ("T2L2", "((x+t+12345)^-1)^16", "coordinate work 222720 exceeds cap 16384"),
    ("T1L2", "((x+t+123456789012345678901234567890)^-1)^8", None),
    ("T1L2", "((x+t+123456789012345678901234567890)^-1)^64", "extension work 296928 exceeds cap 262144"),
    # an inverse grows through the reduced norm, of degree 8 over the center on T1L2
    ("T1L2", "((x+t+123456789012345678901234567890)^-1)^-1", None),
    ("T1L2", "(((x+t+123456789012345678901234567890)^-1)^2)^-1", "extension inverse work 297216 exceeds cap 262144"),
    # many steps below the cap: high degree, few bits
    ("T2L2", "(t+1+x^3)^-40", "extension work 440128 exceeds cap 262144"),
]


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("scenario, expr, refusal", LONG_RUNS, ids=[f"{s}:{e}" for s, e, _ in LONG_RUNS])
def test_large_powers_of_extension_elements_end_within_seconds(capsys, form, scenario, expr, refusal):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "--scenario", scenario, "--format", form, expr)
    assert time.perf_counter() - t0 < 5.0
    if refusal is None:
        assert code == 0
    else:
        assert code == EXIT_VALIDATION and refusal in err and not out


LONG_RUN_SHA256 = {
    "T3L1": "46cd69ed332b9500b0e1c28c5596e83707391ca566643fa71f88294ae408edf1",
    "T2L2": "67815ce8702c39e7f20a10d488c90c69c6b9c432a0fa028ee171736aaebf5b2b",
}


def test_extension_values_below_the_caps_print_as_before(capsys):
    """T3L1's coordinates lie in Q(u) and are shown through the central view:
    the same text as the Ore reduction gave; T2L2's are not, and at a quarter
    of the refused size they are shown through it."""
    code, out, _ = run(capsys, "eval", "--scenario", "T3L1", "((x+t+12345)^-1)^32")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == LONG_RUN_SHA256["T3L1"]
    code, out, _ = run(capsys, "eval", "--scenario", "T2L2", "((x+t+12345)^-1)^4")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == LONG_RUN_SHA256["T2L2"]


LEAVES = st.sampled_from(["x", "t", "1", "2", "12345", "123456789012345678901234567890"])


def expressions(depth):
    """Sums, differences, products, quotients and powers with exponents of
    at most 64 in absolute value, nested at most `depth` deep."""
    if depth == 0:
        return LEAVES
    inner = expressions(depth - 1)
    return st.one_of(
        LEAVES,
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]}{p[1]}{p[2]})"),
        st.tuples(inner, st.integers(-64, 64)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(scenario_names()), expressions(3))
def test_expressions_over_the_catalog_levels_exit_0_2_or_3(level, expr):
    """No short expression ends in an internal error: a cap refuses it (3),
    a division by zero or a zero divisor is a validation error (3), or it
    prints (0)."""
    code = main(["eval", "--scenario", level, expr])
    assert code in (0, EXIT_PARSE, EXIT_VALIDATION)


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


def test_scenario_file_integer_past_the_digit_limit_is_a_format_error(capsys, tmp_path):
    """An integer of more than the interpreter's 4,300 decimal digits fails
    in the YAML reader; it is reported as a scenario error."""
    text = (SCENARIOS / "T3L1.yaml").read_text(encoding="utf-8")
    path = tmp_path / "digits.yaml"
    path.write_text(text.replace("precision: 48", "precision: " + "9" * 5000))
    code, _, err = run(capsys, "extend", "--scenario", str(path))
    assert code == EXIT_PARSE and err.startswith("scenario error: bad YAML value: Exceeds the limit (4300 digits)")


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
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=300
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
    use, so a process that only builds the scenarios and the towers never
    loads `orefield.factor`."""
    script = (
        "import sys\n"
        "from orefield.catalog import scenario_catalog, scenario_names, tower_catalog, tower_names\n"
        "for name in scenario_names():\n"
        "    scenario_catalog(name)\n"
        "for name in tower_names():\n"
        "    tower_catalog(name, validate=False)\n"
        "print('orefield.factor' in sys.modules)\n"
    )
    assert run_fresh(script) == "False"


def test_catalog_verify_imports_neither_yaml_nor_the_expression_language():
    """A catalog target needs no scenario-file reader, and verify parses no
    expressions."""
    commands = [["verify", "--scenario", "T1", "--seed", "7"]]
    assert loaded_after(commands, ("yaml", "orefield.scenario_io", "orefield.exprs")) == "[]"


def test_verify_loads_neither_dataclasses_nor_inspect():
    """The check rows are named tuples: `dataclasses` would load `inspect`,
    `ast`, `dis` and `tokenize` into every run."""
    commands = [["verify", "--scenario", "T1", "--seed", "7"]]
    assert loaded_after(commands, ("dataclasses", "inspect")) == "[]"


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


# `invert` bounds its inverse and the products of its round trip as an
# expression's inverse and products are bounded, so an inverse that would
# run for seconds to minutes exits 3; the ^16 values are refused before the
# inverse, as in `eval`.
LONG_INVERTS = [
    ("T1L2", "((x+t+123456789012345678901234567890)^-1)^16", "extension work 296928 exceeds cap 262144"),
    ("T1L2", "((x+t+123456789012345678901234567890)^-1)^8", "extension inverse work 4750848 exceeds cap 262144"),
    ("T3L1", "((x+t+123456789012345678901234567890)^-1)^16", "extension work 296960 exceeds cap 262144"),
    ("T3L1", "((x+t+123456789012345678901234567890)^-1)^12", "extension inverse work 1503360 exceeds cap 262144"),
    ("T3L1", "((x+t+123456789012345678901234567890)^-1)^4", None),
    ("T1L2", "((x+t+12345)^-1)^4", None),
]


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("scenario, expr, refusal", LONG_INVERTS, ids=[f"{s}:{e}" for s, e, _ in LONG_INVERTS])
def test_invert_bounds_its_work_as_eval_does(capsys, form, scenario, expr, refusal):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invert", "--scenario", scenario, "--format", form, expr)
    assert time.perf_counter() - t0 < 5.0
    if refusal is None:
        trip = json.loads(out)["round_trip"] if form == "json" else out.splitlines()[-1]
        assert code == 0 and trip in ("exact", "round_trip: exact")
    else:
        assert code == EXIT_VALIDATION and refusal in err and not out
        # `eval` refuses the inverse of the same value with the same message
        code, _, eval_err = run(capsys, "eval", "--scenario", scenario, "--format", form, f"({expr})^-1")
        assert code == EXIT_VALIDATION and eval_err == err


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


def test_center_over_hamilton_keeps_every_power_of_t(capsys):
    code, out, _ = run(capsys, "center", "--field", "hamilton", "--max-deg", "8")
    assert code == 0
    assert out.splitlines() == ["[1,0,0,0]", "[1,0,0,0]*t"] + [f"[1,0,0,0]*t^{m}" for m in range(2, 9)]


# sha256 of `center --field F --max-deg 8 --format json` stdout
CENTER_JSON_SHA256 = {
    "rationals": "0064d22b65ba36eab2494914193868954f04d0742f952b7b9a83ec2e823449b1",
    "gauss": "137b145824dc3e05a7def0d9102ec5f48542b68451838481114ad937f303b96e",
    "hamilton": "b04463943321ab62f36bffc630afbc332c5fc899d99e8dcd9f332037ac4c5906",
}


@pytest.mark.parametrize("field", sorted(CENTER_JSON_SHA256))
def test_center_json_is_pinned_and_lists_the_text_lines(capsys, field):
    code, text, _ = run(capsys, "center", "--field", field, "--max-deg", "8")
    assert code == 0
    code, out, _ = run(capsys, "center", "--field", field, "--max-deg", "8", "--format", "json")
    assert code == 0 and json.loads(out) == text.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == CENTER_JSON_SHA256[field]


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
    # 1 + (1+i)*u and i*u over Q(i): on the multiples of n, not in Q(u);
    # t is off the multiples of n, and its error fails its row alone
    doc = tower_document(tower_catalog("T2", validate=False))
    doc["nonsquares"][0]["witness"] = "[1,0] + [1,1]*t^2"
    doc["nonsquares"][1]["witness"] = "[0,1]*t^2"
    doc["nonsquares"][2]["witness"] = "[1,0]*t"
    path = tmp_path / "off-center.yaml"
    path.write_text(yaml.safe_dump(doc))
    for command in ("tower", "verify"):
        code, out, _ = run(capsys, command, "--scenario", str(path))
        assert code == EXIT_CHECKS
        failing = [line for line in out.splitlines() if line.startswith("[fail]")]
        assert len(failing) == 3
        assert failing[0].startswith("[fail] nonsquare[u+1]: the witness ")
        assert failing[1].startswith("[fail] nonsquare[u^2+1]: the witness ")
        assert all(line.endswith(" is not in Q(u)") for line in failing[:2])
        assert failing[2] == (
            "[fail] nonsquare[u^3+u^2+u+1]: exponent 1 of [1,0]*t is not a multiple of the twist order"
        )


def test_a_witness_factor_past_the_digit_limit_is_printed_in_full(capsys, tmp_path):
    """u + 10^7200 has more digits than the interpreter converts to str at
    once; its row passes and prints it, in text and in json."""
    doc = tower_document(tower_catalog("T2", validate=False))
    doc["nonsquares"].append({"label": "big", "witness": "t^2 + ((10^60)^60)^2"})
    path = tmp_path / "big-witness.yaml"
    path.write_text(yaml.safe_dump(doc))
    details = "odd factors: u + 1" + "0" * 7200
    for command in ("tower", "verify"):
        code, out, _ = run(capsys, command, "--scenario", str(path))
        assert code == 0 and f"[pass] nonsquare[big]: {details}\n" in out
        code, out, _ = run(capsys, command, "--scenario", str(path), "--format", "json")
        rows = {r["check-name"]: r for r in json.loads(out)}
        assert code == 0 and rows["nonsquare[big]"]["status"] == "pass"
        assert rows["nonsquare[big]"]["details"] == details


I_ROOT = """kind: extension
field: hamilton
name: x^2+1 at i
precision: 12
f: [1, 0, 1]
group: {elements: [e, s], identity: e, table: {e: {e: e, s: s}, s: {e: s, s: e}}}
images: {s: [0, -1]}
root: {val: 0, prec: 12, coeffs: ['[0,1,0,0]']}
"""


def test_a_given_root_off_the_center_is_refused(capsys, tmp_path):
    """tau sends the central x to the root, so a root i over H_Q, which
    would make x + i a zero divisor, is refused when the file is read."""
    path = tmp_path / "i-root.yaml"
    path.write_text(I_ROOT)
    for command in ("extend", "verify"):
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert err == (
            "validation error: x^2+1 at i: the root [0,1,0,0] + O(t^12) does not lie in the center "
            "K'((u)), but tau sends the central x to it\n"
        )


def test_a_bad_level_root_fails_the_rows_that_read_it(capsys, tmp_path):
    """3 is no residual root of T1L2's f: its residual and the embedding
    row fail, and the rest of the report still prints."""
    doc = tower_document(tower_catalog("T1", validate=False))
    doc["levels"][1]["newton"]["seed"] = 3
    path = tmp_path / "bad-seed.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, out, _ = run(capsys, "verify", "--scenario", str(path))
    failing = [line for line in out.splitlines() if line.startswith("[fail]")]
    assert code == EXIT_VALIDATION and failing == [
        "[fail] T1L2:root-residual: seed is not a residual root mod t",
        "[fail] embed[1->2]: seed is not a residual root mod t",
    ]
    assert out.splitlines()[-1] == "38 checks: 36 pass, 2 fail, 0 skipped"
    code, out, _ = run(capsys, "tower", "--scenario", str(path))
    failing = [line for line in out.splitlines() if line.startswith("[fail]")]
    assert code == EXIT_CHECKS and failing == ["[fail] embed[1->2]: seed is not a residual root mod t"]
    assert out.splitlines()[-1] == "13 checks: 12 pass, 1 fail, 0 skipped"


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


# an extension over Q(sqrt2) with the identity twist: its invariant subfield
# is Q(sqrt2), not Q, so its coefficients stay fractions over the whole field
R2L1 = """\
kind: extension
field: {min-poly: [-2, 0, 1], sigma-image: [0, 1], name: "Q(sqrt2)/id"}
name: R2L1
precision: 24
f: ["(1 + t)^-1*(-1 - [0,1]*t)", 0, 1]
group: {elements: [e, s], identity: e, table: {e: {e: e, s: s}, s: {e: s, s: e}}}
images: {s: [0, -1]}
newton: {seed: 1}
"""


def test_an_invariant_subfield_larger_than_q_end_to_end(capsys, tmp_path):
    path = tmp_path / "R2L1.yaml"
    path.write_text(R2L1)
    code, out, _ = run(capsys, "extend", "--scenario", str(path))
    rows = out.splitlines()[:-1]
    assert code == 0 and len(rows) == 8
    assert rows[0] == "[skipped] f-irreducible: certificate needs a rational invariant subfield (dimension 2 here)"
    assert all(row.startswith("[pass] ") for row in rows[1:])
    code, out, _ = run(capsys, "verify", "--scenario", str(path), "--seed", "7", "--format", "json")
    assert code == 0
    digest = "6c69596f337089aa016e55e767619e464e1b36dfe31f3bc98747c32f2f53c515"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
