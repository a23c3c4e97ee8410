"""Towers: group systems, nesting, restriction compatibility, catalog entries."""

import pytest

from orefield.catalog import (
    scenario_catalog,
    scenario_names,
    tower_catalog,
    tower_names,
)
from orefield.errors import (
    EmbeddingMissing,
    ScenarioValidationError,
    UnknownCatalogEntry,
)
from orefield.extend import CentralPolynomial, FiniteGroup, TensorElement
from orefield.ground import make_number_field
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial
from orefield.tower import (
    GroupSystem,
    TowerScenario,
    check_compatibility,
    check_embeddings,
    check_functoriality,
    degree_ledger,
    nonsquare_certificate,
    run_tower_checks,
)

from conftest import HAMILTON


def xor_group() -> FiniteGroup:
    names = ("00", "10", "01", "11")

    def op(a, b):
        return "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))

    return FiniteGroup(names, "00", {(a, b): op(a, b) for a in names for b in names})


def sign_group() -> FiniteGroup:
    names = ("e", "s")
    return FiniteGroup(
        names, "e", {(a, b): ("e" if a == b else "s") for a in names for b in names}
    )


FIRST = {"00": "e", "10": "s", "01": "e", "11": "s"}
IDENT_V4 = {g: g for g in ("00", "10", "01", "11")}
IDENT_Z2 = {"e": "e", "s": "s"}


# --------------------------------------------------------------- group systems

def test_group_system_accepts_the_projection():
    GroupSystem([sign_group(), xor_group()], [FIRST]).validate()


def test_group_system_counts_connecting_maps():
    with pytest.raises(ScenarioValidationError):
        GroupSystem([sign_group(), xor_group()], [])


def test_group_system_rejects_non_surjective_maps():
    collapse = {g: "e" for g in ("00", "10", "01", "11")}
    with pytest.raises(ScenarioValidationError, match="surjective"):
        GroupSystem([sign_group(), xor_group()], [collapse]).validate()


def test_group_system_rejects_non_homomorphisms():
    # sending every non-identity to s breaks s("10"*"01") = s("10")*s("01")
    broken = {"00": "e", "10": "s", "01": "s", "11": "s"}
    with pytest.raises(ScenarioValidationError, match="product"):
        GroupSystem([sign_group(), xor_group()], [broken]).validate()


def test_group_system_rejects_partial_maps():
    partial = {"00": "e", "10": "s", "01": "e"}
    with pytest.raises(ScenarioValidationError, match="undefined"):
        GroupSystem([sign_group(), xor_group()], [partial]).validate()


# -------------------------------------------------------------------- catalog

def test_catalog_names():
    assert tower_names() == ("T1", "T2", "T3", "T4")
    assert scenario_names() == ("T1L1", "T1L2", "T2L1", "T2L2", "T3L1")


def test_catalog_rejects_unknown_entries():
    with pytest.raises(UnknownCatalogEntry):
        tower_catalog("T9")
    with pytest.raises(UnknownCatalogEntry):
        scenario_catalog("T1L9")


def test_quadratic_tower_validates_and_reports_all_pass():
    ts = tower_catalog("T1")
    checks = run_tower_checks(ts)
    assert [c.name for c in checks] == [
        "compat[2->1:00]",
        "compat[2->1:01]",
        "compat[2->1:10]",
        "compat[2->1:11]",
        "embed[1->2]",
        "eps-iso[1]",
        "eps-iso[2]",
        "ledger[1]",
        "ledger[2]",
        "nonsquare[u+1]",
        "nonsquare[u^2+1]",
        "nonsquare[u^3+u^2+u+1]",
        "system-axioms",
    ]
    assert all(c.status == "pass" for c in checks)


def test_degree_ledger_matches_group_orders():
    rows = degree_ledger(tower_catalog("T1"))
    assert [(r.level, r.dimension, r.group_order) for r in rows] == [(1, 2, 2), (2, 4, 4)]
    assert all(r.degree_matches and r.fixed_line for r in rows)
    cubic = degree_ledger(tower_catalog("T3"))
    assert [(r.dimension, r.group_order) for r in cubic] == [(3, 3)]


def test_single_level_tower_is_vacuously_compatible():
    ts = tower_catalog("T3")
    assert check_compatibility(ts) == []
    assert all(c.status == "pass" for c in run_tower_checks(ts))


def test_depth_three_tower_exercises_functoriality():
    ts = tower_catalog("T4")
    functorial = check_functoriality(ts)
    assert [c.name for c in functorial] == [
        f"functorial[3->1:{g}]" for g in ("00", "10", "01", "11")
    ]
    assert all(c.status == "pass" for c in functorial)
    assert all(c.status == "pass" for c in run_tower_checks(ts))


def test_twisted_tower_validates():
    assert all(c.status == "pass" for c in run_tower_checks(tower_catalog("T2")))


# --------------------------------------------------- embeddings and restriction

def test_embedded_generator_tracks_the_lower_root():
    ts = tower_catalog("T1")
    series = ts.embeddings[0].evaluate_series(ts.levels[1].root)
    lower = ts.levels[0].root
    common = min(series.prec, lower.prec)
    assert common >= 40
    assert series.truncate(common) == lower.truncate(common)


def test_corrupted_labelling_fails_with_located_report():
    good = tower_catalog("T1")
    swapped = dict(IDENT_V4)
    swapped["10"], swapped["01"] = "01", "10"
    corrupted = TowerScenario(
        name="T1-corrupted",
        system=GroupSystem([sign_group(), xor_group()], [FIRST]),
        levels=list(good.levels),
        eps=[IDENT_Z2, swapped],
        embeddings=list(good.embeddings),
    )
    report = {c.name: c.status for c in check_compatibility(corrupted)}
    assert report == {
        "compat[2->1:00]": "pass",
        "compat[2->1:01]": "fail",
        "compat[2->1:10]": "fail",
        "compat[2->1:11]": "pass",
    }


def test_corrupted_embedding_is_not_a_root():
    good = tower_catalog("T1")
    wrong = CentralPolynomial.x(good.levels[0].field)
    corrupted = TowerScenario(
        name="T1-wrong-embedding",
        system=GroupSystem([sign_group(), xor_group()], [FIRST]),
        levels=list(good.levels),
        eps=[IDENT_Z2, IDENT_V4],
        embeddings=[wrong],
    )
    results = check_embeddings(corrupted)
    assert results[0].status == "fail"
    assert "nonzero" in results[0].details


def test_missing_embedding_is_an_error():
    good = tower_catalog("T1")
    holed = TowerScenario(
        name="T1-no-embedding",
        system=GroupSystem([sign_group(), xor_group()], [FIRST]),
        levels=list(good.levels),
        eps=[IDENT_Z2, IDENT_V4],
        embeddings=[None],
    )
    with pytest.raises(EmbeddingMissing):
        check_compatibility(holed)
    with pytest.raises(EmbeddingMissing):
        check_embeddings(holed)


def test_scenario_shape_guards():
    good = tower_catalog("T1")
    with pytest.raises(ScenarioValidationError, match="levels"):
        TowerScenario(
            "short",
            GroupSystem([sign_group(), xor_group()], [FIRST]),
            [good.levels[0]],
            [IDENT_Z2],
            [],
        )
    with pytest.raises(ScenarioValidationError, match="labelling"):
        TowerScenario(
            "unlabelled",
            GroupSystem([sign_group(), xor_group()], [FIRST]),
            list(good.levels),
            [IDENT_Z2, {"00": "00"}],
            list(good.embeddings),
        )


# --------------------------------------------------------- square certificates

def test_nonsquare_certificates_for_the_quadratic_witnesses():
    for label, witness in tower_catalog("T1").nonsquare_witnesses:
        result = nonsquare_certificate(label, witness)
        assert result.status == "pass"
        assert "odd factors" in result.details


def test_square_witnesses_fail_the_certificate():
    t2 = SkewFraction.from_polynomial(
        SkewPolynomial.from_coeffs(HAMILTON, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    )
    assert nonsquare_certificate("u^2", t2).status == "fail"
    square = SkewFraction.from_polynomial(
        SkewPolynomial.from_coeffs(HAMILTON, [[1, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]])
    )
    assert nonsquare_certificate("(u+1)^2", square).status == "fail"


def test_certificate_skips_nonrational_invariant_subfields():
    static = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
    w = SkewFraction.from_ground(static.element([0, 1]))
    assert nonsquare_certificate("w", w).status == "skipped"


# ------------------------------------------------- division evidence, level two

def test_quartic_generator_inverts_two_sided():
    scn = scenario_catalog("T1L2")
    one = TensorElement.one(scn)
    x = TensorElement.x(scn)
    inv = x.inv()
    assert x * inv == one
    assert inv * x == one


def test_quartic_shifted_generator_inverts_two_sided():
    scn = scenario_catalog("T1L2")
    one = TensorElement.one(scn)
    a = TensorElement.make(scn, [1, 1])  # 1 + x
    inv = a.inv()
    assert a * inv == one
    assert inv * a == one
