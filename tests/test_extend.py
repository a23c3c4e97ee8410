"""Central extensions of the skew fraction field: scenarios, elements, tau."""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from orefield.catalog import scenario_catalog
from orefield.errors import (
    InsufficientPrecision,
    MixedScenarios,
    NotInvariantSeries,
    NotPolynomial,
    ScenarioValidationError,
    SingularElement,
    UnknownGroupElement,
)
from orefield.extend import (
    CentralPolynomial,
    ExtensionScenario,
    FiniteGroup,
    PowerRows,
    TensorElement,
    _view,
    ext_tau,
    fixed_space,
    run_scenario_checks,
)
from orefield.laurent import TwistedSeries, is_invariant_series
from orefield.sampling import random_tensor
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial, central_polynomial

import schoolbook
from conftest import GAUSS, HAMILTON, RATIONALS, checked_decomposition
from test_tensor import TAU_SCENARIOS

F = Fraction


def rational_poly(field, *rats):
    """Polynomial in t with rational coefficients (central in both fields)."""
    rows = []
    for r in rats:
        row = [F(r)] + [F(0)] * (field.dim - 1)
        rows.append(row)
    return SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(field, rows))


def ground_frac(field, coords):
    return SkewFraction.from_ground(field.element(coords))


Z2 = FiniteGroup(
    ("e", "s"), "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
)


def quadratic_scenario(name, field, constant):
    """x^2 - constant with the sign flip as its order-two symmetry."""
    f = CentralPolynomial.from_coeffs(field, [-constant, 0, 1])
    flip = CentralPolynomial.from_coeffs(field, [0, -1])
    return ExtensionScenario(
        name=name,
        field=field,
        f=f,
        group=Z2,
        generator_images={"s": flip},
        precision=48,
        newton_seed=field.one(),
    )


# Built once: the Newton lift dominates construction cost.
QUAT = quadratic_scenario("quat-quadratic", HAMILTON, rational_poly(HAMILTON, 1, 1))
GAUSSX = quadratic_scenario(
    "gauss-quadratic", GAUSS, rational_poly(GAUSS, 1, 0, 1)
)


def binomial_half(k: int) -> Fraction:
    num = Fraction(1)
    for m in range(k):
        num *= Fraction(1, 2) - m
    return num / factorial(k)


# ---------------------------------------------------------- central polynomials

def test_central_polynomial_rejects_noncentral_coefficient():
    j = ground_frac(HAMILTON, (0, 0, 1, 0))
    with pytest.raises(ScenarioValidationError):
        CentralPolynomial.from_coeffs(HAMILTON, [j, 1])


def test_central_polynomial_rejects_nonfixed_coefficient():
    # i lies in the commutative ground field but is moved by conjugation,
    # and t itself is twisted, so neither sits in the center
    i = ground_frac(GAUSS, (0, 1))
    with pytest.raises(ScenarioValidationError):
        CentralPolynomial.from_coeffs(GAUSS, [i])
    with pytest.raises(ScenarioValidationError):
        CentralPolynomial.from_coeffs(GAUSS, [rational_poly(GAUSS, 0, 1)])
    CentralPolynomial.from_coeffs(GAUSS, [rational_poly(GAUSS, 0, 0, 1)])


def test_central_polynomial_divmod_and_compose():
    f = QUAT.f
    q, r = (f * f).divmod_by(f)
    assert q == f and r.is_zero()
    # f(-x) = f(x) here, so composing with the flip is invisible modulo a
    # polynomial of higher degree, and is a root of f modulo f
    flip = CentralPolynomial.from_coeffs(HAMILTON, [0, -1])
    assert PowerRows(f * f, flip).compose(f) == f
    assert PowerRows(f, flip).compose(f).is_zero()


# ----------------------------------------------------------- scenario plumbing

def test_scenario_requires_monic_f():
    two_x2 = CentralPolynomial.from_coeffs(HAMILTON, [1, 0, 2])
    with pytest.raises(ScenarioValidationError):
        ExtensionScenario(
            "bad", HAMILTON, two_x2, Z2, {}, 8, newton_seed=HAMILTON.one()
        )


def test_scenario_requires_root_recipe():
    with pytest.raises(ScenarioValidationError):
        ExtensionScenario("bad", HAMILTON, QUAT.f, Z2, {}, 8)


def test_scenario_rejects_unknown_generator():
    flip = CentralPolynomial.from_coeffs(HAMILTON, [0, -1])
    with pytest.raises(ScenarioValidationError):
        ExtensionScenario(
            "bad", HAMILTON, QUAT.f, Z2, {"nope": flip}, 8, newton_seed=HAMILTON.one()
        )


def test_image_closure_detects_path_dependence():
    # x+1 squares to x+2 under composition, contradicting s*s = e
    shift = CentralPolynomial.from_coeffs(HAMILTON, [1, 1])
    scn = ExtensionScenario(
        "inconsistent", HAMILTON, QUAT.f, Z2, {"s": shift}, 8,
        newton_seed=HAMILTON.one(),
    )
    with pytest.raises(ScenarioValidationError, match="path dependent"):
        scn.images


def test_image_closure_detects_unreachable_elements():
    scn = ExtensionScenario(
        "no-generators", HAMILTON, QUAT.f, Z2, {}, 8, newton_seed=HAMILTON.one()
    )
    with pytest.raises(ScenarioValidationError, match="reach"):
        scn.images


def test_check_battery_names_and_statuses():
    checks = run_scenario_checks(QUAT)
    assert [c.name for c in checks] == [
        "f-irreducible",
        "f-shape",
        "fixed-space",
        "galois-faithful",
        "galois-roots",
        "galois-table",
        "group-axioms",
        "root-residual",
    ]
    assert all(c.status == "pass" for c in checks)
    assert all(c.law for c in checks)


def test_check_battery_twisted_scenario():
    assert all(c.status == "pass" for c in run_scenario_checks(GAUSSX))


def test_reducible_f_fails_the_factor_certificate():
    split = quadratic_scenario("split", HAMILTON, rational_poly(HAMILTON, 1))
    by_name = {c.name: c for c in run_scenario_checks(split)}
    assert by_name["f-irreducible"].status == "fail"
    assert "splits" in by_name["f-irreducible"].details


def test_validate_raises_on_first_failure():
    split = quadratic_scenario("split", HAMILTON, rational_poly(HAMILTON, 1))
    with pytest.raises(ScenarioValidationError, match="f-irreducible"):
        split.validate()


# --------------------------------------------------------------- group axioms

def test_group_validate_rejects_broken_tables():
    idempotent = FiniteGroup(
        ("e", "s"), "e",
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"},
    )
    with pytest.raises(ScenarioValidationError):
        idempotent.validate()
    escaping = FiniteGroup(("e",), "e", {("e", "e"): "ghost"})
    with pytest.raises(ScenarioValidationError):
        escaping.validate()


# ------------------------------------------------------------ tensor arithmetic

def test_x_squares_to_the_constant():
    x = TensorElement.x(QUAT)
    assert x * x == TensorElement.make(QUAT, [rational_poly(HAMILTON, 1, 1)])


def test_make_reduces_long_coordinate_lists():
    assert TensorElement.make(QUAT, [0, 0, 1]) == TensorElement.x(QUAT) ** 2


def test_conjugate_product_collapses_to_the_norm():
    # (x + j)(x - j) = x^2 - j^2 = (1+t) + 1, since x is adjoined centrally
    j = ground_frac(HAMILTON, (0, 0, 1, 0))
    left = TensorElement.make(QUAT, [j, 1])
    right = TensorElement.make(QUAT, [-j, 1])
    assert left * right == TensorElement.make(QUAT, [rational_poly(HAMILTON, 2, 1)])


def test_inverse_of_x():
    x = TensorElement.x(QUAT)
    inv = x.inv()
    assert inv.coords[0].is_zero()
    assert inv.coords[1] == rational_poly(HAMILTON, 1, 1).inv()
    assert x * inv == TensorElement.one(QUAT)
    assert inv * x == TensorElement.one(QUAT)


def test_inverse_of_x_plus_j():
    j = ground_frac(HAMILTON, (0, 0, 1, 0))
    a = TensorElement.make(QUAT, [j, 1])
    norm_inv = rational_poly(HAMILTON, 2, 1).inv()
    assert a.inv() == TensorElement.make(QUAT, [-j * norm_inv, norm_inv])


def test_integer_powers_including_negative():
    x = TensorElement.x(QUAT)
    one_plus_t = rational_poly(HAMILTON, 1, 1)
    assert x ** 5 == TensorElement.make(QUAT, [0, one_plus_t * one_plus_t])
    assert x ** -2 == TensorElement.make(QUAT, [one_plus_t.inv()])
    assert x ** 0 == TensorElement.one(QUAT)


def test_zero_has_no_inverse():
    with pytest.raises(SingularElement):
        TensorElement.zero(QUAT).inv()


def test_zero_divisor_in_a_split_extension():
    split = quadratic_scenario("split", HAMILTON, rational_poly(HAMILTON, 1))
    with pytest.raises(SingularElement):
        TensorElement.make(split, [1, 1]).inv()  # (1+x)(1-x) = 0


def test_mixed_scenarios_do_not_combine():
    with pytest.raises(MixedScenarios):
        TensorElement.x(QUAT) + TensorElement.x(GAUSSX)


def test_random_elements_invert_two_sided():
    rng = random.Random(11)
    one = TensorElement.one(QUAT)
    for _ in range(10):
        a = random_tensor(QUAT, rng)
        b = a.inv()
        assert a * b == one
        assert b * a == one


def test_ring_axioms_on_random_triples():
    rng = random.Random(12)
    for _ in range(10):
        a, b, c = (random_tensor(GAUSSX, rng, max_degree=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


# -------------------------------------------------------------- galois action

def test_flip_action_on_x():
    x = TensorElement.x(QUAT)
    assert x.apply("s") == -x
    assert x.apply("e") == x


def test_action_composes_along_the_table():
    rng = random.Random(13)
    a = random_tensor(QUAT, rng, max_degree=2)
    for g in Z2.elements:
        for h in Z2.elements:
            assert a.apply(g).apply(h) == a.apply(Z2.op(g, h))


def test_action_is_multiplicative():
    rng = random.Random(14)
    a = random_tensor(QUAT, rng, max_degree=2)
    b = random_tensor(QUAT, rng, max_degree=2)
    assert (a * b).apply("s") == a.apply("s") * b.apply("s")


def test_action_rejects_unknown_elements():
    with pytest.raises(UnknownGroupElement):
        TensorElement.x(QUAT).apply("ghost")


def test_fixed_space_of_the_full_group_is_the_ground_line():
    basis = fixed_space(QUAT)
    assert len(basis) == 1
    assert basis[0][0] == SkewFraction.one(HAMILTON)
    assert basis[0][1].is_zero()


def test_fixed_space_of_the_trivial_subgroup_is_everything():
    basis = fixed_space(QUAT, ["e"])
    assert len(basis) == 2


def test_fixed_space_rejects_unknown_names():
    with pytest.raises(UnknownGroupElement):
        fixed_space(QUAT, ["e", "ghost"])


# ------------------------------------------------------------------------- tau

def test_tau_of_x_is_the_binomial_square_root():
    tau_x = ext_tau(TensorElement.x(QUAT), 12)
    for k in range(12):
        expected = HAMILTON.from_rational(binomial_half(k))
        assert tau_x.coefficient(k) == expected


def test_tau_of_x_squares_to_the_constant():
    tau_x = ext_tau(TensorElement.x(QUAT), 24)
    product = tau_x * tau_x
    expected = TwistedSeries.make(HAMILTON, 0, [HAMILTON.one(), HAMILTON.one()], product.prec)
    assert product == expected


def test_tau_twisted_root_is_invariant_and_even():
    rho = GAUSSX.rho
    assert is_invariant_series(rho)
    for k in range(0, 24, 2):
        assert rho.coefficient(k) == GAUSS.from_rational(binomial_half(k // 2))
        assert rho.coefficient(k + 1).is_zero()


def test_tau_is_a_homomorphism():
    """On random tensors, whose coordinates hold ground elements off the
    center, at every catalog level and over Q(sqrt2)/id, where K' is not Q."""
    rng = random.Random(15)
    for scenario in (QUAT, GAUSSX, *TAU_SCENARIOS):
        prec = min(32, scenario.precision)
        a = random_tensor(scenario, rng, max_degree=2)
        b = random_tensor(scenario, rng, max_degree=2)
        ta, tb = ext_tau(a, prec), ext_tau(b, prec)
        assert (ta + tb).truncate(prec) == ext_tau(a + b, prec)
        assert (ta * tb).truncate(prec) == ext_tau(a * b, prec)


def test_tau_precision_guard():
    with pytest.raises(InsufficientPrecision):
        ext_tau(TensorElement.x(QUAT), QUAT.precision + 1)


# ------------------------------------------------------ canonical decomposition

def test_decomposition_splits_by_residue_and_basis_index():
    # i * t * z lands at exponent residue 1 with ground direction i
    z = GAUSSX.rho
    i_t = SkewPolynomial.from_coeffs(GAUSS, [[0, 0], [0, 1]])
    table = checked_decomposition(GAUSS, [(i_t, z)])
    assert table[(1, 1)] == z
    for key in ((0, 0), (0, 1), (1, 0)):
        assert table[key].is_zero()


def test_decomposition_shifts_whole_periods_into_the_series():
    z = GAUSSX.rho
    t2 = SkewPolynomial.from_coeffs(GAUSS, [[0, 0], [0, 0], [1, 0]])
    table = checked_decomposition(GAUSS, [(t2, z)])
    shifted = TwistedSeries.t_power(GAUSS, 2, z.prec + 2) * z
    assert table[(0, 0)] == shifted.truncate(z.prec)


def test_decomposition_zero_test():
    # the rewrite is a basis expansion: a vanishing sum must produce an
    # all-zero table, and a nonvanishing one must show a nonzero entry
    z = QUAT.rho
    h = SkewPolynomial.from_coeffs(HAMILTON, [[0, 1, 0, 0], [0, 0, 1, 0]])
    cancelled = checked_decomposition(HAMILTON, [(h, z), (h.scale_left(-HAMILTON.one()), z)])
    assert all(entry.is_zero() for entry in cancelled.values())
    alone = checked_decomposition(HAMILTON, [(h, z)])
    assert any(not entry.is_zero() for entry in alone.values())
    assert alone[(0, 1)] == z


def test_decomposition_identity_on_the_walkthrough_input():
    # scripts/cubic_walkthrough.py decomposes f_0 * tau(3 + x^3) over Q
    scn = scenario_catalog("T3L1")
    z = ext_tau(TensorElement.make(scn, [3]) + TensorElement.x(scn) ** 3, 24)
    table = checked_decomposition(scn.field, [(scn.f.coefficient(0), z)])
    assert any(not entry.is_zero() for entry in table.values())


def test_decomposition_rejects_true_fractions():
    z = QUAT.rho
    inv_t = rational_poly(HAMILTON, 0, 1).inv()
    with pytest.raises(NotPolynomial):
        checked_decomposition(HAMILTON, [(inv_t, z)])


def test_decomposition_rejects_noninvariant_series():
    odd = TwistedSeries.t_power(GAUSS, 1, 6)
    with pytest.raises(NotInvariantSeries):
        checked_decomposition(GAUSS, [(GAUSS.one(), odd)])
    moved = TwistedSeries.make(GAUSS, 0, [[0, 1]], 6)
    with pytest.raises(NotInvariantSeries):
        checked_decomposition(GAUSS, [(GAUSS.one(), moved)])


def test_decomposition_rejects_nonseries_input():
    with pytest.raises(TypeError):
        checked_decomposition(GAUSS, [(GAUSS.one(), 7)])


# ------------------------------------------------- composition by power rows


def horner_and_division(scenario, p, q):
    """p(q) modulo f by Horner in the polynomial ring, then division by f."""
    field = scenario.field
    composed = CentralPolynomial.from_coeffs(field, schoolbook.central_compose(field, p.coeffs, q.coeffs))
    return composed.divmod_by(scenario.f)[1]


def check_power_rows(scenario, q, rows):
    for p in (scenario.f, *scenario.images.values(), q):
        expected = horner_and_division(scenario, p, q)
        composite = rows.compose(p)
        assert composite.coeffs == expected.coeffs
        assert composite == expected
        assert composite.is_zero() == expected.is_zero()


@pytest.mark.parametrize("name", ["T1L1", "T1L2", "T2L1", "T2L2", "T3L1"])
def test_power_rows_compose_as_horner_and_division_on_every_catalog_level(name):
    scenario = scenario_catalog(name)
    for g in scenario.group.elements:
        rows = scenario.power_rows(g)
        assert rows.q == scenario.images[g]
        check_power_rows(scenario, scenario.images[g], rows)


def test_integer_views_of_the_reduction_rows_belong_to_their_scenario():
    """The same f = x^2 - (1 + t^2) over Q, Q(i) and H_Q: each scenario's
    `PowerRows` keeps its own table of the rows x^p mod f, written in its
    own field's u = t^n, and a longer request grows it."""
    views = []
    for field in (RATIONALS, GAUSS, HAMILTON):
        c = rational_poly(field, 1, 0, 1)
        scenario = quadratic_scenario(f"x^2 - 1 - t^2 over {field.name}", field, c)
        x = TensorElement.x(scenario)
        assert x * x == TensorElement.make(scenario, [c])
        rows = scenario.reduction
        den, table = rows.table(3)
        assert [tuple(_view(field, z, den) for z in row) for row in table] == [schoolbook.padded(scenario, p.coeffs) for p in rows.powers(3)]
        longer = rows.table(6)
        assert len(longer[1]) >= 6 and longer[1][:3] == table and rows.table(3) is longer
        views.append(longer)
    # Q and H_Q read u = t, Q(i) reads u = t^2
    assert views[0][1] == views[2][1] != views[1][1]
    assert all(a is not b and a[1] is not b[1] for a, b in combinations(views, 2))


def corrupted(name, images):
    good = scenario_catalog(name)
    images = {g: CentralPolynomial.from_coeffs(good.field, c) for g, c in images.items()}
    return ExtensionScenario(
        f"{name}-bad", good.field, good.f, good.group, images, good.precision,
        newton_seed=good.newton_seed, newton_coeffs=good.newton_coeffs,
    )


def galois_rows(scenario):
    return {
        r.name: (r.status, r.details)
        for r in run_scenario_checks(scenario)
        if r.name.startswith("galois")
    }


def test_corrupted_images_fail_in_the_same_rows():
    # 1 - x squares to the identity but is no root of x^2 - c
    bad = corrupted("T2L1", {"s": [1, -1]})
    check_power_rows(bad, bad.images["s"], bad.power_rows("s"))
    assert galois_rows(bad) == {
        "galois-faithful": ("pass", "images are pairwise distinct"),
        "galois-roots": ("fail", "f(q_s) is nonzero modulo f"),
        "galois-table": ("pass", "all 4 products compose correctly"),
    }
    # 1 + x does not square to the identity, and x + x^2 does not cube to it
    for name, images, detail in (
        ("T2L1", {"s": [1, 1]}, "T2L1-bad: image of 'e' is path dependent (via 's'*'s')"),
        ("T3L1", {"g": [0, 1, 1]}, "T3L1-bad: image of 'e' is path dependent (via 'h'*'g')"),
    ):
        bad = corrupted(name, images)
        ((g, q),) = bad.generator_images.items()
        check_power_rows(scenario_catalog(name), q, PowerRows(bad.f, q))
        assert set(galois_rows(bad).values()) == {("fail", detail)}
