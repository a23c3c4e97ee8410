"""`TensorElement` on one central denominator against the
`SkewFraction`-coordinate arithmetic it replaces (the oracle in `schoolbook`)."""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook as sb
from orefield import kernel, laurent
from orefield.catalog import scenario_catalog, scenario_names
from orefield.errors import InsufficientPrecision, MixedScenarios, ScenarioValidationError, SingularElement
from orefield.extend import (
    CentralPolynomial,
    ExtensionScenario,
    FiniteGroup,
    PowerRows,
    TensorElement,
    ext_tau,
    fixed_space,
    run_scenario_checks,
)
from orefield.ground import make_number_field
from orefield.laurent import CentralSeries, TwistedSeries
from orefield.kernel import zcontent, zgcd
from orefield.sampling import random_fraction, random_nonzero_polynomial, random_tensor
from orefield.scenario_io import load_document
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial, central_polynomial

from conftest import HAMILTON, RATIONALS
from test_central import STATIC, central_fraction
from test_cli import R2L1
from test_kernel import CUBIC, H_GOLDEN, _check_norm_conjugate

Z2 = FiniteGroup(
    ("e", "s"), "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
)


def quadratic(name, field, constant):
    """x^2 - constant with the sign flip as its order-two symmetry."""
    f = CentralPolynomial.from_coeffs(field, [-constant, 0, 1])
    flip = CentralPolynomial.from_coeffs(field, [0, -1])
    return ExtensionScenario(name, field, f, Z2, {"s": flip}, 16, newton_seed=field.one())


# x^2 = (1 + sqrt2*u)/(1 + u) over Q(sqrt2) with sigma = id: the invariant
# subfield is Q(sqrt2), so the central coefficients stay `SkewFraction`s and
# the norm conjugates take a second Cayley-Hamilton pass down to Q[u]
ROOT2_SCENARIO = quadratic("Q(sqrt2)/id", STATIC, central_fraction(STATIC, [1], [1, 1], [0, 1]))
# norm conjugates of reduced degree 3 (a cubic field with sigma of order 3)
# and over quaternions over a number field (two passes)
CUBIC_SCENARIO = quadratic("cubic", CUBIC, central_fraction(CUBIC, [1, 2], [1, 1]))
GOLDEN_SCENARIO = quadratic("H/Q(sqrt5)", H_GOLDEN, central_fraction(H_GOLDEN, [1, 2], [1, 1]))
SCENARIOS = [scenario_catalog(name) for name in ("T1L1", "T2L1", "T3L1")]
SCENARIOS += [ROOT2_SCENARIO, CUBIC_SCENARIO, GOLDEN_SCENARIO]
IDS = [s.name for s in SCENARIOS]


def is_canonical(a):
    """The stored form: den primitive with a positive leading coefficient;
    d lists of integer rows, each with no trailing zero row, over one
    positive integer denominator coprime to their entries; and no factor
    over Q[u] of den and of every Z[u]-coordinate of the rows, the
    coordinate (r, l) being sum_k rows[k*n + r][l] u^k."""
    field = a.scenario.field
    n, zero = field.sigma_order, field.zero_row
    assert type(a.den) is tuple and a.den and a.den[-1] > 0 and zcontent(a.den) == 1
    assert type(a.rows) is tuple and len(a.rows) == a.scenario.degree
    assert all(type(p) is list and (not p or p[-1] != zero) for p in a.rows)
    assert a.over > 0 and math.gcd(a.over, *(x for p in a.rows for r in p for x in r)) == 1
    coords = [list(c) for p in a.rows for r in range(n) for c in zip(*p[r::n]) if any(c)]
    if not coords:
        assert a.den == (1,) and a.over == 1
    g = list(a.den)
    for c in coords:
        g = zgcd(g, c)
    assert len(g) == 1
    return True


def check_construction_paths(scenario, values):
    """Every way to build the element of `values` stores the same triple
    (den, rows, over) and shows the same coordinates."""
    element = TensorElement.make(scenario, values)
    fractions = [SkewFraction.coerce(scenario.field, v) for v in values]
    paths = [
        TensorElement(scenario, element.coords),
        TensorElement.make(scenario, element.coords),
        TensorElement.from_quotients(scenario, [(v.num, v.den) for v in fractions]),
        element * TensorElement.one(scenario),
        TensorElement.one(scenario) * element,
        element + TensorElement.zero(scenario),
        element.apply(scenario.group.identity),
    ]
    # over H/Q(sqrt5) an element reduced from a long list takes seconds to invert
    if not element.is_zero() and (scenario is not GOLDEN_SCENARIO or len(values) <= scenario.degree):
        paths.append(element.inv().inv())
    assert is_canonical(element)
    assert not any(isinstance(v, SkewPolynomial) for v in (element.den, element.rows, element.over))
    for other in paths:
        assert is_canonical(other)
        assert (other.den, other.rows, other.over) == (element.den, element.rows, element.over)
        assert other == element and other.coords == element.coords


def check_values(scenario, values):
    element = TensorElement.make(scenario, values)
    expected = sb.tensor_make(scenario, values)
    assert is_canonical(element)
    assert element.coords == expected
    assert str(element) == sb.tensor_str(expected)
    assert TensorElement.make(scenario, element.coords) == element


def check_products(scenario, a, b):
    """Everything in `check_pair` but inversion."""
    ca, cb = a.coords, b.coords
    assert (a == b) == (ca == cb)
    assert a == TensorElement.make(scenario, ca)
    product = a * b
    assert is_canonical(product)
    expected = sb.tensor_mul(scenario, ca, cb)
    assert product.coords == expected and str(product) == sb.tensor_str(expected)
    total = a + b
    assert is_canonical(total)
    assert total.coords == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coords == tuple(x - y for x, y in zip(ca, cb))
    for g in scenario.group.elements:
        image = a.apply(g)
        assert is_canonical(image) and image.coords == sb.tensor_apply(scenario, ca, g)


def check_pair(scenario, a, b):
    check_products(scenario, a, b)
    ca = a.coords
    if a.is_zero():
        with pytest.raises(SingularElement):
            a.inv()
        with pytest.raises(SingularElement):
            sb.tensor_inv(scenario, ca)
    else:
        inverse = a.inv()
        assert is_canonical(inverse)
        assert inverse.coords == sb.tensor_inv(scenario, ca)


def random_values(scenario, rng, size):
    field = scenario.field
    return [
        SkewFraction.zero(field) if rng.random() < 0.2 else random_fraction(field, rng, 2, 2)
        for _ in range(size)
    ]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=IDS)
def test_tensor_arithmetic_matches_the_schoolbook_arithmetic(scenario):
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2 * scenario.degree))
    def check(seed, size):
        rng = random.Random(seed)
        a = random_tensor(scenario, rng, max_degree=2)
        b = random_tensor(scenario, rng, max_degree=2)
        check_pair(scenario, a, b)
        check_values(scenario, random_values(scenario, rng, size))

    check()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=IDS)
def test_every_construction_path_stores_the_same_form(scenario):
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2 * scenario.degree))
    def check(seed, size):
        check_construction_paths(scenario, random_values(scenario, random.Random(seed), size))

    check()
    rng = random.Random(47)
    for values in ([], [0, 1], [1] * scenario.degree, random_values(scenario, rng, scenario.degree)):
        check_construction_paths(scenario, values)


# the oracle's inverses over H/Q(sqrt5) take seconds: hypothesis covers it
@pytest.mark.parametrize("scenario", SCENARIOS[:-1], ids=IDS[:-1])
def test_tensor_arithmetic_matches_at_fixed_seeds(scenario):
    rng = random.Random(31)
    zero, one = TensorElement.zero(scenario), TensorElement.one(scenario)
    x = TensorElement.x(scenario)
    for _ in range(6):
        a = random_tensor(scenario, rng, max_degree=2)
        for b in (random_tensor(scenario, rng, max_degree=2), a, -a, zero, one, x):
            check_pair(scenario, a, b)
        check_pair(scenario, zero, a)
        check_values(scenario, random_values(scenario, rng, 2 * scenario.degree))
    for element in (one, x, one + x):
        check_pair(scenario, element, element)
    assert zero.den == (1,) and a - a == zero
    assert (a * a.inv()) == one and (a.inv() * a) == one


# the quartic levels' 4x4 tables and rows x^4 .. x^6; the oracle's inverses
# there take seconds, and the tower tests invert the generators
@pytest.mark.parametrize("name", ["T1L2", "T2L2"])
def test_quartic_products_and_actions_match_at_a_fixed_seed(name):
    scenario = scenario_catalog(name)
    rng = random.Random(43)
    for _ in range(3):
        a, b = (random_tensor(scenario, rng, max_degree=2) for _ in range(2))
        check_products(scenario, a, b)
        check_values(scenario, random_values(scenario, rng, 2 * scenario.degree))


ROW_SCENARIOS = [scenario_catalog(name) for name in ("T1L1", "T1L2", "T2L1", "T2L2", "T3L1")]
ROW_SCENARIOS += [ROOT2_SCENARIO, CUBIC_SCENARIO]


@pytest.mark.parametrize("scenario", ROW_SCENARIOS, ids=[s.name for s in ROW_SCENARIOS])
def test_reduction_rows_are_the_remainders_of_the_powers_of_x(scenario):
    field, d = scenario.field, scenario.degree
    zero, one = SkewFraction.zero(field), SkewFraction.one(field)
    c, table = sb.twisted_table(scenario.reduction, 2 * d - 1)
    den = central_polynomial(field, c)
    powers = scenario.reduction.powers(2 * d - 1)
    for p in range(2 * d - 1):
        remainder = sb.central_divmod(field, (zero,) * p + (one,), scenario.f.coeffs)[1]
        expected = remainder + (zero,) * (d - len(remainder))
        assert sb.reduction_row(scenario, p) == expected
        assert tuple(SkewFraction.make(entry, den) for entry in table[p]) == expected
        assert powers[p].coeffs == remainder


@pytest.mark.parametrize("scenario", ROW_SCENARIOS, ids=[s.name for s in ROW_SCENARIOS])
def test_galois_rows_are_the_powers_of_the_images(scenario):
    """The first d power rows of q_g, and q_g itself, against the schoolbook
    closure of the generator images."""
    d = scenario.degree
    for g in scenario.group.elements:
        rows = scenario.power_rows(g)
        assert rows.q.coeffs == sb.images(scenario)[g]
        c, table = sb.twisted_table(rows, d)
        den = central_polynomial(scenario.field, c)
        expected = sb.matrix(scenario, g)
        assert [tuple(SkewFraction.make(entry, den) for entry in row) for row in table[:d]] == list(expected)
        assert [sb.padded(scenario, p.coeffs) for p in rows.powers(d)] == list(expected)


FIXED_SCENARIOS = ROW_SCENARIOS + [load_document(R2L1)]


@pytest.mark.parametrize("scenario", FIXED_SCENARIOS, ids=[s.name for s in FIXED_SCENARIOS])
def test_fixed_spaces_match_gauss_jordan_on_central_fractions(scenario):
    """The fraction-free fixed space of the full group and of every single
    element against the kernel of the schoolbook Galois matrices, computed by
    Gauss-Jordan on their central `SkewFraction` entries: the same canonical
    basis, entry for entry."""
    elements = scenario.group.elements
    for names in [elements] + [[g] for g in elements]:
        basis, expected = fixed_space(scenario, names), sb.fixed_space(scenario, names)
        assert len(basis) == len(expected)
        for vec, oracle in zip(basis, expected):
            assert all(a.same_representation(b) for a, b in zip(vec, oracle, strict=True))


def test_the_identity_rows_are_the_table_products_reduce_with(monkeypatch):
    scenario = quadratic("x^2 - 3", RATIONALS, SkewFraction.coerce(RATIONALS, 3))
    identity = scenario.group.identity
    rows = scenario.power_rows(identity)
    assert rows is scenario.reduction and rows.q == CentralPolynomial.x(RATIONALS)
    read = []
    real = PowerRows.table

    def recording(self, count):
        read.append(self)
        return real(self, count)

    monkeypatch.setattr(PowerRows, "table", recording)
    x = TensorElement.x(scenario)
    assert x * x == TensorElement.make(scenario, [3])
    assert x.inv() == TensorElement.make(scenario, [0, SkewFraction.coerce(RATIONALS, Fraction(1, 3))])
    assert x.apply(identity) == x
    # the product and the action read it once each, the inverse for its
    # residue traces and for one reduction of a product
    assert len(read) == 4 and all(r is rows for r in read)


def test_constructor_takes_coordinates_and_checks_their_number():
    rng = random.Random(39)
    for scenario in SCENARIOS:
        values = random_values(scenario, rng, scenario.degree)
        element = TensorElement(scenario, values)
        assert is_canonical(element) and element == TensorElement.make(scenario, values)
        assert TensorElement(scenario, element.coords) == element
        for wrong in (values[:-1], values + [0]):
            with pytest.raises(ValueError):
                TensorElement(scenario, wrong)


def test_zero_divisors_raise_like_the_oracle():
    for field, name in ((HAMILTON, "split-H"), (RATIONALS, "split-Q")):
        split = quadratic(name, field, SkewFraction.one(field))
        for values in ([1, 1], [1, -1], [SkewFraction.t_power(field, 1), SkewFraction.t_power(field, 1)]):
            element = TensorElement.make(split, values)
            with pytest.raises(SingularElement):
                element.inv()
            with pytest.raises(SingularElement):
                sb.tensor_inv(split, element.coords)
        # a unit of the split algebra still inverts
        unit = TensorElement.make(split, [2, 1])
        assert unit.inv().coords == sb.tensor_inv(split, unit.coords)


def test_mixed_scenarios_do_not_combine():
    a = TensorElement.x(SCENARIOS[0])
    b = TensorElement.x(SCENARIOS[1])
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        with pytest.raises(MixedScenarios):
            op(a, b)


def test_products_inverses_and_equality_make_no_ore_reduction(monkeypatch):
    """A silent fallback to the Ore path (a left gcd of two polynomials)
    fails here."""
    rng = random.Random(37)
    pairs = []
    for scenario in SCENARIOS[:3]:
        for _ in range(3):
            pairs.append((random_tensor(scenario, rng), random_tensor(scenario, rng)))
    calls = []
    real = kernel.gcld_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "gcld_rows", counting)
    for a, b in pairs:
        one = TensorElement.one(a.scenario)
        assert a * a.inv() == one
        assert (a * b == b * a) in (True, False)
    assert calls == []


# -- inversion through reduced norms ---------------------------------------------

R2L1_SCENARIO = load_document(R2L1)
NORM_SCENARIOS = SCENARIOS + [R2L1_SCENARIO]
NORM_IDS = [s.name for s in NORM_SCENARIOS]


def check_inverse(a, oracle=True):
    """`inv` against the fraction-free elimination it replaced and, where it
    is cheap enough, the Gauss-Jordan oracle; both products are one."""
    inverse = a.inv()
    assert is_canonical(inverse)
    assert inverse == sb.elimination_inverse(a)
    if oracle:
        assert inverse.coords == sb.tensor_inv(a.scenario, a.coords)
    one = TensorElement.one(a.scenario)
    assert a * inverse == one and inverse * a == one


# the oracle's inverses over H/Q(sqrt5) take seconds: the elimination stands in
@pytest.mark.parametrize("scenario", NORM_SCENARIOS, ids=NORM_IDS)
def test_norm_inverses_match_the_elimination_and_the_oracle(scenario):
    oracle = scenario is not GOLDEN_SCENARIO

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def check(seed):
        check_inverse(random_tensor(scenario, random.Random(seed), max_degree=2), oracle)

    check()
    rng = random.Random(5)
    x = TensorElement.x(scenario)
    for a in [x, x + TensorElement.one(scenario)] + [random_tensor(scenario, rng, max_degree=2) for _ in range(3)]:
        check_inverse(a, oracle)


# the oracle takes minutes on a random quartic element, so it checks the
# generators; the random elements are checked against the elimination
@pytest.mark.parametrize("name", ["T1L2", "T2L2"])
def test_quartic_norm_inverses_match_the_elimination(name):
    scenario = scenario_catalog(name)
    x = TensorElement.x(scenario)
    for a in (x, x + TensorElement.one(scenario)):
        check_inverse(a)
    rng = random.Random(5)
    for _ in range(3):
        check_inverse(random_tensor(scenario, rng, max_degree=2), oracle=False)

    @settings(max_examples=2, deadline=None)
    @given(st.integers(0, 2**32))
    def check(seed):
        check_inverse(random_tensor(scenario, random.Random(seed), max_degree=2), oracle=False)

    check()


def test_zero_divisors_raise_like_the_elimination():
    for field, name in ((HAMILTON, "split-H"), (RATIONALS, "split-Q")):
        split = quadratic(name, field, SkewFraction.one(field))
        for values in ([1, 1], [1, -1], [SkewFraction.t_power(field, 1), SkewFraction.t_power(field, 1)]):
            element = TensorElement.make(split, values)
            with pytest.raises(SingularElement):
                element.inv()
            with pytest.raises(SingularElement):
                sb.elimination_inverse(element)
        for values in ([2, 1], [SkewFraction.t_power(field, 1), 1], [1, 0, 1]):
            check_inverse(TensorElement.make(split, values))


def test_inverses_read_f_alone(monkeypatch):
    """Inversion reads no Galois image, so a scenario whose generator image
    is corrupted still inverts exactly."""
    base = scenario_catalog("T1L1")
    field = base.field
    corrupt = ExtensionScenario(
        "T1L1 with x -> x + 1",
        field,
        base.f,
        base.group,
        {g: CentralPolynomial.from_coeffs(field, [1, 1]) for g in base.generator_images},
        base.precision,
        newton_seed=base.newton_seed,
    )
    with pytest.raises(ScenarioValidationError):
        corrupt.images
    assert any(check.status == "fail" for check in run_scenario_checks(corrupt))

    def unread(*args):
        raise AssertionError("inversion read a Galois image")

    monkeypatch.setattr(ExtensionScenario, "images", property(unread))
    monkeypatch.setattr(ExtensionScenario, "power_rows", unread)
    rng = random.Random(17)
    for scenario in [corrupt] + NORM_SCENARIOS:
        for _ in range(2):
            check_inverse(random_tensor(scenario, rng, max_degree=2), oracle=scenario is not GOLDEN_SCENARIO)


@pytest.mark.parametrize("scenario", SCENARIOS[:3], ids=IDS[:3])
def test_powers_match_repeated_products(scenario):
    rng = random.Random(41)
    one = TensorElement.one(scenario)
    for _ in range(2):
        a = random_tensor(scenario, rng, max_degree=1)
        if a.is_zero():
            continue
        for k in range(-3, 4):
            factor, expected = a if k > 0 else a.inv(), one
            for _ in range(abs(k)):
                expected = expected * factor
            assert a ** k == expected and str(a ** k) == str(expected)


# -- evaluation at the series root ------------------------------------------------

TAU_SCENARIOS = [scenario_catalog(name) for name in scenario_names()] + [ROOT2_SCENARIO]
TAU_IDS = [s.name for s in TAU_SCENARIOS]


def check_tau(element, powers):
    """ext_tau equals the coordinate-wise oracle at the precision the oracle
    reaches, and raises at the requests where the oracle raises."""
    full = sb.tau_sum(element, powers)
    top = element.scenario.rho.prec
    for want in sorted({full.prec + 1, top, full.prec, full.prec - 5, 1}, reverse=True):
        if want > full.prec:
            with pytest.raises(InsufficientPrecision):
                ext_tau(element, want)
        else:
            assert ext_tau(element, want) == sb.series_truncate(full, want)


# Q(zeta5) with sigma(z) = z^4 of order 2: the invariant subfield Q(sqrt5) has
# the basis 1, z^2 + z^3, which is not the first two unit vectors, so
# `kernel.center` reads K' off the rows through its reader matrix
ZETA5_CONJ = make_number_field([1, 1, 1, 1, 1], sigma_image=[-1, -1, -1, -1], name="Q(zeta5)/conj")


def test_a_center_off_the_unit_vectors_matches_the_oracle():
    field = ZETA5_CONJ
    beta = field.element([0, 0, 1, 1])
    assert kernel.center(field).w == 2 and field.invariant_basis[1] == beta.coords
    # x^2 = 1 + beta*u: f's coefficients lie in K'[u] off Q[u]
    scenario = quadratic("Q(zeta5)/conj", field, SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(field, [1, 0, beta])))
    assert all(row.status != "fail" for row in run_scenario_checks(scenario))
    x, one = TensorElement.x(scenario), TensorElement.one(scenario)
    rng = random.Random(59)
    # x^-1 = (1 + beta*u)^-1 * x has a coordinate in K'[u] off Q[u]
    elements = [x, one + x, x.inv()] + [random_tensor(scenario, rng, max_degree=2) for _ in range(3)]
    powers = sb.root_powers(scenario)
    for a, b in zip(elements, elements[1:]):
        check_pair(scenario, a, b)
        check_tau(a, powers)
    check_construction_paths(scenario, [beta, SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(field, [beta, 0, 1]))])
    for _ in range(3):
        _check_norm_conjugate(random_nonzero_polynomial(field, rng, 4))


def test_the_r2l1_root_is_lifted_on_its_center():
    """R2L1's root, over Q(sqrt2)/id, lies in Q(sqrt2)((u)) and is lifted
    there: it is the root the lift on twisted series made (pinned) and the
    schoolbook lift's."""
    scenario = load_document(R2L1)
    assert isinstance(scenario.root_work, CentralSeries)
    root = scenario.root_work.to_twisted()
    digest = "fe21a66d51ea00a2e4d349f4e4f232aeb5c017b07278786e85beaad2b8844d04"
    assert hashlib.sha256(str(root).encode()).hexdigest() == digest
    assert sb.series_eq(root, sb.newton_root(list(scenario.f.coeffs), scenario.newton_seed, root.prec))


def test_catalog_roots_are_central_and_the_given_root_is_not():
    """Every lifted root lies in K'((u)), K' = Q(sqrt2) over Q(sqrt2)/id.
    The root i of x^2 + 1 over H_Q, given and not lifted, does not: tau
    would send the central x to it, and x + i would be a zero divisor, so
    the scenario is refused."""
    for scenario in TAU_SCENARIOS:
        assert isinstance(scenario.root, CentralSeries)
        assert scenario.root.to_twisted() == scenario.rho
    i = TwistedSeries.from_ground(HAMILTON.element([0, 1, 0, 0]), 12)
    with pytest.raises(ScenarioValidationError, match=r"x\^2\+1 at i: the root .* does not lie in the center"):
        ExtensionScenario(
            "x^2+1 at i",
            HAMILTON,
            CentralPolynomial.from_coeffs(HAMILTON, [1, 0, 1]),
            Z2,
            {"s": CentralPolynomial.from_coeffs(HAMILTON, [0, -1])},
            12,
            rho_override=i,
        )


@pytest.mark.parametrize("scenario", TAU_SCENARIOS, ids=TAU_IDS)
def test_tau_matches_the_coordinate_wise_sum(scenario):
    rng = random.Random(53)
    powers = sb.root_powers(scenario)
    a = random_tensor(scenario, rng, max_degree=1, span=2)
    # coordinates with poles at t = 0 spend precision
    pole = SkewFraction.make(
        SkewPolynomial.one(scenario.field),
        SkewPolynomial.t_power(scenario.field, scenario.field.sigma_order),
    )
    poles = TensorElement.make(scenario, [pole] * scenario.degree)
    # alone on the top coordinate, where rho^(d-1) may be known beyond rho
    top = TensorElement.make(scenario, [0] * (scenario.degree - 1) + [pole])
    for element in (TensorElement.zero(scenario), TensorElement.x(scenario), a, poles, poles * a, top):
        check_tau(element, powers)


@pytest.mark.parametrize("scenario", SCENARIOS[:3], ids=IDS[:3])
def test_tau_matches_the_coordinate_wise_sum_on_random_tensors(scenario):
    powers = sb.root_powers(scenario)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**32))
    def check(seed):
        rng = random.Random(seed)
        a = random_tensor(scenario, rng, max_degree=2)
        check_tau(a, powers)
        check_tau(a * random_tensor(scenario, rng, max_degree=1), powers)

    check()


def test_tau_retries_only_truncate(monkeypatch):
    """A request that raises keeps the value, so a retry at a lower
    precision makes no series product or division."""
    scenario = scenario_catalog("T3L1")
    pole = SkewFraction.make(SkewPolynomial.one(RATIONALS), SkewPolynomial.t_power(RATIONALS, 3))
    element = TensorElement.make(scenario, [pole, 1])
    with pytest.raises(InsufficientPrecision):
        ext_tau(element, scenario.precision)
    calls = []
    for module, name in ((kernel, "series_mul_rows"), (laurent, "_quotient")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, original=original, name=name: calls.append(name) or original(*a))
    low = ext_tau(element, scenario.precision - 8)
    assert calls == []
    assert low == sb.ext_tau(element, scenario.precision - 8)
