"""Central coefficients: `CentralPolynomial` against the `SkewFraction`
arithmetic it replaces (the oracle in `schoolbook`), and its constants, the
elements of Q(u) over Z[u], against central `SkewFraction`s."""

import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import schoolbook
from orefield.errors import DivisionByZero, MixedFields, ScenarioValidationError
from orefield.extend import CentralPolynomial, ExtensionScenario, FiniteGroup, PowerRows, _twisted, _view
from orefield.ground import make_number_field
from orefield import kernel
from orefield.kernel import center, common_denominator, zcontent, zgcd, zmul, zprimitive, ztrim
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial, central_polynomial

from conftest import GAUSS, HAMILTON, RATIONALS
from test_kernel import CUBIC, H_GOLDEN, NORM_FIELDS, NORM_IDS

# Q(sqrt2) with the identity twist: its invariant subfield is Q(sqrt2), so
# central coefficients stay `SkewFraction`s there
STATIC = make_number_field([-2, 0, 1], sigma_image=[0, 1], name="Q(sqrt2)/id")
Z_U_FIELDS = [RATIONALS, GAUSS, HAMILTON]
FIELDS = Z_U_FIELDS + [STATIC]

upolys = st.lists(st.integers(-3, 3), min_size=0, max_size=3)
nonzero_upolys = upolys.filter(any)


def upoly(field, coeffs, root2=()):
    """sum (coeffs[k] + root2[k]*sqrt2) * u^k with u = t^n; the sqrt2 part
    only over STATIC."""
    n = field.sigma_order
    size = max(len(coeffs), len(root2))
    rows = [[Fraction(0)] * field.dim for _ in range(n * max(size - 1, 0) + 1)]
    for k, c in enumerate(coeffs):
        rows[k * n][0] = Fraction(c)
    for k, c in enumerate(root2):
        rows[k * n][1] = Fraction(c)
    return SkewPolynomial.from_coeffs(field, rows)


def central_fraction(field, num, den, root2=()):
    return SkewFraction.make(upoly(field, num, root2), upoly(field, den))


def is_canonical(den, nums):
    """Lowest terms over Z[u]: lc(den) > 0, no content common to den and the
    numerators, and no common factor over Q[u]; zero is 0/1."""
    assert den and den[-1] > 0
    assert all(not num or num[-1] != 0 for num in nums)
    assert zcontent([*den, *(a for num in nums for a in num)]) == 1
    if any(nums):
        g = den
        for num in nums:
            g = zgcd(g, num)
        assert len(g) == 1
    else:
        assert den == [1]
    return True


# -- constants of central polynomials against central SkewFractions ---------------------


def check_pair(field, a, b):
    """Every operation on a, b = (num, den) pairs, on the constants of
    `CentralPolynomial` over Z[u] and on the Ore path, with each view equal
    to the fraction the Ore path builds."""
    sa, sb = central_fraction(field, *a), central_fraction(field, *b)
    ca, cb = CentralPolynomial.from_coeffs(field, [sa]), CentralPolynomial.from_coeffs(field, [sb])
    one = CentralPolynomial.one(field)
    results = [(ca, sa), (cb, sb), (ca + cb, sa + sb), (ca - cb, sa - sb), (ca * cb, sa * sb)]
    results.append((-ca, -sa))
    if not sb.is_zero():
        results.append((one.divmod_by(cb)[0], sb.inv()))
        results.append((ca.divmod_by(cb)[0], sa * sb.inv()))
    else:
        with pytest.raises(DivisionByZero):
            ca.divmod_by(cb)
    for r, s in results:
        view = CentralPolynomial(field, *r.parts()).coefficient(0)
        made = SkewFraction.make(view.num, view.den)
        assert view.same_representation(s) and view.same_representation(made)
        assert str(view) == str(s)
        # s converts to its lowest terms over Z[u]: r's parts, reduced
        den, nums = CentralPolynomial.from_coeffs(field, [s]).parts()
        assert is_canonical(den, nums)
        assert (den, nums) == r.reduced().parts()
        assert (r == ca) == (s == sa)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(Z_U_FIELDS),
    st.tuples(upolys, nonzero_upolys),
    st.tuples(upolys, nonzero_upolys),
)
def test_rational_functions_match_central_fractions(field, a, b):
    check_pair(field, a, b)


def test_rational_functions_match_central_fractions_at_fixed_seeds():
    rng = random.Random(23)

    def pair():
        num = [rng.randint(-4, 4) for _ in range(rng.randrange(0, 4))]
        den = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))]
        den[-1] = den[-1] or 1
        return num, den

    for field in Z_U_FIELDS:
        for _ in range(10):
            check_pair(field, pair(), pair())
        # a shared factor: (u + 1)/(u^2 - 1) reduces to 1/(u - 1)
        check_pair(field, ([1, 1], [-1, 0, 1]), ([2, 2], [0, 4]))
        check_pair(field, ([], [3]), ([-5], [-2]))


def test_lowest_terms_over_z_u_edges():
    """`reduce` of the Z[u] ring and `_view` on the edge cases of Q(u)."""
    ring = center(RATIONALS)
    assert ring.reduce([5], [[]]) == ([1], [[]])
    assert ring.reduce([4], [[4]]) == ([1], [[1]])
    # (2 + 2u)/(-4 + 4u^2) = 1/(2u - 2)
    assert ring.reduce([-4, 0, 4], [[2, 2]]) == ([-2, 2], [[1]])
    assert ring.reduce([6], [[3], [], [0, 9]]) == ([2], [[1], [], [0, 3]])
    assert ring.reduce([-1, 0, 1], [[1, 1], [-1, 1]]) == ([-1, 0, 1], [[1, 1], [-1, 1]])
    for field in Z_U_FIELDS:
        assert _view(field, [], [7, 1]).same_representation(SkewFraction.zero(field))
        assert _view(field, [4], [4]).same_representation(SkewFraction.one(field))
        half = central_fraction(field, [-1], [2, -2])
        assert _view(field, [2, 2], [-4, 0, 4]).same_representation(half)
        assert _view(field, [3], [6]).same_representation(central_fraction(field, [1], [2]))


# -- one common denominator and one reduction over Q[u] -----------------------------------

U = sympy.Symbol("u")
# small factors, so that random products share some and repeat others
Z_U_FACTORS = [[1, 1], [-1, 1], [1, 0, 1], [1, 2], [2, -1, 3], [2], [-3]]


def zproduct(factors):
    out = [1]
    for f in factors:
        out = zmul(out, f)
    return out


def q_u_monic(f):
    return sympy.Poly(list(reversed(f)), U, domain="QQ").monic()


def check_common_denominator(dens):
    """Each cofactor times its den is C, and C is their lcm over Q[u] up to
    an integer (sympy's lcm is the reference)."""
    common, cofactors = common_denominator(dens)
    assert len(cofactors) == len(dens)
    assert all(zmul(k, d) == common for d, k in zip(dens, cofactors))
    lcm = sympy.Poly(1, U, domain="QQ")
    for d in dens:
        lcm = lcm.lcm(q_u_monic(d))
    assert q_u_monic(common) == lcm.monic()


dens_lists = st.lists(st.lists(st.sampled_from(Z_U_FACTORS), max_size=3).map(zproduct), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(dens_lists)
def test_common_denominator_is_the_lcm_with_exact_cofactors(dens):
    check_common_denominator(dens)


def test_common_denominator_at_fixed_seeds():
    # equal, coprime, repeated, a den of 1, and dens that differ by an integer
    for dens in ([[1, 1], [1, 1]], [[1, 1], [1, 0, 1]], [[1, 1], [1, 2, 1], [1, 1]], [[1], [1, 1]], [[2, 2], [1, 1], [3]]):
        check_common_denominator(dens)
    assert common_denominator([[1, 1], [1, 1]]) == ([1, 1], [[1], [1]])
    assert common_denominator([(1, 1), [1, 0, 1]]) == ([1, 1, 1, 1], [[1, 0, 1], [1, 1]])
    rng = random.Random(41)
    for _ in range(30):
        check_common_denominator([zproduct(rng.choices(Z_U_FACTORS, k=rng.randrange(4))) for _ in range(rng.randint(1, 4))])


# -- the heuristic gcd against the primitive remainder sequence ---------------------


def prs(f, g):
    return kernel._prs_gcd(zprimitive(f)[1], zprimitive(g)[1])


def random_zpoly(rng, length, bits):
    return ztrim([rng.randint(-(2**bits), 2**bits) for _ in range(length)])


zpolys = st.integers(1, 120).flatmap(lambda bits: st.lists(st.integers(-(2**bits), 2**bits), max_size=12).map(ztrim))


@settings(max_examples=80, deadline=None)
@given(zpolys, zpolys, zpolys)
def test_gcd_matches_the_remainder_sequence(a, b, common):
    """Random inputs and products with a planted common factor (zero,
    constant and negative-leading inputs among them), on both sides of the
    heuristic's length threshold."""
    assert zgcd(a, b) == prs(a, b)
    f, g = zmul(a, common), zmul(b, common)
    assert zgcd(f, g) == prs(f, g) == zgcd(g, f)


def test_gcd_matches_the_remainder_sequence_at_fixed_seeds():
    rng = random.Random(67)
    for f, g in (([], []), ([], [0, -4, 6]), ([5], [10, 15]), ([-3], []), ([0] * 9 + [-2], [0] * 12 + [4])):
        assert zgcd(f, g) == prs(f, g)
    for _ in range(60):
        common = random_zpoly(rng, rng.randint(1, 12), rng.randint(1, 40))
        f = zmul(common, random_zpoly(rng, rng.randint(1, 24), rng.randint(1, 60)))
        g = zmul(common, random_zpoly(rng, rng.randint(1, 24), rng.randint(1, 60)))
        if rng.random() < 0.5:
            f, g = [-x for x in f], zmul(g, [rng.randint(-9, 9), 1])
        assert zgcd(f, g) == prs(f, g)


def test_gcd_of_degree_200_matches_sympy():
    """Degree 200 and about 500 bits, where the remainder sequence would not
    finish: sympy's gcd is the reference."""
    rng = random.Random(5)

    def poly(length, bits):
        return [rng.randint(-(2**bits), 2**bits) for _ in range(length - 1)] + [rng.randint(1, 2**bits)]

    # a planted common factor of degree 60, and primitive parts with none
    for common_length in (61, 1):
        common = poly(common_length, 250)
        f, g = zmul(common, poly(201 - common_length, 240)), zmul(common, poly(201 - common_length, 240))
        ref = sympy.Poly(list(reversed(f)), U).gcd(sympy.Poly(list(reversed(g)), U))
        assert zgcd(f, g) == zprimitive([int(c) for c in reversed(ref.all_coeffs())])[1]


def test_a_heuristic_point_below_the_bound_never_gives_a_gcd(monkeypatch):
    """With xi at or below 2 min(|f|, |g|) + 2 a common factor k can have
    k(xi) = +-1: here the gcd is u^2 - 1, and at xi = 2 the digits give u + 1
    alone, which divides both inputs.  The helper gives no candidate there,
    and `zgcd` falls back to the remainder sequence."""
    rng = random.Random(71)
    f = zmul([-1, 1], zmul([1, 1], random_zpoly(rng, 10, 3)))
    g = zmul([-1, 1], zmul([1, 1], random_zpoly(rng, 10, 3)))
    bound = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for xi in range(2, bound + 1):
        assert kernel._heuristic_gcd(f, g, xi) is None
    assert kernel._heuristic_gcd(f, g, bound + 1) == prs(f, g)
    original, fallbacks = kernel._heuristic_gcd, []
    monkeypatch.setattr(kernel, "_heuristic_gcd", lambda f, g, xi: original(f, g, 2))
    monkeypatch.setattr(kernel, "_prs_gcd", lambda f, g, prs=kernel._prs_gcd: fallbacks.append(1) or prs(f, g))
    assert zgcd(f, g) == original(f, g, bound + 1) and fallbacks == [1]


def check_shared_reduction(field, den, nums, factor):
    """The vector nums/den with `factor` planted in den and every entry:
    `center`'s `reduce` on the K'[u] lists and `kernel.reduce_central` on the
    same values as integer rows (`rows`) cancel the same factor over Q[u] and
    give equal fractions."""
    ring = center(field)
    den, nums = zmul(den, factor), [ring.scale(a, factor) for a in nums]
    cden, cnums = ring.reduce(den, nums)
    rden, rrows, over = kernel.reduce_central(field, den, [ring.rows(a) for a in nums], 1)
    if not any(nums):
        assert (cden, rden) == ([1], [1])
        return
    assert zprimitive(cden)[1] == rden and len(rden) <= len(den) - len(factor) + 1
    g = cden
    for part in (part for a in cnums for part in ring.parts(a)):
        g = zgcd(g, part)
    assert len(g) == 1
    for a, rows in zip(cnums, rrows):
        # rows(a)/cden = rows/(over rden)
        assert kernel.central_rows(field, [(ring.rows(a), [over * x for x in rden])]) == kernel.central_rows(field, [(rows, cden)])


@pytest.mark.parametrize("field", NORM_FIELDS, ids=NORM_IDS)
def test_center_reduce_and_row_reduction_cancel_the_same_factor(field):
    w = center(field).w

    @settings(max_examples=15, deadline=None)
    @given(st.lists(center_elements(field), min_size=1, max_size=3), nonzero_upolys.map(ztrim), st.sampled_from(Z_U_FACTORS))
    def check(nums, den, factor):
        check_shared_reduction(field, den, nums, factor)

    check()
    rng = random.Random(43)
    for _ in range(8):
        nums = [ztrim([rng.randint(-3, 3) for _ in range(w * rng.randint(0, 3))]) for _ in range(rng.randint(1, 3))]
        den = ztrim([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) or [1]
        check_shared_reduction(field, den, nums, zproduct(rng.choices(Z_U_FACTORS, k=2)))


def test_reduce_central_needs_a_denominator_and_primitive_row_divides_itself():
    """den = [] is no denominator: `kernel.reduce_central` refuses it rather
    than give an integer denominator of 0, and the schoolbook's
    `primitive_row` divides out the content over Q[u] and then the integer
    content on its own."""
    with pytest.raises(ZeroDivisionError):
        kernel.reduce_central(RATIONALS, [], [[(2,), (2,)]], 1)
    # (2 + 2t) / (3 (2 + 2u)) with u = t is 1/3
    assert kernel.reduce_central(RATIONALS, [2, 2], [[(2,), (2,)]], 3) == ([1], [[(1,)]], 3)
    two = SkewPolynomial.from_coeffs(RATIONALS, [2, 2])
    # 2 + 2t and (2 + 2t)^2 share 1 + t, and then 2
    assert schoolbook.primitive_row([two, two * two]) == [SkewPolynomial.one(RATIONALS), two]
    # over Q(i) with u = t^2: 2 + 2t^2 and 4i + 4i t^2 share 1 + u and 2
    row = [SkewPolynomial.from_coeffs(GAUSS, [2, 0, 2]), SkewPolynomial.from_coeffs(GAUSS, [[0, 4], 0, [0, 4]])]
    assert schoolbook.primitive_row(row) == [SkewPolynomial.one(GAUSS), SkewPolynomial.from_coeffs(GAUSS, [[0, 2]])]


def check_view(field, a, den):
    """`_view` builds the canonical fraction of a/den without an Ore reduction."""
    made = SkewFraction.make(_twisted(field, a), central_polynomial(field, den))
    assert _view(field, a, den).same_representation(made)


@pytest.mark.parametrize("field", FIELDS + [CUBIC, H_GOLDEN], ids=lambda f: f.name)
def test_view_is_the_canonical_fraction(field):
    @settings(max_examples=20, deadline=None)
    @given(center_elements(field), nonzero_upolys.map(ztrim), st.sampled_from(Z_U_FACTORS))
    def check(a, den, factor):
        check_view(field, a, den)
        check_view(field, center(field).scale(a, factor), zmul(den, factor))

    check()
    rng = random.Random(47)
    w = center(field).w
    for _ in range(10):
        a = ztrim([rng.randint(-3, 3) for _ in range(w * rng.randint(0, 3))])
        factor = zproduct(rng.choices(Z_U_FACTORS, k=2))
        check_view(field, center(field).scale(a, factor), zmul([rng.randint(1, 3), rng.choice([-2, -1, 1, 2])], factor))


# -- the ring K'[u] against the twisted polynomials ------------------------------------

# K' = Q(sqrt2) and Q(sqrt5), w = 2, and the cubic, w = 1 with n = 3
RING_FIELDS = [STATIC, CUBIC, H_GOLDEN]


def check_center_ring(field, a, b, c):
    """`kernel.center`'s operations on a, b in K'[u] and c in Z[u] against
    the central twisted polynomials they stand for (`schoolbook.POLYNOMIALS`)."""
    ring, ref = center(field), schoolbook.POLYNOMIALS
    pa, pb = _twisted(field, a), _twisted(field, b)
    assert _twisted(field, ring.mul(a, b)) == pa * pb and ring.mul(a, b) == ring.mul(b, a)
    assert _twisted(field, ring.scale(a, c)) == ref.scale(pa, c)
    assert ring.join(ring.parts(a)) == a and ring.rational(ring.lift(c)) == c
    for x in (a, b):
        if x:
            q, n = ring.unit_multiple(x)
            assert n[-1] > 0 and _twisted(field, ring.mul(q, x)) == central_polynomial(field, n)
    if not c:
        return
    # lowest terms: the value of the reference's, no common factor left
    den, (ra, rb) = ring.reduce(c, [a, b])
    pden, (qa, qb) = ref.reduce(c, [pa, pb])
    g = den
    for part in ring.parts(ra) + ring.parts(rb):
        g = zgcd(g, part)
    assert den[-1] > 0 and zcontent(den + ra + rb) == 1 and len(g) == 1
    for r, q in ((ra, qa), (rb, qb)):
        assert ref.scale(_twisted(field, r), pden) == ref.scale(q, den)
    # central fractions in, canonical fractions out
    fractions = [SkewFraction.make(p, central_polynomial(field, c)) for p in (pa, pb)]
    den, nums = CentralPolynomial.from_coeffs(field, fractions).parts()
    assert all(_view(field, x, den).same_representation(f) for x, f in zip(nums, fractions))


def center_elements(field, size=3):
    w = center(field).w
    entry = st.integers(-3, 3)
    return st.lists(entry, max_size=w * size).map(ztrim)


@pytest.mark.parametrize("field", RING_FIELDS, ids=lambda f: f.name)
def test_the_center_ring_matches_the_twisted_polynomials(field):
    @settings(max_examples=30, deadline=None)
    @given(center_elements(field), center_elements(field), upolys)
    def check(a, b, c):
        check_center_ring(field, a, b, ztrim(list(c)))

    check()


@pytest.mark.parametrize("field", RING_FIELDS, ids=lambda f: f.name)
def test_the_center_ring_matches_the_twisted_polynomials_at_fixed_seeds(field):
    rng = random.Random(31)
    w = center(field).w

    def element():
        return ztrim([rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(w * rng.randint(0, 4))])

    for _ in range(20):
        c = ztrim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
        check_center_ring(field, element(), element(), c)
    # a common factor 1 + u of everything, and units of K'
    one_plus_u = [1] + [0] * (w - 1) + [1]
    check_center_ring(field, one_plus_u, center(field).mul(one_plus_u, one_plus_u), [1, 1])
    check_center_ring(field, [0] * (w - 1) + [1], [1], [2])


# -- CentralPolynomial against the schoolbook arithmetic --------------------------------


def central_values(field):
    pair = st.tuples(upolys, nonzero_upolys, upolys if field is STATIC else st.just(()))
    return pair.map(lambda p: central_fraction(field, p[0], p[1], p[2]))


def central_polys(field, max_degree=2):
    return st.lists(central_values(field), min_size=0, max_size=max_degree + 1).map(
        lambda cs: CentralPolynomial.from_coeffs(field, cs)
    )


def check_polys(field, p, q, g):
    a, b, c = p.coeffs, q.coeffs, g.coeffs
    assert (p + q).coeffs == schoolbook.central_add(field, a, b)
    assert (p - q).coeffs == schoolbook.central_add(field, a, tuple(-x for x in b))
    assert (p * q).coeffs == schoolbook.central_mul(field, a, b)
    assert (p + q == q + p) and ((p == q) == (a == b))
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            p.divmod_by(g)
        with pytest.raises(DivisionByZero):
            PowerRows(g, q)
        with pytest.raises(DivisionByZero):
            schoolbook.central_divmod(field, a, c)
    else:
        quo, rem = p.divmod_by(g)
        assert (quo.coeffs, rem.coeffs) == schoolbook.central_divmod(field, a, c)
        assert quo * g + rem == p
        assert rem.reduced().parts() == rem.parts()
        check_composition(field, g, p, q)


def check_composition(field, f, p, q):
    """p(q) modulo f through the power rows of q, against composing by
    Horner and dividing by f."""
    expected = schoolbook.central_divmod(field, schoolbook.central_compose(field, p.coeffs, q.coeffs), f.coeffs)[1]
    composite = PowerRows(f, q).compose(p)
    assert composite.coeffs == expected
    assert composite.is_zero() == (not expected)
    assert composite == CentralPolynomial.from_coeffs(field, expected)
    # both lowest-terms forms of one value are the same parts
    assert composite.reduced().parts() == CentralPolynomial.from_coeffs(field, expected).reduced().parts()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_central_polynomials_match_the_schoolbook_arithmetic(field):
    @settings(max_examples=25, deadline=None)
    @given(central_polys(field), central_polys(field), central_polys(field))
    def check(p, q, g):
        check_polys(field, p, q, g)

    check()


def test_central_polynomials_match_at_fixed_seeds():
    rng = random.Random(29)

    def value(field):
        num = [rng.randint(-3, 3) for _ in range(rng.randrange(0, 3))]
        den = [rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(rng.randrange(0, 2))]
        root2 = [rng.randint(-1, 1) for _ in range(2)] if field is STATIC else ()
        return central_fraction(field, num, den, root2)

    for field in FIELDS:
        one, zero = SkewFraction.one(field), SkewFraction.zero(field)
        x = CentralPolynomial.x(field)
        constants = [CentralPolynomial.zero(field), CentralPolynomial.one(field),
                     CentralPolynomial.from_coeffs(field, [value(field)])]
        for _ in range(6):
            p = CentralPolynomial.from_coeffs(field, [value(field) for _ in range(3)])
            q = CentralPolynomial.from_coeffs(field, [value(field), one])
            g = CentralPolynomial.from_coeffs(field, [value(field), zero, value(field)])
            check_polys(field, p, q, g)
            for k in constants:
                check_polys(field, p, k, k)
                check_polys(field, k, p, x)
        # the stored form given as it is: the same value and view, and monic
        # on any denominator
        monic = CentralPolynomial.from_coeffs(field, (value(field), zero, one))
        den, nums = monic.parts()
        given = CentralPolynomial(field, den, nums)
        assert given == monic and given.coeffs == monic.coeffs
        assert given.is_monic() and given.leading() == one
        scaled = CentralPolynomial(field, [2 * a for a in den], [[2 * a for a in num] for num in nums])
        assert scaled == monic and scaled.is_monic()
        assert not (-given).is_monic() and not CentralPolynomial(field, [2 * a for a in den], nums).is_monic()


def test_raw_coefficients_off_the_center_are_refused():
    # i*u over Q(i): its exponent is a multiple of n, its coefficient is not invariant
    i_u = SkewFraction.from_polynomial(SkewPolynomial.from_coeffs(GAUSS, [[0, 0], [0, 0], [0, 1]]))
    with pytest.raises(ScenarioValidationError, match="is not central"):
        CentralPolynomial.from_coeffs(GAUSS, (i_u, SkewFraction.one(GAUSS)))
    with pytest.raises(ScenarioValidationError, match="is not central"):
        CentralPolynomial.x(GAUSS) * CentralPolynomial.from_coeffs(GAUSS, [i_u])
    # a quaternion unit over Q(sqrt5), whose invariant subfield is not Q
    units = (H_GOLDEN.element([Fraction(int(k == j)) for k in range(H_GOLDEN.dim)]) for j in range(H_GOLDEN.dim))
    unit = next(c for c in map(SkewFraction.from_ground, units) if not c.is_invariant_central())
    with pytest.raises(ScenarioValidationError, match="is not central"):
        CentralPolynomial.from_coeffs(H_GOLDEN, (unit, SkewFraction.one(H_GOLDEN)))


def test_mixing_fields_raises():
    p, q = CentralPolynomial.x(RATIONALS), CentralPolynomial.x(GAUSS)
    binary = (operator.add, operator.sub, operator.mul, operator.eq)
    for op in (*binary, CentralPolynomial.divmod_by, PowerRows):
        with pytest.raises(MixedFields):
            op(p, q)
    with pytest.raises(MixedFields):
        PowerRows(p, p).compose(q)
    with pytest.raises(MixedFields):
        p * CentralPolynomial.from_coeffs(GAUSS, [SkewFraction.one(GAUSS)])
    group = FiniteGroup(("e",), "e", {("e", "e"): "e"})
    with pytest.raises(MixedFields):
        ExtensionScenario("mixed", GAUSS, p, group, {}, 8, newton_seed=GAUSS.one())


def t_valuation(p):
    return next(m for m, a in enumerate(p.coeffs) if not a.is_zero())


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_valuation_pad_reads_the_poles_of_f(field):
    # f = x^3 + (1 + u)/u^2 x + u/(1 - u): the pad covers the pole of order
    # 2 in u, which is 2n in t
    one, zero = SkewFraction.one(field), SkewFraction.zero(field)
    coeffs = [central_fraction(field, [0, 1], [1, -1]), central_fraction(field, [1, 1], [0, 0, 1]), zero, one]
    f = CentralPolynomial.from_coeffs(field, coeffs)
    group = FiniteGroup(("e",), "e", {("e", "e"): "e"})
    scn = ExtensionScenario("poles", field, f, group, {}, 8, newton_seed=field.one())
    worst = max(t_valuation(c.den) - t_valuation(c.num) for c in coeffs if not c.is_zero())
    assert worst == 2 * field.sigma_order
    assert scn._coefficient_valuation_pad() == 2 * 3 * worst + 4
