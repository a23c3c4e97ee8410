"""Integer polynomial factorisation against sympy, the reference it replaces."""

import random

import sympy
from hypothesis import given, settings, strategies as st

from orefield.factor import _factor_mod, factor_list, poly_str, squarefree
from orefield.kernel import zgcd

U = sympy.Symbol("u")


def _expr(coeffs):
    return sum((c * U**k for k, c in enumerate(coeffs)), sympy.Integer(0))


def _coeffs(expr):
    return [int(c) for c in reversed(sympy.Poly(expr, U).all_coeffs())]


def _product(*pairs):
    """coeffs of prod g^m over Z."""
    out = [1]
    for g, m in pairs:
        for _ in range(m):
            out = [
                sum(out[i] * g[k - i] for i in range(len(out)) if 0 <= k - i < len(g))
                for k in range(len(out) + len(g) - 1)
            ]
    return out


def assert_matches_sympy(coeffs):
    content, factors = factor_list(coeffs)
    ref_content, ref_factors = sympy.factor_list(sympy.expand(_expr(coeffs)))
    assert content == int(ref_content)
    assert sorted((tuple(g), m) for g, m in factors) == sorted(
        (tuple(_coeffs(g)), m) for g, m in ref_factors
    )
    assert sorted(poly_str(g, "u") for g, _ in factors) == sorted(str(g) for g, _ in ref_factors)
    # the documented shape: primitive, positive leading coefficient, sorted
    for g, m in factors:
        assert g[-1] > 0 and sympy.gcd_list([sympy.Integer(a) for a in g]) == 1 and m >= 1
    assert factors == sorted(factors, key=lambda pair: (len(pair[0]), pair[0], pair[1]))


coefficient_lists = st.lists(st.integers(-30, 30), min_size=0, max_size=9)
small_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda g: any(g[1:]))


@settings(max_examples=150, deadline=None)
@given(coefficient_lists)
def test_factor_list_matches_sympy_on_integer_polynomials(coeffs):
    assert_matches_sympy(coeffs)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([-6, -1, 1, 2, 9]),
    st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=3),
)
def test_factor_list_matches_sympy_on_products_with_repeated_factors(lead, pairs):
    coeffs = [lead * c for c in _product(*pairs)]
    assert_matches_sympy(coeffs)


def test_factor_list_matches_sympy_at_fixed_seeds():
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(60):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-50, 50) for _ in range(rng.randrange(1, 10))]
            else:
                pairs = []
                for _ in range(rng.randrange(1, 4)):
                    g = [rng.randint(-5, 5) for _ in range(rng.randrange(2, 5))]
                    g[-1] = g[-1] or 1
                    pairs.append((g, rng.choice([1, 1, 2, 3])))
                coeffs = [rng.choice([-3, -1, 1, 4]) * c for c in _product(*pairs)]
            assert_matches_sympy(coeffs)


def test_constants_zero_and_signs():
    assert factor_list([]) == (0, [])
    assert factor_list([0, 0]) == (0, [])
    assert factor_list([-6]) == (-6, [])
    assert factor_list([0, -1, 0, 1]) == (1, [([-1, 1], 1), ([0, 1], 1), ([1, 1], 1)])
    assert factor_list([6, 12, 6]) == (6, [([1, 1], 2)])
    assert factor_list([1, 0, -1]) == (-1, [([-1, 1], 1), ([1, 1], 1)])
    for coeffs in ([-6], [0, 0, -7], [1, 0, -1], [-4, 0, 0, 2], [3, -5, 0, -12]):
        assert_matches_sympy(coeffs)


def test_recombination_keeps_polynomials_that_split_modulo_every_prime():
    # x^4 + 1 and the Swinnerton-Dyer polynomial of sqrt2, sqrt3, sqrt5 are
    # irreducible over Z, yet every prime splits them into factors of degree
    # at most 2, so Zassenhaus has to reject every subset (the primes below
    # avoid 2, 3 and 5, the only ones that divide the discriminants)
    x4 = [1, 0, 0, 0, 1]
    sd = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    rng = random.Random(0)
    for p in (7, 11, 13, 17, 19, 23):
        assert len(_factor_mod(x4, p, rng)) >= 2
        assert all(len(g) <= 3 for g in _factor_mod(sd, p, rng))
    assert factor_list(x4) == (1, [(x4, 1)])
    assert factor_list(sd) == (1, [(sd, 1)])
    assert_matches_sympy(_product((x4, 2), (sd, 1), ([-2, 0, 1], 3)))


def test_squarefree_and_gcd_match_sympy():
    rng = random.Random(4)
    for _ in range(40):
        pairs = [([rng.randint(-3, 3) or 1, rng.randint(-3, 3), 1], rng.randint(1, 3)) for _ in range(3)]
        f = _product(*pairs)
        ref = sympy.sqf_list(_expr(f))[1]
        assert sorted((tuple(a), i) for a, i in squarefree(f)) == sorted(
            (tuple(_coeffs(a)), i) for a, i in ref
        )
        g = _product(pairs[0], ([rng.randint(-3, 3), 2], 1))
        assert zgcd(f, g) == _coeffs(sympy.primitive(sympy.gcd(_expr(f), _expr(g)))[1] or 1)


def test_poly_str_prints_as_sympy_does():
    for coeffs in ([1, 1], [1, 0, 1], [7, -1, 0, 0, 0, 3], [0, 1], [0, 2], [-1, 0, 1], [5], [0, 0, -1, 1]):
        assert poly_str(coeffs, "u") == str(_expr(coeffs))
    assert poly_str([], "u") == "0"


def test_poly_str_writes_coefficients_past_the_digit_limit():
    big = 10**5000 - 1
    assert poly_str([-big, 0, big], "u") == f"{'9' * 5000}*u**2 - {'9' * 5000}"
