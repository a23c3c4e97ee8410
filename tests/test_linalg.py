"""Kernels: `linalg.nullspace`, Gauss-Jordan over the rationals, and
`linalg.ring_nullspace`, the fraction-free elimination over the rings of the
center: over Q(u) on Z[u] numerators (`kernel.center` at w = 1), and over
the center of a fraction field whose invariant subfield is not Q, on K'[u]
(`kernel.center` at w = 2) and on the tests' reference ring of central
twisted polynomials (`schoolbook.POLYNOMIALS`).

Every basis is checked for M*v = 0 and for its canonical shape (each vector
has its 1 at its own free column and 0 at the others'), and its size against
sympy.  A ring basis vector (den, xs) stands for den^-1 * xs, so its 1 is
den and M*v = 0 holds on the numerators.
"""

import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from orefield import linalg
from orefield.factor import _trim, content, gcd
from orefield.kernel import center

from conftest import RATIONALS
from schoolbook import POLYNOMIALS, primitive_row
from test_central import STATIC, upoly

U = sympy.Symbol("u")


FRACTIONS = SimpleNamespace(add=operator.add, mul=operator.mul)


def check_kernel(rows, ncols, basis, zero, ones, ring=FRACTIONS):
    """M*v = 0 for each basis vector, and the canonical shape: the last
    nonzero entry of each vector is its 1 (ones[i] for vector i) at its free
    column, the free columns increase, and each vector is 0 at the other
    free columns."""
    free = []
    for v, one in zip(basis, ones, strict=True):
        assert len(v) == ncols
        for row in rows:
            acc = zero
            for a, b in zip(row, v):
                acc = ring.add(acc, ring.mul(a, b))
            assert acc == zero
        f = max(c for c in range(ncols) if v[c] != zero)
        assert v[f] == one
        free.append(f)
    assert free == sorted(set(free))
    for i, v in enumerate(basis):
        assert [v[f] for f in free] == [ones[i] if j == i else zero for j in range(len(free))]


def check_ring_kernel(ring, field, rows, ncols):
    """`check_kernel` on the numerators of a ring basis, each vector in
    lowest terms; returns the basis."""
    basis = linalg.ring_nullspace(ring, field, rows, ncols)
    ones = [ring.scale(ring.one(field), den) for den, _ in basis]
    check_kernel(rows, ncols, [v for _, v in basis], ring.zero(field), ones, ring)
    for den, v in basis:
        assert ring.reduce(den, v) == (den, v)
    return basis


def sympy_dimension(entries, ncols, domain):
    """Dimension of the kernel of the matrix of sympy expressions, computed
    exactly over the given sympy domain."""
    matrix = DomainMatrix.from_Matrix(sympy.Matrix(entries)).convert_to(domain)
    return ncols - matrix.rank()


# -- rationals ----------------------------------------------------------------


def check_rational(rows, ncols):
    basis = linalg.nullspace(rows, ncols)
    check_kernel(rows, ncols, basis, Fraction(0), [Fraction(1)] * len(basis))
    oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    expected = oracle.nullspace()
    assert len(basis) == len(expected)
    # sympy's basis has the same canonical shape, so the vectors agree too
    for ours, theirs in zip(basis, expected):
        assert list(ours) == [Fraction(int(x.p), int(x.q)) for x in theirs]


entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def rational_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    # a copy of a combination of rows keeps the rank below the row count
    if nrows > 1 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rational_nullspace_matches_sympy(matrix):
    check_rational(*matrix)


def low_rank(rng, nrows, ncols, rank, entry, ring=FRACTIONS):
    """An nrows x ncols product of random nrows x rank and rank x ncols
    factors, so its kernel has dimension at least ncols - rank."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    out = []
    for row in left:
        acc = []
        for c in range(ncols):
            s = ring.mul(row[0], right[0][c])
            for k in range(1, rank):
                s = ring.add(s, ring.mul(row[k], right[k][c]))
            acc.append(s)
        out.append(acc)
    return out


def random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def test_rational_nullspace_matches_sympy_at_fixed_seeds():
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rank = rng.randint(1, min(nrows, ncols))
        check_rational(low_rank(rng, nrows, ncols, rank, random_rational), ncols)


def test_rational_nullspace_edges():
    assert linalg.nullspace([], 2) == [(1, 0), (0, 1)]
    zero_rows = [[Fraction(0)] * 3, [Fraction(0)] * 3]
    check_kernel(zero_rows, 3, linalg.nullspace(zero_rows, 3), Fraction(0), [Fraction(1)] * 3)
    assert len(linalg.nullspace(zero_rows, 3)) == 3
    assert linalg.nullspace([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]], 2) == []


# -- Q(u) on Z[u] numerators -----------------------------------------------------


def random_upoly(rng):
    num = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
    while num and not num[-1]:
        num.pop()
    return num


def as_sympy_upoly(a):
    return sum(c * U**k for k, c in enumerate(a))


def check_integer_ring(rows, ncols):
    ring = center(RATIONALS)
    basis = check_ring_kernel(ring, RATIONALS, rows, ncols)
    entries = [[as_sympy_upoly(x) for x in r] for r in rows]
    assert len(basis) == sympy_dimension(entries, ncols, sympy.QQ.frac_field(U))


def test_rational_function_nullspace_at_fixed_seeds():
    for seed in range(12):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 4)
        rank = rng.randint(1, min(nrows, ncols))
        check_integer_ring(low_rank(rng, nrows, ncols, rank, random_upoly, center(RATIONALS)), ncols)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4))
def test_rational_function_nullspace_on_random_matrices(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = [[random_upoly(rng) for _ in range(ncols)] for _ in range(nrows)]
    check_integer_ring(rows, ncols)


def test_ring_nullspace_edges():
    ring = center(RATIONALS)
    assert linalg.ring_nullspace(ring, RATIONALS, [], 2) == [([1], [[1], []]), ([1], [[], [1]])]
    assert linalg.ring_nullspace(ring, RATIONALS, [[[2], []], [[], [0, 5]]], 2) == []
    # u*x_0 + (u^2 + u)*x_1 = 0: x = (-(u + 1), 1), with the 1 over den 1
    assert linalg.ring_nullspace(ring, RATIONALS, [[[0, 1], [0, 1, 1]]], 2) == [([1], [[-1, -1], [1]])]
    # 2*x_0 + u*x_1 = 0: x = (-u/2, 1) = 2^-1 * (-u, 2)
    assert linalg.ring_nullspace(ring, RATIONALS, [[[2], [0, 1]]], 2) == [([2], [[0, -1], [2]])]


# -- the center of Q(sqrt2)/id, on K'[u] and on central polynomials -------------------


def random_central_polynomial(rng):
    """a + (c + b sqrt2) u with small integers: central, since the twist is
    the identity, and with coefficients off Q."""
    a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1)
    return upoly(STATIC, [a, c], root2=[0, b])


def random_center_element(rng):
    """The same draw as an element of K'[u], a at index 0, c + b sqrt2 at
    indices 2 and 3 (beta_1 = sqrt2)."""
    a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1)
    return _trim([a, 0, c, b])


def as_sympy_central(p):
    return sum((e.coords[0] + e.coords[1] * sympy.sqrt(2)) * U**k for k, e in enumerate(p.coeffs))


def as_sympy_center(a):
    return sum((a[k] + (a[k + 1] if k + 1 < len(a) else 0) * sympy.sqrt(2)) * U ** (k // 2) for k in range(0, len(a), 2))


CENTER_RINGS = [
    (POLYNOMIALS, random_central_polynomial, as_sympy_central),
    (center(STATIC), random_center_element, as_sympy_center),
]
CENTER_IDS = ["polynomials", "center"]


@pytest.mark.parametrize("ring, entry, as_sympy", CENTER_RINGS, ids=CENTER_IDS)
def test_central_fraction_nullspace_at_fixed_seeds(ring, entry, as_sympy):
    domain = sympy.QQ.algebraic_field(sympy.sqrt(2)).frac_field(U)
    for seed in range(12):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 3)
        rank = rng.randint(1, min(nrows, ncols))
        rows = low_rank(rng, nrows, ncols, rank, entry, ring)
        basis = check_ring_kernel(ring, STATIC, rows, ncols)
        entries = [[as_sympy(x) for x in r] for r in rows]
        assert len(basis) == sympy_dimension(entries, ncols, domain)


def has_no_content(ring, row):
    """No common factor over Q[u] of the coordinates and no integer content;
    for twisted polynomials, whose Z[u]-coordinate (r, l) is
    sum_k rows[k*n + r][l] u^k, no rational content either (`primitive_row`
    leaves the row as it is)."""
    if ring is POLYNOMIALS:
        n = row[0].field.sigma_order
        parts = [list(c) for p in row for r in range(n) for c in zip(*p.int_rows()[0][r::n])]
        ok = primitive_row(row) == row
    else:
        parts = [part for a in row for part in ring.parts(a)]
        ok = content([x for a in row for x in a]) == 1
    g = []
    for part in parts:
        g = gcd(g, part)
    return ok and len(g) == 1


def test_eliminated_rows_are_primitive():
    """Each row that a pivot clears is divided by its content, so the
    entries stay small: common factors of the inputs do not survive."""
    rng = random.Random(5)
    static = center(STATIC)
    cases = [
        (center(RATIONALS), RATIONALS, random_upoly, [[6], [0, 4]]),
        (POLYNOMIALS, STATIC, random_central_polynomial, [upoly(STATIC, [3], root2=[0, 3]), upoly(STATIC, [1, 1])]),
        (static, STATIC, random_center_element, [[3, 3], [1, 0, 1]]),
    ]
    for ring, field, entry, scales in cases:
        for _ in range(6):
            rows = low_rank(rng, 3, 3, 2, entry, ring)
            rows = [[ring.mul(s, a) for a in row] for s, row in zip(scales + scales, rows)]
            mat = [list(row) for row in rows]
            pivots = linalg.eliminate(ring, field, mat, 3)
            for row in mat[1 : len(pivots)]:
                assert has_no_content(ring, row)
