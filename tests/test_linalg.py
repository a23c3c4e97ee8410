"""`linalg.nullspace`: the one Gauss-Jordan elimination, over the rationals,
over Q(u) as `RationalFunction`s, and over the center of a fraction field
whose invariant subfield is not Q, as `SkewFraction`s.

Every basis is checked for M*v = 0 and for its canonical shape (each vector
has its 1 at its own free column and 0 at the others'), and its size against
sympy.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from orefield import linalg
from orefield.factor import RationalFunction
from orefield.skewfrac import SkewFraction

from test_central import STATIC, central_fraction

U = sympy.Symbol("u")


def check_kernel(rows, ncols, basis, zero, one):
    """M*v = 0 for each basis vector, and the canonical shape: the last
    nonzero entry of each vector is its 1 at its free column, the free
    columns increase, and each vector is 0 at the other free columns."""
    free = []
    for v in basis:
        assert len(v) == ncols
        for row in rows:
            acc = zero
            for a, b in zip(row, v):
                acc = acc + a * b
            assert acc == zero
        f = max(c for c in range(ncols) if v[c] != zero)
        assert v[f] == one
        free.append(f)
    assert free == sorted(set(free))
    for i, v in enumerate(basis):
        assert [v[f] for f in free] == [one if j == i else zero for j in range(len(free))]


def sympy_dimension(entries, ncols, domain):
    """Dimension of the kernel of the matrix of sympy expressions, computed
    exactly over the given sympy domain."""
    matrix = DomainMatrix.from_Matrix(sympy.Matrix(entries)).convert_to(domain)
    return ncols - matrix.rank()


# -- rationals ----------------------------------------------------------------


def check_rational(rows, ncols):
    basis = linalg.nullspace(rows, ncols)
    check_kernel(rows, ncols, basis, Fraction(0), Fraction(1))
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


def low_rank(rng, nrows, ncols, rank, entry):
    """An nrows x ncols product of random nrows x rank and rank x ncols
    factors, so its kernel has dimension at least ncols - rank."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    out = []
    for row in left:
        acc = []
        for c in range(ncols):
            s = row[0] * right[0][c]
            for k in range(1, rank):
                s = s + row[k] * right[k][c]
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
    check_kernel(zero_rows, 3, linalg.nullspace(zero_rows, 3), Fraction(0), Fraction(1))
    assert len(linalg.nullspace(zero_rows, 3)) == 3
    assert linalg.nullspace([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]], 2) == []


# -- rational functions in u ----------------------------------------------------


def random_rational_function(rng):
    num = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
    den = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 2)]
    return RationalFunction.make(num, den)


def as_sympy_rf(r):
    return sum(a * U**k for k, a in enumerate(r.num)) / sum(a * U**k for k, a in enumerate(r.den))


def check_rational_functions(rows, ncols):
    basis = linalg.nullspace(rows, ncols)
    check_kernel(rows, ncols, basis, RationalFunction.zero(), RationalFunction.one())
    entries = [[as_sympy_rf(x) for x in r] for r in rows]
    assert len(basis) == sympy_dimension(entries, ncols, sympy.QQ.frac_field(U))


def test_rational_function_nullspace_at_fixed_seeds():
    for seed in range(12):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 4)
        rank = rng.randint(1, min(nrows, ncols))
        check_rational_functions(low_rank(rng, nrows, ncols, rank, random_rational_function), ncols)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4))
def test_rational_function_nullspace_on_random_matrices(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = [[random_rational_function(rng) for _ in range(ncols)] for _ in range(nrows)]
    check_rational_functions(rows, ncols)


# -- central fractions over Q(sqrt2)/id -------------------------------------------


def random_central_fraction(rng):
    """(a + b sqrt2 u) / (1 + c u) with small integers: central, since the
    twist is the identity, and with coefficients off Q."""
    a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1)
    return central_fraction(STATIC, [a], [1, c], root2=[0, b])


def as_sympy_central(x):
    def poly(p):
        return sum(
            (e.coords[0] + e.coords[1] * sympy.sqrt(2)) * U**k for k, e in enumerate(p.coeffs)
        )

    return poly(x.num) / poly(x.den)


def test_central_fraction_nullspace_at_fixed_seeds():
    zero, one = SkewFraction.zero(STATIC), SkewFraction.one(STATIC)
    domain = sympy.QQ.algebraic_field(sympy.sqrt(2)).frac_field(U)
    for seed in range(12):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 3)
        rank = rng.randint(1, min(nrows, ncols))
        rows = low_rank(rng, nrows, ncols, rank, random_central_fraction)
        basis = linalg.nullspace(rows, ncols)
        check_kernel(rows, ncols, basis, zero, one)
        entries = [[as_sympy_central(x) for x in r] for r in rows]
        assert len(basis) == sympy_dimension(entries, ncols, domain)
