"""Exact linear algebra over the rationals (and other exact fields).

`rref` is the one Gauss-Jordan elimination, over any exact commutative
field: `fractions.Fraction`s, `orefield.factor.RationalFunction`s, or
central `SkewFraction`s.  It needs ``+ - * ==`` and integer powers of the
entries (``x ** -1`` the inverse, ``x ** 0`` the unit), and no pivoting
heuristics because the arithmetic is exact.  `nullspace`, `solve`,
`invert_matrix` and `rank` are built on it.  `solve_right_generic` solves
over the skew field of fractions of a twisted polynomial ring without
forming a fraction: fraction-free elimination on polynomial entries, whose
pivots are inverted through their norm conjugates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = list[Fraction]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form. Returns (reduced rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    one = _unit(mat)
    zero = one - one
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c] ** -1
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != zero:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _unit(rows: list[Row]):
    """The 1 of the entries' field; of the rationals for an empty matrix."""
    return rows[0][0] ** 0 if rows and rows[0] else Fraction(1)


def nullspace(rows: list[Row], ncols: int) -> list[tuple]:
    """Canonical basis of the right kernel of the matrix, over the field of
    its entries (the rationals when there are no rows).

    One basis vector per free column, ordered by free column index; the
    vector has 1 at its free column which makes the basis reproducible.
    """
    one = _unit(rows)
    zero = one - one
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows: list[Row], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of ``rows @ x = rhs`` or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> list[Row]:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            s = Fraction(0)
            for l in range(k):
                if ai[l]:
                    s += ai[l] * b[l][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(
        sum((ai[l] * v[l] for l in range(len(v)) if ai[l]), Fraction(0)) for ai in a
    )


def identity(n: int) -> list[Row]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def invert_matrix(a: list[Row]) -> list[Row] | None:
    """Inverse of a square rational matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    mat, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in mat[:n]]


def rank(rows: list[Row]) -> int:
    return len(rref(rows)[1]) if rows else 0


def solve_right_generic(rows: list[list], rhs: list):
    """Solve ``sum_j rows[i][j] * x_j = rhs[i]`` over the skew field of
    fractions of D[t], for entries that are twisted polynomials.

    Fraction-free elimination that multiplies rows on the left only, which
    is compatible with unknowns on the right of the coefficients (entries do
    not commute).  A pivot pi comes with its norm conjugate, q*pi = c(t^n)
    central, so an entry e below it is cleared by

        row <- c * row - (e*q) * (pivot row),

    and the row is then divided by its content: the gcd over Q[u] of its
    Z[u]-coordinates, and its rational content.  Back-substitution keeps the
    unknowns over one growing central denominator.  Returns (den, xs) with
    x_j = den(t^n)^-1 * xs[j], den in Z[u] primitive with a positive leading
    coefficient, or None when the system is singular or inconsistent.
    """
    from .factor import _mul
    from .skewpoly import SkewPolynomial, norm_conjugate, reduce_central, times_central

    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    ncols = len(rows[0])
    pivots = []
    for k in range(ncols):
        nonzero = [i for i in range(k, n) if not aug[i][k].is_zero()]
        if not nonzero:
            return None
        # the pivot of least degree keeps the norms small
        best = min(nonzero, key=lambda i: aug[i][k].degree)
        aug[k], aug[best] = aug[best], aug[k]
        pivot = aug[k]
        q, c = norm_conjugate(pivot[k])
        pivots.append((q, c))
        zero = SkewPolynomial.zero(pivot[k].field)
        for i in range(k + 1, n):
            row = aug[i]
            if row[k].is_zero():
                continue
            factor = row[k] * q
            aug[i] = _primitive_row(
                [zero] * (k + 1)
                + [times_central(a, c) - factor * b for a, b in zip(row[k + 1 :], pivot[k + 1 :])]
            )
    if any(not aug[i][ncols].is_zero() for i in range(ncols, n)):
        return None
    den = [1]
    xs: list = []
    for k in range(ncols - 1, -1, -1):
        q, c = pivots[k]
        row = aug[k]
        acc = times_central(row[ncols], den)
        for j, x in enumerate(xs, k + 1):
            acc = acc - row[j] * x
        # x_k = pi^-1 den^-1 acc = (c den)^-1 q acc, as den is central
        xs = [q * acc] + [times_central(x, c) for x in xs]
        den, xs = reduce_central(_mul(den, c), xs)
    return den, xs


def _primitive_row(row: list) -> list:
    """The row divided by its content over Q[u] and by its rational content."""
    from .skewpoly import central_content, divide_central, times_central

    g = central_content(row)
    if not g:
        return row
    if len(g) > 1:
        row = [divide_central(p, g) for p in row]
    parts = [p.int_rows() for p in row]
    num = gcd(*(x for rows, _ in parts for r in rows for x in r))
    den = lcm(*(d for _, d in parts))
    if num == den == 1:
        return row
    return [times_central(p, [den], num) for p in row]
