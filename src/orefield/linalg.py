"""Exact linear algebra.

`rref` is Gauss-Jordan elimination over the rationals (`fractions.Fraction`
entries), with no pivoting heuristics because the arithmetic is exact;
`nullspace`, `invert_matrix` and `rank` are built on it.

`eliminate` is the one elimination over the fraction field of a twisted
polynomial ring or of its center, and it forms no fraction: a fraction-free
forward pass over a ring given as a namespace of operations (the numerator
rings of `orefield.extend`), whose pivots are inverted through their norm
conjugates.  One back-substitution over a growing central denominator reads
its echelon form.  `ring_nullspace` runs it once per free column: the fixed
space of a group.  `solve_right_generic` runs it once, against the
right-hand side: the tests' reference for tensor inverses, which the package
computes through reduced norms (`extend.TensorElement.inv`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form. Returns (reduced rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace(rows: list[Row], ncols: int) -> list[tuple]:
    """Canonical basis of the right kernel of the rational matrix.

    One basis vector per free column, ordered by free column index; the
    vector has 1 at its free column which makes the basis reproducible.
    """
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


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


def solve_right_generic(ring, field, rows: list[list], rhs: list):
    """Solve ``sum_j rows[i][j] * x_j = rhs[i]`` over the fraction field of a
    ring of twisted polynomials or of its center (see `eliminate`): the
    tests' reference for tensor inverses.

    Returns (den, xs) with x_j = den(t^n)^-1 * xs[j], den in Z[u] primitive
    with a positive leading coefficient and no factor of den common to every
    xs[j], or None when the system is singular or inconsistent.
    """
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = eliminate(ring, field, mat, ncols)
    if len(pivots) < ncols or any(not ring.is_zero(row[ncols]) for row in mat[ncols:]):
        return None
    return _back_substitute(ring, mat, pivots, [row[ncols] for row in mat])


def ring_nullspace(ring, field, rows: list[list], ncols: int) -> list[tuple[list[int], list]]:
    """Canonical basis of the right kernel over the ring's fraction field,
    as `nullspace` orders and normalises it: one vector per free column fc,
    with x_fc = 1 and 0 at the other free columns.  Each vector comes as
    (den, vec) in lowest terms, with x_j = den(t^n)^-1 * vec[j]."""
    mat = [list(row) for row in rows]
    pivots = eliminate(ring, field, mat, ncols)
    cols = [k for k, _, _ in pivots]
    basis = []
    for fc in range(ncols):
        if fc in cols:
            continue
        # x_fc = 1 moves column fc to the right-hand side
        den, xs = _back_substitute(ring, mat, pivots, [ring.scale(row[fc], [-1]) for row in mat[: len(cols)]])
        vec = [ring.zero(field)] * ncols
        vec[fc] = ring.scale(ring.one(field), den)
        for k, x in zip(cols, xs):
            vec[k] = x
        basis.append((den, vec))
    return basis


def eliminate(ring, field, mat: list[list], ncols: int) -> list[tuple]:
    """Fraction-free forward elimination of the first ncols columns of mat,
    in place, over a ring of twisted polynomials or its center; returns the
    pivots (column, q, c), one per row of the echelon form.

    `ring` names the entries' operations: `zero`, `one`, `is_zero`,
    `degree`, `sub`, `mul`, `scale` (the product with c in Z[u]),
    `unit_multiple(p)`, (q, c) with q*p = c in Z[u] (E. H. Bareiss, Math.
    Comp. 22, 1968; M. Giesbrecht, J. Symbolic Comput. 26, 1998),
    `primitive(row)`, the row divided by its content, and, for the
    back-substitution, `reduce(den, xs)`, den(u)^-1 * xs in lowest terms.
    Rows are multiplied on the left only, which keeps unknowns on the right
    of noncommuting entries, and an entry e below the pivot p is cleared by

        row <- c * row - (e*q) * (pivot row),

    after which the row is divided by its content.  The pivot is the entry of
    least degree in its column, which keeps the norms small.
    """
    zero = ring.zero(field)
    pivots = []
    for k in range(ncols):
        r = len(pivots)
        nonzero = [i for i in range(r, len(mat)) if not ring.is_zero(mat[i][k])]
        if not nonzero:
            continue
        best = min(nonzero, key=lambda i: ring.degree(mat[i][k]))
        mat[r], mat[best] = mat[best], mat[r]
        pivot = mat[r]
        q, c = ring.unit_multiple(pivot[k])
        pivots.append((k, q, c))
        for i in range(r + 1, len(mat)):
            row = mat[i]
            if ring.is_zero(row[k]):
                continue
            factor = ring.mul(row[k], q)
            mat[i] = ring.primitive(
                [zero] * (k + 1)
                + [ring.sub(ring.scale(a, c), ring.mul(factor, b)) for a, b in zip(row[k + 1 :], pivot[k + 1 :])]
            )
    return pivots


def _back_substitute(ring, mat: list[list], pivots: list[tuple], rhs: list) -> tuple[list[int], list]:
    """The unknowns of the pivot columns of the echelon form, with rhs[r] on
    the right of row r and the other unknowns 0, over one growing central
    denominator: (den, xs), x_(pivot r) = den(t^n)^-1 * xs[r]."""
    from .factor import _mul

    den = [1]
    xs: list = []
    for r in range(len(pivots) - 1, -1, -1):
        _, q, c = pivots[r]
        row = mat[r]
        acc = ring.scale(rhs[r], den)
        for (j, _, _), x in zip(pivots[r + 1 :], xs):
            acc = ring.sub(acc, ring.mul(row[j], x))
        # x = p^-1 den^-1 acc = (c den)^-1 q acc, as den is central
        xs = [ring.mul(q, acc)] + [ring.scale(x, c) for x in xs]
        den, xs = ring.reduce(_mul(den, c), xs)
    return den, xs
