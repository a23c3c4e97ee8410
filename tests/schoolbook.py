"""Schoolbook reference routines: the test oracle for the integer-row kernels.

These are the straightforward `Fraction` implementations the package used
before its arithmetic moved onto integer rows (see `orefield.kernel`).  They
work coefficient by coefficient on `Fraction` coordinate tuples and call
nothing of the package's own arithmetic, so a kernel test compares two
independent computations.  The ground routines include the multiplication
matrices, and the center, invariant and splitting bases built on them, that
`GroundField` computed from `Fraction` products before it read them from
its integer kernel.  The fraction routines are the reduction,
inversion and Ore-condition equality that `SkewFraction` ran before it
worked on its canonical form alone.  The center routines are the
commutation test and the per-degree nullspace search that `orefield` ran
before it recognised the center by the rows of a canonical form alone.  The
Bareiss norm conjugate (adjugate of left multiplication, eliminated over
Z[u]) is what
`skewpoly.norm_conjugate` ran for fields without a closed form before it
moved to Cayley-Hamilton on reduced traces.  The central polynomial
routines are the `SkewFraction`-coefficient arithmetic of `orefield.extend`
before its central polynomials moved to numerators over one Z[u]
denominator.  The tensor routines are the `SkewFraction`-coordinate
arithmetic of `TensorElement` before it moved to one central denominator,
with the Gauss-Jordan solve it inverted by, on rows x^p and q_g^i modulo f
that the central polynomial routines compute, and the fixed space as the
kernel of the q_g^i rows by Gauss-Jordan on their central `SkewFraction`
entries: the field-generic elimination `orefield.linalg` ran before fixed
spaces moved to fraction-free rows over the center's numerator ring.
`elimination_inverse` is the fraction-free d x d elimination over the
twisted polynomials (`POLYNOMIALS`, the ring that also held the center's
numerators when the invariant subfield is not Q, before they moved to
`kernel.center`) that `TensorElement.inv` ran before it inverted through
reduced norms; unlike the rest, it calls the package's own elimination.
The integer-row loops are the `kernel.mul_rows` and the product by a
central c(t^n) that products ran before they accumulated into given rows and
columns; they read the field's compiled integer kernel.
`quotient` is the per-term recurrence that `laurent._quotient` ran before
it kept a window over one running lcm.
`ext_tau` is the coordinate-wise evaluation at the series root, one
embedded fraction per coordinate, that `orefield.extend.ext_tau` ran before
it divided once by the central denominator.  The
certificates at the end are the sympy factorizations that `orefield.extend`
and `orefield.tower` ran before `orefield.factor`.  Nothing outside the
tests imports this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from types import SimpleNamespace

from orefield import kernel, linalg
from orefield.errors import (
    DivisionByZero,
    InsufficientPrecision,
    MixedFields,
    NoResidualRoot,
    NotInvariantSeries,
    NotInvertible,
    NotSimpleRoot,
    ScenarioValidationError,
    SingularElement,
    ZeroSeries,
)
from orefield.laurent import TwistedSeries
from orefield.sampling import random_fraction
from orefield.skewfrac import SkewFraction
from orefield.skewpoly import SkewPolynomial, central_polynomial, norm_conjugate


# -- Gauss-Jordan over any exact field ------------------------------------------
#
# The elimination `orefield.linalg` ran over every exact commutative field
# before the center's eliminations moved to fraction-free rows: it needs
# ``+ - * ==`` and integer powers of the entries (``x ** -1`` the inverse,
# ``x ** 0`` the unit), so it runs on `Fraction`s and on central
# `SkewFraction`s alike.


def _field_unit(rows):
    """The 1 of the entries' field; of the rationals for an empty matrix."""
    return rows[0][0] ** 0 if rows and rows[0] else Fraction(1)


def rref(rows):
    """Reduced row echelon form: (reduced rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots = []
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    one = _field_unit(mat)
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


def nullspace(rows, ncols):
    """Canonical basis of the right kernel, one vector per free column with
    1 there and 0 at the other free columns."""
    one = _field_unit(rows)
    zero = one - one
    mat, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One solution of ``rows @ x = rhs`` with the free variables 0, or None
    if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x


# -- ground fields ------------------------------------------------------------


def _unit(n, j):
    return tuple(Fraction(int(i == j)) for i in range(n))


def _reduction_rows(poly):
    """Coordinates of y^m mod p for m = d .. 2d-2."""
    d = len(poly) - 1
    rows = []
    cur = [-poly[m] for m in range(d)]
    rows.append(tuple(cur))
    for _ in range(d - 2):
        nxt = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            for m in range(d):
                nxt[m] += top * rows[0][m]
        cur = nxt
        rows.append(tuple(cur))
    return rows


def _base_mul(field, a, b):
    d = field.base_dim
    if d == 1:
        return [a[0] * b[0]]
    red = _reduction_rows(field.base_poly)
    conv = [Fraction(0)] * (2 * d - 1)
    for m, am in enumerate(a):
        if am:
            for l, bl in enumerate(b):
                if bl:
                    conv[m + l] += am * bl
    out = conv[:d]
    for m in range(d, 2 * d - 1):
        top = conv[m]
        if top:
            row = red[m - d]
            for r in range(d):
                if row[r]:
                    out[r] += top * row[r]
    return out


def _base_inv(field, a):
    d = field.base_dim
    if d == 1:
        if a[0] == 0:
            raise DivisionByZero(f"inversion of zero in {field.name}")
        return (Fraction(1) / a[0],)
    cols = [_base_mul(field, a, _unit(d, j)) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    sol = solve(rows, list(_unit(d, 0)))
    if sol is None:
        raise DivisionByZero(f"inversion of zero divisor in {field.name}")
    return tuple(sol)


def mul_coords(field, a, b):
    if field.kind != "quaternions":
        return tuple(_base_mul(field, a, b))
    d = field.base_dim
    a0, a1, a2, a3 = (a[k * d : (k + 1) * d] for k in range(4))
    b0, b1, b2, b3 = (b[k * d : (k + 1) * d] for k in range(4))
    alpha, beta = field.alpha, field.beta
    ab = _base_mul(field, alpha, beta)

    def mul(x, y):
        return _base_mul(field, x, y)

    def madd(*terms):
        out = [Fraction(0)] * d
        for sign, t in terms:
            for r in range(d):
                out[r] = out[r] + t[r] if sign > 0 else out[r] - t[r]
        return out

    c0 = madd(
        (1, mul(a0, b0)),
        (1, mul(alpha, mul(a1, b1))),
        (1, mul(beta, mul(a2, b2))),
        (-1, mul(ab, mul(a3, b3))),
    )
    c1 = madd(
        (1, mul(a0, b1)),
        (1, mul(a1, b0)),
        (-1, mul(beta, mul(a2, b3))),
        (1, mul(beta, mul(a3, b2))),
    )
    c2 = madd(
        (1, mul(a0, b2)),
        (1, mul(a2, b0)),
        (1, mul(alpha, mul(a1, b3))),
        (-1, mul(alpha, mul(a3, b1))),
    )
    c3 = madd((1, mul(a0, b3)), (1, mul(a3, b0)), (1, mul(a1, b2)), (-1, mul(a2, b1)))
    return tuple(c0 + c1 + c2 + c3)


def mult_matrices(field, e):
    """Matrices of left and right multiplication by e, from the Fraction
    products with the unit vectors."""
    left, right = [], []
    for j in range(field.dim):
        u = _unit(field.dim, j)
        left.append(mul_coords(field, e, u))
        right.append(mul_coords(field, u, e))
    lm = [[left[j][i] for j in range(field.dim)] for i in range(field.dim)]
    rm = [[right[j][i] for j in range(field.dim)] for i in range(field.dim)]
    return lm, rm


def _commutator_rows(field):
    rows = []
    for m in range(field.dim):
        lm, rm = mult_matrices(field, _unit(field.dim, m))
        for i in range(field.dim):
            rows.append([lm[i][j] - rm[i][j] for j in range(field.dim)])
    return rows


def center_basis(field):
    if field.kind != "quaternions":
        return tuple(_unit(field.dim, j) for j in range(field.dim))
    return tuple(linalg.nullspace(_commutator_rows(field), field.dim))


def invariant_basis(field):
    if field.sigma_is_identity:
        return center_basis(field)
    rows = _commutator_rows(field) if field.kind == "quaternions" else []
    ident = linalg.identity(field.dim)
    for i in range(field.dim):
        rows.append([field.sigma_matrix[i][j] - ident[i][j] for j in range(field.dim)])
    return tuple(linalg.nullspace(rows, field.dim))


def h_basis(field):
    """Greedy basis of the field over its invariant subfield."""
    chosen, span_rows, rank = [], [], 0
    for m in range(field.dim):
        e = _unit(field.dim, m)
        candidate = span_rows + [list(mul_coords(field, b, e)) for b in invariant_basis(field)]
        new_rank = linalg.rank(candidate)
        if new_rank > rank:
            chosen.append(field.element(e))
            span_rows, rank = candidate, new_rank
        if rank == field.dim:
            break
    return tuple(chosen)


def inv_coords(field, a):
    if all(x == 0 for x in a):
        raise DivisionByZero(f"inversion of zero in {field.name}")
    if field.kind == "rationals":
        return (Fraction(1) / a[0],)
    if field.kind == "number-field":
        return _base_inv(field, a)
    d = field.base_dim
    a0, a1, a2, a3 = (list(a[k * d : (k + 1) * d]) for k in range(4))
    alpha, beta = field.alpha, field.beta
    ab = _base_mul(field, alpha, beta)

    def mul(x, y):
        return _base_mul(field, x, y)

    norm = [
        w - x - y + z
        for w, x, y, z in zip(
            mul(a0, a0),
            mul(alpha, mul(a1, a1)),
            mul(beta, mul(a2, a2)),
            mul(ab, mul(a3, a3)),
        )
    ]
    if all(x == 0 for x in norm):
        raise NotInvertible(f"nonzero element with zero norm in {field.name}")
    ninv = _base_inv(field, tuple(norm))
    conj = a0 + [-x for x in a1] + [-x for x in a2] + [-x for x in a3]
    out = []
    for blk in range(4):
        out += mul(conj[blk * d : (blk + 1) * d], ninv)
    return tuple(out)


def sigma_coords(field, a, power=1):
    k = power % field.sigma_order
    if k == 0:
        return tuple(a)
    return linalg.mat_vec(field._sigma_pows[k], a)


# -- coordinate helpers -----------------------------------------------------


def _is_zero(a):
    return all(x == 0 for x in a)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _coords(p):
    return [c.coords for c in p.coeffs]


def _poly(field, coords):
    return SkewPolynomial.from_coeffs(field, [field.element(c) for c in coords])


def _check(f, g):
    if f.field is not g.field and f.field != g.field:
        raise MixedFields(f"cannot mix elements of {f.field.name} and {g.field.name}")


# -- twisted polynomials ----------------------------------------------------


def poly_mul(f, g):
    _check(f, g)
    field = f.field
    fc, gc = _coords(f), _coords(g)
    if not fc or not gc:
        return SkewPolynomial.zero(field)
    out = [field.zero().coords] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] = _add(out[i + j], mul_coords(field, a, sigma_coords(field, b, i)))
    return _poly(field, out)


def divmod_right(f, g):
    """(q, r) with f = q*g + r and deg r < deg g."""
    _check(f, g)
    field = f.field
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    gc = _coords(g)
    dg = len(gc) - 1
    rem = _coords(f)
    q = [field.zero().coords] * max(len(rem) - dg, 0)
    while rem and len(rem) - 1 >= dg:
        m = len(rem) - 1 - dg
        c = mul_coords(field, rem[-1], inv_coords(field, sigma_coords(field, gc[-1], m)))
        q[m] = c
        for j in range(dg + 1):
            rem[m + j] = _sub(rem[m + j], mul_coords(field, c, sigma_coords(field, gc[j], m)))
        while rem and _is_zero(rem[-1]):
            rem.pop()
    return _poly(field, q), _poly(field, rem)


def divmod_left(f, g):
    """(q, r) with f = g*q + r and deg r < deg g."""
    _check(f, g)
    field = f.field
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    gc = _coords(g)
    dg = len(gc) - 1
    ginv = inv_coords(field, gc[-1])
    rem = _coords(f)
    q = [field.zero().coords] * max(len(rem) - dg, 0)
    while rem and len(rem) - 1 >= dg:
        m = len(rem) - 1 - dg
        c = sigma_coords(field, mul_coords(field, ginv, rem[-1]), -dg)
        q[m] = c
        for j in range(dg + 1):
            rem[m + j] = _sub(rem[m + j], mul_coords(field, gc[j], sigma_coords(field, c, j)))
        while rem and _is_zero(rem[-1]):
            rem.pop()
    return _poly(field, q), _poly(field, rem)


def _scale_left(p, c):
    field = p.field
    return _poly(field, [mul_coords(field, c, a) for a in _coords(p)])


def _scale_right(p, c):
    field = p.field
    return _poly(
        field, [mul_coords(field, a, sigma_coords(field, c, i)) for i, a in enumerate(_coords(p))]
    )


def _right_unit(p):
    return sigma_coords(p.field, inv_coords(p.field, _coords(p)[-1]), -p.degree)


def _monic_right(p):
    return _scale_right(p, _right_unit(p))


def _constant(field, c):
    return _poly(field, [c])


def gcld(f, g):
    """Monic greatest common left divisor by the monic remainder loop."""
    if f.is_zero() and g.is_zero():
        raise DivisionByZero("gcld(0, 0) is undefined")
    a, b = f, g
    if not a.is_zero():
        a = _monic_right(a)
    if not b.is_zero():
        b = _monic_right(b)
    while not b.is_zero():
        r = divmod_left(a, b)[1]
        a, b = b, (r if r.is_zero() else _monic_right(r))
    return _monic_right(a)


def ore_witness(a, b):
    """(a1, b1) with a*b1 = b*a1, b1 monic and of least degree."""
    _check(a, b)
    field = a.field
    if b.is_zero():
        raise DivisionByZero("ore witness needs b != 0")
    if a.is_zero():
        return SkewPolynomial.zero(field), SkewPolynomial.one(field)
    if b.degree == 0:
        return _scale_left(a, inv_coords(field, _coords(b)[-1])), SkewPolynomial.one(field)
    zero = SkewPolynomial.zero(field)
    c0, c1 = _right_unit(a), _right_unit(b)
    r_prev, r_cur = _scale_right(a, c0), _scale_right(b, c1)
    u_prev, u_cur = _constant(field, c0), zero
    v_prev, v_cur = zero, _constant(field, c1)
    while not r_cur.is_zero():
        q, r_next = divmod_left(r_prev, r_cur)
        u_next = u_prev - poly_mul(u_cur, q)
        v_next = v_prev - poly_mul(v_cur, q)
        if not r_next.is_zero():
            c = _right_unit(r_next)
            r_next, u_next, v_next = (_scale_right(p, c) for p in (r_next, u_next, v_next))
        r_prev, r_cur = r_cur, r_next
        u_prev, u_cur = u_cur, u_next
        v_prev, v_cur = v_cur, v_next
    b1, a1 = u_cur, -v_cur
    u = _right_unit(b1)
    return _scale_right(a1, u), _scale_right(b1, u)


def common_left_multiple(a, b):
    """(u, v) with u*a = v*b, u monic and of least degree."""
    _check(a, b)
    field = a.field
    if a.is_zero() or b.is_zero():
        raise DivisionByZero("common left multiple needs nonzero inputs")
    zero = SkewPolynomial.zero(field)
    c0 = inv_coords(field, _coords(a)[-1])
    c1 = inv_coords(field, _coords(b)[-1])
    r_prev, r_cur = _scale_left(a, c0), _scale_left(b, c1)
    u_prev, u_cur = _constant(field, c0), zero
    v_prev, v_cur = zero, _constant(field, c1)
    while not r_cur.is_zero():
        q, r_next = divmod_right(r_prev, r_cur)
        u_next = u_prev - poly_mul(q, u_cur)
        v_next = v_prev - poly_mul(q, v_cur)
        if not r_next.is_zero():
            c = inv_coords(field, _coords(r_next)[-1])
            r_next, u_next, v_next = (_scale_left(p, c) for p in (r_next, u_next, v_next))
        r_prev, r_cur = r_cur, r_next
        u_prev, u_cur = u_cur, u_next
        v_prev, v_cur = v_cur, v_next
    u, v = u_cur, -v_cur
    c = inv_coords(field, _coords(u)[-1])
    return _scale_left(u, c), _scale_left(v, c)


# -- integer-row loops ------------------------------------------------------------
#
# The loops on integer rows (see `orefield.kernel`) that products ran before
# the tensor arithmetic moved onto integer accumulators: `mul_rows` built
# its own output, and the product by c(t^n) added one tuple per nonzero
# coefficient of c and nonzero row.  Unlike the rest of this module they
# read the field's compiled kernel (`kmac`, `ksig`), the oracle for the
# accumulating and coordinate-major routines that replaced them.


def mul_rows(field, f, g):
    """s*dT * (f*g) on integer rows."""
    if not f or not g:
        return []
    n = field.sigma_order
    kmac, zero = field.kmac, field.zero_row
    twisted = [list(map(sig, g)) for sig in field.ksig[: min(n, len(f))]]
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(twisted[i % n]):
            out[i + j] = kmac(out[i + j], a, b)
    return out


def times_central_rows(field, rows, c):
    """The rows of p * c(t^n) for the rows of p and c in Z[u]."""
    n, zero = field.sigma_order, field.zero_row
    out = [zero] * (len(rows) + (len(c) - 1) * n) if rows and c else []
    for k, a in enumerate(c):
        if not a:
            continue
        for m, row in enumerate(rows):
            if row != zero:
                o = out[m + k * n]
                out[m + k * n] = tuple([x + a * y for x, y in zip(o, row)])
    return out


# -- norm conjugates by elimination --------------------------------------------


def _zu_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zu_mul(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _zu_sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for k, b in enumerate(g):
        out[k] -= b
    return _zu_trim(out)


def _zu_divexact(f, g):
    r, q = list(f), [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + len(g) - 1], g[-1])
        assert not rem, "inexact division in Z[u]"
        q[k] = c
        for j, b in enumerate(g):
            r[k + j] -= c * b
    assert not any(r), "inexact division in Z[u]"
    return _zu_trim(q)


def solve_fraction_free(mat, rhs):
    """(x, D) with  mat @ x = D * rhs  over Z[u], D = +-det(mat).

    Bareiss elimination (E. Bareiss, Math. Comp. 22, 1968): every division
    is exact, so the entries stay minors of the input.  D is [] (and x
    meaningless) for a singular matrix.
    """
    n = len(mat)
    aug = [list(row) + [v] for row, v in zip(mat, rhs)]
    prev = [1]
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            return [[] for _ in range(n)], []
        aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, n):
            a = aug[i][k]
            for j in range(k + 1, n + 1):
                aug[i][j] = _zu_divexact(_zu_sub(_zu_mul(aug[i][j], pivot), _zu_mul(a, aug[k][j])), prev)
            aug[i][k] = []
        prev = pivot
    det = aug[n - 1][n - 1]
    x = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        acc = _zu_mul(det, aug[i][n])
        for j in range(i + 1, n):
            acc = _zu_sub(acc, _zu_mul(aug[i][j], x[j]))
        x[i] = _zu_divexact(acc, aug[i][i])
    return x, det


def bareiss_norm_conjugate(p):
    """(q, c) with  q*p = c(t^n),  c in Z[u]: q is the adjugate column of
    y -> p*y on D[t] as a free Z[u]-module with basis e_l t^r (l < dim,
    r < n), and c is the full norm, not cut to p's minimal central
    multiple.  Raises NotInvertible when that norm is zero."""
    field = p.field
    n, dim = field.sigma_order, field.dim
    size = n * dim
    # the images p * e_l t^r, their coordinates over a common denominator
    images = []
    for r in range(n):
        for l in range(dim):
            unit = _poly(field, [field.zero().coords] * r + [_unit(dim, l)])
            images.append(_coords(poly_mul(p, unit)))
    den = 1
    for image in images:
        for a in image:
            for x in a:
                den = lcm(den, x.denominator)
    mat = [[[] for _ in range(size)] for _ in range(size)]
    for col, image in enumerate(images):
        for m, a in enumerate(image):
            k, rr = divmod(m, n)
            for ll, x in enumerate(a):
                if x:
                    entry = mat[rr * dim + ll][col]
                    entry.extend([0] * (k + 1 - len(entry)))
                    entry[k] = int(x * den)
    y, det = solve_fraction_free(mat, [[1]] + [[] for _ in range(size - 1)])
    if not det:
        raise NotInvertible(f"nonzero polynomial with zero norm in {field.name}")
    coords = [[Fraction(0)] * dim for _ in range(n * max(len(v) for v in y))]
    for r in range(n):
        for l in range(dim):
            for k, a in enumerate(y[r * dim + l]):
                coords[k * n + r][l] = Fraction(a)
    q = _poly(field, coords)
    # (den p) * q = det, so q * p = det / den as well (a domain)
    prod = _coords(poly_mul(q, p))
    scale = 1
    for a in prod:
        for x in a:
            scale = lcm(scale, x.denominator)
    c = [int(prod[k][0] * scale) for k in range(0, len(prod), n)]
    return _poly(field, [tuple(scale * x for x in a) for a in _coords(q)]), c


# -- left fractions ------------------------------------------------------------


def fraction_make(num, den):
    """The canonical den^-1 * num: cancel the monic gcld, then scale both
    parts on the left by the inverse of den's leading coefficient."""
    _check(num, den)
    field = den.field
    if den.is_zero():
        raise DivisionByZero("fraction with zero denominator")
    if num.is_zero():
        return SkewFraction(SkewPolynomial.one(field), SkewPolynomial.zero(field))
    d = gcld(den, num)
    if d.degree > 0:
        den, num = divmod_left(den, d)[0], divmod_left(num, d)[0]
    c = inv_coords(field, _coords(den)[-1])
    return SkewFraction(_scale_left(den, c), _scale_left(num, c))


def fraction_inv(x):
    """num^-1 * den, reduced again from scratch."""
    if x.is_zero():
        raise DivisionByZero("inversion of the zero fraction")
    return fraction_make(x.den, x.num)


def fraction_eq(x, y):
    """Equality by the Ore condition: find a common left multiple
    u*den_x = v*den_y and compare u*num_x against v*num_y."""
    _check(x.den, y.den)
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    u, v = common_left_multiple(x.den, y.den)
    return _coords(poly_mul(u, x.num)) == _coords(poly_mul(v, y.num))


# -- the center -----------------------------------------------------------------


def is_central(x, trials=0, rng=None):
    """Whether x commutes with t and with every unit of the ground field,
    compared by the Ore condition; `trials` random fractions re-check the
    same fact through independent witnesses."""
    field = x.field
    others = [SkewFraction.t_power(field)]
    others += [SkewFraction.from_ground(field.element(_unit(field.dim, j))) for j in range(field.dim)]
    rng = rng or random.Random(0)
    others += [random_fraction(field, rng, max_degree=2) for _ in range(trials)]
    return all(fraction_eq(x * y, y * x) for y in others)


def center_by_commutation(field, max_degree):
    """Basis of the polynomial part of the center up to `max_degree`,
    searched degree by degree: w*t^m is central exactly when sigma(w) = w
    and w*sigma^m(e) = e*w for every unit e, one nullspace per degree."""
    dim = field.dim
    ident = linalg.identity(dim)
    basis = []
    for m in range(max_degree + 1):
        rows = [[field.sigma_matrix[r][c] - ident[r][c] for c in range(dim)] for r in range(dim)]
        for j in range(dim):
            e = _unit(dim, j)
            lm, _ = mult_matrices(field, e)
            _, rm = mult_matrices(field, sigma_coords(field, e, m))
            rows.extend([rm[r][c] - lm[r][c] for c in range(dim)] for r in range(dim))
        for w in linalg.nullspace(rows, dim):
            basis.append(SkewPolynomial.from_coeffs(field, [field.zero()] * m + [field.element(w)]))
    return basis


# -- central polynomials ------------------------------------------------------
#
# The arithmetic `CentralPolynomial` ran before it moved to numerators over
# one Z[u] denominator: x is central, so these are the commutative
# schoolbook routines on tuples of central `SkewFraction`s (ascending in x,
# no trailing zeros), with every coefficient operation on the Ore path.


def central_trim(coeffs):
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    return coeffs


def central_add(field, a, b):
    zero = SkewFraction.zero(field)
    return central_trim(x + y for x, y in zip_longest(a, b, fillvalue=zero))


def central_mul(field, a, b):
    if not a or not b:
        return ()
    out = [SkewFraction.zero(field)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return central_trim(out)


def central_divmod(field, f, g):
    """(q, r) with f = q*g + r and deg r < deg g."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    lead_inv = g[-1].inv()
    rem = list(f)
    quo = [SkewFraction.zero(field)] * max(len(rem) - len(g) + 1, 0)
    while len(rem) >= len(g) and rem:
        if rem[-1].is_zero():
            rem.pop()
            continue
        shift = len(rem) - len(g)
        c = rem[-1] * lead_inv
        quo[shift] = c
        for j, b in enumerate(g):
            rem[shift + j] = rem[shift + j] - c * b
        rem.pop()
    return central_trim(quo), central_trim(rem)


def central_compose(field, f, g):
    """f(g(x)) by Horner."""
    acc = ()
    for c in reversed(f):
        acc = central_add(field, central_mul(field, acc, g), (c,))
    return acc


# -- tensor elements ----------------------------------------------------------
#
# The arithmetic `TensorElement` ran before it moved to one central
# denominator: coordinate vectors of `SkewFraction`s over the rows x^p and
# q_g^i modulo f, every product and sum reduced on the Ore path, and inversion
# by Gauss-Jordan elimination over the skew field.  The rows come from the
# central polynomial routines above, on the scenario's input coefficients
# (f and the generator images), not from its `PowerRows`.


def padded(scenario, coeffs):
    """A remainder modulo f as its deg f coordinates."""
    return coeffs + (SkewFraction.zero(scenario.field),) * (scenario.degree - len(coeffs))


@lru_cache(maxsize=None)
def _x_power(scenario, p):
    """x^p modulo f, as a `central_divmod` remainder of x times x^(p-1)."""
    field = scenario.field
    if p == 0:
        return central_divmod(field, (SkewFraction.one(field),), scenario.f.coeffs)[1]
    shifted = (SkewFraction.zero(field),) + _x_power(scenario, p - 1)
    return central_divmod(field, central_trim(shifted), scenario.f.coeffs)[1]


def reduction_row(scenario, p):
    """The coordinates of x^p modulo f, as `SkewFraction`s."""
    return padded(scenario, _x_power(scenario, p))


@lru_cache(maxsize=None)
def images(scenario):
    """q_g modulo f for every group element: the generator images reduced
    by f, closed under q_(g*s) = q_s(q_g) modulo f."""
    field, f, group = scenario.field, scenario.f.coeffs, scenario.group
    out = {group.identity: central_divmod(field, (SkewFraction.zero(field), SkewFraction.one(field)), f)[1]}
    for s, q in scenario.generator_images.items():
        out[s] = central_divmod(field, q.coeffs, f)[1]
    queue = list(out)
    for g in queue:
        for s in scenario.generator_images:
            h = group.op(g, s)
            if h not in out:
                out[h] = central_divmod(field, central_compose(field, out[s], out[g]), f)[1]
                queue.append(h)
    return out


@lru_cache(maxsize=None)
def matrix(scenario, g):
    """Row i = the coordinates of q_g(x)^i modulo f, as `SkewFraction`s."""
    field, f, q = scenario.field, scenario.f.coeffs, images(scenario)[g]
    power = central_divmod(field, (SkewFraction.one(field),), f)[1]
    rows = []
    for _ in range(scenario.degree):
        rows.append(padded(scenario, power))
        power = central_divmod(field, central_mul(field, power, q), f)[1]
    return tuple(rows)


def tensor_make(scenario, values):
    """The coordinates of sum_p values[p] x^p modulo f."""
    field = scenario.field
    d = scenario.degree
    out = [SkewFraction.zero(field)] * d
    for p, c in enumerate(SkewFraction.coerce(field, v) for v in values):
        if c.is_zero():
            continue
        row = reduction_row(scenario, p)
        for m in range(d):
            if not row[m].is_zero():
                out[m] = out[m] + c * row[m]
    return tuple(out)


def tensor_mul(scenario, a, b):
    field = scenario.field
    d = scenario.degree
    conv = [SkewFraction.zero(field)] * (2 * d - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                conv[i + j] = conv[i + j] + x * y
    out = [SkewFraction.zero(field)] * d
    for p, c in enumerate(conv):
        if c.is_zero():
            continue
        row = reduction_row(scenario, p)
        for m in range(d):
            if not row[m].is_zero():
                out[m] = out[m] + c * row[m]
    return tuple(out)


def tensor_inv(scenario, a):
    """Solves  sum_j (sum_i a_i R^(i+j)) b_j = 1  for the b_j on the right."""
    if all(c.is_zero() for c in a):
        raise SingularElement("inversion of zero")
    field = scenario.field
    d = scenario.degree
    zero = SkewFraction.zero(field)
    rows = []
    for m in range(d):
        row = []
        for j in range(d):
            entry = zero
            for i, x in enumerate(a):
                if x.is_zero():
                    continue
                r = reduction_row(scenario, i + j)[m]
                if not r.is_zero():
                    entry = entry + x * r
            row.append(entry)
        rows.append(row)
    sol = solve_right_generic(rows, [SkewFraction.one(field)] + [zero] * (d - 1))
    if sol is None:
        raise SingularElement(f"element of {scenario.name} is not invertible")
    return tuple(sol)


def twisted_table(rows, count):
    """(C, T) with  q^k = C(t^n)^-1 * sum_m T[k][m] x^m  modulo f for at
    least k < count: `PowerRows.table` with each entry a(u) of K'[u] written
    as the twisted polynomial a(t^n)."""
    from orefield.extend import _twisted

    c, table = rows.table(count)
    field = rows.f.field
    return c, [tuple(_twisted(field, a) for a in row) for row in table]


def elimination_inverse(element):
    """The inverse `TensorElement.inv` computed before it moved to reduced
    norms, as a `TensorElement`.

    For element = c^-1 * sum_i P_i x^i and the table x^p = C^-1 T_p, the
    inverse sum_j y_j x^j solves  sum_j (sum_i P_i T'_(i+j)) y_j = c*C e_0
    with T'_p = C e_p for p < d; the unknowns y_j sit on the right of the
    known coefficients, which `linalg.solve_right_generic` eliminates
    fraction-free over the twisted polynomials (`POLYNOMIALS`).  A singular
    system means a zero divisor (f reducible) or zero.
    """
    from orefield.extend import TensorElement
    from orefield.kernel import zmul

    if element.is_zero():
        raise SingularElement("inversion of zero")
    scenario = element.scenario
    d = scenario.degree
    zero = SkewPolynomial.zero(scenario.field)
    c, table = twisted_table(scenario.reduction, 2 * d - 1)
    rows = [[zero] * d for _ in range(d)]
    for i, p in enumerate(element.rows):
        a = SkewPolynomial._from_rows(scenario.field, p, element.over)
        if a.is_zero():
            continue
        scaled = POLYNOMIALS.scale(a, c)
        for j in range(d):
            if i + j < d:
                rows[i + j][j] = rows[i + j][j] + scaled
                continue
            for m, entry in enumerate(table[i + j]):
                if not entry.is_zero():
                    rows[m][j] = rows[m][j] + entry * a
    rhs = [central_polynomial(scenario.field, zmul(list(element.den), c))] + [zero] * (d - 1)
    sol = linalg.solve_right_generic(POLYNOMIALS, scenario.field, rows, rhs)
    if sol is None:
        raise SingularElement(f"element of {scenario.name} is not invertible")
    # the solution is in lowest terms, and its rows over their common
    # denominator have no integer content left
    den, xs = sol
    return TensorElement._raw(scenario, den, *kernel.over_common([x.int_rows() for x in xs]))


def reduce_central(den, polys):
    """den(t^n)^-1 * polys in lowest terms, as twisted polynomials:
    `kernel.reduce_central` on their rows over one denominator."""
    field = polys[0].field
    den, rows, over = kernel.reduce_central(field, den, *kernel.over_common([p.int_rows() for p in polys]))
    return den, [SkewPolynomial._from_rows(field, r, over) for r in rows]


def primitive_row(row):
    """The twisted polynomials divided by their content over Q[u] (the
    `kernel.central_divisor` of their Z[u]-coordinates) and by their
    rational content."""
    field = row[0].field
    n, zero = field.sigma_order, field.zero_row
    rows = [kernel.strip(list(r), zero) for r in kernel.over_common([p.int_rows() for p in row])[0]]
    g = kernel.central_divisor([], (c for p in rows for r in range(n) for c in zip(*p[r::n]) if any(c)))
    if len(g) > 1:
        rows = [kernel._divide_central(field, p, g) for p in rows]
    c = kernel.content(*rows)
    return [SkewPolynomial._from_rows(field, kernel.divide(r, c) if c > 1 else r, 1) for r in rows]


# the twisted polynomials as a ring for `linalg.eliminate`
POLYNOMIALS = SimpleNamespace(
    zero=SkewPolynomial.zero,
    one=SkewPolynomial.one,
    is_zero=SkewPolynomial.is_zero,
    degree=lambda a: a.degree,
    add=SkewPolynomial.__add__,
    sub=SkewPolynomial.__sub__,
    mul=SkewPolynomial.__mul__,
    scale=lambda p, c: p * central_polynomial(p.field, c),
    unit_multiple=norm_conjugate,
    primitive=primitive_row,
    reduce=reduce_central,
)


def tensor_apply(scenario, a, g):
    M = matrix(scenario, g)
    d = scenario.degree
    out = [SkewFraction.zero(scenario.field)] * d
    for i, v in enumerate(a):
        if v.is_zero():
            continue
        for m in range(d):
            if not M[i][m].is_zero():
                out[m] = out[m] + v * M[i][m]
    return tuple(out)


def fixed_space(scenario, names):
    """The kernel of the M_g - 1 over the center, by Gauss-Jordan on the
    `SkewFraction` entries of `matrix`."""
    field, d = scenario.field, scenario.degree
    one = SkewFraction.one(field)
    rows = []
    for g in names:
        if g == scenario.group.identity:
            continue
        M = matrix(scenario, g)
        for m in range(d):
            rows.append([M[i][m] - one if i == m else M[i][m] for i in range(d)])
    if not rows:
        zero = SkewFraction.zero(field)
        return [[one if i == j else zero for i in range(d)] for j in range(d)]
    return [list(vec) for vec in nullspace(rows, d)]


def tensor_str(coords):
    parts = []
    for i, c in enumerate(coords):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(f"({c})")
        elif i == 1:
            parts.append(f"({c})*x")
        else:
            parts.append(f"({c})*x^{i}")
    return " + ".join(parts) if parts else "0"


def solve_right_generic(rows, rhs):
    """Solve ``sum_j rows[i][j] * x_j = rhs[i]`` over a skew field by
    Gauss-Jordan elimination; row operations multiply on the left only.
    Returns the solution list or None when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, n) if not aug[i][c].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pinv = aug[r][c].inv()
        aug[r] = [pinv * v for v in aug[r]]
        for i in range(n):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    if len(pivots) < ncols:
        return None
    for i in range(len(pivots), n):
        if not aug[i][ncols].is_zero():
            return None
    x = [None] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = aug[i][ncols]
    return x


# -- twisted Laurent series -------------------------------------------------


def quotient(d, num, size):
    """(X, E) with  sum_j X_j/E u^j = num/d  mod u^size, d[0] != 0: the
    per-term recurrence `laurent._quotient` ran before it kept a window over
    one running lcm.  Each step puts the x_(j-k) of its sum over their own
    common denominator, with one division per term."""
    d0 = d[0]
    terms = [(k, dk) for k, dk in enumerate(d[1:size], 1) if dk]
    outs, dens = [], []
    every = 1  # lcm of all the E_k so far
    active = 0
    for j in range(size):
        while active < len(terms) and terms[active][0] <= j:
            active += 1
        act = terms[:active]
        common = every if active == j else lcm(*(dens[j - k] for k, _ in act))
        acc = num[j] * common if j < len(num) else 0
        for k, dk in act:
            e = dens[j - k]
            acc -= dk * (outs[j - k] if e == common else outs[j - k] * (common // e))
        e = d0 * common
        g = gcd(acc, e)
        outs.append(acc // g)
        dens.append(e // g)
        every = lcm(every, e // g)
    return [o * (every // e) for o, e in zip(outs, dens)], every


def _series(field, val, coords, prec):
    """Normalised series from coordinate tuples; coefficients beyond prec are cut."""
    coords = list(coords[: max(prec - val, 0)])
    while coords and _is_zero(coords[0]):
        coords.pop(0)
        val += 1
    if not coords:
        return TwistedSeries.zero(field, prec)
    coords += [field.zero().coords] * (prec - val - len(coords))
    return TwistedSeries(field, val, [field.element(c) for c in coords], prec)


def series_data(s):
    """(val, coefficient coordinates, prec): what a series is, read eagerly."""
    return s.val, [c.coords for c in s.coeffs], s.prec


def series_eq(a, b):
    return a.field == b.field and series_data(a) == series_data(b)


def series_add(a, b):
    _check(a, b)
    field = a.field
    prec = min(a.prec, b.prec)
    val = min(a.val, b.val)
    zero = field.zero().coords

    def window(s):
        return [zero] * (s.val - val) + [c.coords for c in s.coeffs[: prec - s.val]]

    out = [_add(x, y) for x, y in zip_longest(window(a), window(b), fillvalue=zero)]
    return _series(field, val, out, prec)


def series_neg(s):
    return _series(s.field, s.val, [tuple(-x for x in c.coords) for c in s.coeffs], s.prec)


def series_sub(a, b):
    return series_add(a, series_neg(b))


def series_truncate(s, prec):
    if prec > s.prec:
        raise InsufficientPrecision(f"cannot extend precision {s.prec} to {prec}")
    if prec == s.prec:
        return s
    return _series(s.field, s.val, [c.coords for c in s.coeffs[: prec - s.val]], prec)


def series_mul(f, g):
    if f.field is not g.field and f.field != g.field:
        raise MixedFields(f"cannot mix elements of {f.field.name} and {g.field.name}")
    field = f.field
    prec = min(f.prec + g.val, g.prec + f.val)
    if f.is_zero() or g.is_zero():
        return TwistedSeries.zero(field, prec)
    val = f.val + g.val
    acc = [field.zero().coords] * (prec - val)
    gc = [c.coords for c in g.coeffs]
    for i, c in enumerate(f.coeffs):
        ei = f.val + i
        for j in range(min(len(gc), prec - ei - g.val)):
            term = mul_coords(field, c.coords, sigma_coords(field, gc[j], ei))
            acc[i + j] = _add(acc[i + j], term)
    return _series(field, val, acc, prec)


def series_inv(s):
    field = s.field
    if s.is_zero():
        raise ZeroSeries(f"inversion of a series that is zero mod t^{s.prec}")
    v = s.val
    r = s.prec - v
    cs = [c.coords for c in s.coeffs]
    c0inv = inv_coords(field, cs[0])
    g0 = sigma_coords(field, c0inv, -v)
    zero = field.zero().coords
    u = [
        sigma_coords(field, mul_coords(field, c0inv, cs[k]), -v) if k < len(cs) else zero
        for k in range(r)
    ]
    h = [field.one().coords]
    for m in range(1, r):
        acc = zero
        for k in range(1, m + 1):
            acc = _add(acc, mul_coords(field, h[m - k], sigma_coords(field, u[k], m - k)))
        h.append(tuple(-x for x in acc))
    out = [mul_coords(field, h[m], sigma_coords(field, g0, m)) for m in range(r)]
    return _series(field, -v, out, r - v)


def solve_left(den, num):
    """The s with den*s = num, by the ascending coefficient recurrence."""
    field = den.field
    if den.field is not num.field and den.field != num.field:
        raise MixedFields(f"cannot mix elements of {den.field.name} and {num.field.name}")
    if den.is_zero():
        raise ZeroSeries(f"division by a series that is zero mod t^{den.prec}")
    v = den.val
    out_prec = min(den.prec - 2 * v + num.val, den.prec - v, num.prec - v)
    if num.is_zero():
        return TwistedSeries.zero(field, out_prec)
    w = num.val - v
    size = out_prec - w
    if size <= 0:
        return TwistedSeries.zero(field, out_prec)
    d = [c.coords for c in den.coeffs]
    nc = [c.coords for c in num.coeffs]
    d0inv = inv_coords(field, d[0])
    out = []
    for idx in range(size):
        acc = nc[idx] if idx < len(nc) else field.zero().coords
        for k in range(1, min(idx, len(d) - 1) + 1):
            acc = _sub(acc, mul_coords(field, d[k], sigma_coords(field, out[idx - k], v + k)))
        out.append(sigma_coords(field, mul_coords(field, d0inv, acc), -v))
    return _series(field, w, out, out_prec)


# -- Newton lifting at full precision every round ----------------------------


def _embed(x, prec):
    """den^-1 num as a series, through the schoolbook recurrence."""
    field = x.field
    if x.is_zero():
        return TwistedSeries.zero(field, prec)
    vden = next(i for i, c in enumerate(x.den.coeffs) if not c.is_zero())
    work = prec + 2 * vden
    den = _series(field, 0, _coords(x.den), work)
    num = _series(field, 0, _coords(x.num), work)
    return series_truncate(solve_left(den, num), prec)


def _is_invariant(field, a):
    units = [_unit(field.dim, j) for j in range(field.dim)]
    central = all(mul_coords(field, a, e) == mul_coords(field, e, a) for e in units)
    return central and sigma_coords(field, a, 1) == tuple(a)


def _invariant_series(s):
    n = s.field.sigma_order
    return all(
        c.is_zero() or ((s.val + k) % n == 0 and _is_invariant(s.field, c.coords))
        for k, c in enumerate(s.coeffs)
    )


def _horner(coeff_series, point):
    acc = coeff_series[-1]
    for c in reversed(coeff_series[:-1]):
        acc = series_add(series_mul(acc, point), c)
    return acc


def newton_root(coeffs, seed, precision):
    """The lift as a loop of Newton steps, each run at the full padded
    precision `work`."""
    if not coeffs or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    field = coeffs[0].field
    if not _is_invariant(field, seed.coords):
        raise NotInvariantSeries("newton seed must lie in the invariant subfield")
    den_val = 0
    for c in coeffs:
        if not c.is_zero():
            den_val = max(den_val, next(i for i, a in enumerate(c.den.coeffs) if not a.is_zero()))
    depth = len(coeffs) - 1
    work = precision + 2 * depth * den_val + 2
    fc = [_embed(c, work) for c in coeffs]
    if not all(_invariant_series(s) for s in fc):
        raise NotInvariantSeries("polynomial coefficients must be invariant series in t^n")
    dc = [
        _series(field, s.val, [tuple(m * x for x in c.coords) for c in s.coeffs], s.prec)
        for m, s in enumerate(fc)
    ][1:]
    rho = _series(field, 0, [seed.coords], work)
    value = _horner(fc, rho)
    deriv = _horner(dc, rho)
    if deriv.is_zero() or deriv.val > 0:
        raise NotSimpleRoot("derivative at the seed is not a unit mod t")
    if not value.is_zero() and value.val <= 0:
        raise NoResidualRoot("seed is not a residual root mod t")
    guard = 0
    last_val = 0
    while not value.is_zero():
        if value.val <= last_val or guard > precision:
            raise NotSimpleRoot("newton iteration stalled; root is not simple")
        last_val = value.val
        guard += 1
        rho = series_sub(rho, series_mul(value, series_inv(deriv)))
        value = _horner(fc, rho)
        deriv = _horner(dc, rho)
    if rho.prec < precision:
        raise InsufficientPrecision(f"newton produced precision {rho.prec} < requested {precision}")
    return series_truncate(rho, precision)


# -- evaluation at the series root ----------------------------------------------


def ext_tau(element, precision):
    """sum_i v_i rho^i over the coordinates v_i as canonical fractions: each
    embedded to the root's precision and multiplied by rho^i."""
    acc = tau_sum(element, root_powers(element.scenario))
    if acc.prec < precision:
        raise InsufficientPrecision(
            f"tau reached O(t^{acc.prec}) but O(t^{precision}) was requested"
        )
    return series_truncate(acc, precision)


def root_powers(scenario):
    """rho^0 .. rho^(d-1)."""
    field = scenario.field
    powers = [_series(field, 0, [field.one().coords], scenario.rho.prec)]
    for _ in range(scenario.degree - 1):
        powers.append(series_mul(powers[-1], scenario.rho))
    return powers


def tau_sum(element, powers):
    """The sum of `ext_tau` at the precision it reaches, given `root_powers`."""
    field = element.scenario.field
    work = element.scenario.rho.prec
    acc = TwistedSeries.zero(field, work)
    for i, c in enumerate(element.coords):
        if c.is_zero():
            continue
        acc = series_add(acc, series_mul(_embed(c, work), powers[i]))
    return acc


# -- certificates ---------------------------------------------------------------
#
# The sympy certificates the package ran before `orefield.factor`: the
# f-irreducible certificate by bivariate factorization over Q, and the
# nonsquare certificate by univariate factorization of the witness.


def _central_fraction_to_uv(c, field, u_sym):
    """A central fraction as a sympy expression in u = t^n (rational case)."""
    import sympy

    n = field.sigma_order
    w = field.invariant_basis[0]
    anchor = next(i for i, v in enumerate(w) if v != 0)

    def poly_expr(p):
        expr = sympy.Integer(0)
        for m, a in enumerate(p.coeffs):
            if a.is_zero():
                continue
            if m % n:
                raise ScenarioValidationError(
                    f"exponent {m} of {p} is not a multiple of the twist order"
                )
            ratio = Fraction(a.coords[anchor], w[anchor])
            expr += sympy.Rational(ratio.numerator, ratio.denominator) * u_sym ** (m // n)
        return expr

    return poly_expr(c.num) / poly_expr(c.den)


def irreducibility_certificate(scenario):
    """(status, details) for f over the central function field."""
    import sympy

    field = scenario.field
    if len(field.invariant_basis) != 1:
        return (
            "skipped",
            "certificate needs a rational invariant subfield "
            f"(dimension {len(field.invariant_basis)} here)",
        )
    x_sym, u_sym = sympy.symbols("x u")
    expr = sympy.Integer(0)
    for i, c in enumerate(scenario.f.coeffs):
        if c.is_zero():
            continue
        expr += _central_fraction_to_uv(c, field, u_sym) * x_sym**i
    numerator, _ = sympy.fraction(sympy.together(expr))
    factors = sympy.factor_list(sympy.expand(numerator), x_sym, u_sym)[1]
    positive = [(p, e) for p, e in factors if sympy.degree(p, gen=x_sym) > 0]
    if (
        len(positive) == 1
        and positive[0][1] == 1
        and sympy.degree(positive[0][0], gen=x_sym) == scenario.degree
    ):
        return ("pass", f"bivariate factorization leaves one x-factor of degree {scenario.degree}")
    shapes = ", ".join(
        f"deg_x={sympy.degree(p, gen=x_sym)} mult={e}" for p, e in positive
    )
    return ("fail", f"f splits over the center: x-positive factors [{shapes}]")


def nonsquare_certificate(label, witness):
    """(status, details) of the nonsquare certificate."""
    import sympy

    field = witness.field
    if len(field.invariant_basis) != 1:
        return ("skipped", "certificate needs a rational invariant subfield")
    u = sympy.Symbol("u")
    expr = _central_fraction_to_uv(witness, field, u)
    numerator, denominator = sympy.fraction(sympy.together(expr))
    odd = []
    for part in (numerator, denominator):
        for factor, mult in sympy.factor_list(sympy.expand(part))[1]:
            if sympy.degree(factor, gen=u) > 0 and mult % 2 == 1:
                odd.append(f"{factor}")
    if odd:
        return ("pass", f"odd factors: {', '.join(sorted(odd))}")
    return ("fail", "every factor has even multiplicity")
