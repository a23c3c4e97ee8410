"""Integer-row kernel: the arithmetic under polynomials and series.

A polynomial or series coefficient list is converted once into *integer
rows*: one tuple of Python ints per coefficient, all over one common
positive denominator (the representation of FLINT's ``fmpq_poly``; see
W. Hart, "FLINT: Fast Library for Number Theory", ICMS 2010).  The routines
here run whole convolutions, divisions and Euclidean loops on such rows
through the field's compiled integer kernel (`GroundField.kmac`, `kmul`,
`ksig`, `kadj`), and the caller converts back once, so no `Fraction` is
created or normalised inside a loop.  Series products, whose long
convolutions of big coefficients are dominated by integer multiplication,
run on the field's paired bilinear form instead (`kleft`, `kright`,
`ksums`, `kcombine`): R products per pair of rows, R = `mul_rank` (1 on Q,
3 on Q(i), 10 on H_Q), against dim^2 in `kmac`.  The polynomial kernels
keep `kmac`: on their short, small operands the extra additions of the
pairing cost more than the products it saves.  Products of polynomials
in a central x (the tensor elements of `orefield.extend`) add every pair
into one accumulator per power of x (`mul_into`), and a product by a
central c(t^n), c in Z[u], takes integer multiples of rows or of whole
coordinates and no ground product (`central_rows`).

The kernel scales: with dT = `field.mul_den` and s = `field.sig_den`,

* ``kmul(a, b) = dT * a*b``, ``ksig[k](a) = s * sigma^k(a)``, hence every
  twisted product of rows carries the factor  s * dT  (`mul_rows`);
* ``kadj(a) = (adj, N)`` with ``a * adj = adj * a = N``, N a nonzero integer;
  so one division step by a leading coefficient scales the dividend by the
  rational  K = (s dT)^2 N,  which is central in the twisted ring.

The division routines are therefore *pseudo*-divisions,

    K^e * f = g*q + r    (left)        K^e * f = q*g + r    (right),

exact on the integers.  A rational scalar changes neither divisibility nor
any normalised (monic) answer, so the Euclidean loops (`gcld_rows`,
`cofactor_rows`) drop it and divide out the integer content each step
instead of making each remainder monic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Sequence

from .ground import GroundElement, GroundField

Row = tuple  # tuple[int, ...] of length field.dim
Rows = list  # list[Row]


def rows_of(elements: Sequence[GroundElement]) -> tuple[Rows, int]:
    """Integer numerators and their common denominator."""
    coords = [e.coords for e in elements]
    den = lcm(*(x.denominator for c in coords for x in c))
    if den == 1:
        return [tuple(x.numerator for x in c) for c in coords], 1
    return [tuple(x.numerator * (den // x.denominator) for x in c) for c in coords], den


def elements_of(field: GroundField, rows: Rows, den: int) -> list[GroundElement]:
    if den == 1:
        return [GroundElement(field, tuple(map(Fraction, r))) for r in rows]
    return [GroundElement(field, tuple(Fraction(x, den) for x in r)) for r in rows]


def content(*polys: Rows) -> int:
    """gcd of every entry (0 for all-zero input)."""
    return gcd(*chain.from_iterable(chain.from_iterable(polys)))


def divide(rows: Rows, g: int) -> Rows:
    return [tuple([x // g for x in r]) for r in rows]


def scale(rows: Rows, c: int) -> Rows:
    return rows if c == 1 else [tuple([c * x for x in r]) for r in rows]


def over_common(parts: Sequence[tuple[Rows, int]]) -> tuple[list[Rows], int]:
    """Several (rows, den) over their common denominator: (numerators, den)."""
    den = lcm(*(d for _, d in parts))
    return [scale(rows, den // d) for rows, d in parts], den


def reduce(rows: Rows, den: int) -> tuple[Rows, int]:
    """Cancel the common content of the numerators and den; den > 0."""
    if den == 1:
        return rows, den
    g = gcd(den, content(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = divide(rows, g)
        den //= g
    return rows, den


def normalise(rows: Rows, den: int, zero: Row) -> tuple[Rows, int]:
    """Strip trailing zero rows, then `reduce`: the canonical form."""
    end = len(rows)
    while end and rows[end - 1] == zero:
        end -= 1
    return reduce(rows[:end], den)


def strip(rows: Rows, zero: Row) -> Rows:
    while rows and rows[-1] == zero:
        rows.pop()
    return rows


def lincomb(a: Rows, x: int, b: Rows, y: int, zero: Row) -> Rows:
    """x*a + y*b, padded to the longer length (trailing zeros kept)."""
    n = max(len(a), len(b))
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return [tuple([x * u + y * w for u, w in zip(r, s)]) for r, s in zip(a, b)]


def power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply, with `one` the unit of x's ring.

    The products result*x come in the order of the bits of n, as in the
    textbook loop; the square after the top bit, which no product would
    use, is not made.
    """
    result = one
    while True:
        if n & 1:
            result = result * x
        n >>= 1
        if not n:
            return result
        x = x * x


# -- products ------------------------------------------------------------------


def mul_rows(field: GroundField, f: Rows, g: Rows) -> Rows:
    """s*dT * (f*g):  out_m = sum_{i+j=m} f_i sigma^i(g_j)."""
    if not f or not g:
        return []
    return mul_into(field, [field.zero_row] * (len(f) + len(g) - 1), f, g)


def mul_into(field: GroundField, out: Rows, f: Rows, g: Rows) -> Rows:
    """out + s*dT * (f*g), in place: `mul_rows` added into `out`, which has
    at least len(f) + len(g) - 1 rows."""
    n = field.sigma_order
    kmac, zero = field.kmac, field.zero_row
    twisted = [list(map(sig, g)) for sig in field.ksig[: min(n, len(f))]]
    for i, a in enumerate(f):
        if a != zero:
            for j, b in enumerate(twisted[i % n], i):
                out[j] = kmac(out[j], a, b)
    return out


def central_rows(field: GroundField, terms, size: int | None = None) -> Rows:
    """sum f*c(t^n) over the pairs (f, c) of `terms`, c in Z[u], cut to
    `size` rows (default: all of them).  u = t^n is central with rational
    coefficients, so a c with at least dim nonzero coefficients, such as a
    power of a root series, runs coordinate-major: one strided run of
    integer products per nonzero entry of f.  A sparser one, such as most
    entries of a reduction table, runs row by row: one tuple per nonzero
    coefficient of c and nonzero row of f."""
    n, zero = field.sigma_order, field.zero_row
    terms = [(f, c) for f, c in terms if f and c]
    if size is None:
        size = max((len(f) + n * (len(c) - 1) for f, c in terms), default=0)
    out = [zero] * size
    cols = None
    for f, c in terms:
        nonzero = [(n * k, a) for k, a in enumerate(c) if a]
        if len(nonzero) >= len(zero):
            cols = cols or [[0] * size for _ in zero]
            span = n * len(c)
            for col, coord in zip(cols, zip(*f)):
                for m, y in enumerate(coord):
                    if y:
                        # cut at the column's length, as map stops there
                        col[m : m + span : n] = map(add, col[m : m + span : n], map(y.__mul__, c))
            continue
        for shift, a in nonzero:
            for m, r in enumerate(f[: max(size - shift, 0)], shift):
                if r != zero:
                    out[m] = tuple(map(add, out[m], r if a == 1 else map(a.__mul__, r)))
    if cols:
        out = [tuple(map(add, r, s)) for r, s in zip(out, zip(*cols))]
    return out


def central_sum(field: GroundField, terms) -> tuple[Rows, int]:
    """(rows, k) with rows = k * sum f*z over the pairs (f, z) of `terms`,
    z central in the form `central_view` gives: in Z[u] when the invariant
    subfield K' is Q, multiplied by `central_rows` with k = 1; otherwise the
    integer rows of a central twisted polynomial, multiplied by `mul_into`
    with k = s*dT."""
    if field.invariant_degree == 1:
        return central_rows(field, terms), 1
    terms = [(f, z) for f, z in terms if f and z]
    out = [field.zero_row] * max((len(f) + len(z) - 1 for f, z in terms), default=0)
    for f, z in terms:
        mul_into(field, out, f, z)
    return out, field.sig_den * field.mul_den


def central_convolve(field: GroundField, a: list[Rows], zs: list) -> tuple[list[Rows], int]:
    """(conv, k) with conv[p] = k * sum_(i+j=p) a_i*z_j for integer rows a_i
    and central z_j, not all zero: the x-convolution of `convolve_rows` with
    a central right factor, one `central_sum` per power of x."""
    a, zs = strip(a, []), strip(zs, [])
    sums = [
        central_sum(field, [(f, zs[p - i]) for i, f in enumerate(a) if 0 <= p - i < len(zs)])
        for p in range(len(a) + len(zs) - 1)
    ]
    return [rows for rows, _ in sums], sums[0][1]


def central_view(field: GroundField, parts: Sequence[tuple[Rows, int]]) -> tuple[int, list]:
    """(E, Z) for central twisted polynomials given as (rows, den): their
    numerators over the common integer denominator E, each in the form
    `central_sum` takes: the element of Z[u] when K' is Q (the rational
    rows at the multiples of n), the rows otherwise."""
    nums, den = over_common(parts)
    if field.invariant_degree == 1:
        n = field.sigma_order
        nums = [[r[0] for r in rows[::n]] for rows in nums]
    return den, nums


def convolve_rows(field: GroundField, a: list[Rows], b: list[Rows]) -> list[Rows]:
    """s*dT * sum_(i+j=p) a_i*b_j for every p: the product of two polynomials
    in a central x whose coefficients are the integer rows a_i, b_j, as one
    accumulator of `mul_into` per power of x up to the product's degree."""
    a, b = strip(a, []), strip(b, [])
    if not a or not b:
        return []
    size = max(map(len, a)) + max(map(len, b)) - 1
    out = [[field.zero_row] * size for _ in range(len(a) + len(b) - 1)]
    for i, f in enumerate(a):
        if f:
            for j, g in enumerate(b):
                if g:
                    mul_into(field, out[i + j], f, g)
    return out


def series_mul_rows(
    field: GroundField, f: Rows, fval: int, g: Rows, size: int
) -> Rows:
    """s*dT * (f*g) truncated to `size` coefficients; f starts at t^fval.

    Each product of two rows is the field's paired bilinear form
    dT * a*b = kcombine(L_r(a) * R_r(b) for r < R), R = `field.mul_rank`
    (10 on H_Q, 3 on Q(i), 1 on Q).  So each row of f is mapped to its left
    forms once and each twisted row of g to its right forms once, each output
    coefficient accumulates R integer sums, and is combined once at the end.
    The terms f_i with i in one residue class mod n all twist g by the same
    sigma^(fval+i), so the sums of an output coefficient are one `ksums` per
    class and run of nonzero f_i, over a slice of the left forms of f and a
    reversed, strided slice of the right forms of the twisted g.  Zero rows
    of f are skipped, so a sparse left operand, such as a polynomial or a
    series in t^n, costs only its nonzero terms.
    """
    n = field.sigma_order
    kleft, kright, ksums, ksig = field.kleft, field.kright, field.ksums, field.ksig
    zero = field.zero_row
    g = strip(g[:size], zero)
    lg = len(g)
    out = [(0,) * field.mul_rank] * size
    for i0 in range(min(n, len(f), size) if g else 0):
        a = f[i0:size:n]  # the terms f_(i0 + n*k)
        runs = _nonzero_runs(a, zero)
        if not runs:
            continue
        lefts = list(map(kleft, a))
        rights = list(map(kright, map(ksig[(fval + i0) % n], g)))
        for m in range(i0 + n * runs[0][0], min(size, i0 + n * (runs[-1][1] - 1) + lg)):
            # the k with 0 <= m - i0 - n*k < lg
            lo = max(0, -((lg - 1 - m + i0) // n))
            hi = (m - i0) // n + 1
            for start, end in runs:
                k, stop_k = max(lo, start), min(hi, end)
                if k < stop_k:
                    j = m - i0 - n * k
                    stop = j - n * (stop_k - k)
                    out[m] = ksums(out[m], lefts[k:stop_k], rights[j : stop if stop >= 0 else None : -n])
    return list(map(field.kcombine, out))


def _nonzero_runs(rows: Rows, zero: Row) -> list[tuple[int, int]]:
    """(start, end) of each maximal run of nonzero rows."""
    runs = []
    start = None
    for k, r in enumerate(rows + [zero]):
        if r != zero and start is None:
            start = k
        elif r == zero and start is not None:
            runs.append((start, k))
            start = None
    return runs


# -- pseudo-division -------------------------------------------------------------


def pdivmod_left(field: GroundField, f: Rows, g: Rows, want_q: bool = True):
    """(q, r, K^e) with  K^e * f = g*q + r  and deg r < deg g (r stripped)."""
    ksig, kmul, kmsub, kscale = field.ksig, field.kmul, field.kmsub, field.kscale
    zero, n = field.zero_row, field.sigma_order
    sd = field.sig_den * field.mul_den
    dg = len(g) - 1
    adj, norm = field.kadj(g[-1])
    k = sd * sd * norm
    back = ksig[-dg % n]
    twisted_g = [(j, gj, ksig[j % n]) for j, gj in enumerate(g[:-1]) if gj != zero]
    rem = strip(list(f), zero)
    q = [zero] * max(len(rem) - dg, 0)
    scale_total = 1
    while len(rem) > dg:
        m = len(rem) - 1 - dg
        qv = back(kmul(adj, rem.pop()))  # the leading term cancels exactly
        if k != 1:
            rem = [kscale(k, r) for r in rem]
        for j, gj, sig in twisted_g:
            rem[m + j] = kmsub(rem[m + j], gj, sig(qv))
        strip(rem, zero)
        if want_q:
            q = scale(q, k)
            q[m] = kscale(sd, qv)
        scale_total *= k
    return q, rem, scale_total


def pdivmod_right(field: GroundField, f: Rows, g: Rows, want_q: bool = True):
    """(q, r, K^e) with  K^e * f = q*g + r  and deg r < deg g (r stripped)."""
    ksig, kmul, kmsub, kscale = field.ksig, field.kmul, field.kmsub, field.kscale
    zero, n = field.zero_row, field.sigma_order
    sd = field.sig_den * field.mul_den
    dg = len(g) - 1
    adj, norm = field.kadj(g[-1])
    k = sd * sd * norm
    lower_g = [(j, gj) for j, gj in enumerate(g[:-1]) if gj != zero]
    rem = strip(list(f), zero)
    q = [zero] * max(len(rem) - dg, 0)
    scale_total = 1
    while len(rem) > dg:
        m = len(rem) - 1 - dg
        sig = ksig[m % n]
        qv = kmul(rem.pop(), sig(adj))  # the leading term cancels exactly
        if k != 1:
            rem = [kscale(k, r) for r in rem]
        for j, gj in lower_g:
            rem[m + j] = kmsub(rem[m + j], qv, sig(gj))
        strip(rem, zero)
        if want_q:
            q = scale(q, k)
            q[m] = kscale(sd, qv)
        scale_total *= k
    return q, rem, scale_total


def _primitive(*polys: Rows) -> tuple[Rows, ...]:
    g = content(*polys)
    if g > 1:
        return tuple(divide(p, g) for p in polys)
    return polys


# -- Euclidean loops ----------------------------------------------------------------


def gcld_rows(field: GroundField, a: Rows, b: Rows) -> Rows:
    """A greatest common left divisor of nonzero-or-zero a, b (not both zero),
    up to a right unit: the last nonzero primitive pseudo-remainder.  A
    nonzero constant remainder is a unit, so the loop stops there."""
    while b:
        if len(b) == 1:
            return b
        r = pdivmod_left(field, a, b, want_q=False)[1]
        a, b = b, (_primitive(r)[0] if r else r)
    return a


def cofactor_rows(
    field: GroundField, a: Rows, da: int, b: Rows, db: int, right: bool
) -> tuple[Rows, Rows]:
    """Cofactors (u, v) of least degree with  a*u + b*v = 0  (right=True)
    or  u*a + v*b = 0  (right=False), up to a unit on that side.

    Extended Euclid on left (resp. right) pseudo-division; the invariant
    r = a*u + b*v  (resp. u*a + v*b) holds for the true polynomials a
    (numerators over da) and b (over db).
    """
    zero = field.zero_row
    sd = field.sig_den * field.mul_den
    pdivmod = pdivmod_left if right else pdivmod_right
    r_prev, r_cur = a, b
    u_prev, u_cur = [(da,) + zero[1:]], []
    v_prev, v_cur = [], [(db,) + zero[1:]]
    while r_cur:
        q, r_next, k = pdivmod(field, r_prev, r_cur)

        def step(prev: Rows, cur: Rows) -> Rows:
            # sd * (k*prev - cur*q), resp. sd * (k*prev - q*cur)
            prod = mul_rows(field, cur, q) if right else mul_rows(field, q, cur)
            return strip(lincomb(prev, sd * k, prod, -1, zero), zero)

        r_next, u_next, v_next = _primitive(
            scale(r_next, sd), step(u_prev, u_cur), step(v_prev, v_cur)
        )
        r_prev, r_cur = r_cur, r_next
        u_prev, u_cur = u_cur, u_next
        v_prev, v_cur = v_cur, v_next
    return u_cur, v_cur

