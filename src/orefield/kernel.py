"""Integer-row kernel: the arithmetic under polynomials and series.

A polynomial or series coefficient list is converted once into *integer
rows*: one tuple of Python ints per coefficient, all over one common
positive denominator (the representation of FLINT's ``fmpq_poly``; see
W. Hart, "FLINT: Fast Library for Number Theory", ICMS 2010).  The routines
here run whole convolutions, divisions and Euclidean loops on such rows
through the field's compiled integer kernel (`GroundField.kmac`, `kmul`,
`ksig`, `kadj`), and the caller converts back once, so no `Fraction` is
created or normalised inside a loop.

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
from math import gcd, lcm
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
    return gcd(*(x for p in polys for r in p for x in r))


def divide(rows: Rows, g: int) -> Rows:
    return [tuple(x // g for x in r) for r in rows]


def scale(rows: Rows, c: int) -> Rows:
    return rows if c == 1 else [tuple([c * x for x in r]) for r in rows]


def reduce(rows: Rows, den: int) -> tuple[Rows, int]:
    """Cancel the common content of the numerators and den; den > 0."""
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


def series_mul_rows(
    field: GroundField, f: Rows, fval: int, g: Rows, size: int
) -> Rows:
    """s*dT * (f*g) truncated to `size` coefficients; f starts at t^fval.

    The terms f_i with i in one residue class mod n all twist g by the same
    sigma^(fval+i), so each output coefficient is one `kdot` per class and
    run of nonzero f_i, over a slice of f and a reversed, strided slice of
    the twisted g.  Zero rows of f are skipped, so a sparse left operand,
    such as a polynomial or a series in t^n, costs only its nonzero terms.
    """
    n = field.sigma_order
    kdot, zero, ksig = field.kdot, field.zero_row, field.ksig
    g = strip(g[:size], zero)
    lg = len(g)
    out = [zero] * size
    for i0 in range(min(n, len(f), size) if g else 0):
        a = f[i0:size:n]  # the terms f_(i0 + n*k)
        runs = _nonzero_runs(a, zero)
        if not runs:
            continue
        twisted = list(map(ksig[(fval + i0) % n], g))
        for m in range(i0 + n * runs[0][0], min(size, i0 + n * (runs[-1][1] - 1) + lg)):
            # the k with 0 <= m - i0 - n*k < lg
            lo = max(0, -((lg - 1 - m + i0) // n))
            hi = (m - i0) // n + 1
            for start, end in runs:
                k, stop_k = max(lo, start), min(hi, end)
                if k < stop_k:
                    j = m - i0 - n * k
                    stop = j - n * (stop_k - k)
                    out[m] = kdot(out[m], a[k:stop_k], twisted[j : stop if stop >= 0 else None : -n])
    return out


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


# -- series recurrence ------------------------------------------------------------


def solve_rows(field: GroundField, d: Rows, v: int, num: Rows, size: int) -> tuple[Rows, int]:
    """(rows, den) of the first `size` coefficients of x with  d * x = num.

    d is a series of valuation v (d[0] != 0); num[j] is the coefficient that
    fixes x_j through
        x_j = sigma^-v( d_0^-1 (num_j - sum_k d_k sigma^(v+k)(x_(j-k))) ).
    Each x_j is kept reduced, as numerators O_j over its own denominator
    E_j, so the cancellation a quotient of polynomials undergoes keeps the
    numbers small; the result is put over one common denominator at the end.
    The sum is one `kdot` per step, over the twists sigma^r(O_j) that are
    made once per solved coefficient.
    """
    ksig, kmul, kscale, kdot = field.ksig, field.kmul, field.kscale, field.kdot
    zero, n = field.zero_row, field.sigma_order
    sd = field.sig_den * field.mul_den
    g0 = content([d[0]])
    adj, norm = field.kadj(tuple(x // g0 for x in d[0]))
    base = sd * sd * g0 * norm
    back = ksig[-v % n]
    # (i, -d_i, r): the term d_i sigma^r(x_(j-i)), r = (v+i) mod n, to subtract
    terms = [(i, kscale(-1, di), (v + i) % n) for i, di in enumerate(d[1:size], 1) if di != zero]
    outs: Rows = []
    dens: list[int] = []
    twists: list[Rows] = [[] for _ in range(n)]  # twists[r][k] = s sigma^r(O_k)
    every = 1  # lcm of all the E_k so far
    active = 0
    for j in range(size):
        while active < len(terms) and terms[active][0] <= j:
            active += 1
        act = terms[:active]
        # over the common denominator of the x_(j-i) in the sum: when every
        # d_1 .. d_j is nonzero, that is the lcm of all E_k so far
        common = every if active == j else lcm(*(dens[j - i] for i, _, _ in act))
        acc = kscale(sd * common, num[j]) if j < len(num) else zero
        acc = kdot(
            acc,
            [nd if dens[j - i] == common else kscale(common // dens[j - i], nd) for i, nd, _ in act],
            [twists[r][j - i] for i, _, r in act],
        )
        o = back(kmul(adj, acc))
        e = base * common
        g = gcd(e, *o)
        if e < 0:
            g = -g
        o, e = tuple(x // g for x in o), e // g
        outs.append(o)
        dens.append(e)
        for r in range(n):
            twists[r].append(ksig[r](o))
        every = lcm(every, e)
    return [kscale(every // e, o) for o, e in zip(outs, dens)], every
