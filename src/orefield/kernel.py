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
3 on Q(i), 8 on H_Q), against dim^2 in `kmac`.  The polynomial kernels
keep `kmac`: on their short, small operands the extra additions of the
pairing cost more than the products it saves.  Products of polynomials
in a central x (the tensor elements of `orefield.extend`) add every pair
into one accumulator per power of x (`mul_into`), and a product by a
central c(t^n), c in Z[u], takes integer multiples of rows or of whole
coordinates and no ground product (`central_rows`).

The center's ring lives here too.  Its denominators c(u), u = t^n, are
integer polynomials, and the Z[u] arithmetic on them (`zmul`, `zdivexact`,
`zgcd`, ...) is the one that every layer calls, `orefield.factor` included.
`zgcd` is the heuristic gcd (GCDHEU: one integer gcd of the values at a
point, read back in that point's digits and checked by exact division) when
both inputs have at least HEU_LENGTH coefficients, and the primitive
remainder sequence on smaller inputs and when the heuristic fails.
`common_denominator` puts central values over one c, and `central_divisor`
is the one gcd over Q[u] of a denominator and every coordinate of a vector:
`reduce_central` divides it out of integer rows over c(t^n) and one integer
denominator (the tensor elements and the norm conjugates of
`orefield.skewpoly`), `center`'s `reduce` and `primitive` out of K'[u]
lists (central polynomials and the fixed-space elimination).

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
from functools import partial
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import add, mul as mul_
from types import SimpleNamespace
from typing import Iterable, Sequence

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


def power(x, n: int, one, mul=mul_):
    """x^n for n >= 0 by square-and-multiply, with `one` the unit of x's ring
    and `mul` its product.

    The products result*x come in the order of the bits of n, as in the
    textbook loop; the square after the top bit, which no product would
    use, is not made.
    """
    result = one
    while True:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def cayley_hamilton(p, m: int, trace, divide, mul=mul_):
    """q = sum_(k<m) (-1)^k e_k p^(m-1-k), so that  p*q = q*p = +-e_m,  for
    the degree-m characteristic polynomial of p whose power sums are the
    traces s_k = trace(p^k): k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i.

    Generic over the element type, for m >= 2: the elements add, subtract
    and negate, `mul` multiplies them, every trace commutes with every
    element, and divide(a, k) is a/k for an integer k.
    `reduced_conjugate` runs it on polynomials and on tensor elements,
    `extend.TensorElement.inv` on the residues modulo f, and `center`'s
    `conjugate` on K'[u] and K'[[u]].  q sums the powers
    p, ..., p^(m-1) that the traces read, each times its e_k, so a trace that
    is a constant of the element type makes that a cheap product."""
    powers = [p]
    for _ in range(m - 2):
        powers.append(mul(powers[-1], p))
    sums = [trace(x) for x in powers]
    e, q = [], powers[-1]
    for k in range(1, m):
        # e[k-1] = e_k; the term i = k has e_0 = 1
        acc = sums[k - 1] if k % 2 else -sums[k - 1]
        for i in range(1, k):
            term = mul(e[k - i - 1], sums[i - 1])
            acc = acc + term if i % 2 else acc - term
        e.append(divide(acc, k))
        term = e[-1] if k == m - 1 else mul(e[-1], powers[m - 2 - k])
        q = q - term if k % 2 else q + term
    return q


# -- Z[u] ----------------------------------------------------------------------
#
# An integer polynomial in one variable is a dense ascending list of ints with
# no trailing zeros, the zero polynomial the empty list: the denominators c(u)
# of the center, its numerators when K' is Q, and what `orefield.factor`
# factors.  No quotient in Q(u) is ever formed.


def ztrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zadd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return ztrim([*map(add, f, g), *f[len(g) :]])


def zsub(f: Sequence[int], g: Sequence[int]) -> list[int]:
    return zadd(f, [-b for b in g])


def zmul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def zcontent(f: Sequence[int]) -> int:
    """The gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*f)


def zprimitive(f: Sequence[int]) -> tuple[int, list[int]]:
    """(c, p) with f = c*p and p primitive with a positive leading
    coefficient; (0, []) for the zero polynomial."""
    f = ztrim(list(f))
    if not f:
        return 0, []
    c = zcontent(f)
    if f[-1] < 0:
        c = -c
    return c, [a // c for a in f]


def zdivexact(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g when g divides f in Z[u]."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * (len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], g[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def zprem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """lc(g)^k * f modulo g for some k >= 0: a remainder of degree < deg g."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        c, s = r[-1], len(r) - 1 - dg
        r = [g[-1] * a for a in r]
        for j, b in enumerate(g):
            r[s + j] -= c * b
        ztrim(r)
    return r


HEU_LENGTH = 9  # the heuristic gcd runs when both inputs have this many coefficients
HEU_TRIES = 6


def zgcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The primitive gcd with a positive leading coefficient; [] when both
    are zero.

    When both primitive parts have at least HEU_LENGTH coefficients, the
    heuristic gcd (`_heuristic_gcd`) tries up to HEU_TRIES points xi, the
    first above its bound and each later one about 3 times larger; the
    primitive remainder sequence (`_prs_gcd`) runs on smaller inputs, where
    it is faster, and when every try fails.  Both give the same gcd."""
    f, g = zprimitive(f)[1], zprimitive(g)[1]
    if len(f) >= HEU_LENGTH and len(g) >= HEU_LENGTH:
        xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 3
        for _ in range(HEU_TRIES):
            h = _heuristic_gcd(f, g, xi)
            if h is not None:
                return h
            xi = 3 * xi + 1
    return _prs_gcd(f, g)


def _heuristic_gcd(f: list[int], g: list[int], xi: int) -> list[int] | None:
    """gcd(f, g) for primitive f and g, read from the integer gcd of f(xi)
    and g(xi), or None when this xi does not give it (GCDHEU: B. W. Char,
    K. O. Geddes & G. H. Gonnet, J. Symbolic Comput. 7, 1989).

    The candidate h is the primitive part of the polynomial whose balanced
    base-xi digits (each of absolute value at most xi/2) are that integer
    gcd.  It is the gcd when it divides f and g exactly and
    xi > 2 * min(|f|_inf, |g|_inf) + 2: a further common factor k of degree
    >= 1 would have |k(xi)| > xi/2, more than h's content, which k(xi)
    divides.  Below that bound no candidate is accepted."""
    if xi <= 2 * min(max(map(abs, f)), max(map(abs, g))) + 2:
        return None
    fx = gx = 0
    for c in reversed(f):
        fx = fx * xi + c
    for c in reversed(g):
        gx = gx * xi + c
    gamma, half = gcd(fx, gx), xi // 2
    digits = []
    while gamma:
        r = gamma % xi
        if r > half:
            r -= xi
        digits.append(r)
        gamma = (gamma - r) // xi
    h = zprimitive(digits)[1]
    try:
        zdivexact(f, h)
        zdivexact(g, h)
    except ArithmeticError:
        return None
    return h


def _prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd(f, g) for primitive f and g with positive leading coefficients,
    by the primitive remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        if len(g) == 1:
            # a nonzero constant: the inputs are coprime
            return g
        f, g = g, zprimitive(zprem(f, g))[1]
    return f


def common_denominator(dens: Iterable[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """(C, cofactors) with cofactors[i] * dens[i] = C for nonzero dens in
    Z[u], C their lcm over Q[u] times an integer: values den_i^-1 * a_i are
    C^-1 * (cofactors[i] * a_i) over one denominator."""
    dens = [list(d) for d in dens]
    common = [1]
    for d in dens:
        if d != common:
            common = zmul(common, zdivexact(d, zgcd(common, d)))
    return common, [[1] if d == common else zdivexact(common, d) for d in dens]


def central_divisor(den: Sequence[int], coords: Iterable[Sequence[int]]) -> list[int]:
    """The gcd over Q[u] of den and every Z[u]-list in `coords`, primitive
    with a positive leading coefficient: [1] as soon as it is a constant, and
    with den = [] (no denominator) the gcd of the coordinates alone.

    Dividing den and every coordinate by it brings the vector coords/den to
    lowest terms over Q[u], and the quotients are integral (Gauss's lemma).
    `reduce_central` divides rows by it, `center`'s `primitive` and `reduce`
    K'[u] lists, each then with its own integer content."""
    g = zprimitive(den)[1]
    for c in coords:
        if len(g) == 1:
            break
        g = zgcd(g, c)
    return g


# -- the center ------------------------------------------------------------------
#
# K'[u], u = t^n, K' the invariant subfield, on a basis beta_0 = 1, ...,
# beta_(w-1) of K' whose structure constants c_ijk, beta_i beta_j =
# sum_k c_ijk beta_k, are integers (H. Cohen, *A Course in Computational
# Algebraic Number Theory*, 4.2): sum a_kb beta_b u^k is one list of ints, a_kb
# at index k*w + b, with no trailing zeros, so at w = 1 the Z[u] list above,
# multiplied by `zmul`.  A series in K'[[u]] has w ints
# per power of u.  `center` builds the operations `linalg.eliminate` takes and
# those the series and twisted polynomials read: `conjugate`, the norm down to
# Z[u]; `ints` and `rows`, a(t^n) as integer rows over `over`; `spread`, which
# writes products by K'[u] as k times products by Z[u].


class _Sum(list):
    """An element of K'[u] under `cayley_hamilton`'s +, - and negation."""

    def __add__(self, other):
        return _Sum(zadd(self, other))

    def __sub__(self, other):
        return self + [-x for x in other]

    def __neg__(self):
        return _Sum([-x for x in self])


def center(field: GroundField) -> SimpleNamespace:
    """The ring K'[u] of `field`, built on first use and kept on the field."""
    if field._center is None:
        field._center = _build_center(field)
    return field._center


def _build_center(field: GroundField) -> SimpleNamespace:
    from . import linalg

    w, n, dim, zero = field.invariant_degree, field.sigma_order, field.dim, field.zero_row
    basis: list = []
    for b in (field.one().coords, *field.invariant_basis):
        if linalg.rank([*basis, list(b)]) > len(basis):
            basis.append([x * lcm(*(y.denominator for y in b)) for x in b])
    piv = linalg.rref(basis)[1]  # coordinates that determine an element of K'

    def structure(basis):
        # a = sum_b (inv a[piv])_b beta_b on K', and the c_ijk
        inv = linalg.invert_matrix([[b[j] for b in basis] for j in piv])
        products = [[field.kmul(bi, bj) for bj in basis] for bi in basis]
        return inv, [[linalg.mat_vec(inv, [Fraction(p[j], field.mul_den) for j in piv]) for p in row] for row in products]

    inv, consts = structure(basis)
    clear = lcm(*(c.denominator for row in consts for v in row for c in v))
    if clear > 1:
        # beta_b' = clear * beta_b for b > 0 makes c_ijk' = clear^(2 - (k > 0)) c_ijk
        basis = [basis[0], *([clear * x for x in b] for b in basis[1:])]
        inv, consts = structure(basis)
    over = lcm(*(x.denominator for row in inv for x in row))
    reader = [[int(row[piv.index(j)] * over) if j in piv else 0 for j in range(dim)] for row in inv]
    basis = [tuple(map(int, b)) for b in basis]
    unit, tail = basis == [zero[:b] + (1,) + zero[b + 1 :] for b in range(w)], zero[w:]  # beta_b = e_b, as usual

    def back(x):
        return tuple(x) + tail if unit else tuple([sum(map(mul_, x, col)) for col in zip(*basis)])

    traces = [int(sum(consts[b][k][k] for k in range(w))) for b in range(w)]
    table = [(i, j, [(k, int(c)) for k, c in enumerate(consts[i][j]) if c]) for i in range(w) for j in range(w)]

    def parts(a):
        return [a] if w == 1 else [a[b::w] for b in range(w)]

    def join(cols):
        out = [0] * (w * max(map(len, cols), default=0))
        for b, col in enumerate(cols):
            out[b : b + w * len(col) : w] = col
        return ztrim(out)

    def lift(c):
        return c if w == 1 else join([c])

    def rational(a):
        return a if w == 1 else None if any(any(a[b::w]) for b in range(1, w)) else a[::w]

    def mul_cut(a, b, size):
        # the products of the coordinates modulo u^size, then the table
        out = [0] * (w * size)
        for i, j, terms in table:
            p = [0] * size if w > 1 else out
            for s, x in enumerate(a[i : w * size : w]):
                if x:
                    for t, y in enumerate(b[j : w * (size - s) : w], s):
                        p[t] += x * y
            for m, c in terms if w > 1 else ():
                out[m::w] = map(add, out[m::w], map(c.__mul__, p))
        return out

    def mul(a, b):
        return ztrim(mul_cut(a, b, -(-len(a) // w) - (-len(b) // w) - 1))

    def trace(a):
        return lift(ztrim([sum(map(mul_, traces, a[m : m + w])) for m in range(0, len(a), w)]))

    def conjugate(a, size=None):
        def product(x, y):
            return _Sum(mul(x, y) if size is None else mul_cut(x, y, size))

        q = cayley_hamilton(_Sum(a), w, lambda x: _Sum(trace(x)), lambda x, m: _Sum([y // m for y in x]), product)
        return list(q), rational(product(a, q))

    def unit_multiple(a):
        q, c = [1], rational(a)
        if c is None:
            q, c = conjugate(a)
        return (q, c) if c[-1] > 0 else ([-x for x in q], [-x for x in c])

    def cancel(den, row):
        # den in Z[u] ([] for none) and the row over Q[u] first
        # (`central_divisor`), then the integer content
        g = central_divisor(den, row if w == 1 else [part for a in row for part in parts(a)])
        if len(g) > 1:
            den = zdivexact(den, g)
            row = [join([zdivexact(ztrim(part), g) for part in parts(a)]) for a in row]
        c = gcd(*den, *(x for a in row for x in a))
        if c > 1:
            den, row = [x // c for x in den], [[x // c for x in a] for a in row]
        return den, row

    def primitive(row):
        return cancel([], row)[1]

    def reduce(den, nums):
        den, nums = cancel(den, nums)
        if den[-1] < 0:
            den, nums = [-a for a in den], [[-a for a in num] for num in nums]
        return den, nums

    def ints(rows):
        out = []
        for m, row in enumerate(rows):
            if m % n:
                if row != zero:
                    return None
            elif unit:
                if row[w:] != tail:
                    return None
                out += row[:w]
            elif back(x := [sum(map(mul_, r, row)) for r in reader]) != tuple(over * y for y in row):
                return None
            else:
                out += x
        return out

    def rows(a):
        blocks = [back(x) if any(x) else zero for x in zip_longest(*[iter(a)] * w, fillvalue=0)]
        out = [zero] * (n * (len(blocks) - 1) + 1) if blocks else []
        out[::n] = blocks
        return out

    def spread(terms):
        if w == 1:
            return terms
        out = []
        for f, z in terms:
            for b, part in enumerate(parts(z)):
                if f and ztrim(part):
                    out.append((f, [field.mul_den * x for x in part]) if b == 0 else ([field.kmul(r, basis[b]) for r in f], part))
        return out

    return SimpleNamespace(
        w=w, over=over, k=1 if w == 1 else field.mul_den, zero=lambda field: [], one=lambda field: [1], is_zero=lambda a: not a,
        degree=len, add=zadd, sub=zsub, mul=zmul if w == 1 else mul, mul_cut=mul_cut,
        scale=zmul if w == 1 else (lambda a, c: mul(a, lift(c))), conjugate=conjugate,
        unit_multiple=unit_multiple, primitive=primitive, reduce=reduce, parts=parts, join=join,
        lift=lift, rational=rational, ints=ints, rows=rows, spread=spread,
    )


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


def central_sum(field: GroundField, terms, size: int | None = None) -> tuple[Rows, int]:
    """(rows, k) with rows = k * sum f*z(t^n) over the pairs (f, z) of
    `terms`, z in K'[u] (see `center`), cut to `size` rows (default: all of
    them): one `central_rows` over the pairs (f*beta_b, z_b) of the
    coordinates z_b in Z[u] of z, with k = 1 when K' is Q."""
    ring = center(field)
    return central_rows(field, ring.spread(terms), size), ring.k


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


def reduce_central(field: GroundField, den: Sequence[int], polys: Sequence[Rows], over: int) -> tuple[list[int], list[Rows], int]:
    """The canonical form of the vector den(t^n)^-1 * polys/over, for
    integer rows polys[i] over one integer over != 0 and a nonzero den in
    Z[u]: (den, polys, over) with each polys[i] stripped, den primitive with
    a positive leading coefficient, over > 0, no factor of den over Q[u] that
    divides every Z[u]-coordinate of the polys (coordinate (r, l) of rows is
    sum_k rows[k*n + r][l] u^k), and no integer content common to over and
    the rows.  A zero vector comes back as ([1], polys, 1).

    The factor is the `central_divisor` g of den and every coordinate, and
    the rows are divided by g(t^n) in one synthetic division with stride n."""
    if not den:
        raise ZeroDivisionError("reduce_central needs a nonzero denominator")
    n, zero = field.sigma_order, field.zero_row
    polys = [strip(list(p), zero) for p in polys]
    if not any(polys):
        return [1], polys, 1
    g = central_divisor(den, (c for p in polys for r in range(n) for c in zip(*p[r::n]) if any(c)))
    if len(g) > 1:
        den, polys = zdivexact(den, g), [_divide_central(field, p, g) for p in polys]
    scale, den = zprimitive(den)
    c = gcd(over * scale, content(*polys))
    if over * scale < 0:
        c = -c
    return den, [divide(p, c) for p in polys] if c != 1 else polys, over * scale // c


def _divide_central(field: GroundField, rows: Rows, g: list[int]) -> Rows:
    """rows / g(t^n) for g in Z[u] primitive of degree >= 1 that divides
    every Z[u]-coordinate of the rows, by synthetic division."""
    n, zero = field.sigma_order, field.zero_row
    shift, lead = (len(g) - 1) * n, g[-1]
    lower = [(j * n, b) for j, b in enumerate(g[:-1]) if b]
    rem = list(rows)
    quo = [zero] * max(len(rem) - shift, 0)
    for m in range(len(quo) - 1, -1, -1):
        top = rem[m + shift]
        if top != zero:
            quo[m] = q = tuple([x // lead for x in top])
            for off, b in lower:
                rem[m + off] = tuple([x - b * y for x, y in zip(rem[m + off], q)])
    return quo


def conjugate_rows(field: GroundField, rows: Rows, offset: int = 0) -> Rows:
    """trd_den * (Trd(p) - p) for a field of reduced degree 2 and p given by
    its rows from t^offset on, in one pass: the constant term of each power
    of u = t^n goes through `kconj`, the rest is scaled by -trd_den."""
    n, s, kconj, kscale = field.sigma_order, field.trd_den, field.kconj, field.kscale
    return [kconj(r) if (offset + k) % n == 0 else kscale(-s, r) for k, r in enumerate(rows)]


def trace_rows(field: GroundField, rows: Rows) -> Rows:
    """trd_den * Trd(p) for p given by its rows: `ktrd` on the powers of
    u = t^n, zero elsewhere."""
    n, ktrd, zero = field.sigma_order, field.ktrd, field.zero_row
    return [ktrd(r) if k % n == 0 else zero for k, r in enumerate(rows)]


def reduced_conjugate(field: GroundField, x, remap):
    """x* with x x* = x* x = +-Nrd(x), central over K'(u), for a polynomial
    in t or a polynomial in a central x with such coefficients, or None at
    reduced degree m = 1, where x* = 1 (M. Giesbrecht, J. Symbolic Comput.
    26, 1998; I. Reiner, *Maximal Orders*, 1975).

    At m = 2, x* = Trd(x) - x, row list by row list (`conjugate_rows`); at
    m > 2, `cayley_hamilton` with the reduced trace taken row list by row
    list (`trace_rows`).  remap(x, f, k) maps each row list of x by f and
    multiplies its integer denominator by k.  `skewpoly.norm_conjugate` and
    the tensor inverse of `orefield.extend` call it."""
    m = field.reduced_degree
    if m == 1:
        return None
    if m == 2:
        return remap(x, partial(conjugate_rows, field), field.trd_den)
    return cayley_hamilton(x, m, lambda a: remap(a, partial(trace_rows, field), field.trd_den), lambda a, k: remap(a, list, k))


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
    (8 on H_Q, 3 on Q(i), 1 on Q).  So each row of f is mapped to its left
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

