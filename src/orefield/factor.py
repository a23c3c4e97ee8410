"""Exact factorisation of integer polynomials in one variable.

A polynomial is a dense ascending list of Python ints with no trailing
zeros; the zero polynomial is the empty list.  `factor_list` is the
Zassenhaus algorithm (J. von zur Gathen & J. Gerhard, *Modern Computer
Algebra*, ch. 14–15):

1. split off the content and take Yun's square-free decomposition;
2. factor each square-free part modulo the first odd prime p that keeps
   its degree and its square-freeness (distinct-degree, then
   Cantor–Zassenhaus equal-degree splitting with a fixed seed);
3. Hensel-lift the modular factors past twice the Mignotte bound B;
4. recombine subsets of the lifted factors, smallest first, and keep a
   candidate pair g*, h* when ||g*||_1 ||h*||_1 <= B, which makes
   lc * f = g* h* an exact identity over Z.

The result is deterministic and has the shape of `sympy.factor_list`: a
signed content and primitive factors with positive leading coefficients.
The certificates of `orefield.extend` and `orefield.tower` and the
irreducibility test of `orefield.ground` (cubics and up) use it instead of
sympy.

The ring operations on these lists (products, exact quotients, content and
the gcd) are the Z[u] arithmetic of `orefield.kernel`, which every layer
shares; this module imports them and adds only the factorisation.  Every
user imports it on first use, so a process that only builds the catalog or
does arithmetic on it does not load it.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt
from typing import Sequence

from .ground import _digits
from .kernel import zadd, zdivexact, zgcd, zmul, zprimitive, zsub, ztrim

Poly = list[int]

__all__ = ["squarefree", "factor_list", "poly_str"]


# -- square-free parts ---------------------------------------------------------------


def _derivative(f: Poly) -> Poly:
    return [k * a for k, a in enumerate(f)][1:]


def squarefree(f: Sequence[int]) -> list[tuple[Poly, int]]:
    """Yun's decomposition of a primitive f with a positive leading
    coefficient: [(a_i, i), ...] with f = prod a_i^i, the a_i square-free,
    pairwise coprime and non-constant."""
    f = list(f)
    df = _derivative(f)
    a0 = zgcd(f, df)
    b, c = zdivexact(f, a0), zdivexact(df, a0)
    d = zsub(c, _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = zgcd(b, d)
        b, c = zdivexact(b, a), zdivexact(d, a)
        if len(a) > 1:
            out.append((a, i))
        d = zsub(c, _derivative(b))
        i += 1
    return out


# -- polynomials modulo m -----------------------------------------------------------


def _reduce(f: Poly, m: int) -> Poly:
    return ztrim([a % m for a in f])


def _divmod_mod(f: Poly, g: Poly, m: int) -> tuple[Poly, Poly]:
    """(q, r) with f = q*g + r mod m, deg r < deg g; lc(g) a unit mod m."""
    inv = pow(g[-1], -1, m)
    r = [a % m for a in f]
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv % m
        q[k] = c
        if c:
            for j, b in enumerate(g):
                r[k + j] = (r[k + j] - c * b) % m
    return ztrim(q), ztrim(r[:dg])


def _monic_mod(f: Poly, p: int) -> Poly:
    inv = pow(f[-1], -1, p)
    return [a * inv % p for a in f]


def _gcd_mod(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd modulo a prime."""
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    return _monic_mod(f, p)


def _gcdex_mod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """(s, t) with s*f + t*g = 1 modulo a prime, for coprime f and g."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(zsub(s0, zmul(q, s1)), p)
        t0, t1 = t1, _reduce(zsub(t0, zmul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _reduce([a * inv for a in s0], p), _reduce([a * inv for a in t0], p)


def _powmod(a: Poly, e: int, g: Poly, p: int) -> Poly:
    """a^e modulo g and p."""
    result, base = [1], _divmod_mod(a, g, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(zmul(result, base), g, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(zmul(base, base), g, p)[1]
    return result


def _equal_degree(f: Poly, i: int, p: int, rng: random.Random) -> list[Poly]:
    """Cantor–Zassenhaus: the monic degree-i factors of a monic square-free f
    whose factors all have degree i (p odd)."""
    n = len(f) - 1
    if n == i:
        return [f]
    e = (p**i - 1) // 2
    while True:
        a = ztrim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd_mod(a, f, p)
        if len(g) == 1:
            g = _gcd_mod(_reduce(zsub(_powmod(a, e, f, p), [1]), p), f, p)
        if 1 < len(g) < len(f):
            q = _divmod_mod(f, g, p)[0]
            return _equal_degree(g, i, p, rng) + _equal_degree(q, i, p, rng)


def _factor_mod(f: Poly, p: int, rng: random.Random) -> list[Poly]:
    """The monic irreducible factors of a monic square-free f modulo an odd
    prime: distinct-degree splitting, then `_equal_degree`."""
    out: list[Poly] = []
    x = [0, 1]
    h, g, i = x, f, 1
    while 2 * i <= len(g) - 1:
        h = _powmod(h, p, g, p)
        d = _gcd_mod(g, _reduce(zsub(h, x), p), p)
        if len(d) > 1:
            out.extend(_equal_degree(d, i, p, rng))
            g = _divmod_mod(g, d, p)[0]
            h = _divmod_mod(h, g, p)[1]
        i += 1
    if len(g) > 1:
        out.append(g)
    return sorted(out)


# -- Zassenhaus ---------------------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _hensel_step(m: int, f: Poly, g: Poly, h: Poly, s: Poly, t: Poly):
    """MCA Algorithm 15.10: from f = g*h and s*g + t*h = 1 modulo m (h monic)
    to the same identities modulo m^2."""
    mm = m * m
    e = _reduce(zsub(f, zmul(g, h)), mm)
    q, r = _divmod_mod(zmul(s, e), h, mm)
    g = _reduce(zadd(g, zadd(zmul(t, e), zmul(q, g))), mm)
    h = _reduce(zadd(h, r), mm)
    b = _reduce(zsub(zadd(zmul(s, g), zmul(t, h)), [1]), mm)
    c, d = _divmod_mod(zmul(s, b), h, mm)
    s = _reduce(zsub(s, d), mm)
    t = _reduce(zsub(t, zadd(zmul(t, b), zmul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: Poly, factors: list[Poly], p: int, top: int) -> list[Poly]:
    """Monic lifts modulo p^l >= `top` of the monic modular factors of
    f = lc(f) * prod(factors) mod p (MCA Algorithm 15.17, a balanced tree
    of two-factor lifts)."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, top)
        return [[a * inv % top for a in f]]
    k = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:k]:
        g = _reduce(zmul(g, a), p)
    h = factors[k]
    for a in factors[k + 1 :]:
        h = _reduce(zmul(h, a), p)
    s, t = _gcdex_mod(g, h, p)
    m = p
    while m < top:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(g, factors[:k], p, top) + _hensel_lift(h, factors[k:], p, top)


def _symmetric(f: Poly, m: int) -> Poly:
    half = m // 2
    return ztrim([a - m if a > half else a for a in (x % m for x in f)])


def _norm1(f: Poly) -> int:
    return sum(abs(a) for a in f)


def _zassenhaus(f: Poly, rng: random.Random) -> list[Poly]:
    """The irreducible factors of a primitive square-free f of degree >= 2
    with a positive leading coefficient."""
    n = len(f) - 1
    df = _derivative(f)
    for p in _odd_primes():
        if f[-1] % p and len(_gcd_mod(_reduce(f, p), _reduce(df, p), p)) == 1:
            break
    modular = _factor_mod(_monic_mod(_reduce(f, p), p), p, rng)
    if len(modular) == 1:
        return [f]
    bound = (isqrt(n + 1) + 1) * 2**n * max(abs(a) for a in f) * f[-1]
    top = p
    while top <= 2 * bound:
        top *= p
    lifted = _hensel_lift(f, modular, p, top)
    found = []
    rest = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            g, h = [f[-1]], [f[-1]]
            for i in rest:
                if i in subset:
                    g = _reduce(zmul(g, lifted[i]), top)
                else:
                    h = _reduce(zmul(h, lifted[i]), top)
            g, h = _symmetric(g, top), _symmetric(h, top)
            if _norm1(g) * _norm1(h) <= bound:
                rest = [i for i in rest if i not in subset]
                found.append(zprimitive(g)[1])
                f = zprimitive(h)[1]
                break
        else:
            size += 1
    return found + [f]


def factor_list(coeffs: Sequence[int]) -> tuple[int, list[tuple[Poly, int]]]:
    """(content, [(factor, multiplicity), ...]) with
    coeffs = content * prod factor^multiplicity over Z.

    The content carries the sign of the leading coefficient; each factor is
    irreducible over Z, primitive, with a positive leading coefficient.  The
    factors are sorted by degree, then by coefficients.  The zero polynomial
    gives (0, []), a constant c gives (c, []).
    """
    c, f = zprimitive(coeffs)
    if len(f) < 2:
        return c, []
    rng = random.Random(0)
    out = []
    for part, mult in squarefree(f):
        pieces = _zassenhaus(part, rng) if len(part) > 2 else [part]
        out.extend((piece, mult) for piece in pieces)
    out.sort(key=lambda pair: (len(pair[0]), pair[0], pair[1]))
    return c, out


def poly_str(coeffs: Sequence[int], var: str = "u") -> str:
    """An integer polynomial printed as sympy's `str` prints it when the
    leading coefficient is positive: `u**2 + 1`, `3*u**5 - u + 7`."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        a = coeffs[k]
        if not a:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}**{k}"
        body = _digits(abs(a)) if not mono else mono if abs(a) == 1 else f"{_digits(abs(a))}*{mono}"
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if a > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"

