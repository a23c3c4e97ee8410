"""Ground fields: exact coefficient skew fields for the twisted rings.

Three kinds are supported, all with coordinates in `fractions.Fraction`
over a fixed rational basis:

* the rationals;
* a number field  Q[y]/(p)  for a monic integer polynomial p, with an
  automorphism given by the image of the generator;
* a quaternion algebra  (alpha, beta / k)  over the rationals or a number
  field k, with basis 1, i, j, ij, where i^2 = alpha, j^2 = beta and
  ji = -ij.  The automorphism acts coordinatewise through the base field.

An element is a flat tuple of Fractions of length `field.dim`; every
operation is exact.  At construction the field derives, once, the data the
twisted layers need: the center, the invariant subfield fixed by the
automorphism, a basis of the whole field over that invariant subfield, and
its integer kernel.  The kernel is a set of straight-line functions compiled
from the structure constants (scaled to integers over one common
denominator), the powers of the automorphism (a signed permutation such as
complex conjugation compiles to sign flips, the identity to nothing), and an
adjugate `adj(a)` with  a * adj(a) = N(a)  for a nonzero rational N(a)
(closed forms up to base degree 2, Cayley-Hamilton by Newton's identities
above).  The product is compiled twice: as written, for the polynomial
kernels, and as a paired bilinear form with fewer big-integer products per
pair (`_paired_forms`: the lowest-rank of the candidate forms that
reproduces the structure constants exactly, 8 products on H_Q by Howell and
Lafon's quaternion form), for series products.  They take coordinate tuples of
Python ints (or of Fractions) and are what `orefield.kernel` runs every
polynomial and series operation on,
beside the reduced trace behind `skewpoly.norm_conjugate` and, at reduced
degree 2, the norm form behind the series division of `orefield.laurent`.

Quaternion configurations are assumed to describe division algebras (true
for the classical choices with alpha, beta < 0 over the rationals);
if a nonzero element turns out to be non invertible the arithmetic raises
`NotInvertible` rather than returning garbage.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterable, Sequence

from . import linalg
from .errors import (
    CapExceeded,
    DivisionByZero,
    InfiniteOrder,
    MixedFields,
    NotAnAutomorphism,
    NotInvertible,
    ReduciblePolynomial,
)

DEGREE_CAP = 8
ORDER_CAP = 24

Coords = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class GroundElement:
    """Element of a ground field; a thin immutable wrapper over coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "GroundField", coords: Coords) -> None:
        self.field = field
        self.coords = coords

    def __add__(self, other: "GroundElement") -> "GroundElement":
        self.field.check_same(other.field)
        return GroundElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GroundElement") -> "GroundElement":
        self.field.check_same(other.field)
        return GroundElement(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroundElement":
        return GroundElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other: "GroundElement") -> "GroundElement":
        self.field.check_same(other.field)
        return GroundElement(self.field, self.field.mul_coords(self.coords, other.coords))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroundElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash(self.coords)

    def inv(self) -> "GroundElement":
        return GroundElement(self.field, self.field.inv_coords(self.coords))

    def sigma(self, power: int = 1) -> "GroundElement":
        return GroundElement(self.field, self.field.sigma_coords(self.coords, power))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_invariant(self) -> bool:
        """Central and fixed by the automorphism (no exception variant)."""
        return self.field.is_central_coords(self.coords) and self.sigma() == self

    def __str__(self) -> str:
        return "[" + ",".join(map(_rational_str, self.coords)) + "]"

    __repr__ = __str__


def terms_str(terms: Iterable[tuple[int, str]], var: str) -> str:
    """The sum of printed terms, in the order given: the pair (e, c) writes
    c at e = 0, c*var at e = 1 and c*var^e otherwise; "0" for no terms."""
    parts = [c if e == 0 else f"{c}*{var}" if e == 1 else f"{c}*{var}^{e}" for e, c in terms]
    return " + ".join(parts) if parts else "0"


def _rational_str(x: Fraction) -> str:
    """str(x) at any size: CPython converts an int of at most
    `sys.get_int_max_str_digits()` digits (4300 by default) to str, so a
    larger one is written in pieces of that many digits."""
    try:
        return str(x)
    except ValueError:
        num = _digits(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"


def _digits(n: int) -> str:
    size = sys.get_int_max_str_digits()
    if abs(n) < 10**size:
        return str(n)
    high, low = divmod(abs(n), 10**size)
    return ("-" if n < 0 else "") + _digits(high) + str(low).zfill(size)


class GroundField:
    """A concrete coefficient skew field; see the module docstring."""

    def __init__(
        self,
        kind: str,
        base_poly: Coords | None,
        alpha: Coords | None,
        beta: Coords | None,
        sigma_base: list[list[Fraction]],
        name: str,
    ) -> None:
        self.kind = kind
        self.base_poly = base_poly
        self.base_dim = 1 if base_poly is None else len(base_poly) - 1
        self.alpha = alpha
        self.beta = beta
        self.dim = self.base_dim * (4 if kind == "quaternions" else 1)
        self.name = name
        self.sigma_matrix = self._expand_sigma(sigma_base)
        self.sigma_is_identity = self.sigma_matrix == linalg.identity(self.dim)
        self.sigma_order = self._find_order()
        self._sigma_pows = self._power_matrices()
        self._compile_kernel()
        self.center_basis = self._compute_center_basis()
        self.invariant_basis = self._compute_invariant_basis()
        self.h_basis = self._compute_h_basis()
        self._compile_traces()
        self._splitting: list[list[Fraction]] | None = None
        self._center = None  # the ring K'[u] of `kernel.center`

    # -- construction helpers -------------------------------------------

    def _expand_sigma(self, sigma_base: list[list[Fraction]]) -> list[list[Fraction]]:
        if self.kind != "quaternions":
            return sigma_base
        d = self.base_dim
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for blk in range(4):
            for r in range(d):
                for c in range(d):
                    mat[blk * d + r][blk * d + c] = sigma_base[r][c]
        return mat

    def _find_order(self) -> int:
        if self.sigma_is_identity:
            return 1
        ident = linalg.identity(self.dim)
        power = self.sigma_matrix
        for k in range(1, ORDER_CAP + 1):
            if power == ident:
                return k
            power = linalg.matmul(power, self.sigma_matrix)
        raise InfiniteOrder(f"automorphism order exceeds cap {ORDER_CAP}")

    def _power_matrices(self) -> list[list[list[Fraction]]]:
        pows = [linalg.identity(self.dim)]
        for _ in range(self.sigma_order - 1):
            pows.append(linalg.matmul(pows[-1], self.sigma_matrix))
        return pows

    # -- integer kernel ---------------------------------------------------

    def _structure_constants(self) -> list[list[Coords]]:
        """table[i][j] = coordinates of e_i * e_j for the rational basis."""
        base = _power_table(self.base_poly, self.base_dim)
        if self.kind != "quaternions":
            return base
        d = self.base_dim
        red = _reduction_rows(self.base_poly) if self.base_poly is not None else []
        consts = {"1": _unit(d, 0), "a": self.alpha, "b": self.beta}
        consts["ab"] = _nf_mul(red, self.alpha, self.beta)
        table = [[None] * self.dim for _ in range(self.dim)]
        for (p, q), (sign, const, blk) in _QUATERNION_UNITS.items():
            for m in range(d):
                for l in range(d):
                    coords = [Fraction(0)] * self.dim
                    coords[blk * d : (blk + 1) * d] = [
                        sign * x for x in _nf_mul(red, consts[const], base[m][l])
                    ]
                    table[p * d + m][q * d + l] = tuple(coords)
        return table

    def _compile_kernel(self) -> None:
        """Compile the integer kernel: kmul, kmac, kmsub, kleft, kright,
        ksums, kcombine, kscale, ksig[k], kadj.

        With dT the common denominator of the structure constants and s that
        of the automorphism powers:  kmul(a, b) = dT * a*b,
        kmac(c, a, b) = c + dT * a*b,  kmsub(c, a, b) = c - dT * a*b,
        kscale(k, a) = k * a,  ksig[k](a) = s * sigma^k(a)  and
        kadj(a) = (adj, N) with  a * adj = adj * a = N  exactly, N a nonzero
        integer.

        Series products run on the same structure constants as the paired
        bilinear form  dT * a*b = kcombine(L_r(a) * R_r(b) for r < R),
        R = mul_rank, with the linear forms kleft(a) = (L_r(a))_r and
        kright(b) = (R_r(b))_r of `_paired_forms`, and
        ksums(c, A, B) = c + sum of the termwise products of the pairs of
        forms in zip(A, B).  kcombine is linear up to one exact division by
        a common divisor (2 for the Howell-Lafon form, 1 otherwise), so it
        may combine a whole sum of products at once.  So a sum of products
        of pairs costs R big-integer products per pair instead of dim^2:
        1 on Q (every map the identity), 3 on Q(i), 6 on a cubic field,
        8 on H_Q, 10 on a quartic field, 36 on quaternions over a quadratic
        field.
        """
        dim = self.dim
        table = self._structure_constants()
        self.mul_den = lcm(*(x.denominator for row in table for v in row for x in v))
        terms = _bilinear_terms(table, self.mul_den)
        self.kmul = _compile_bilinear("kmul", terms, accumulate=False)
        self.kmac = _compile_bilinear("kmac", terms, accumulate=True)
        self.kmsub = _compile_bilinear(
            "kmsub", [{ij: -c for ij, c in t.items()} for t in terms], accumulate=True
        )
        left, right, combine, div = _paired_forms(terms)
        self.mul_rank = len(left)
        self.kleft = _compile_linear("kleft", left)
        # equal forms on a commutative field: one compiled map
        self.kright = self.kleft if right == left else _compile_linear("kright", right)
        self.ksums = _compile_sums("ksums", self.mul_rank)
        self.kcombine = _compile_linear("kcombine", combine, div)
        self.kscale = _compile("kscale", "k, a", [_unpack("a", dim)], [f"k*a{i}" for i in range(dim)])
        self.sig_den = lcm(*(x.denominator for m in self._sigma_pows for row in m for x in row))
        self.ksig: list[Callable] = [
            _compile_linear(f"ksig{k}", [[int(x * self.sig_den) for x in row] for row in mat])
            for k, mat in enumerate(self._sigma_pows)
        ]
        self.zero_row = (0,) * dim
        self.kadj = self._compile_adjugate()

    def _compile_adjugate(self) -> Callable:
        d = self.base_dim
        if d == 1:
            def base_adj(b):
                return (1,), b[0]
        elif d == 2:
            p0, p1 = int(self.base_poly[0]), int(self.base_poly[1])

            def base_adj(b):
                # the conjugate of b0 + b1 y is (b0 - p1 b1) - b1 y
                b0, b1 = b
                return (b0 - p1 * b1, -b1), b0 * b0 - p1 * b0 * b1 + p0 * b1 * b1
        else:
            table = _power_table(self.base_poly, d)
            bmul = _compile_bilinear("bmul", _bilinear_terms(table, 1), accumulate=False)
            # Tr(y^i) = sum_j (coordinate j of y^i * y^j): integers, p monic
            btr = [int(sum(table[i][j][j] for j in range(d))) for i in range(d)]
            one = (1,) + (0,) * (d - 1)

            def base_adj(b):
                # Cayley-Hamilton: the power sums s_k = Tr(b^k) give the
                # integer coefficients e_k of the characteristic polynomial
                # by Newton's identities, and adj = sum (-1)^k e_k b^(d-1-k)
                # has  b * adj = (-1)^(d+1) e_d = N(b)
                powers = [one, b]
                for _ in range(d - 1):
                    powers.append(bmul(powers[-1], b))
                s = [sum([c * x for c, x in zip(btr, pw)]) for pw in powers]
                e = [1]
                for k in range(1, d + 1):
                    acc = 0
                    for i in range(1, k + 1):
                        acc += e[k - i] * s[i] if i % 2 else -e[k - i] * s[i]
                    e.append(acc // k)
                adj = [0] * d
                for k in range(d):
                    c = e[k] if k % 2 == 0 else -e[k]
                    adj = [a + c * x for a, x in zip(adj, powers[d - 1 - k])]
                return tuple(adj), e[d] if d % 2 else -e[d]

        name = self.name
        if self.kind != "quaternions":
            def kadj(a):
                adj, norm = base_adj(a)
                if not norm:
                    raise DivisionByZero(f"inversion of zero in {name}")
                return adj, norm
            return kadj
        kmul, dim = self.kmul, self.dim
        pad = (0,) * (dim - d)

        def kadj(a):
            conj = a[:d] + tuple(-x for x in a[d:])
            adj_b, norm = base_adj(kmul(a, conj)[:d])
            if not norm:
                if any(a):
                    raise NotInvertible(
                        f"nonzero element with zero norm in {name}; "
                        "the configured quaternion algebra is not a division ring"
                    )
                raise DivisionByZero(f"inversion of zero in {name}")
            return kmul(conj, adj_b + pad), norm

        return kadj

    def _compile_traces(self) -> None:
        """The reduced degree and the reduced trace behind `skewpoly.norm_conjugate`.

        D(t) is central simple over K'(u), u = t^n, K' the invariant subfield
        of dimension w = len(invariant_basis) over Q; its reduced degree m has
        m^2 * w = dim * n.  With tr(a) the trace of left multiplication by a
        on D over Q and pi the tr-orthogonal projection of D onto K', the
        reduced trace is  Trd(sum a_k t^k) = sum_k m * pi(a_kn) u^k.  Compiled
        over integers like `ksig`:  ktrd(a) = trd_den * m * pi(a)  and
        kconj(a) = trd_den * (m * pi(a) - a)  (the conjugate when m = 2).
        """
        dim, basis = self.dim, self.invariant_basis
        w = self.invariant_degree = len(basis)
        m = self.reduced_degree = isqrt(dim * self.sigma_order // w)
        units = [(0,) * i + (1,) + (0,) * (dim - i - 1) for i in range(dim)]
        # mul_den * tr(e_i), and the invariant basis scaled to integers (pi
        # is the same for any scaling of the basis)
        tr = [sum(self.kmul(e, f)[j] for j, f in enumerate(units)) for e in units]
        basis = [tuple(int(x * lcm(*(y.denominator for y in b))) for x in b) for b in basis]

        def tr_of_product(a, b):
            return Fraction(sum(x * y for x, y in zip(tr, self.kmul(a, b))))

        # pi(e) = sum_j mu_j b_j with tr(pi(e) b) = tr(e b) for every basis element b
        gram_inv = linalg.invert_matrix([[tr_of_product(b, c) for c in basis] for b in basis])
        mus = [linalg.mat_vec(gram_inv, [tr_of_product(e, b) for b in basis]) for e in units]
        trd = [[m * sum(mu[j] * b[r] for j, b in enumerate(basis)) for mu in mus] for r in range(dim)]
        self.trd_den = lcm(*(x.denominator for row in trd for x in row))
        trd = [[int(x * self.trd_den) for x in row] for row in trd]
        self.ktrd = _compile_linear("ktrd", trd)
        conj = [[x - self.trd_den * (r == c) for c, x in enumerate(row)] for r, row in enumerate(trd)]
        self.kconj = _compile_linear("kconj", conj)
        self.norm_terms = self._norm_terms(units) if m == 2 and w == 1 else None

    def _norm_terms(self, units: list[Coords]) -> list[list[tuple[int, int, int]]]:
        """The rational coordinate of a series norm N = s * s* at m = 2 over
        K' = Q, as integer bilinear forms; s* is `kconj` on the exponents
        divisible by n and -trd_den elsewhere (`kernel.conjugate_rows`' rule).

        A term a t^f of s times the conjugate of a term b t^g, f + g = 0 mod
        n, adds  (a sigma^f(b*))_0 = B_e(a, b), e = f mod n, to N.  Here
        m^2 = dim * n = 4 leaves n <= 2, so f = g mod n too, and N sums
        B_e(x_i, x_j) over the ordered pairs of one residue class: a sum of
        coordinate convolutions, which do not depend on the order of the two
        coordinates.  So norm_terms[e] lists (p, l, c), p <= l, the nonzero
        coefficients of the symmetric part of  mul_den * sig_den * trd_den *
        B_e  (with c = B[p][l] + B[l][p] off the diagonal)."""
        s, kconj, kmul = self.trd_den, self.kconj, self.kmul
        out = []
        for e, sig in enumerate(self.ksig):
            conj = kconj if e == 0 else (lambda b: tuple(-s * x for x in b))
            form = [[kmul(a, sig(conj(b)))[0] for b in units] for a in units]
            terms = []
            for p in range(self.dim):
                for l in range(p, self.dim):
                    c = form[p][l] + form[l][p] if p < l else form[p][p]
                    if c:
                        terms.append((p, l, c))
            out.append(terms)
        return out

    # -- basic coordinate arithmetic -------------------------------------

    def check_same(self, other: "GroundField") -> None:
        if self is not other and self != other:
            raise MixedFields(f"cannot mix elements of {self.name} and {other.name}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, GroundField)
            and self.kind == other.kind
            and self.base_poly == other.base_poly
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.sigma_matrix == other.sigma_matrix
        )

    __hash__ = None  # type: ignore[assignment]

    def zero(self) -> GroundElement:
        return GroundElement(self, (Fraction(0),) * self.dim)

    def one(self) -> GroundElement:
        return self.from_rational(Fraction(1))

    def from_rational(self, x) -> GroundElement:
        coords = [Fraction(0)] * self.dim
        coords[0] = _frac(x)
        return GroundElement(self, tuple(coords))

    def element(self, coords: Iterable) -> GroundElement:
        tup = tuple(_frac(c) for c in coords)
        if len(tup) != self.dim:
            raise ValueError(f"{self.name} needs {self.dim} coordinates, got {len(tup)}")
        return GroundElement(self, tup)

    def coerce(self, value) -> GroundElement:
        """The one way in: an element of this field, a rational, or a
        coordinate sequence, as an element of this field."""
        if isinstance(value, GroundElement):
            self.check_same(value.field)
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        return self.element(value)

    def basis_element(self, m: int) -> GroundElement:
        coords = [Fraction(0)] * self.dim
        coords[m] = Fraction(1)
        return GroundElement(self, tuple(coords))

    def mul_coords(self, a: Coords, b: Coords) -> Coords:
        out = self.kmul(a, b)
        if self.mul_den != 1:
            return tuple(x / self.mul_den for x in out)
        return tuple(map(_frac, out))

    def inv_coords(self, a: Coords) -> Coords:
        den = lcm(*(x.denominator for x in a))
        adj, norm = self.kadj(tuple(x.numerator * (den // x.denominator) for x in a))
        return tuple(Fraction(den * x, norm) for x in adj)

    def sigma_coords(self, a: Coords, power: int = 1) -> Coords:
        out = self.ksig[power % self.sigma_order](a)
        if self.sig_den != 1:
            return tuple(x / self.sig_den for x in out)
        return out

    # -- derived structure ------------------------------------------------

    def _mult_matrices(self, e: Coords) -> tuple[list, list]:
        """Matrices of left and right multiplication by e, read from the
        integer kernel: column j is kmul(a, e_j) or kmul(e_j, a) for the
        integer numerators a of e, over den * mul_den."""
        dim = self.dim
        den = lcm(*(x.denominator for x in e))
        a = tuple(x.numerator * (den // x.denominator) for x in e)
        den *= self.mul_den
        units = [(0,) * j + (1,) + (0,) * (dim - j - 1) for j in range(dim)]
        left = [self.kmul(a, u) for u in units]
        right = [self.kmul(u, a) for u in units]
        lm = [[Fraction(left[j][i], den) for j in range(dim)] for i in range(dim)]
        rm = [[Fraction(right[j][i], den) for j in range(dim)] for i in range(dim)]
        return lm, rm

    def _commutator_rows(self) -> list[list[Fraction]]:
        """The rows of a -> e_m a - a e_m for every basis element e_m: their
        kernel is the center (all of a commutative field)."""
        if self.kind != "quaternions":
            return []
        rows: list[list[Fraction]] = []
        for m in range(self.dim):
            lm, rm = self._mult_matrices(_unit(self.dim, m))
            for i in range(self.dim):
                rows.append([lm[i][j] - rm[i][j] for j in range(self.dim)])
        return rows

    def _compute_center_basis(self) -> tuple[Coords, ...]:
        if self.kind != "quaternions":
            return tuple(_unit(self.dim, j) for j in range(self.dim))
        return tuple(linalg.nullspace(self._commutator_rows(), self.dim))

    def _compute_invariant_basis(self) -> tuple[Coords, ...]:
        if self.sigma_is_identity:
            return self.center_basis
        rows = self._commutator_rows()
        ident = linalg.identity(self.dim)
        for i in range(self.dim):
            rows.append([self.sigma_matrix[i][j] - ident[i][j] for j in range(self.dim)])
        return tuple(linalg.nullspace(rows, self.dim))

    def _compute_h_basis(self) -> tuple[GroundElement, ...]:
        """Greedy basis of the field over its invariant subfield."""
        chosen: list[GroundElement] = []
        span_rows: list[list[Fraction]] = []
        rank = 0
        for m in range(self.dim):
            e = _unit(self.dim, m)
            candidate_rows = span_rows + [
                list(self.mul_coords(b, e)) for b in self.invariant_basis
            ]
            new_rank = linalg.rank(candidate_rows)
            if new_rank > rank:
                chosen.append(GroundElement(self, e))
                span_rows = candidate_rows
                rank = new_rank
            if rank == self.dim:
                break
        if rank != self.dim:
            raise NotAnAutomorphism(
                "invariant multiples of the ambient basis do not span the field"
            )
        return tuple(chosen)

    def is_central_coords(self, a: Coords) -> bool:
        """Commutes with the basis; takes Fraction or integer coordinates."""
        if self.kind != "quaternions":
            return True
        units = [(0,) * m + (1,) + (0,) * (self.dim - m - 1) for m in range(self.dim)]
        return all(self.kmul(a, e) == self.kmul(e, a) for e in units)

    def is_invariant_row(self, a: Sequence) -> bool:
        """Central and fixed by the automorphism; takes integer coordinates."""
        sigma = self.ksig[1 % self.sigma_order]
        return sigma(a) == self.kscale(self.sig_den, a) and self.is_central_coords(a)

    def __repr__(self) -> str:
        return f"GroundField({self.name})"


def _unit(n: int, j: int) -> Coords:
    return tuple(Fraction(int(i == j)) for i in range(n))


def _reduction_rows(poly: Coords) -> list[Coords]:
    """Coordinates of y^m mod p for m = d .. 2d-2."""
    d = len(poly) - 1
    rows: list[Coords] = []
    # y^d = -(p_0 + p_1 y + ... + p_{d-1} y^{d-1})
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


def _nf_mul(red: list[Coords], a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Product in Q[y]/(p), p given by its reduction rows (construction only)."""
    d = len(a)
    conv = [Fraction(0)] * (2 * d - 1)
    for m, am in enumerate(a):
        for l, bl in enumerate(b):
            conv[m + l] += am * bl
    out = conv[:d]
    for m in range(d, 2 * d - 1):
        out = [x + conv[m] * y for x, y in zip(out, red[m - d])]
    return out


# Products of the quaternion units 1, i, j, ij:  u_p * u_q = sign * const * u_blk
# with i^2 = alpha ("a"), j^2 = beta ("b") and ji = -ij.
_QUATERNION_UNITS = {
    (0, 0): (1, "1", 0), (0, 1): (1, "1", 1), (0, 2): (1, "1", 2), (0, 3): (1, "1", 3),
    (1, 0): (1, "1", 1), (1, 1): (1, "a", 0), (1, 2): (1, "1", 3), (1, 3): (1, "a", 2),
    (2, 0): (1, "1", 2), (2, 1): (-1, "1", 3), (2, 2): (1, "b", 0), (2, 3): (-1, "b", 1),
    (3, 0): (1, "1", 3), (3, 1): (-1, "a", 2), (3, 2): (1, "b", 1), (3, 3): (-1, "ab", 0),
}


def _signed_sum(terms: list[tuple[int, str]], lead: str | None = None) -> str:
    """Python source of  lead + sum c*text  over integer coefficients c."""
    parts = [] if lead is None else [lead]
    for c, text in terms:
        if c:
            body = text if abs(c) == 1 else f"{abs(c)}*{text}"
            parts.append(("- " if c < 0 else "+ ") + body if parts else ("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


def _compile(name: str, args: str, unpack: list[str], exprs: list[str]) -> Callable:
    lines = [f"def {name}({args}):"] + [f"    {u}" for u in unpack]
    lines.append("    return (" + "".join(f"{e}, " for e in exprs) + ")")
    return _exec(name, lines)


def _exec(name: str, lines: list[str]) -> Callable:
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<orefield kernel {name}>", "exec"), namespace)
    return namespace[name]


def _unpack(var: str, n: int) -> str:
    return "".join(f"{var}{i}, " for i in range(n)) + f"= {var}"


def _power_table(poly: Coords | None, d: int) -> list[list[Coords]]:
    """table[i][j] = coordinates of y^(i+j) mod p (the rationals for d = 1)."""
    red = _reduction_rows(poly) if poly is not None else []
    return [[_unit(d, i + j) if i + j < d else red[i + j - d] for j in range(d)] for i in range(d)]


def _bilinear_terms(table: list[list[Coords]], den: int) -> list[dict[tuple[int, int], int]]:
    """terms[k][(i, j)] = den * (coordinate k of e_i * e_j), nonzero only."""
    dim = len(table)
    return [
        {(i, j): int(table[i][j][k] * den) for i in range(dim) for j in range(dim) if table[i][j][k]}
        for k in range(dim)
    ]


def _bilinear_exprs(terms: list[dict[tuple[int, int], int]], accumulate: bool) -> list[str]:
    """Source of  (c_k +) sum c * a_i * b_j  over terms[k][(i, j)] = c,
    grouped by a_i."""
    dim = len(terms)
    exprs = []
    for k in range(dim):
        grouped = []
        for i in range(dim):
            inner = [(terms[k][i, j], f"b{j}") for j in range(dim) if terms[k].get((i, j))]
            if len(inner) == 1:
                grouped.append((inner[0][0], f"a{i}*{inner[0][1]}"))
            elif inner:
                grouped.append((1, f"a{i}*({_signed_sum(inner)})"))
        exprs.append(_signed_sum(grouped, f"c{k}" if accumulate else None))
    return exprs


def _compile_bilinear(name: str, terms: list[dict[tuple[int, int], int]], accumulate: bool) -> Callable:
    """out[k] = (c_k +) sum c * a_i * b_j over terms[k][(i, j)] = c."""
    dim = len(terms)
    exprs = _bilinear_exprs(terms, accumulate)
    unpack = [_unpack("a", dim), _unpack("b", dim)]
    if accumulate:
        return _compile(name, "c, a, b", [_unpack("c", dim)] + unpack, exprs)
    return _compile(name, "a, b", unpack, exprs)


def _paired_forms(terms: list[dict[tuple[int, int], int]]) -> tuple[list, list, list, int]:
    """(left, right, combine, div) with  sum c * a_i * b_j  over
    terms[k][(i, j)] = c  equal to
    sum_r combine[k][r] * (left[r] . a) * (right[r] . b) / div  for every k:
    the bilinear form with fewer products, for sums of many pairs.

    The candidates are the greedy pairing (`_greedy_pairs`, div = 1) and, on
    a field of dimension 4, Howell and Lafon's 8-product quaternion form
    (`_HOWELL_LAFON`, div = 2).  Each is checked against the structure
    constants (`_reproduces`), so a form that does not give the product is
    refused when the field is built, and the lowest rank left is kept: 8 on
    H_Q, where the Howell-Lafon form is exact, and the greedy pairing on
    every other field.
    """
    candidates = [_greedy_pairs(terms)] + ([_HOWELL_LAFON] if len(terms) == 4 else [])
    exact = [forms for forms in candidates if _reproduces(terms, forms)]
    if not exact:
        raise ArithmeticError("no paired bilinear form reproduces the structure constants")
    return min(exact, key=lambda forms: len(forms[0]))


def _reproduces(terms: list[dict[tuple[int, int], int]], forms: tuple[list, list, list, int]) -> bool:
    """Whether  sum_r combine[k][r] * left[r][i] * right[r][j] = div * c  for
    every k, i, j and c = terms[k].get((i, j), 0): the forms give the product
    exactly, on every pair of basis elements and so on every pair."""
    left, right, combine, div = forms
    dim = len(terms)
    return all(
        sum(g * a[i] * b[j] for g, a, b in zip(combine[k], left, right)) == div * terms[k].get((i, j), 0)
        for k in range(dim)
        for i in range(dim)
        for j in range(dim)
    )


def _greedy_pairs(terms: list[dict[tuple[int, int], int]]) -> tuple[list, list, list, int]:
    """`_paired_forms` by pairing terms, with div = 1.

    Every diagonal product a_i b_i is made once and shared.  An off-diagonal
    pair i < j whose coefficients agree in every coordinate k takes one
    product, corrected by the diagonals,
        a_i b_j + a_j b_i = (a_i + a_j)(b_i + b_j) - a_i b_i - a_j b_j,
    and one whose coefficients are opposite in every coordinate likewise
        a_i b_j - a_j b_i = (a_i + a_j)(b_j - b_i) + a_i b_i - a_j b_j;
    any other term stays one product a_i b_j.  So there are at most dim^2
    products, and a product no coordinate uses is dropped.
    """
    dim = len(terms)
    unit = [tuple(int(l == i) for l in range(dim)) for i in range(dim)]
    diag = [(e, e) for e in unit]
    coeffs = {d: [t.get((i, i), 0) for t in terms] for i, d in enumerate(diag)}

    def add(form, k, c):
        coeffs.setdefault(form, [0] * dim)[k] += c

    for i in range(dim):
        for j in range(i + 1, dim):
            u = [t.get((i, j), 0) for t in terms]
            v = [t.get((j, i), 0) for t in terms]
            both = tuple(x + y for x, y in zip(unit[i], unit[j]))
            if u == v:
                form, di, dj = (both, both), -1, -1
            elif u == [-x for x in v]:
                form, di, dj = (both, tuple(y - x for x, y in zip(unit[i], unit[j]))), 1, -1
            else:
                for k in range(dim):
                    if u[k]:
                        add((unit[i], unit[j]), k, u[k])
                    if v[k]:
                        add((unit[j], unit[i]), k, v[k])
                continue
            for k, c in enumerate(u):
                if c:
                    add(form, k, c)
                    coeffs[diag[i]][k] += di * c
                    coeffs[diag[j]][k] += dj * c
    kept = [(form, col) for form, col in coeffs.items() if any(col)]
    return (
        [form[0] for form, _ in kept],
        [form[1] for form, _ in kept],
        [[col[k] for _, col in kept] for k in range(dim)],
        1,
    )


# T. D. Howell and J.-C. Lafon, "The complexity of the quaternion product",
# Cornell TR 75-245 (1975): a product of quaternions a, b in 8 products, in
# the coordinates 1, i, j, ij of H_Q.  With P_r = L_r(a) * R_r(b) and
# A = (P_0 + P_1 + P_2 + P_3) / 2, exact since P_0 + P_1 + P_2 + P_3 is even,
#   ab = (A - P_0 + P_4) + (A - P_0 - P_1 - P_2 + P_5) i
#        + (A - P_1 + P_6) j + (A - P_2 + P_7) ij.
_HOWELL_LAFON = (
    [(0, 1, 0, 1), (1, 0, -1, 0), (1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 1), (1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)],
    [(0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (0, 0, 1, -1), (1, 1, 0, 0), (0, 0, 1, 1), (1, -1, 0, 0)],
    [[-1, 1, 1, 1, 2, 0, 0, 0], [-1, -1, -1, 1, 0, 2, 0, 0], [1, -1, 1, 1, 0, 0, 2, 0], [1, 1, -1, 1, 0, 0, 0, 2]],
    2,
)


def _compile_sums(name: str, count: int) -> Callable:
    """(C, A, B) -> C + sum over the pairs (a, b) of zip(A, B) of the
    termwise products a_r*b_r, r < count: one call for a whole convolution
    sum, the loop in generated code."""
    lines = [f"def {name}(c, A, B):", f"    {_unpack('c', count)}", "    for a, b in zip(A, B):"]
    lines += [f"        {_unpack('a', count)}", f"        {_unpack('b', count)}"]
    lines += [f"        c{r} += a{r}*b{r}" for r in range(count)]
    lines.append("    return (" + "".join(f"c{r}, " for r in range(count)) + ")")
    return _exec(name, lines)


def _compile_linear(name: str, matrix: list[list[int]], div: int = 1) -> Callable:
    """a -> matrix @ a // div, for a div that divides every entry of
    matrix @ a; the identity compiles to the identity function."""
    n, m = len(matrix), len(matrix[0])
    if div == 1 and n == m and all(matrix[r][c] == (r == c) for r in range(n) for c in range(n)):
        return _identity
    exprs = [_signed_sum([(matrix[r][c], f"a{c}") for c in range(m)]) for r in range(n)]
    if div != 1:
        exprs = [f"({e})//{div}" for e in exprs]
    return _compile(name, "a", [_unpack("a", m)], exprs)


def _identity(a):
    return a


def _check_min_poly(coeffs: Sequence) -> Coords:
    poly = tuple(_frac(c) for c in coeffs)
    if len(poly) < 2:
        raise ValueError("defining polynomial must have degree >= 1")
    if len(poly) - 1 > DEGREE_CAP:
        raise CapExceeded(f"defining polynomial degree exceeds cap {DEGREE_CAP}")
    if poly[-1] != 1:
        raise ValueError("defining polynomial must be monic")
    if any(c.denominator != 1 for c in poly):
        raise ValueError("defining polynomial must have integer coefficients")
    if not _irreducible(poly):
        raise ReduciblePolynomial("defining polynomial is reducible over the rationals")
    return poly


def _irreducible(poly: Coords) -> bool:
    """Irreducibility over Q of a monic integer polynomial.

    Up to degree 2 it is decided by hand (a monic quadratic splits exactly
    when its discriminant is a square), so building the catalog fields does
    not load `orefield.factor`; from degree 3 on, the polynomial is
    irreducible when its factorization over Z is itself, once.
    """
    if len(poly) == 2:
        return True
    if len(poly) == 3:
        disc = int(poly[1] ** 2 - 4 * poly[0])
        return disc < 0 or isqrt(disc) ** 2 != disc
    from .factor import factor_list

    factors = factor_list([int(c) for c in poly])[1]
    return len(factors) == 1 and factors[0][1] == 1


def make_rationals() -> GroundField:
    return GroundField(
        "rationals", None, None, None, linalg.identity(1), name="Q"
    )


def _sigma_base_matrix(poly: Coords, image: Coords | None) -> list[list[Fraction]]:
    d = len(poly) - 1
    if image is None:
        return linalg.identity(d)
    if len(image) != d:
        raise NotAnAutomorphism(f"generator image needs {d} coordinates")
    # columns are the images s(y)^m mod p
    red = _reduction_rows(poly)
    cols = [_unit(d, 0)]
    for _ in range(d - 1):
        cols.append(_nf_mul(red, cols[-1], image))
    # the map is an automorphism iff p(s(y)) = 0 mod p
    value = [Fraction(0)] * d
    for m, c in enumerate(poly):
        if c:
            power = _unit(d, 0)
            for _ in range(m):
                power = _nf_mul(red, power, image)
            value = [v + c * w for v, w in zip(value, power)]
    if any(v != 0 for v in value):
        raise NotAnAutomorphism("generator image is not a root of the defining polynomial")
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def make_number_field(
    min_poly: Sequence,
    sigma_image: Sequence | None = None,
    name: str | None = None,
) -> GroundField:
    poly = _check_min_poly(min_poly)
    image = None if sigma_image is None else tuple(_frac(c) for c in sigma_image)
    mat = _sigma_base_matrix(poly, image)
    label = name or f"Q[y]/({_poly_label(poly)})"
    return GroundField("number-field", poly, None, None, mat, name=label)


def make_quaternions(
    alpha,
    beta,
    min_poly: Sequence | None = None,
    sigma_image: Sequence | None = None,
    name: str | None = None,
) -> GroundField:
    if min_poly is None:
        poly = None
        base_dim = 1
        mat = linalg.identity(1)
    else:
        poly = _check_min_poly(min_poly)
        base_dim = len(poly) - 1
        image = None if sigma_image is None else tuple(_frac(c) for c in sigma_image)
        mat = _sigma_base_matrix(poly, image)
    a = _coerce_base(alpha, base_dim)
    b = _coerce_base(beta, base_dim)
    if all(x == 0 for x in a) or all(x == 0 for x in b):
        raise NotAnAutomorphism("quaternion constants must be nonzero")
    if linalg.mat_vec(mat, a) != a or linalg.mat_vec(mat, b) != b:
        raise NotAnAutomorphism(
            "automorphism must fix the quaternion constants alpha and beta"
        )
    label = name or f"({_poly_label(a)},{_poly_label(b)} / {'Q' if poly is None else 'Q[y]'})"
    return GroundField("quaternions", poly, a, b, mat, name=label)


def _coerce_base(value, base_dim: int) -> Coords:
    if isinstance(value, (int, Fraction)):
        out = [Fraction(0)] * base_dim
        out[0] = _frac(value)
        return tuple(out)
    tup = tuple(_frac(c) for c in value)
    if len(tup) != base_dim:
        raise NotAnAutomorphism(f"constant needs {base_dim} base coordinates")
    return tup


def _poly_label(poly: Coords) -> str:
    return terms_str(((m, _rational_str(c)) for m, c in enumerate(poly) if c), "y")


def hamilton_rationals() -> GroundField:
    """The rational Hamilton quaternions (i^2 = j^2 = -1, ji = -ij)."""
    return make_quaternions(-1, -1, name="H_Q")


def gauss_conjugation() -> GroundField:
    """Q(i) with complex conjugation as the automorphism."""
    return make_number_field([1, 0, 1], sigma_image=[0, -1], name="Q(i)/conj")
