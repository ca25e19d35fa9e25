"""Dense univariate polynomials over a prime field, plus the scalar-sequence
toolbox: Berlekamp-Massey, squarefree parts, Laurent expansion, CRT and
power projection.

Coefficients are stored lowest degree first in an int64 numpy array, and
every product of them goes through the field's `exact` or `axpy`; the zero
polynomial has an empty coefficient array and degree -1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DivisionByZero,
    InsufficientTerms,
    InvalidInput,
    NotCoprime,
    NotInvertible,
)
from .field import Field, FixedFactor


def _trim(c: np.ndarray) -> np.ndarray:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _fit(c: np.ndarray, n: int, field: Field) -> np.ndarray:
    """c truncated or zero-padded to length n along its last axis."""
    k = c.shape[-1]
    if k >= n:
        return c[..., :n]
    return np.concatenate([c, field.zeros(c.shape[:-1] + (n - k,))], axis=-1)


def _remainders(r0: np.ndarray, r1: np.ndarray, field: Field, stop: int = -1, cofactor: bool = False):
    """The one Euclid loop: the remainders of r0 and r1 up to the first of
    degree <= stop (-1: the zero one).  Returns the last two, (r0, s0, r1,
    s1) with r_i = s_i r0_in mod r1_in, the cofactors None unless cofactor
    is set; each quotient coefficient is one axpy on each.  deg s_i <=
    deg r1_in, and s_i has n_i coefficients."""
    p = field.p
    r0, r1 = _trim(r0).copy(), _trim(r1).copy()
    s0, s1 = field.zeros(len(r1) + 1), field.zeros(len(r1) + 1)
    s0[0], n0, n1 = 1, 1, 0
    while len(r1) - 1 > stop:
        d, inv_lc = len(r1) - 1, field.inv(int(r1[-1]))
        for i in range(len(r0) - 1, d - 1, -1):
            coef = int(r0[i]) * inv_lc % p
            if coef:
                r0[i - d : i + 1] = field.axpy(p - coef, r1, r0[i - d : i + 1])
                if cofactor and n1:
                    s0[i - d : i - d + n1] = field.axpy(p - coef, s1[:n1], s0[i - d : i - d + n1])
        n0 = n1 + len(r0) - 1 - d if n1 else n0  # deg s_{i+1} = deg q_i + deg s_i
        r0, r1, s0, s1, n0, n1 = r1, _trim(r0[:d]), s1, s0, n1, n0
    return (r0, s0[:n0], r1, s1[:n1]) if cofactor else (r0, None, r1, None)


class Poly:
    """Polynomial over a prime field.  Its coefficient array `c` is never
    mutated after construction: `_rinv` caches rev(self)^{-1} for reductions
    modulo self, which a mutation would invalidate."""

    __slots__ = ("field", "c", "_rinv")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        self.c = _trim(field.array(list(coeffs)))
        self._rinv = ()

    @classmethod
    def _raw(cls, field: Field, arr: np.ndarray) -> "Poly":
        p = cls.__new__(cls)
        p.field = field
        p.c = _trim(arr)
        p._rinv = ()
        return p

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: Field, a) -> "Poly":
        return cls(field, (a,))

    # -- basics -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return len(self.c) == 0

    def is_one(self) -> bool:
        return len(self.c) == 1 and self.c[0] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and len(self.c) == len(other.c)
            and bool(np.all(self.c == other.c))
        )

    def __hash__(self):
        return hash((self.field.p, tuple(int(v) for v in self.c)))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            a = int(self.c[i])
            if a == 0:
                continue
            if i == 0:
                terms.append(f"{a}")
            elif i == 1:
                terms.append("T" if a == 1 else f"{a}*T")
            else:
                terms.append(f"T^{i}" if a == 1 else f"{a}*T^{i}")
        return " + ".join(terms)

    def coeff(self, i: int) -> int:
        return int(self.c[i]) if 0 <= i < len(self.c) else 0

    def lead(self) -> int:
        if self.is_zero():
            raise InvalidInput("zero polynomial has no leading coefficient")
        return int(self.c[-1])

    # -- ring ops -------------------------------------------------------

    def _addsub(self, other: "Poly", sign: int) -> "Poly":
        f = self.field
        n = max(len(self.c), len(other.c))
        out = f.zeros(n)
        out[: len(self.c)] = self.c
        out[: len(other.c)] = (out[: len(other.c)] + sign * other.c) % f.p
        return Poly._raw(f, out)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        return Poly._raw(self.field, (-self.c) % self.field.p)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero(self.field)
            return Poly._raw(self.field, self.field.convolve(self.c, other.c))
        return self.scale(other)

    def scale(self, a) -> "Poly":
        a %= self.field.p
        if a == 0:
            return Poly.zero(self.field)
        return Poly._raw(self.field, self.field.axpy(a, self.c))

    def truncate(self, n: int) -> "Poly":
        """Reduce mod T^n."""
        return Poly._raw(self.field, self.c[:n].copy())

    def quo_rem(self, other: "Poly"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        if self.degree < other.degree:
            return Poly.zero(f), self
        # Barrett: rev(q) = rev(self) rev(other)^{-1} mod T^k, r = self - q other
        d, k = other.degree, len(self.c) - other.degree
        q = f.convolve(self.c[::-1][:k], other._rev_inv(k))[k - 1 :: -1]
        r = (self.c[:d] - f.convolve(q[:d], other.c[:d])[:d]) % f.p
        return Poly._raw(f, q.copy()), Poly._raw(f, r)

    def __floordiv__(self, other):
        return self.quo_rem(other)[0]

    def __mod__(self, other):
        return self.quo_rem(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = int(self.c[-1])
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc))

    def gcd(self, other: "Poly") -> "Poly":
        return Poly._raw(self.field, _remainders(self.c, other.c, self.field)[0]).monic()

    def xgcd(self, other: "Poly"):
        """Returns (g, s), g = gcd(self, other) monic and s its cofactor:
        s*self + t*other = g for some t, which is not computed.  Unless other
        is zero, deg s < deg other - deg g."""
        f = self.field
        g, s, _, _ = _remainders(self.c, other.c, f, cofactor=True)
        inv_lc = f.inv(int(g[-1])) if len(g) else 1
        return Poly._raw(f, f.axpy(inv_lc, g)), Poly._raw(f, f.axpy(inv_lc, s))

    def modinv(self, modulus: "Poly") -> "Poly":
        g, s = self.xgcd(modulus)
        if not g.is_one():
            raise NotInvertible("inputs not coprime")
        return s

    def modmul(self, other: "Poly", modulus: "Poly") -> "Poly":
        return (self * other) % modulus

    def eval(self, x):
        """The value at the element x, an int, or the values at an array x of
        elements, an int64 array of its shape: Horner through Field.axpy."""
        f = self.field
        xs = f.array(np.ravel(x))
        acc = f.zeros(xs.shape)
        for a in self.c[::-1]:
            acc = f.axpy(acc, xs, int(a))
        return acc.reshape(np.shape(x)) if np.ndim(x) else int(acc[0])

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero(self.field)
        f = self.field
        return Poly._raw(f, f.axpy(np.arange(1, len(self.c)) % f.p, self.c[1:]))

    def series_inv(self, prec: int) -> "Poly":
        """Inverse mod T^prec; needs nonzero constant term."""
        if self.is_zero() or self.c[0] == 0:
            raise InvalidInput("series inverse needs a unit constant term")
        f = self.field
        inv0 = f.inv(int(self.c[0]))
        x = Poly.constant(f, inv0)
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            # Newton: x <- x(2 - a x) mod T^k
            ax = (self.truncate(k) * x).truncate(k)
            two_minus = Poly.constant(f, 2) - ax
            x = (x * two_minus).truncate(k)
        return x.truncate(prec)

    def _rev_inv(self, n: int) -> np.ndarray:
        """rev(self)^{-1} mod T^n, rev(self) = T^deg self(1/T), as n coefficients;
        cached on self, and recomputed at least doubled for a longer n."""
        if len(self._rinv) < n:
            n_new = max(n, 2 * len(self._rinv))
            inv = Poly._raw(self.field, self.c[::-1]).series_inv(n_new)
            self._rinv = _fit(inv.c, n_new, self.field)
        return self._rinv[:n]


# -- sequences ----------------------------------------------------------


def berlekamp_massey(seq, field: Field, bound: int) -> Poly:
    """Monic minimal polynomial of a linearly recurrent prefix.

    The returned polynomial is the minimal generator of the supplied finite
    prefix.  It equals the minimal polynomial of the infinite sequence only
    when at least 2*bound terms are supplied with bound a proven degree
    bound; every caller in this package relies on such a bound.
    """
    p = field.p
    terms = field.array(list(seq))
    N = len(terms)
    if N < 2 * bound:
        raise InsufficientTerms(f"need {2 * bound} terms, got {N}")
    rev = terms[::-1]
    # C is the current connection polynomial (degree <= L), B the previous one.
    B = field.array([1])
    C = _fit(B, N + 1, field)
    L, m, b = 0, 1, 1
    for n in range(N):
        # discrepancy t_n + sum_{i=1..L} C_i t_{n-i}
        d = int(terms[n])
        if L:
            d = (d + int(field.matmul(C[1 : L + 1], rev[N - n : N - n + L]))) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, p - 2, p) % p
        T = C[: L + 1].copy() if 2 * L <= n else None
        C[m : m + len(B)] = field.axpy(p - coef, B, C[m : m + len(B)])
        if T is None:
            m += 1
        else:
            L, B, b, m = n + 1 - L, T, d, 1
    # C(T) = 1 + c_1 T + ... encodes P(T) = T^L + c_1 T^{L-1} + ...
    return Poly._raw(field, C[L::-1].copy())


def charpoly_from_power_sums(sums, field: Field) -> Poly:
    """The monic Q of degree r = len(sums) - 1 whose roots have the power
    sums sums[1..r], by Newton's identities k c_k = -sum_{i=1..k} c_{k-i}
    sums[i] on rev(Q) = sum_k c_k T^k; they divide by k <= r, so r < p."""
    p, r = field.p, len(sums) - 1
    rs = field.array(list(sums))[::-1]
    c = field.zeros(r + 1)
    c[0] = 1
    for k in range(1, r + 1):
        c[k] = -int(field.matmul(c[:k], rs[r - k : r])) * pow(k, -1, p) % p
    return Poly._raw(field, c[::-1].copy())


def laurent_expand(A: Poly, F: Poly, k: int) -> list:
    """First k coefficients v_s of A/F = sum_s v_s / T^(s+1).

    They are the series rev(A)/rev(F) mod T^k.
    """
    if F.is_zero():
        raise InvalidInput("zero denominator")
    if not A.is_zero() and A.degree >= F.degree:
        raise InvalidInput("numerator degree must be below denominator degree")
    f = A.field
    # with u = 1/T: A/F = u rev(A)(u) / rev(F)(u), rev(A) taken at length deg F
    rev_a = _fit(A.c, F.degree, f)[::-1]
    return [int(x) for x in _fit(f.convolve(rev_a, F._rev_inv(k)), k, f)]


def crt_pair(a1s, q1: Poly, a2s, q2: Poly) -> list:
    """For each pair (a1, a2) of a1s and a2s, the unique r mod q1*q2 with
    r = a1 mod q1 and r = a2 mod q2.  One xgcd serves every pair; its gcd is
    the coprimality check."""
    g, s = q1.xgcd(q2)
    if not g.is_one():
        raise NotCoprime("moduli share a common factor")
    # r = a1 + q1 * ((a2 - a1) * inv(q1) mod q2), and inv(q1) = s is reduced
    q = q1 * q2
    return [(a1 + q1 * ((a2 - a1) % q2 * s % q2)) % q for a1, a2 in zip(a1s, a2s)]


def squarefree_part(P: Poly) -> Poly:
    if P.is_zero():
        raise InvalidInput("squarefree part of zero")
    if P.degree == 0:
        return Poly.one(P.field)
    g = P.gcd(P.derivative())
    return (P // g).monic()


# -- power projection ---------------------------------------------------


class TransposedProduct:
    """The transpose of f -> G*f mod F, r = deg F, on forms given by their
    values on 1, T, ..., T^(r-1).  ell extends to the sequence
    ext_s = ell(T^s mod F), generated by F, and the new values are the
    middle product sum_j G_j ext_{i+j}, i < r (Shoup; Bostan-Lecerf-Schost,
    ISSAC 2003).  With n = r + len(G) - 1, that is three products, whose
    fixed factors' spectra are taken once: N = rev(F) ell mod T^r, terms
    r..n-1 of N rev(F)^{-1} (ext_r..ext_{n-1}), terms len(G)-1..n-1 of
    ext rev(G)."""

    __slots__ = ("low", "tail", "mid")

    def __init__(self, G: Poly, F: Poly):
        f, r, g = F.field, F.degree, G.c
        n = r + len(g) - 1
        self.low = FixedFactor(f, F.c[::-1][:r], r, 0, r)
        self.tail = FixedFactor(f, F._rev_inv(n), r, r, n)
        self.mid = FixedFactor(f, g[::-1], n, len(g) - 1, n) if len(g) else None

    def __call__(self, ell: np.ndarray) -> np.ndarray:
        if self.mid is None:
            return np.zeros_like(ell)
        return self.mid(np.concatenate([ell, self.tail(self.low(ell))]))


class ModularProduct:
    """f -> G*f mod F on f of length r = deg F, by Barrett's reduction with
    k = r - 1 quotient terms: rev(q) = rev(G f) rev(F)^{-1} mod T^k, and
    G f mod F = G f - q F mod T^r.  Its three products' fixed factors G,
    rev(F)^{-1} mod T^k and F mod T^r have their spectra taken once."""

    __slots__ = ("p", "r", "prod", "quo", "back")

    def __init__(self, G: Poly, F: Poly):
        f, r = F.field, F.degree
        self.p, self.r = f.p, r
        self.prod = FixedFactor(f, _fit(G.c, r, f), r, 0, 2 * r - 1)
        self.quo = FixedFactor(f, F._rev_inv(r - 1), r - 1, 0, r - 1) if r > 1 else None
        self.back = FixedFactor(f, F.c[:r], r - 1, 0, r) if r > 1 else None

    def __call__(self, a: np.ndarray) -> np.ndarray:
        ga = self.prod(a)
        if self.quo is None:
            return ga
        q = self.quo(ga[: self.r - 1 : -1])
        return (ga[: self.r] - self.back(q[::-1])) % self.p


def transposed_modmul(G: Poly, ell, F: Poly):
    """Values of f -> ell(G*f mod F) on 1, T, ..., T^(deg F - 1)."""
    ell = F.field.array(list(ell))
    if len(ell) != F.degree:
        raise InvalidInput("linear form must have deg(F) values")
    return [int(x) for x in TransposedProduct(G, F)(ell)]


def power_projection(F: Poly, H: Poly, ells, t: int) -> np.ndarray:
    """The k x t values ell_i(H^s mod F), s < t, of the k rows ell_i of the
    k x deg F block ells.  All forms share one table of nb = min(t,
    ceil(sqrt(k t)), ceil(sqrt(2 deg F))) baby steps H^j mod F; each giant
    step multiplies by H^nb transposed, form by form, and reads nb values of
    every form off one (nb x deg F) . (deg F x k) product.  The cap keeps
    the table at the size one form of length 2 deg F needs.  Every baby
    step applies one ModularProduct and every giant step one
    TransposedProduct, so the spectra of their fixed factors are computed
    once for all steps and forms; the change of separating element projects
    n + 1 trace forms for deg F + 1 terms.
    """
    if t < 0:
        raise InvalidInput("negative length")
    f = F.field
    ells = f.array(ells)
    if t == 0 or F.degree <= 0:
        return f.zeros((len(ells), t))
    k, r = ells.shape
    nb = min(t, math.isqrt(k * t - 1) + 1, math.isqrt(2 * r - 1) + 1)
    step = ModularProduct(H % F, F)
    baby = f.zeros((nb, r))
    baby[0, 0] = 1
    for j in range(1, nb):
        baby[j] = step(baby[j - 1])
    giant = TransposedProduct(Poly._raw(f, step(baby[-1])), F) if t > nb else None
    out = f.zeros((k, t))
    cur = ells
    for s in range(0, t, nb):
        if s:
            cur = np.stack([giant(row) for row in cur])
        out[:, s : s + nb] = f.matmul(baby, cur.T)[: t - s].T
    return out


def rational_reconstruct(series: Poly, prec: int, dnum: int, dden: int):
    """Find (n, d) with n/d = series mod T^prec, deg n <= dnum, deg d <= dden:
    the first remainder of T^prec and the series of degree <= dnum, and its
    cofactor.  Requires dnum + dden < prec for uniqueness.  Returns None on
    failure.
    """
    f = series.field
    if dnum + dden >= prec:
        raise InvalidInput("precision too low for requested degrees")
    mod = f.array([0] * prec + [1])
    _, _, num, den = _remainders(series.c[:prec], mod, f, stop=dnum, cofactor=True)
    num, den = Poly._raw(f, num), Poly._raw(f, den)
    if den.degree > dden or den.coeff(0) == 0:
        return None
    inv_lc = f.inv(den.lead())
    num, den = num.scale(inv_lc), den.scale(inv_lc)
    # consistency: den * series = num mod T^prec
    if not ((den * series).truncate(prec) - num.truncate(prec)).is_zero():
        return None
    return num, den
