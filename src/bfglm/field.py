"""Prime field arithmetic and seeded randomness.

Elements of Z/pZ are plain Python ints in [0, p); matrices and vectors are
int64 numpy arrays of such ints, for every prime p < 2**62.  A :class:`Field`
carries the modulus, and only its methods know how wide a product can get:
where an int64 would overflow, `exact` cuts operands into limbs and, past
p**2 > 2**63, recombines them on Python ints, as `axpy` multiplies there;
Python ints never reach storage.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DivisionByZero, InvalidInput

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The prime field Z/pZ."""

    __slots__ = ("p", "_acc_limit")

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 2**62 or not is_prime(p):
            raise InvalidInput(f"modulus must be a prime < 2**62, got {p!r}")
        self.p = p
        # How many products of reduced elements can be summed in an int64.
        self._acc_limit = _INT64_MAX // max((p - 1) * (p - 1), 1)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"

    # -- scalar ops -------------------------------------------------------

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    # -- array helpers ----------------------------------------------------

    def array(self, data) -> np.ndarray:
        return (np.asarray(data, dtype=object) % self.p).astype(np.int64)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def axpy(self, a, x: np.ndarray, y=0) -> np.ndarray:
        """(a x + y) mod p elementwise, for reduced x and y (or y = 0) and a an
        element or an array of them: one reduction while (p-1)**2 + p - 1
        fits in an int64, that is while _acc_limit >= 1."""
        if self._acc_limit:
            return (a * x + y) % self.p
        return ((x.astype(object) * np.asarray(a).astype(object) + y) % self.p).astype(np.int64)

    def exact(self, prod, a, b: np.ndarray, k: int) -> np.ndarray:
        """prod(a, b) mod p, exactly, for a bilinear product prod of reduced
        operands whose outputs each sum at most k terms: b an int64 array, a
        one or a scipy CSR matrix, or cut(a, k).

        The one overflow policy of every int64 product: up to _acc_limit terms
        the int64 sum cannot overflow.  Past it, while (p-1)**2 fits, b is cut
        into w-bit limbs, w the widest with k (p-1) (2**w - 1) <= 2**63 - 1,
        one product per limb, and the products are recombined mod p by Horner.
        There k (p-1)**2 exceeds that bound, so 2**w < p and the shifted
        accumulator stays below p**2 < 2**63: no inner dimension needs
        chunking.  Past p**2 > 2**63 both operands are cut into the nl w-bit
        limbs of cut(a, k), the limb products of each weight summed in int64
        and recombined mod p by Horner on Python ints.
        """
        p = self.p
        if k <= self._acc_limit:
            return prod(a, b) % p
        if self._acc_limit:
            w = (_INT64_MAX // (k * (p - 1)) + 1).bit_length() - 1
            acc = 0
            for shift in reversed(range(0, (p - 1).bit_length(), w)):
                acc = ((acc << w) + prod(a, b >> shift & (1 << w) - 1) % p) % p
            return acc
        la = self.cut(a, k)
        nl, w = len(la), -(-(p - 1).bit_length() // len(la))
        lb = _limbs(b, w, nl)
        acc = 0
        for s in reversed(range(2 * nl - 1)):
            part = sum(prod(la[i], lb[s - i]) for i in range(max(0, s - nl + 1), min(s, nl - 1) + 1))
            acc = (acc << w) + np.asarray(part).astype(object)
        return np.asarray(acc % p).astype(np.int64)

    def cut(self, a, k: int):
        """a as exact takes it in products of at most k terms per output: a
        itself, or past p**2 > 2**63 the list of its nl w-bit limbs, nl the
        fewest with nl k (2**w - 1)**2 <= 2**63 - 1, so that the fixed
        operand of a sequence of products is cut once."""
        if self._acc_limit or isinstance(a, list):
            return a
        bits = (self.p - 1).bit_length()
        nl = next(n for n in range(2, bits + 1) if n * k * ((1 << -(-bits // n)) - 1) ** 2 <= _INT64_MAX)
        return _limbs(a, -(-bits // nl), nl)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Exact A @ B mod p."""
        return self.exact(np.dot, A, B, A.shape[-1])

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact polynomial-coefficient convolution mod p."""
        if len(a) == 0 or len(b) == 0:
            return self.zeros(0)
        return FixedFactor(self, b, len(a), 0, len(a) + len(b) - 1)(a)

    def fft_product(self, a: np.ndarray, b: np.ndarray, plan: tuple, lo: int, hi: int) -> np.ndarray:
        """Coefficients lo..hi-1 of the polynomial-matrix product a.b mod p, a
        (r, k, la) and b (k, c, lb) int64 coefficient tensors, by the FFT of
        plan = _fft_plan(k, la, lb, lo, hi), of the least size N = 2**s >= la, lb
        that wraps nothing onto them, N >= max(hi, la + lb - 1 - lo).

        Percival (Math. Comp. 72, 2003, Thm 5.1), twiddle error <= e = 2**-53:
        a double FFT product of size N = 2**s <= 2**18 is off by at most
        ||x|| ||y|| ((1+e)**(6s) (1+e*sqrt5)**(3s+1) - 1) < 2**-45.1 ||x|| ||y||,
        and w-bit limbs give ||x|| ||y|| <= 2**(2w) N.  The inner-dimension sum
        is taken on the spectra, and each error term of the bound adds over the
        summands, so an output summing k terms of at most nl limb products per
        shift is within nl k 2**(2w) N 2**-45.1 of its integer.  nl is the
        fewest limbs, of w = ceil(log2 p / nl) bits, that keep this below
        3 2**40 2**-45.1 < 0.09 (three 11-bit limbs do when k N <= 2**18, as
        p < 2**32), and rint is exact.  Tiles of rows of a keep the transient
        buffers besides the spectra of b near _FFT_TILE_BYTES.
        """
        r, k, c = a.shape[0], a.shape[1], b.shape[1]
        size, nl, _ = plan
        fb = self._spectra(b, plan)
        # bytes per row of a: its spectra, and the products' spectra, values
        # and integers
        tile = max(1, _FFT_TILE_BYTES // (16 * (size // 2 + 1) * (nl * k + 3 * (2 * nl - 1) * c)))
        out = np.empty((r, c, hi - lo), dtype=np.int64)
        for i0 in range(0, r, tile):
            out[i0 : i0 + tile] = self._from_spectra(self._spectra(a[i0 : i0 + tile], plan), fb, plan, lo, hi)
        return out

    def _fft_plan(self, k: int, la: int, lb: int, lo: int, hi: int) -> tuple | None:
        """(N, nl, w) of fft_product for inner dimension k and lengths la, lb, or
        None where no plan of at most three limbs is exact: at k N > 2**18, and
        where _from_spectra's int64 Horner, a residue shifted by w bits plus a
        limb sum below 3 2**40, could overflow."""
        size = 1 << (max(hi, la + lb - 1 - lo, la, lb) - 1).bit_length()
        if k * size > _FFT_MAX_SIZE:
            return None
        bits = self.p.bit_length()
        for nl in (1, 2, 3):
            w = -(-bits // nl)
            if nl * k * size << 2 * w <= 3 << 40 and (self.p - 1 << w) + (3 << 40) <= _INT64_MAX:
                return size, nl, w
        return None

    def _spectra(self, x: np.ndarray, plan: tuple) -> np.ndarray:
        """The size-N spectra of the nl w-bit limbs of x, along its last axis."""
        size, nl, w = plan
        out = np.empty((nl,) + x.shape[:-1] + (size // 2 + 1,), dtype=np.complex128)
        for i in range(nl):
            out[i] = np.fft.rfft((x >> w * i) % (1 << w), size)
        return out

    def _from_spectra(self, fa: np.ndarray, fb: np.ndarray, plan: tuple, lo: int, hi: int) -> np.ndarray:
        """Coefficients lo..hi-1 of a.b mod p from the limb spectra of a and b."""
        size, nl, w = plan
        prods = np.zeros((2 * nl - 1,) + fa.shape[1:2] + fb.shape[2:], dtype=np.complex128)
        for i in range(nl):
            for j in range(nl):
                prods[i + j] += np.einsum("ikh,kjh->ijh", fa[i], fb[j])
        limbs = np.rint(np.fft.irfft(prods, size)[..., lo:hi]).astype(np.int64)
        acc = limbs[-1] % self.p
        for limb in limbs[-2::-1]:
            acc = ((acc << w) + limb) % self.p
        return acc


def _limbs(x, w: int, n: int) -> list:
    """The n w-bit limbs of x, an int64 array or a scipy CSR matrix, lowest
    first."""
    if sp.issparse(x):
        return [sp.csr_matrix((d, x.indices, x.indptr), x.shape) for d in _limbs(x.data, w, n)]
    return [x >> w * i & (1 << w) - 1 for i in range(n)]


class FixedFactor:
    """b as the fixed factor of products a.b mod p, a of length la, read at
    coefficients lo..hi-1, hi <= la + len(b) - 1.  With both lengths
    > _FFT_MIN_LEN and a plan from Field._fft_plan, they take the FFT of
    fft_product, and the limb spectra of b are taken once, here; otherwise
    each is one direct convolution under Field.exact."""

    __slots__ = ("field", "b", "lo", "hi", "plan", "fb")

    def __init__(self, field: Field, b: np.ndarray, la: int, lo: int, hi: int):
        plan = field._fft_plan(1, la, len(b), lo, hi) if min(la, len(b)) > _FFT_MIN_LEN else None
        self.field, self.b, self.lo, self.hi, self.plan = field, b, lo, hi, plan
        self.fb = None if plan is None else field._spectra(b[None, None], plan)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        f, plan = self.field, self.plan
        if plan is None:
            return f.exact(np.convolve, a, self.b, min(len(a), len(self.b)))[self.lo : self.hi]
        return f._from_spectra(f._spectra(a[None, None], plan), self.fb, plan, self.lo, self.hi)[0, 0]


# FFT products: the length above which a convolution beats np.convolve
# (measured), the size that keeps one exact, the working set of a tile.
_FFT_MIN_LEN = 500
_FFT_MAX_SIZE = 1 << 18
_FFT_TILE_BYTES = 1 << 19


class Rng:
    """Deterministic seeded randomness; one handle per solve, no globals.

    Child streams for parallel or logically independent phases are derived
    from the seed, so results never depend on call interleaving across
    children.
    """

    __slots__ = ("seed", "_gen", "_children")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.default_rng(self.seed)
        self._children = 0

    def child(self) -> "Rng":
        self._children += 1
        # splitmix-style derivation keeps children independent of the
        # parent's consumption position.
        z = (self.seed + 0x9E3779B97F4A7C15 * self._children) & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return Rng(z ^ (z >> 31))

    def element(self, field: Field) -> int:
        return int(self._gen.integers(0, field.p))

    def nonzero_element(self, field: Field) -> int:
        return 1 + int(self._gen.integers(0, field.p - 1))

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def block(self, field: Field, rows: int, cols: int) -> np.ndarray:
        if rows < 1 or cols < 1:
            raise InvalidInput("block dimensions must be >= 1")
        return self._gen.integers(0, field.p, size=(rows, cols), dtype=np.int64)

    def vector(self, field: Field, n: int) -> np.ndarray:
        return self.block(field, n, 1)[:, 0]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
