"""Prime field arithmetic and seeded randomness.

Elements of Z/pZ are plain Python ints in [0, p); matrices and vectors are
numpy arrays of such ints.  A :class:`Field` carries the modulus and decides,
once, whether int64 arithmetic is safe or whether object-dtype (exact Python
int) arrays must be used.  Primes are limited to < 2**62 so that a single
product always fits in a double word.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero, InvalidInput

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_INT64_MAX = 2**63 - 1

_as_int = np.frompyfunc(int, 1, 1)


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

    __slots__ = ("p", "dtype", "_acc_limit")

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 2**62 or not is_prime(p):
            raise InvalidInput(f"modulus must be a prime < 2**62, got {p!r}")
        self.p = p
        # How many products of reduced elements can be summed in an int64.
        self._acc_limit = _INT64_MAX // max((p - 1) * (p - 1), 1)
        self.dtype = np.int64 if self._acc_limit >= 1 else object

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
        a = np.asarray(data, dtype=object) % self.p
        if self.dtype is np.int64:
            return a.astype(np.int64)
        # numpy integers kept in an object array would wrap around in products
        return np.asarray(_as_int(a), dtype=object)

    def zeros(self, shape) -> np.ndarray:
        if self.dtype is np.int64:
            return np.zeros(shape, dtype=np.int64)
        z = np.empty(shape, dtype=object)
        z[...] = 0
        return z

    def exact(self, prod, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        """prod(a, b) mod p, exactly, for a bilinear product prod of reduced
        operands whose outputs each sum at most k terms.

        The one overflow policy of every int64 product: up to _acc_limit terms
        the int64 sum cannot overflow; past it, b is cut into w-bit limbs, w the
        widest with k (p-1) (2**w - 1) <= 2**63 - 1, one product per limb, and
        the products are recombined mod p by Horner.  There k (p-1)**2 exceeds
        that bound, so 2**w < p and the shifted accumulator stays below
        p**2 < 2**63: no inner dimension needs chunking.  The object tier sums
        exact Python ints.
        """
        p = self.p
        if self.dtype is object:
            return prod(a.astype(object), b.astype(object)) % p
        if k <= self._acc_limit:
            return prod(a, b) % p
        w = (_INT64_MAX // (k * (p - 1)) + 1).bit_length() - 1
        acc = 0
        for shift in reversed(range(0, (p - 1).bit_length(), w)):
            acc = ((acc << w) + prod(a, b >> shift & (1 << w) - 1) % p) % p
        return acc

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
        (r, k, la) and b (k, c, lb) int64-tier coefficient tensors, by the FFT of
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
        None where no plan is exact: on the object tier and at k N > 2**18."""
        size = 1 << (max(hi, la + lb - 1 - lo, la, lb) - 1).bit_length()
        if self.dtype is object or k * size > _FFT_MAX_SIZE:
            return None
        bits = self.p.bit_length()
        nl = next(nl for nl in (1, 2, 3) if nl * k * size << 2 * -(-bits // nl) <= 3 << 40)
        return size, nl, -(-bits // nl)

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
        a = self._gen.integers(0, field.p, size=(rows, cols), dtype=np.int64)
        return a if field.dtype is np.int64 else a.astype(object)

    def vector(self, field: Field, n: int) -> np.ndarray:
        return self.block(field, n, 1)[:, 0]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
