"""Polynomial matrices: minimal approximant bases, row-reduced minimal
matrix generators of linearly recurrent matrix sequences, the largest
invariant factor (by Berlekamp-Massey on one projected series), and quotient
rows.

A polynomial matrix is one coefficient tensor (rows x cols x degree+1);
`pm_mul` is its one product, and `PolyMat[i, j]` is the only way out to a
univariate `Poly`.
"""

from __future__ import annotations

import numpy as np

from .errors import GenericityFailure, InvalidInput, ShapeError
from .field import Field, Rng
from .unipoly import Poly, _fit, berlekamp_massey

NEG_INF = -1
# Orders up to _LEAF_ORDER run the M-Basis loop, and products whose operands
# are both longer than _PM_FFT_MIN_LEN take the FFT (both measured).
_LEAF_ORDER = 32
_PM_FFT_MIN_LEN = 16


def _degrees(nz: np.ndarray) -> np.ndarray:
    """Index of the last True along the last axis of nz, NEG_INF if none."""
    last = nz.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1)
    return np.where(nz.any(axis=-1), last, NEG_INF)


class PolyMat:
    """Matrix over F_p[T] as its coefficient tensor c: entry (i, j) is
    sum_k c[i, j, k] T^k.  c is trimmed to max(degree, 0) + 1 coefficients
    and, like the row degrees fixed here, never changes afterwards."""

    __slots__ = ("field", "c", "rows", "cols", "_rdeg")

    def __init__(self, field: Field, c: np.ndarray):
        if c.ndim != 3:
            raise ShapeError("coefficient tensor must be rows x cols x length")
        self.field = field
        self.rows, self.cols, length = c.shape
        c = _fit(c, max(length, 1), field)
        self._rdeg = [int(e) for e in _degrees((c != 0).any(axis=1))]
        self.c = c[:, :, : max(self.max_degree(), 0) + 1]

    def __getitem__(self, ij) -> Poly:
        return Poly._raw(self.field, self.c[ij].copy())

    def row_degrees(self) -> list:
        return list(self._rdeg)

    def max_degree(self) -> int:
        return max(self._rdeg, default=NEG_INF)

    def leading_matrix(self) -> np.ndarray:
        """Entry (i,j) is the coefficient of T^rowdeg(i) in entry (i,j); a
        zero row reads its zero constant coefficients."""
        return self.c[np.arange(self.rows), :, np.maximum(self._rdeg, 0)]


def pm_mul(A: PolyMat, B: PolyMat) -> PolyMat:
    """A . B."""
    if A.cols != B.rows:
        raise ShapeError("inner dimensions differ")
    return PolyMat(A.field, _product(A.field, A.c, B.c))


def _product(f: Field, a: np.ndarray, b: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Coefficients lo..hi-1 (default: all) of a . b, a (r, k, la) and b
    (k, c, lb) coefficient tensors: one batched limb FFT for long operands
    where Field._fft_plan has an exact plan, else one Field.exact of the
    schoolbook product, a matrix product per coefficient of the shorter
    operand, whose outputs sum k min(la, lb) products."""
    (r, k, la), (c, lb) = a.shape, b.shape[1:]
    n = la + lb - 1
    hi = n if hi is None else hi
    plan = f._fft_plan(k, la, lb, lo, hi) if min(la, lb) > _PM_FFT_MIN_LEN else None
    if plan is not None:
        return f.fft_product(a, b, plan, lo, hi)

    def schoolbook(a, b):
        out = np.zeros_like(a, shape=(r, c, n))
        if la <= lb:
            flat = b.reshape(k, c * lb)
            for s in range(la):
                out[:, :, s : s + lb] += np.dot(a[:, :, s], flat).reshape(r, c, lb)
        else:
            flat = a.transpose(0, 2, 1).reshape(r * la, k)
            for s in range(lb):
                out[:, :, s : s + la] += np.dot(flat, b[:, :, s]).reshape(r, la, c).transpose(0, 2, 1)
        return out

    return _fit(f.exact(schoolbook, a, b, k * min(la, lb))[:, :, lo:], hi - lo, f)


def mat_inverse(field: Field, A: np.ndarray) -> np.ndarray:
    """Dense inverse of a small constant matrix by Gauss-Jordan elimination
    on Python-int rows, like `_eliminate`, so exact for every prime.

    Raises GenericityFailure when singular (callers treat that as unlucky
    randomness).
    """
    p, n = field.p, len(A)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A.tolist())]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise GenericityFailure("singular constant matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = field.inv(aug[col][col])
        aug[col] = [x * scale % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return np.array([row[n:] for row in aug], dtype=np.int64)


def approximant_basis(F: PolyMat, order: int, shift=None) -> PolyMat:
    """Shift-reduced basis of { p : p.F = 0 mod T^order }.

    PM-Basis (Giorgi, Jeannerod, Villard, ISSAC 2003) over the order-by-order
    M-Basis loop of `_m_basis`: the basis of the lower half of the order,
    then that of the residual it leaves on the upper half, shifted by the row
    degrees so far, multiplied together.  An order's elimination depends only
    on its residual and on those degrees, so the product is the loop's basis
    bit for bit.
    """
    if order < 1:
        raise InvalidInput("order must be >= 1")
    f = F.field
    if shift is None:
        shift = [0] * F.rows
    if len(shift) != F.rows:
        raise ShapeError("shift length must match row count")
    return PolyMat(f, _pm_basis(f, _fit(F.c, order, f), [int(s) for s in shift])[0])


def _pm_basis(f: Field, R: np.ndarray, deg: list) -> tuple:
    """(basis, shifted row degrees) for the residual R, order its length."""
    order = R.shape[2]
    if order <= _LEAF_ORDER:
        return _m_basis(f, R, deg)
    half = order // 2
    P1, deg = _pm_basis(f, R[:, :, :half], deg)
    P2, deg = _pm_basis(f, _product(f, P1, R, half, order), deg)
    return PolyMat(f, _product(f, P2, P1)).c, deg


def _m_basis(f: Field, R: np.ndarray, deg: list) -> tuple:
    """The iterative M-Basis: at each order the constant residual is reduced
    by rows of minimal shifted degree, and the surviving pivot rows are
    multiplied by T."""
    r, c, order = R.shape
    B = f.zeros((r, r, order + 1))
    B[range(r), range(r), 0] = 1
    R = R.copy()
    deg = list(deg)
    lo = min(deg)
    for k in range(order):
        # live window: R vanishes below T^k, and row i of B has degree at
        # most min(deg[i] - lo, k)
        top = min(max(deg) - lo, k) + 1
        E, pivots = _eliminate(f, R[:, :, k].tolist(), deg)
        R[:, :, k:] = f.matmul(E, R[:, :, k:].reshape(r, -1)).reshape(r, c, -1)
        B[:, :, :top] = f.matmul(E, B[:, :, :top].reshape(r, -1)).reshape(r, r, top)
        B[pivots, :, 1 : top + 1] = B[pivots, :, :top]
        B[pivots, :, 0] = 0
        R[pivots, :, k + 1 :] = R[pivots, :, k:-1]
        R[pivots, :, k] = 0
        for i in pivots:
            deg[i] += 1
    return PolyMat(f, B).c, deg


def _eliminate(f: Field, rows: list, deg: list) -> tuple:
    """Gaussian elimination of a constant residual on Python ints, rows in
    order of (deg, index), each reduced by the pivots before it: returns the
    transform E that applies it in one product, and the pivot rows."""
    p, r, c = f.p, len(rows), len(rows[0])
    aug = [row + [0] * i + [1] + [0] * (r - 1 - i) for i, row in enumerate(rows)]
    pivots = []  # (row, col, inverse of pivot value)
    for i in sorted(range(r), key=lambda i: (deg[i], i)):
        for prow, pcol, pinv in pivots:
            if aug[i][pcol]:
                coef = aug[i][pcol] * pinv % p
                aug[i] = [(x - coef * y) % p for x, y in zip(aug[i], aug[prow])]
        j = next((j for j in range(c) if aug[i][j]), None)
        if j is not None:
            pivots.append((i, j, f.inv(aug[i][j])))
    return np.array([row[c:] for row in aug], dtype=np.int64), [i for i, _, _ in pivots]


def reversed_series(f: Field, terms) -> np.ndarray:
    """The m x k x d coefficient tensor of sum_{s<d} E_{d-1-s} T^s, for the
    d x m x k terms E_s of a sequence (an array, or a list that converts to
    one with np.asarray)."""
    terms = np.asarray(terms)
    rev = f.zeros(terms.shape[1:] + (len(terms),))
    rev[...] = np.moveaxis(terms[::-1], 0, -1) % f.p
    return rev


def minimal_matrix_generator(terms, field: Field, deg: int) -> PolyMat:
    """Row-reduced minimal left generator, of degree at most deg, of the
    2 deg x m x m terms of a matrix sequence prefix (the Krylov case).

    Stacks the reversed series of the terms over -I and reads the generator
    off the low-degree rows of an approximant basis.  The identity block
    gets shift 1, which caps the remainder part one degree lower and thereby
    enforces every recurrence window the data supports.
    """
    d = 2 * deg
    if deg < 1 or len(terms) != d:
        raise InvalidInput(f"need {d} terms for degree {deg}, got {len(terms)}")
    series = reversed_series(field, terms)
    m = series.shape[0]
    shift = [0] * m + [1] * m
    stacked = field.zeros((2 * m, m, d))
    stacked[:m] = series
    for i in range(m):
        stacked[m + i, i, 0] = field.p - 1
    basis = approximant_basis(PolyMat(field, stacked), d, shift)
    edeg = _degrees(basis.c != 0)
    sdeg = np.where(edeg >= 0, edeg + np.array(shift), NEG_INF).max(axis=1)
    selected = [i for i in range(2 * m) if 0 <= sdeg[i] <= deg]
    if len(selected) != m:
        raise GenericityFailure(
            f"expected {m} generator rows of degree <= {deg}, found {len(selected)}"
        )
    gen = PolyMat(field, basis.c[selected, :m])
    # the rows are row-reduced exactly when their leading matrix, which
    # reads a zero row as zeros, is invertible
    try:
        lead_inv = mat_inverse(field, gen.leading_matrix())
    except GenericityFailure:
        raise GenericityFailure("selected rows are not row-reduced") from None
    if len(set(gen.row_degrees())) == 1:
        # uniform row degrees admit a unique generator with identity leading
        # matrix, which keeps outputs canonical across block choices
        c = gen.c
        gen = PolyMat(field, field.matmul(lead_inv, c.reshape(m, -1)).reshape(c.shape))
    return gen


def _series_solve(field: Field, Pc: np.ndarray, Y: np.ndarray, prec: int) -> np.ndarray:
    """x with P.x = Y mod T^prec for r right-hand sides: P given as the
    coefficient tensor (m,m,dp+1), Y and x as (m,len,r) and (m,prec,r).

    Here P is `_reversed_rows` of a generator, or its transpose, so P(0) is
    the generator's leading matrix; raises GenericityFailure when singular.
    """
    m, _, r = Y.shape
    dp = Pc.shape[2] - 1
    Cinv = mat_inverse(field, Pc[:, :, 0])
    p = field.p
    # x_k = Cinv (Y_k - sum_l P_l x_{k-l}); CA holds Cinv P_l for l = dp..1,
    # in the order of the window x_{k-dp}..x_{k-1} as stored, flattened as (j, l)
    x = field.zeros((m, prec + dp, r))
    Yk = Y[:, :prec]
    x[:, dp : dp + Yk.shape[1]] = field.matmul(Cinv, Yk.reshape(m, -1)).reshape(Yk.shape)
    if dp > 0:
        CA = field.matmul(Cinv, np.ascontiguousarray(Pc[:, :, :0:-1]).reshape(m, m * dp))
        for k in range(prec):
            window = x[:, k : k + dp].reshape(m * dp, r)
            x[:, k + dp] = (x[:, k + dp] - field.matmul(CA, window)) % p
    return x[:, dp : dp + prec]


def _reversed_rows(P: PolyMat) -> np.ndarray:
    """Coefficient tensor of R(z) = diag(z^rowdeg) P(1/z): each row of P
    reversed at its own degree, so that R(0) is the leading matrix.  A zero
    row raises InvalidInput."""
    degs = P.row_degrees()
    if min(degs) < 0:
        raise InvalidInput("singular matrix")
    R = P.field.zeros(P.c.shape)
    for i, d in enumerate(degs):
        R[i, :, : d + 1] = P.c[i, :, d::-1]
    return R


def largest_invariant_factor(P: PolyMat, rng: Rng) -> Poly:
    """Monic largest invariant factor s1 of a nonsingular row-reduced P;
    generically the minimal polynomial of the underlying operator.

    s1 is the denominator den of P^{-1}; generically it is already that of
    the random projection w^T P^{-1} y (Wiedemann).  At infinity, z = 1/T,
    P^{-1} = R(z)^{-1} diag(z^rowdeg) with R = `_reversed_rows(P)`, and R(0),
    the leading matrix, is invertible because P is row-reduced: so x =
    R^{-1} diag(z^rowdeg) y is a power series and w^T x = sum_k c_k T^{-k} =
    N / den.  Then den(T) sum_k c_k T^{-k} is a polynomial: c_1, c_2, ...
    follow the recurrence of den from the start (c_0, nonzero only when a
    row has degree 0, is not read), and Berlekamp-Massey on
    c_1 ... c_{2 deg det P}, deg det P = sum rowdeg(P), returns den.  Only
    y and w are drawn.  An unlucky w or y yields a proper divisor of s1;
    deg s1 = deg det P certifies s1 outright, below that the caller
    certifies it by the exact quotient rows (`left_quotient_row`).
    """
    f = P.field
    m = P.rows
    if m != P.cols:
        raise ShapeError("square matrix required")
    if m == 1:
        e = P[0, 0]
        if e.is_zero():
            raise InvalidInput("singular matrix")
        return e.monic()
    R = _reversed_rows(P)
    degs = P.row_degrees()
    bound = sum(degs)
    Y = f.zeros((m, max(degs) + 1, 1))
    Y[range(m), degs, 0] = rng.vector(f, m)
    w = rng.vector(f, m).reshape(1, m)
    c = f.matmul(w, _series_solve(f, R, Y, 2 * bound + 1)[:, :, 0])[0]
    return berlekamp_massey(c[1:], f, bound)


def left_quotient_row(P: PolyMat, s1: Poly, k: int) -> PolyMat:
    """The k x m rows A with A.P = s1.[I_k | 0] and deg(A) <= deg(s1): the
    first k rows of s1 P^{-1}, verified exactly.

    At infinity row i is s1 e_i P^{-1} = T^{deg s1} rev(s1)(z) x(z)
    diag(z^rowdeg) with x = e_i R^{-1}, R = `_reversed_rows(P)`: entry j is
    the first deg s1 - rowdeg_j + 1 coefficients of rev(s1) x_j, reversed.
    One series solve takes the k right-hand sides e_i at once.
    """
    f = P.field
    m = P.rows
    if not 1 <= k <= m:
        raise InvalidInput("row count out of range")
    ds = s1.degree
    # transpose so the row solves become column solves
    Y = f.zeros((m, 1, k))
    Y[range(k), 0, range(k)] = 1
    x = _series_solve(f, _reversed_rows(P).transpose(1, 0, 2), Y, ds + 1)
    x = x.transpose(2, 0, 1).reshape(1, k * m, ds + 1)
    u = _product(f, s1.c[::-1].reshape(1, 1, -1), x, 0, ds + 1).reshape(k, m, ds + 1)
    a = f.zeros((k, m, ds + 1))
    for j, d in enumerate(P.row_degrees()):
        if d <= ds:
            a[:, j, : ds - d + 1] = u[:, j, ds - d :: -1]
    A = PolyMat(f, a)
    want = f.zeros((k, m, ds + 1))
    want[range(k), range(k)] = s1.c
    if not np.array_equal(pm_mul(A, P).c, want):
        raise GenericityFailure("quotient row verification failed")
    return A
