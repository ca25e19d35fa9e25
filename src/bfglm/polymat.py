"""Polynomial matrices: minimal approximant bases, minimal matrix generators
of linearly recurrent matrix sequences, row-reducedness, the largest
invariant factor (by Berlekamp-Massey on one projected series), and quotient
rows.

Dense coefficient tensors (shape rows x cols x degree+1) drive the inner
loops; the PolyMat wrapper of Poly entries is the exchange format.
"""

from __future__ import annotations

import numpy as np

from .errors import GenericityFailure, InvalidInput, ShapeError
from .field import Field, Rng
from .unipoly import Poly, berlekamp_massey

NEG_INF = -1


class PolyMat:
    """Rectangular matrix of Poly entries over a common field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeError("ragged polynomial matrix")

    @classmethod
    def identity(cls, field: Field, n: int) -> "PolyMat":
        return cls(
            field,
            [[Poly.one(field) if i == j else Poly.zero(field) for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "PolyMat":
        z = Poly.zero(field)
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_coeff_tensor(cls, field: Field, tensor: np.ndarray) -> "PolyMat":
        r, c, _ = tensor.shape
        return cls(field, [[Poly(field, tensor[i, j]) for j in range(c)] for i in range(r)])

    def coeff_tensor(self, degree: int | None = None) -> np.ndarray:
        d = self.max_degree() if degree is None else degree
        d = max(d, 0)
        out = self.field.zeros((self.rows, self.cols, d + 1))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if not e.is_zero():
                    k = min(len(e.c), d + 1)
                    out[i, j, :k] = e.c[:k]
        return out

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        return "PolyMat([" + ",\n         ".join(str([str(e) for e in row]) for row in self.entries) + "])"

    def row_degree(self, i: int) -> int:
        degs = [e.degree for e in self.entries[i]]
        return max(degs) if degs else NEG_INF

    def row_degrees(self):
        return [self.row_degree(i) for i in range(self.rows)]

    def max_degree(self) -> int:
        return max((self.row_degree(i) for i in range(self.rows)), default=NEG_INF)

    def leading_matrix(self) -> np.ndarray:
        """Entry (i,j) is the coefficient of T^rowdeg(i) in entry (i,j)."""
        lm = self.field.zeros((self.rows, self.cols))
        for i in range(self.rows):
            d = self.row_degree(i)
            if d < 0:
                continue
            for j in range(self.cols):
                lm[i, j] = self.entries[i][j].coeff(d)
        return lm

    def matmul(self, other: "PolyMat") -> "PolyMat":
        if self.cols != other.rows:
            raise ShapeError("inner dimensions differ")
        f = self.field
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Poly.zero(f)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMat(f, out)

    def scale_rows_left(self, C: np.ndarray) -> "PolyMat":
        """Left-multiply by a constant matrix C."""
        f = self.field
        out = []
        for i in range(C.shape[0]):
            row = []
            for j in range(self.cols):
                acc = Poly.zero(f)
                for k in range(self.rows):
                    c = int(C[i, k]) % f.p
                    if c:
                        acc = acc + self.entries[k][j].scale(c)
                row.append(acc)
            out.append(row)
        return PolyMat(f, out)


def mat_inverse(field: Field, A: np.ndarray) -> np.ndarray:
    """Dense inverse of a small constant matrix by Gaussian elimination.

    Raises GenericityFailure when singular (callers treat that as unlucky
    randomness or fall back to a shifted evaluation point).
    """
    n = A.shape[0]
    work = field.array(A)
    inv = field.zeros((n, n))
    for i in range(n):
        inv[i, i] = 1
    p = field.p
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r, col] != 0:
                piv = r
                break
        if piv is None:
            raise GenericityFailure("singular constant matrix")
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        scale = field.inv(int(work[col, col]))
        work[col] = work[col] * scale % p
        inv[col] = inv[col] * scale % p
        for r in range(n):
            if r != col and work[r, col] != 0:
                c = work[r, col]
                work[r] = (work[r] - c * work[col]) % p
                inv[r] = (inv[r] - c * inv[col]) % p
    return inv


def approximant_basis(F: PolyMat, order: int, shift=None) -> PolyMat:
    """Shift-reduced basis of { p : p.F = 0 mod T^order }.

    Iterative order-by-order elimination: at each order the constant residual
    is reduced by rows of minimal shifted degree, and the surviving pivot
    rows are multiplied by T.
    """
    if order < 1:
        raise InvalidInput("order must be >= 1")
    f = F.field
    r, c = F.rows, F.cols
    if shift is None:
        shift = [0] * r
    if len(shift) != r:
        raise ShapeError("shift length must match row count")
    p = f.p

    Fc = F.coeff_tensor(order - 1)[:, :, :order]
    # basis coefficients, degrees 0..order
    B = f.zeros((r, r, order + 1))
    for i in range(r):
        B[i, i, 0] = 1
    # residual B.F mod T^order
    R = Fc.copy()
    deg = [int(s) for s in shift]

    lo_shift = min(deg)
    for k in range(order):
        # live window: R vanishes below T^k, and row i of B has degree at
        # most min(deg[i] - min(shift), k)
        top = min(max(deg) - lo_shift, k) + 1
        idx = sorted(range(r), key=lambda i: (deg[i], i))
        pivots = []  # (row, col, inverse of pivot value)
        for i in idx:
            for prow, pcol, pinv in pivots:
                v = R[i, pcol, k]
                if v != 0:
                    coef = v * pinv % p
                    R[i, :, k:] = (R[i, :, k:] - coef * R[prow, :, k:]) % p
                    B[i, :, :top] = (B[i, :, :top] - coef * B[prow, :, :top]) % p
            row = R[i, :, k]
            nz = np.flatnonzero(row != 0)
            if len(nz):
                j = int(nz[0])
                pivots.append((i, j, f.inv(int(row[j]))))
        for prow, _, _ in pivots:
            B[prow, :, 1 : top + 1] = B[prow, :, :top]
            B[prow, :, 0] = 0
            R[prow, :, k + 1 :] = R[prow, :, k:-1]
            R[prow, :, k] = 0
            deg[prow] += 1
    return PolyMat.from_coeff_tensor(f, B)


def is_row_reduced(P: PolyMat) -> bool:
    if P.rows != P.cols:
        raise ShapeError("row-reducedness is defined for square matrices here")
    if any(P.row_degree(i) < 0 for i in range(P.rows)):
        return False
    try:
        mat_inverse(P.field, P.leading_matrix())
        return True
    except GenericityFailure:
        return False


def minimal_matrix_generator(terms, field: Field, deg_left: int, deg_right: int) -> PolyMat:
    """Row-reduced minimal left generator of a matrix sequence prefix.

    Stacks the reversed series of the terms over -I and reads the generator
    off the low-degree rows of an approximant basis.  With the full
    deg_left+deg_right+1 terms the uniform shift suffices; with only
    deg_left+deg_right terms (the Krylov case) the identity block gets
    shift 1, which caps the remainder part one degree lower and thereby
    enforces every recurrence window the data supports.
    """
    if not terms:
        raise InvalidInput("empty sequence")
    m = terms[0].shape[0]
    if len(terms) >= deg_left + deg_right + 1:
        d = deg_left + deg_right + 1
        shift = [0] * (2 * m)
    else:
        d = len(terms)
        if d < deg_left + deg_right:
            raise InvalidInput(
                f"need at least {deg_left + deg_right} terms, got {d}"
            )
        shift = [0] * m + [1] * m
    series = field.zeros((m, m, d))
    for s in range(d):
        series[:, :, d - s - 1] = terms[s] % field.p
    stacked = field.zeros((2 * m, m, d))
    stacked[:m] = series
    for i in range(m):
        stacked[m + i, i, 0] = field.p - 1
    F = PolyMat.from_coeff_tensor(field, stacked)
    basis = approximant_basis(F, d, shift)
    sdeg = [
        max(
            (basis.entries[i][j].degree + shift[j] for j in range(2 * m) if not basis.entries[i][j].is_zero()),
            default=NEG_INF,
        )
        for i in range(2 * m)
    ]
    selected = [i for i in range(2 * m) if 0 <= sdeg[i] <= deg_left]
    if len(selected) != m:
        raise GenericityFailure(
            f"expected {m} generator rows of degree <= {deg_left}, found {len(selected)}"
        )
    gen = PolyMat(field, [[basis.entries[i][j] for j in range(m)] for i in selected])
    degs = gen.row_degrees()
    if len(set(degs)) == 1:
        # uniform row degrees admit a unique generator with identity leading
        # matrix, which keeps outputs canonical across block choices
        lead = gen.leading_matrix()
        gen = gen.scale_rows_left(mat_inverse(field, lead))
    if not is_row_reduced(gen):
        raise GenericityFailure("selected rows are not row-reduced")
    return gen


def generator_cancels(gen: PolyMat, terms) -> bool:
    """Check sum_k P_k . F_{s+k} = 0 for every window that fits."""
    f = gen.field
    m = gen.cols
    dmax = gen.max_degree()
    coeffs = gen.coeff_tensor(dmax)
    n_terms = len(terms)
    for s in range(n_terms - dmax):
        acc = f.zeros((m, m))
        for k in range(dmax + 1):
            acc = (acc + f.matmul(coeffs[:, :, k], f.array(terms[s + k]))) % f.p
        if np.any(acc != 0):
            return False
    return True


def _series_solve(field: Field, Pc: np.ndarray, Y: np.ndarray, prec: int) -> np.ndarray:
    """x with P.x = Y mod T^prec, P given as coefficient tensor (m,m,dp+1).

    Requires P(0) invertible; raises GenericityFailure otherwise.
    """
    m = Pc.shape[0]
    dp = Pc.shape[2] - 1
    Cinv = mat_inverse(field, Pc[:, :, 0])
    p = field.p
    # x_k = Cinv (Y_k - A window_k), window flattened as (l, j)
    x = field.zeros((m, prec + dp))
    Yk = Y[:, :prec]
    x[:, dp : dp + Yk.shape[1]] = field.matmul(Cinv, Yk)
    if dp > 0:
        CA = field.matmul(Cinv, np.ascontiguousarray(Pc[:, :, 1:]).reshape(m, m * dp))
        for k in range(prec):
            window = x[:, k : k + dp][:, ::-1].reshape(m * dp)
            x[:, k + dp] = (x[:, k + dp] - field.matmul(CA, window)) % p
    return x[:, dp : dp + prec]


def _shifted_tensor(P: PolyMat, a: int) -> np.ndarray:
    f = P.field
    d = P.max_degree()
    out = f.zeros((P.rows, P.cols, d + 1))
    for i in range(P.rows):
        for j in range(P.cols):
            e = P.entries[i][j].compose_linear(a)
            if not e.is_zero():
                out[i, j, : len(e.c)] = e.c
    return out


def _find_shift(P: PolyMat, rng: Rng) -> tuple[int, np.ndarray]:
    """Evaluation shift a with P(a) invertible, plus the shifted tensor."""
    f = P.field
    for attempt in range(32):
        a = 0 if attempt == 0 else rng.element(f)
        Pc = P.coeff_tensor() if a == 0 else _shifted_tensor(P, a)
        try:
            mat_inverse(f, Pc[:, :, 0])
            return a, Pc
        except GenericityFailure:
            continue
    raise GenericityFailure("could not find an invertible evaluation point")


def largest_invariant_factor(P: PolyMat, rng: Rng) -> Poly:
    """Monic largest invariant factor s1 of a nonsingular row-reduced P;
    generically the minimal polynomial of the underlying operator.

    s1 is the denominator den of P^{-1}; generically it is already that of
    the random projection w^T P^{-1} y (Wiedemann).  Row-reduced with
    positive row degrees, P has a strictly proper inverse, so in a variable
    T shifted to make P(0) invertible, w^T P^{-1} y = N / den with
    deg N < deg den and den(0) != 0: its series coefficients satisfy the
    recurrence of rev(den) from the start, and Berlekamp-Massey on the first
    2 deg det P = 2 sum rowdeg(P) of them returns rev(den).  A row of degree
    0 (a block wider than the sequence's rank) leaves P^{-1} proper only:
    deg N <= deg den delays the recurrence by one term, the generator is
    T rev(den), and two more terms are needed.  An unlucky w or y yields a
    proper divisor of s1; deg s1 = deg det P certifies s1 outright, below
    that the caller certifies it by the exact quotient rows
    (`left_quotient_row`).
    """
    f = P.field
    m = P.rows
    if m != P.cols:
        raise ShapeError("square matrix required")
    if m == 1:
        e = P.entries[0][0]
        if e.is_zero():
            raise InvalidInput("singular matrix")
        return e.monic()
    degs = P.row_degrees()
    bound = sum(degs) + (min(degs) == 0)
    a, Pc = _find_shift(P, rng)
    y = rng.vector(f, m).reshape(m, 1)
    w = rng.vector(f, m).reshape(1, m)
    gen = berlekamp_massey(f.matmul(w, _series_solve(f, Pc, y, 2 * bound))[0], f, bound)
    s1 = Poly(f, gen.c[::-1]).monic()
    return s1.compose_linear(-a) if a else s1


def left_quotient_row(P: PolyMat, s1: Poly, i: int, rng: Rng) -> PolyMat:
    """Row a with a.P = s1.e_i and deg(a) <= deg(s1), verified exactly."""
    f = P.field
    m = P.rows
    if not 0 <= i < m:
        raise InvalidInput("row index out of range")
    ds = s1.degree
    prec = ds + P.max_degree() + 1
    # transpose so the row solve becomes a column solve
    Pt = PolyMat(f, [[P.entries[j][k] for j in range(m)] for k in range(m)])
    a_shift, Pc = _find_shift(Pt, rng)
    s1s = s1.compose_linear(a_shift) if a_shift else s1
    Y = f.zeros((m, prec))
    Y[i, : len(s1s.c)] = s1s.c
    x = _series_solve(f, Pc, Y, prec)
    row = []
    for j in range(m):
        e = Poly(f, x[j][: ds + 1])
        row.append(e.compose_linear(-a_shift) if a_shift else e)
    a_row = PolyMat(f, [row])
    prod = a_row.matmul(P)
    for j in range(m):
        expect = s1 if j == i else Poly.zero(f)
        if prod.entries[0][j] != expect:
            raise GenericityFailure("quotient row verification failed")
    return a_row
