"""Sparse matrices over a prime field and the streamed block-Krylov pass.

Storage is scipy CSR with int64 entries reduced to [0, p).  The Krylov pass
advances the block (M^T)^s U by one sparse product per step and projects it
at once, so no Krylov table is ever stored; the numerators add a few
matrix-vector products.  Every sparse product follows the field's one
overflow policy (`Field.exact`).
"""

from __future__ import annotations

from operator import matmul

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError
from .field import Field


class SparseMat:
    """Immutable D x D sparse matrix over a prime field."""

    __slots__ = ("field", "dim", "csr")

    def __init__(self, field: Field, dim: int, csr: sp.csr_matrix):
        self.field = field
        self.dim = dim
        self.csr = csr

    @classmethod
    def from_coo(cls, field: Field, dim: int, rows, cols, vals) -> "SparseMat":
        """From positions and their values in [0, p); duplicates are summed."""
        m = sp.csr_matrix((np.asarray(vals).astype(np.int64), (rows, cols)), shape=(dim, dim))
        m.data %= field.p
        m.eliminate_zeros()
        m.sort_indices()
        return cls(field, dim, m)

    @classmethod
    def from_dense(cls, field: Field, arr) -> "SparseMat":
        a = field.array(arr)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError("matrix must be square")
        r, c = np.nonzero(a)
        return cls.from_coo(field, a.shape[0], r, c, a[r, c])

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def density(self) -> float:
        return self.nnz / (self.dim * self.dim) if self.dim else 0.0

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def combine_matrices(t, mats) -> SparseMat:
    """Sparse sum t_1*M_1 + ... + t_n*M_n; cancelled entries are dropped."""
    if not mats:
        raise ShapeError("need at least one matrix")
    field = mats[0].field
    dim = mats[0].dim
    if len(t) != len(mats):
        raise ShapeError("coefficient count must match matrix count")
    acc = sp.csr_matrix((dim, dim), dtype=np.int64)
    for ti, M in zip(t, mats):
        if M.dim != dim or M.field != field:
            raise ShapeError("matrices must share dimensions and modulus")
        ti = int(ti) % field.p
        if ti == 0:
            continue
        part = M.csr.copy()
        # keep data in [0, p) so further sums cannot overflow int64
        part.data = field.axpy(ti, part.data)
        acc = acc + part
        acc.data %= field.p
    acc.eliminate_zeros()
    acc.sort_indices()
    return SparseMat(field, dim, acc)


def _operator(A: sp.csr_matrix, f: Field):
    """X -> A . X over the field, exactly, for A with entries in [0, p) and
    X a vector or a block.

    A row of A sums at most its nonzeros, so Field.exact's overflow policy
    applies with k the largest row count; a matrix with at most
    f._acc_limit columns needs no scan.  Any limbs of A are cut once, here.
    """
    k = A.shape[1] if A.shape[1] <= f._acc_limit else int(np.diff(A.indptr).max())
    a = f.cut(A, k)
    return lambda X: f.exact(matmul, a, X, k)


def vec_mat(v: np.ndarray, M: SparseMat) -> np.ndarray:
    """Exact v . M over the field."""
    if v.shape != (M.dim,):
        raise ShapeError(f"vector length {v.shape} does not match {M.dim}")
    return _operator(M.csr.T.tocsr(), M.field)(v)


def mat_vec(M: SparseMat, w: np.ndarray) -> np.ndarray:
    """Exact M . w over the field, for a column vector or a D x k block w."""
    if w.shape[:1] != (M.dim,) or w.ndim > 2:
        raise ShapeError("vector length mismatch")
    return _operator(M.csr, M.field)(w)


def horner(M: SparseMat, coeffs, W: np.ndarray, transpose: bool = False) -> np.ndarray:
    """P(M) W, or P(M^T) W with transpose, for P = sum_k coeffs[k] T^k and a
    D x k block W: Horner's rule, one sparse product per coefficient, each
    step one Field.axpy."""
    if W.shape[:1] != (M.dim,):
        raise ShapeError("W must have D rows")
    f = M.field
    step = _operator(M.csr.T.tocsr() if transpose else M.csr, f)
    acc = f.zeros(W.shape)
    for c in reversed(coeffs):
        acc = f.axpy(int(c), W, step(acc))
    return acc


def project_right(block: np.ndarray, right: np.ndarray, field: Field) -> np.ndarray:
    """One projected term L . right, for the Krylov block stored as block = L^T."""
    return field.matmul(block.T, right)


def krylov_left_sequence(M: SparseMat, U: np.ndarray, count: int, right, short=None):
    """Projections of the left Krylov blocks L_s = U^T M^s onto right = [V | W].

    V is as wide as U, or is all of right when right is narrower.  Returns
    (seq, extra): the count x m x #V array of the terms L_s . V and the
    short (default count) x m x #W array of the terms L_s . W, term s at
    index s.  One streamed pass: M is transposed once, the D x m block
    (M^T)^s U advances by one sparse product per step and is projected at
    once, and only the current block is kept, so memory stays
    O(nnz + D (m + k)) for k columns of right.
    """
    if count < 1:
        raise ShapeError("need at least one block")
    if U.shape[0] != M.dim:
        raise ShapeError("U must have D rows")
    f = M.field
    m = U.shape[1]
    R = f.array(right).reshape(len(right), -1)
    if R.shape[0] != M.dim:
        raise ShapeError("right must have D rows")
    short = count if short is None else min(short, count)
    v = min(m, R.shape[1])
    seq = f.zeros((count, m, v))
    extra = f.zeros((short, m, R.shape[1] - v))
    step = _operator(M.csr.T.tocsr(), f)
    X = f.array(U)
    for s in range(count):
        F = project_right(X, R if s < short else R[:, :v], f)
        seq[s] = F[:, :v]
        if s < short:
            extra[s] = F[:, v:]
        if s + 1 < count:
            X = step(X)
    return seq, extra


def project_vector(M: SparseMat, U: np.ndarray, count: int, w: np.ndarray) -> np.ndarray:
    """The count x m x 1 array of the terms L_s . w of one column w, by a
    pass of its own."""
    if w.shape != (M.dim,):
        raise ShapeError("w must have length D")
    return krylov_left_sequence(M, U, count, w.reshape(-1, 1), short=0)[0]
