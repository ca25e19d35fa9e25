"""Sparse matrices over a prime field and the parallel block-Krylov engine.

Storage is scipy CSR with int64 entries reduced to [0, p).  The Krylov
sequence needs row-vector times matrix, so everything is tuned for that
access pattern; the numerators add a few matrix-vector products.  For large
p the int64 fast path overflows, so both products fall back to one exact
Python-int product.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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
    def from_triples(cls, field: Field, dim: int, triples) -> "SparseMat":
        rows, cols, vals = [], [], []
        for r, c, v in triples:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ShapeError(f"entry ({r},{c}) outside {dim}x{dim}")
            v %= field.p
            if v:
                rows.append(r)
                cols.append(c)
                vals.append(v)
        m = sp.csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)),
            shape=(dim, dim),
            dtype=np.int64,
        )
        m.sum_duplicates()
        m.data %= field.p
        m.eliminate_zeros()
        m.sort_indices()
        return cls(field, dim, m)

    @classmethod
    def from_dense(cls, field: Field, arr) -> "SparseMat":
        a = np.asarray(arr, dtype=object) % field.p
        d = a.shape[0]
        if a.shape != (d, d):
            raise ShapeError("matrix must be square")
        m = sp.csr_matrix(a.astype(np.int64))
        m.eliminate_zeros()
        m.sort_indices()
        return cls(field, d, m)

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def density(self) -> float:
        return self.nnz / (self.dim * self.dim) if self.dim else 0.0

    def to_dense(self) -> np.ndarray:
        d = np.asarray(self.csr.todense(), dtype=np.int64)
        return d if self.field.dtype is np.int64 else d.astype(object)

    def triples(self):
        coo = self.csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            yield int(coo.row[k]), int(coo.col[k]), int(coo.data[k])


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
        if field._acc_limit >= 1:
            part.data = part.data * ti % field.p
        else:
            part.data = (part.data.astype(object) * ti % field.p).astype(np.int64)
        acc = acc + part
        acc.data %= field.p
    acc.eliminate_zeros()
    acc.sort_indices()
    return SparseMat(field, dim, acc)


def _int64_safe(M: SparseMat) -> bool:
    """Whether int64 sums of D products of reduced entries cannot overflow."""
    f = M.field
    return f.dtype is np.int64 and M.dim <= f._acc_limit


def _exact_product(M: SparseMat, x: np.ndarray, left: bool) -> np.ndarray:
    """Exact x . M (left) or M . x over the field, summed in Python ints."""
    rows = np.repeat(np.arange(M.dim), np.diff(M.csr.indptr))
    src, dst = (rows, M.csr.indices) if left else (M.csr.indices, rows)
    out = np.zeros(M.dim, dtype=object)
    np.add.at(out, dst, M.csr.data.astype(object) * np.asarray(x, dtype=object)[src])
    return M.field.array(out)


def vec_mat(v: np.ndarray, M: SparseMat) -> np.ndarray:
    """Exact v . M over the field."""
    if v.shape != (M.dim,):
        raise ShapeError(f"vector length {v.shape} does not match {M.dim}")
    if _int64_safe(M):
        return (v @ M.csr) % M.field.p
    return _exact_product(M, v, left=True)


def mat_vec(M: SparseMat, w: np.ndarray) -> np.ndarray:
    """Exact M . w over the field, for a column vector w."""
    if w.shape != (M.dim,):
        raise ShapeError("vector length mismatch")
    if _int64_safe(M):
        return (M.csr @ w) % M.field.p
    return _exact_product(M, w, left=False)


class KrylovTable:
    """Blocks L_s = U^T M^s for s = 0, ..., count-1."""

    __slots__ = ("field", "m", "dim", "blocks")

    def __init__(self, field: Field, blocks):
        self.field = field
        self.blocks = blocks
        self.m = blocks[0].shape[0]
        self.dim = blocks[0].shape[1]

    @property
    def count(self) -> int:
        return len(self.blocks)


def krylov_left_sequence(M: SparseMat, U: np.ndarray, count: int, workers: int = 1) -> KrylovTable:
    """Left Krylov table; rows iterate independently, so the result is
    bit-identical for any worker budget."""
    if count < 1:
        raise ShapeError("need at least one block")
    if U.shape[0] != M.dim:
        raise ShapeError("U must have D rows")
    f = M.field
    Ut = f.array(U.T)
    m = Ut.shape[0]

    def run_row(i):
        rows = [Ut[i]]
        for _ in range(count - 1):
            rows.append(vec_mat(rows[-1], M))
        return rows

    if workers <= 1 or m == 1:
        per_row = [run_row(i) for i in range(m)]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, m)) as pool:
            per_row = list(pool.map(run_row, range(m)))
    blocks = [np.stack([per_row[i][s] for i in range(m)]) for s in range(count)]
    return KrylovTable(f, blocks)


def project_right(table: KrylovTable, V: np.ndarray):
    """F_s = L_s . V for each block."""
    if V.shape[0] != table.dim:
        raise ShapeError("V must have D rows")
    f = table.field
    Va = f.array(V)
    return [f.matmul(L, Va) for L in table.blocks]


def project_vector(table: KrylovTable, w: np.ndarray):
    """E_s = L_s . w, one m x 1 column per block."""
    if w.shape[0] != table.dim:
        raise ShapeError("w must have length D")
    return project_right(table, np.asarray(w).reshape(table.dim, 1))
