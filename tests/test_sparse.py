import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from bfglm.errors import ShapeError
from bfglm.field import Field, Rng
from bfglm.sparse import (
    SparseMat,
    combine_matrices,
    horner,
    krylov_left_sequence,
    mat_vec,
    project_right,
    project_vector,
    vec_mat,
)

from conftest import REF_M1, REF_M2, REF_M_COMBINED, REF_SEQ, REF_T, REF_U, REF_V, dense_mat_pow_seq

F = Field(101)


def test_from_coo_and_dense_roundtrip():
    triples = [(0, 1, 5), (2, 0, 7), (0, 1, 101 + 3)]
    M = SparseMat.from_coo(F, 3, *zip(*triples))
    dense = M.to_dense()
    # duplicate entries accumulate, values reduced mod p
    assert dense[0, 1] == 8
    assert dense[2, 0] == 7
    assert M.nnz == 2
    again = SparseMat.from_dense(F, dense)
    assert np.array_equal(again.to_dense(), dense)


def test_triples_sorted_row_major():
    M = SparseMat.from_dense(F, [[0, 3, 0], [1, 0, 2], [0, 0, 4]])
    assert list(M.triples()) == [(0, 1, 3), (1, 0, 1), (1, 2, 2), (2, 2, 4)]


def test_density():
    M = SparseMat.from_dense(F, [[1, 0], [0, 1]])
    assert M.density == pytest.approx(0.5)


def test_combine_matrices_reference():
    mats = [SparseMat.from_dense(F, REF_M1), SparseMat.from_dense(F, REF_M2)]
    M = combine_matrices(REF_T, mats)
    assert np.array_equal(M.to_dense(), F.array(REF_M_COMBINED))


def test_combine_matrices_edge_coefficients():
    mats = [SparseMat.from_dense(F, REF_M1), SparseMat.from_dense(F, REF_M2)]
    unit = combine_matrices([1, 0], mats)
    assert np.array_equal(unit.to_dense(), F.array(REF_M1))
    zero = combine_matrices([0, 0], mats)
    assert zero.nnz == 0


def test_combine_matrices_big_prime():
    p = (1 << 61) - 1
    fb = Field(p)
    A = SparseMat.from_dense(fb, [[p - 1, 0], [0, p - 2]])
    B = SparseMat.from_dense(fb, [[0, p - 3], [1, 0]])
    M = combine_matrices([p - 1, p - 2], [A, B])
    want = (np.array([[p - 1, 0], [0, p - 2]], dtype=object) * (p - 1)
            + np.array([[0, p - 3], [1, 0]], dtype=object) * (p - 2)) % p
    assert np.array_equal(np.asarray(M.to_dense(), dtype=object) % p, want)


@pytest.mark.parametrize("p", [101, 2**31 - 1, 2**61 - 1])
def test_vec_mat_matches_dense(p):
    # 2^31 - 1 and 2^61 - 1 overflow int64 sums and take the exact product
    f = Field(p)
    rng = Rng(3)
    dense = rng.block(f, 12, 12)
    M = SparseMat.from_dense(f, dense)
    v = rng.vector(f, 12)
    assert np.array_equal(vec_mat(v, M), (v.astype(object) @ dense.astype(object)) % p)


@pytest.mark.parametrize("p", [101, 3037000493, 2**61 - 1])
@pytest.mark.parametrize("transpose", [False, True])
def test_horner_matches_dense(p, transpose):
    # 3037000493 is the largest prime where one product and one addend
    # (p-1)^2 + p-1 still fit in int64
    f = Field(p)
    rng = Rng(4)
    dense = rng.block(f, 9, 9).astype(object)
    M = SparseMat.from_dense(f, dense)
    W = rng.block(f, 9, 3)
    coeffs = [p - 1, 0, 5, p - 2, 1]
    A = dense.T if transpose else dense
    want = np.zeros((9, 3), dtype=object)
    for c in reversed(coeffs):
        want = (A @ want + c * W.astype(object)) % p
    assert np.array_equal(horner(M, coeffs, W, transpose=transpose), want)
    with pytest.raises(ShapeError):
        horner(M, coeffs, W[:8])


def test_krylov_reference_blocks():
    # projecting on [V | I] recovers the blocks L_s = U^T M^s themselves
    mats = [SparseMat.from_dense(F, REF_M1), SparseMat.from_dense(F, REF_M2)]
    M = combine_matrices(REF_T, mats)
    seq, blocks = krylov_left_sequence(M, F.array(REF_U), 4, np.hstack([F.array(REF_V), np.eye(4, dtype=np.int64)]))
    assert len(seq) == len(blocks) == 4
    assert np.array_equal(blocks[1], F.array([[54, 28, 67, 81], [34, 52, 90, 29]]))
    assert np.array_equal(blocks[2], F.array([[33, 91, 3, 2], [47, 77, 47, 7]]))
    assert np.array_equal(blocks[3], F.array([[89, 80, 87, 82], [34, 56, 55, 34]]))
    for got, want in zip(seq, REF_SEQ):
        assert np.array_equal(got, F.array(want))


@pytest.mark.parametrize("D,m", [(16, 1), (16, 3), (40, 2)])
def test_krylov_matches_dense_oracle(D, m):
    rng = Rng(D * 10 + m)
    dense = rng.block(F, D, D)
    M = SparseMat.from_dense(F, dense)
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    got, _ = krylov_left_sequence(M, U, 7, V)
    want = dense_mat_pow_seq(F, dense, U, V, 7)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("short", [3, 7])
def test_krylov_extra_columns_match_dense_oracle(short):
    # the W columns are projected for the first `short` steps only
    rng = Rng(19)
    D, m = 24, 2
    dense = rng.block(F, D, D)
    M = SparseMat.from_dense(F, dense)
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    W = rng.block(F, D, 3)
    seq, extra = krylov_left_sequence(M, U, 7, np.hstack([V, W]), short=short)
    assert len(seq) == 7 and len(extra) == short
    for a, b in zip(seq, dense_mat_pow_seq(F, dense, U, V, 7)):
        assert np.array_equal(a, b)
    for a, b in zip(extra, dense_mat_pow_seq(F, dense, U, W, short)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "m,k,short",
    [
        (2, 5, 3),  # V = the first 2 columns, W = 3 columns for 3 of 7 steps
        (2, 5, 0),  # W never projected
        (3, 1, 0),  # right narrower than U, as project_vector passes it
        (3, 2, None),  # right narrower than U, projected at every step
    ],
)
def test_krylov_sequence_shapes(m, k, short):
    # term s at index s: seq is count x m x #V and extra short x m x #W
    rng = Rng(23)
    D, count = 9, 7
    dense = rng.block(F, D, D)
    M = SparseMat.from_dense(F, dense)
    U = rng.block(F, D, m)
    right = rng.block(F, D, k)
    seq, extra = krylov_left_sequence(M, U, count, right, short=short)
    v = min(m, k)
    n_extra = count if short is None else short
    assert seq.shape == (count, m, v)
    assert extra.shape == (n_extra, m, k - v)
    assert np.array_equal(seq, np.asarray(dense_mat_pow_seq(F, dense, U, right[:, :v], count)))
    if n_extra and k > v:
        want = dense_mat_pow_seq(F, dense, U, right[:, v:], n_extra)
        assert np.array_equal(extra, np.asarray(want))


def test_project_vector_matches_columns():
    rng = Rng(5)
    dense = rng.block(F, 10, 10)
    M = SparseMat.from_dense(F, dense)
    U = rng.block(F, 10, 2)
    w = rng.vector(F, 10)
    cols = project_vector(M, U, 5, w)
    _, full = krylov_left_sequence(M, U, 5, np.hstack([rng.block(F, 10, 2), w.reshape(-1, 1)]))
    assert len(cols) == 5
    assert cols.shape == full.shape == (5, 2, 1)
    for a, b in zip(cols, full):
        assert np.array_equal(a, b)
    # one projected term: L . w for the block stored as L^T = U
    assert np.array_equal(project_right(U, w.reshape(-1, 1), F), cols[0])


def test_project_shape_mismatch():
    rng = Rng(5)
    M = SparseMat.from_dense(F, rng.block(F, 6, 6))
    U = rng.block(F, 6, 2)
    with pytest.raises(ShapeError):
        krylov_left_sequence(M, U, 3, rng.block(F, 7, 2))
    with pytest.raises(ShapeError):
        project_vector(M, U, 3, rng.vector(F, 7))


def test_krylov_pass_memory_is_linear_in_D():
    # a Krylov table of 1500 blocks of 2 x 1500 would take 36 MB (69 MB
    # traced while stacked); the pass keeps one block and the projections
    D, m, count = 1500, 2, 1500
    f = Field(67108859)
    rng = Rng(6)
    rows = np.repeat(np.arange(D), 4)
    csr = sp.csr_matrix(
        (rng.integers(1, f.p, 4 * D), (rows, rng.integers(0, D, 4 * D))), shape=(D, D), dtype=np.int64
    )
    csr.sum_duplicates()
    csr.data %= f.p
    M = SparseMat(f, D, csr)
    U = rng.block(f, D, m)
    V = rng.block(f, D, m)
    tracemalloc.start()
    try:
        seq, _ = krylov_left_sequence(M, U, count, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == count
    assert peak < 2 * 2**20, f"pass peaked at {peak / 2**20:.1f} MB"


def _dense_with_full_row_and_column(f, D, rng):
    """A sparse matrix whose row 0 and column 0 are full, so that exact
    products sum D terms per entry there."""
    dense = np.zeros((D, D), dtype=np.int64)
    dense[0, :] = rng.integers(1, f.p, D)
    dense[:, 0] = rng.integers(1, f.p, D)
    idx = rng.integers(0, D, (2, 3 * D))
    dense[idx[0], idx[1]] = rng.integers(0, f.p, 3 * D)
    return dense


@pytest.mark.parametrize("p,D", [(2**31 - 1, 40), (67108859, 2100)])
def test_products_past_the_accumulation_limit(p, D):
    # int64 sums overflow past f._acc_limit terms (2 at 2^31 - 1, 2048 at
    # 67108859): Field.exact's limb path must match the object oracle
    f = Field(p)
    assert D > f._acc_limit
    rng = Rng(D)
    dense = _dense_with_full_row_and_column(f, D, rng)
    M = SparseMat.from_dense(f, dense)
    obj = dense.astype(object)
    v = rng.vector(f, D)
    assert np.array_equal(vec_mat(v, M), (v.astype(object) @ obj) % p)
    assert np.array_equal(mat_vec(M, v), (obj @ v.astype(object)) % p)
    U = rng.block(f, D, 2)
    V = rng.block(f, D, 2)
    got, _ = krylov_left_sequence(M, U, 2, V)
    for a, b in zip(got, dense_mat_pow_seq(f, obj, U, V, 2)):
        assert np.array_equal(a, b)


def test_krylov_object_tier_matches_dense_oracle():
    p = 2**61 - 1
    f = Field(p)
    rng = Rng(8)
    dense = rng.block(f, 12, 12)
    M = SparseMat.from_dense(f, dense)
    U = rng.block(f, 12, 2)
    V = rng.block(f, 12, 2)
    got, _ = krylov_left_sequence(M, U, 5, V)
    for a, b in zip(got, dense_mat_pow_seq(f, dense, U, V, 5)):
        assert np.array_equal(np.asarray(a, dtype=object), np.asarray(b, dtype=object))


def test_matrix_limbs_are_cut_once_per_pass(monkeypatch):
    # past p^2 > 2^63 every sparse product cuts both operands into limbs;
    # a Krylov pass and a Horner evaluation cut their fixed matrix once
    from bfglm import field as field_mod

    f = Field(2**61 - 1)
    rng = Rng(9)
    M = SparseMat.from_dense(f, rng.block(f, 12, 12))
    U, V = rng.block(f, 12, 2), rng.block(f, 12, 2)
    want, _ = krylov_left_sequence(M, U, 6, V)
    want_h = horner(M, [3, 1, 4, 1, 5], U)
    cuts = []
    limbs = field_mod._limbs

    def counted(x, w, n):
        cuts.append(sp.issparse(x))
        return limbs(x, w, n)

    monkeypatch.setattr(field_mod, "_limbs", counted)
    got, _ = krylov_left_sequence(M, U, 6, V)
    assert np.array_equal(got, want) and cuts.count(True) == 1
    cuts.clear()
    assert np.array_equal(horner(M, [3, 1, 4, 1, 5], U), want_h) and cuts.count(True) == 1
