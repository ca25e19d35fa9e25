import numpy as np
import pytest

from bfglm.errors import ShapeError
from bfglm.field import Field, Rng, sample_block
from bfglm.sparse import (
    SparseMat,
    combine_matrices,
    krylov_left_sequence,
    project_right,
    project_vector,
    vec_mat,
)

from conftest import REF_M1, REF_M2, REF_M_COMBINED, REF_SEQ, REF_T, REF_U, REF_V, dense_mat_pow_seq

F = Field(101)


def test_from_triples_and_dense_roundtrip():
    triples = [(0, 1, 5), (2, 0, 7), (0, 1, 101 + 3)]
    M = SparseMat.from_triples(F, 3, triples)
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


def test_rejects_out_of_range_index():
    with pytest.raises(ShapeError):
        SparseMat.from_triples(F, 2, [(0, 5, 1)])


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


def test_krylov_reference_blocks():
    mats = [SparseMat.from_dense(F, REF_M1), SparseMat.from_dense(F, REF_M2)]
    M = combine_matrices(REF_T, mats)
    table = krylov_left_sequence(M, F.array(REF_U), 4)
    assert table.count == 4
    assert np.array_equal(table.blocks[1], F.array([[54, 28, 67, 81], [34, 52, 90, 29]]))
    assert np.array_equal(table.blocks[2], F.array([[33, 91, 3, 2], [47, 77, 47, 7]]))
    assert np.array_equal(table.blocks[3], F.array([[89, 80, 87, 82], [34, 56, 55, 34]]))
    seq = project_right(table, F.array(REF_V))
    for got, want in zip(seq, REF_SEQ):
        assert np.array_equal(got, F.array(want))


@pytest.mark.parametrize("D,m", [(16, 1), (16, 3), (40, 2)])
def test_krylov_matches_dense_oracle(D, m):
    rng = Rng(D * 10 + m)
    dense = rng.block(F, D, D)
    M = SparseMat.from_dense(F, dense)
    U = sample_block(rng, F, D, m)
    V = sample_block(rng, F, D, m)
    table = krylov_left_sequence(M, U, 7)
    want = dense_mat_pow_seq(F, dense, U, V, 7)
    got = project_right(table, V)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_krylov_worker_determinism():
    rng = Rng(77)
    dense = rng.block(F, 30, 30)
    M = SparseMat.from_dense(F, dense)
    U = sample_block(rng, F, 30, 4)
    t1 = krylov_left_sequence(M, U, 9, workers=1)
    t4 = krylov_left_sequence(M, U, 9, workers=4)
    for a, b in zip(t1.blocks, t4.blocks):
        assert np.array_equal(a, b)


def test_project_vector_matches_columns():
    rng = Rng(5)
    dense = rng.block(F, 10, 10)
    M = SparseMat.from_dense(F, dense)
    U = sample_block(rng, F, 10, 2)
    table = krylov_left_sequence(M, U, 5)
    w = rng.vector(F, 10)
    cols = project_vector(table, w)
    full = project_right(table, w.reshape(-1, 1))
    for a, b in zip(cols, full):
        assert np.array_equal(a, b)


def test_project_shape_mismatch():
    rng = Rng(5)
    M = SparseMat.from_dense(F, rng.block(F, 6, 6))
    table = krylov_left_sequence(M, sample_block(rng, F, 6, 2), 3)
    with pytest.raises(ShapeError):
        project_right(table, sample_block(rng, F, 7, 2))
