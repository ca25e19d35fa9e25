import numpy as np
import pytest

from bfglm.errors import InsufficientTerms, ShapeError
from bfglm.field import Field, Rng
from bfglm.numerators import matrix_numerator, scalar_numerator, scalar_numerator_corrected
from bfglm.polymat import largest_invariant_factor, left_quotient_row, minimal_matrix_generator
from bfglm.sparse import SparseMat, combine_matrices, krylov_left_sequence
from bfglm.unipoly import Poly, berlekamp_massey, laurent_expand

from conftest import REF_M1, REF_M2, REF_T, REF_U, REF_V
from oracles import scalar_numerator_direct

F = Field(101)


def P(*coeffs):
    return Poly(F, coeffs)


def ref_setup():
    mats = [SparseMat.from_dense(F, REF_M1), SparseMat.from_dense(F, REF_M2)]
    M = combine_matrices(REF_T, mats)
    U = F.array(REF_U)
    # W = [eps_1 | M_1 . eps_1], projected for the first d = 2 steps
    W = np.stack([np.eye(4, dtype=np.int64)[:, 0], np.asarray(mats[0].to_dense())[:, 0]], axis=1)
    seq, cols = krylov_left_sequence(M, U, 4, np.hstack([F.array(REF_V), W]), short=2)
    G = minimal_matrix_generator(seq, F, 2)
    s1 = largest_invariant_factor(G, Rng(42))
    a = left_quotient_row(G, s1, 1)
    return mats, M, (a, G), cols


def test_reference_numerators():
    mats, M, inp, cols = ref_setup()
    terms = cols[:, :, 0:1]  # eps_1
    omega = matrix_numerator(terms, inp[1])
    assert omega[0, 0] == P(55, 84)
    assert omega[1, 0] == P(11, 38)
    C1 = scalar_numerator(*inp, terms)[0]
    assert C1 == P(13, 75, 84)

    CX1 = scalar_numerator(*inp, cols[:, :, 1:2])[0]  # M_1 . eps_1
    assert CX1 == P(16, 47, 88)


def test_matrix_numerator_zero_terms():
    _, _, (_, G), _ = ref_setup()
    terms = [F.zeros((2, 1)) for _ in range(2)]
    omega = matrix_numerator(terms, G)
    assert not np.any(omega.c)


def test_matrix_numerator_requires_enough_terms():
    _, _, (_, G), _ = ref_setup()
    with pytest.raises(InsufficientTerms):
        matrix_numerator([F.zeros((2, 1))], G)


def test_matrix_numerator_degree_bound():
    rng = Rng(13)
    D, m = 12, 3
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    d = (D + m - 1) // m
    seq, _ = krylov_left_sequence(M, U, 2 * d, V)
    G = minimal_matrix_generator(seq, F, d)
    omega = matrix_numerator(seq[:d], G)
    for i, rd in enumerate(G.row_degrees()):
        for j in range(omega.cols):
            assert omega[i, j].degree < rd


def test_scalar_case_matches_direct_formula():
    # m = 1: the block machinery must agree with the classic scalar formula
    rng = Rng(31)
    D = 9
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    u = rng.block(F, D, 1)
    w = rng.vector(F, D)
    terms, _ = krylov_left_sequence(M, u, 2 * D, w)
    scal = [int(b[0, 0]) for b in terms]
    minpoly = berlekamp_massey(scal, F, D)
    d = minpoly.degree
    direct = scalar_numerator_direct(scal[:d], F, minpoly)
    G = minimal_matrix_generator([F.array([[v]]) for v in scal[:2 * d]], F, d)
    assert G[0, 0] == minpoly
    a = left_quotient_row(G, minpoly, 1)
    assert scalar_numerator(a, G, terms[:d, :, 0:1])[0] == direct.scale(a[0, 0].coeff(0))
    # a is the constant 1 here since G is already the invariant factor
    assert a[0, 0].is_one()


def test_scalar_numerator_expands_to_projected_sequence():
    # C/s1 must expand to the scalar sequence u_1^T M^s w
    rng = Rng(47)
    D, m = 10, 2
    dense = rng.block(F, D, D)
    M = SparseMat.from_dense(F, dense)
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    d = (D + m - 1) // m
    w = rng.vector(F, D)
    seq, cols = krylov_left_sequence(M, U, 2 * d, np.hstack([V, w.reshape(-1, 1)]), short=d)
    G = minimal_matrix_generator(seq, F, d)
    s1 = largest_invariant_factor(G, rng)
    a = left_quotient_row(G, s1, 1)
    C = scalar_numerator(a, G, cols[:, :, 0:1])[0]
    Md = dense.astype(object)
    scal = []
    cur = U[:, 0].astype(object)
    for _ in range(2 * s1.degree + 2):
        scal.append(int((cur @ w.astype(object)) % 101))
        cur = (cur @ Md) % 101
    assert laurent_expand(C, s1, len(scal)) == scal


def test_corrected_with_zero_corrections_matches_plain():
    mats, _, inp, cols = ref_setup()
    terms = cols[:, :, 0:1]
    zeros = [F.zeros((2, 1)) for _ in range(len(cols))]
    assert scalar_numerator_corrected(*inp, terms, zeros) == scalar_numerator(*inp, terms)[0]
    with pytest.raises(ShapeError):
        scalar_numerator_corrected(*inp, terms, zeros[:1])


def test_corrected_subtracts_before_expansion():
    _, _, inp, cols = ref_setup()
    terms = cols[:, :, 0:1]
    # corrections equal to the terms themselves give the zero numerator
    out = scalar_numerator_corrected(*inp, terms, [t.copy() for t in terms])
    assert out.is_zero()


def test_scalar_numerator_gives_every_column():
    # one product for the whole block equals one call per column
    _, _, inp, cols = ref_setup()
    both = scalar_numerator(*inp, cols)
    assert both == [scalar_numerator(*inp, cols[:, :, j : j + 1])[0] for j in range(2)]
    assert both == [P(13, 75, 84), P(16, 47, 88)]


def test_list_of_terms_and_stacked_array_agree():
    # a list of m x k terms converts with one np.asarray: the generator and
    # the numerators must not depend on which form they are given
    rng = Rng(29)
    D, m = 12, 3
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    W = rng.block(F, D, 2)
    d = (D + m - 1) // m
    seq, cols = krylov_left_sequence(M, U, 2 * d, np.hstack([V, W]), short=d)
    assert seq.shape == (2 * d, m, m) and cols.shape == (d, m, 2)
    G = minimal_matrix_generator(seq, F, d)
    G_list = minimal_matrix_generator(list(seq), F, d)
    assert np.array_equal(G.c, G_list.c)
    for terms in (seq[:d], cols):
        assert np.array_equal(matrix_numerator(terms, G).c, matrix_numerator(list(terms), G).c)
