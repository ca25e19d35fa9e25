import itertools
import tracemalloc

import numpy as np
import pytest

from bfglm import polymat
from bfglm.errors import GenericityFailure, InvalidInput
from bfglm.field import _FFT_MAX_SIZE, Field, Rng
from bfglm.polymat import (
    PolyMat,
    approximant_basis,
    largest_invariant_factor,
    left_quotient_row,
    mat_inverse,
    minimal_matrix_generator,
    pm_mul,
)
from bfglm.unipoly import Poly, _fit

from conftest import REF_SEQ, polymat_of
from oracles import generator_cancels, is_row_reduced

F = Field(101)


def P(*coeffs):
    return Poly(F, coeffs)


def random_polymat(rng, rows, cols, maxdeg, field=F):
    ent = [
        [Poly(field, rng.integers(0, field.p, int(rng.integers(0, maxdeg + 2)))) for _ in range(cols)]
        for _ in range(rows)
    ]
    return polymat_of(field, ent)


def entries(M):
    """The entries of M as nested lists of Poly."""
    return [[M[i, j] for j in range(M.cols)] for i in range(M.rows)]


def _det(rows):
    """Exact determinant of a matrix of Poly by cofactor expansion, small sizes only."""
    if len(rows) == 1:
        return rows[0][0]
    det = Poly.zero(rows[0][0].field)
    for j in range(len(rows)):
        term = rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        det = det + term if j % 2 == 0 else det - term
    return det


def poly_det(M):
    return _det(entries(M))


def poly_adjugate(M):
    ent = entries(M)
    r = len(ent)
    cof = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(ent) if k != i]
            d = _det(minor) if r > 1 else Poly.one(M.field)
            cof[i][j] = d if (i + j) % 2 == 0 else -d
    # adjugate is the transposed cofactor matrix
    return polymat_of(M.field, [[cof[j][i] for j in range(r)] for i in range(r)])


def in_row_space(v_row, basis):
    """Exact membership of a polynomial row vector in the row space of a
    nonsingular square polynomial matrix: v*adj(B) must be divisible by det(B)."""
    det = poly_det(basis)
    assert not det.is_zero()
    prod = pm_mul(v_row, poly_adjugate(basis))
    for j in range(prod.cols):
        if not (prod[0, j] % det).is_zero():
            return False
    return True


def order_condition_holds(basis, Fmat, order):
    return not np.any(pm_mul(basis, Fmat).c[:, :, :order])


def brute_force_kernel_rows(Fmat, order, maxdeg):
    """All degree-<=maxdeg rows v with v*F = 0 mod T^order, via linear algebra."""
    r = Fmat.rows
    c = Fmat.cols
    nvars = r * (maxdeg + 1)
    A = np.zeros((c * order, nvars), dtype=np.int64)
    for i in range(r):
        for d in range(maxdeg + 1):
            var = i * (maxdeg + 1) + d
            for j in range(c):
                e = Fmat[i, j]
                for k in range(order - d):
                    if e.coeff(k) != 0:
                        A[j * order + (k + d), var] = e.coeff(k)
    # nullspace of A over F_101 by Gaussian elimination
    A = A % 101
    m, n = A.shape
    piv = []
    row = 0
    for col in range(n):
        sel = None
        for rr in range(row, m):
            if A[rr, col] % 101:
                sel = rr
                break
        if sel is None:
            continue
        A[[row, sel]] = A[[sel, row]]
        A[row] = (A[row] * pow(int(A[row, col]), 99, 101)) % 101
        for rr in range(m):
            if rr != row and A[rr, col] % 101:
                A[rr] = (A[rr] - A[rr, col] * A[row]) % 101
        piv.append(col)
        row += 1
    free = [c0 for c0 in range(n) if c0 not in piv]
    sols = []
    for fc in free:
        x = np.zeros(n, dtype=np.int64)
        x[fc] = 1
        for r0, pc in enumerate(piv):
            x[pc] = (-A[r0, fc]) % 101
        ent = []
        for i in range(r):
            ent.append(Poly(F, x[i * (maxdeg + 1):(i + 1) * (maxdeg + 1)]))
        sols.append(polymat_of(F, [ent]))
    return sols


def test_identity_and_indexing():
    I = PolyMat(F, np.eye(3, dtype=np.int64)[:, :, None])
    assert I[0, 0].is_one() and I[0, 1].is_zero()
    assert I.row_degrees() == [0, 0, 0]
    assert is_row_reduced(I)


@pytest.mark.parametrize("p", [101, 2**61 - 1])
def test_matmul_against_scalar_eval(p):
    f = Field(p)
    rng = np.random.default_rng(1)
    A = random_polymat(rng, 2, 3, 4, f)
    B = random_polymat(rng, 3, 2, 4, f)
    C = pm_mul(A, B)
    for x in [0, 1, 5, 17]:
        Ax, Bx, Cx = (
            np.array([[e.eval(x) for e in row] for row in entries(M)], dtype=object)
            for M in (A, B, C)
        )
        assert np.array_equal((Ax @ Bx) % p, Cx)


def test_mat_inverse():
    rng = Rng(4)
    A = rng.block(F, 4, 4)
    try:
        Ai = mat_inverse(F, A)
    except GenericityFailure:
        pytest.skip("random matrix was singular")
    assert np.array_equal(F.matmul(A, Ai), np.eye(4, dtype=np.int64))
    with pytest.raises(GenericityFailure):
        mat_inverse(F, F.zeros((3, 3)))


@pytest.mark.parametrize("p", [2**61 - 1, 2**62 - 57])
def test_mat_inverse_at_large_primes(p):
    f = Field(p)
    A = Rng(5).block(f, 6, 6)
    assert np.array_equal(f.matmul(A, mat_inverse(f, A)), np.eye(6, dtype=np.int64))
    # row 5 = 3 row 0 + row 2
    A[5] = f.axpy(3, A[0], A[2])
    with pytest.raises(GenericityFailure):
        mat_inverse(f, A)


def test_is_row_reduced_cases():
    assert is_row_reduced(polymat_of(F, [[P(0, 1), P(1)], [P(2), P(0, 0, 1)]]))
    # second row leading vector is a multiple of the first
    assert not is_row_reduced(polymat_of(F, [[P(0, 1), P(0, 2)], [P(0, 0, 1), P(0, 0, 2)]]))


def test_approximant_basis_zero_input():
    Z = PolyMat(F, F.zeros((3, 2, 1)))
    B = approximant_basis(Z, 4)
    assert np.array_equal(B.c, np.eye(3, dtype=np.int64)[:, :, None])


def test_approximant_basis_small_oracle():
    rng = np.random.default_rng(11)
    for trial in range(40):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, r + 1))
        order = int(rng.integers(1, 9))
        Fmat = random_polymat(rng, r, c, order)
        B = approximant_basis(Fmat, order)
        assert order_condition_holds(B, Fmat, order)
        assert is_row_reduced(B)
        for v in brute_force_kernel_rows(Fmat, order, max(B.row_degrees())):
            assert in_row_space(v, B)


def reference_m_basis(F, order, shift):
    """The full-order M-Basis loop, kept as the reference of the PM-Basis
    recursion: at each order the constant residual is reduced by rows of
    minimal shifted degree, and the surviving pivot rows are multiplied by T.
    It computes on Python ints, independently of the field's products."""
    f = F.field
    r = F.rows
    p = f.p
    B = np.zeros((r, r, order + 1), dtype=object)
    for i in range(r):
        B[i, i, 0] = 1
    R = _fit(F.c, order, f).astype(object)
    deg = [int(s) for s in shift]
    for k in range(order):
        idx = sorted(range(r), key=lambda i: (deg[i], i))
        pivots = []  # (row, col, inverse of pivot value)
        for i in idx:
            for prow, pcol, pinv in pivots:
                v = R[i, pcol, k]
                if v != 0:
                    coef = v * pinv % p
                    R[i, :, k:] = (R[i, :, k:] - coef * R[prow, :, k:]) % p
                    B[i] = (B[i] - coef * B[prow]) % p
            row = R[i, :, k]
            nz = np.flatnonzero(row != 0)
            if len(nz):
                j = int(nz[0])
                pivots.append((i, j, f.inv(int(row[j]))))
        for prow, _, _ in pivots:
            B[prow, :, 1:] = B[prow, :, :-1]
            B[prow, :, 0] = 0
            R[prow, :, k + 1 :] = R[prow, :, k:-1]
            R[prow, :, k] = 0
            deg[prow] += 1
    return PolyMat(f, B.astype(np.int64))


LEAF = polymat._LEAF_ORDER
ORDERS = (1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 3, 257)


def _random_series(f, rows, cols, order, rng):
    return PolyMat(f, f.array(rng.integers(0, f.p, (rows, cols, order), dtype=np.int64)))


def _stacked(f, S):
    """[S; -I], the generator's approximant input, S an m x m series."""
    m = S.shape[0]
    c = f.zeros((2 * m, m, S.shape[2]))
    c[:m] = S
    c[m + np.arange(m), np.arange(m), 0] = f.p - 1
    return PolyMat(f, c)


@pytest.mark.parametrize("p", [101, 67108859, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("lifted", [False, True])
def test_approximant_basis_matches_the_loop(p, m, lifted):
    # the recursion reproduces the loop's basis bit for bit, across the leaf
    f = Field(p)
    rng = np.random.default_rng(p % 1000 + 10 * m + lifted)
    shift = [0] * m + [1] * m if lifted else [0] * (2 * m)
    for order in ORDERS:
        for F in (_random_series(f, 2 * m, m, order, rng), _stacked(f, _random_series(f, m, m, order, rng).c)):
            got = approximant_basis(F, order, shift)
            assert np.array_equal(got.c, reference_m_basis(F, order, shift).c), (order, F.rows)


@pytest.mark.parametrize("p", [101, 67108859])
@pytest.mark.parametrize("lifted", [False, True])
def test_approximant_basis_degenerate_inputs_match_the_loop(p, lifted):
    # a zero series, and residuals of rank below m: zero columns, as in the
    # corrected sequences of a residual with D_B < m, and a rank-one block
    f = Field(p)
    rng = np.random.default_rng(5)
    m = 4
    shift = [0] * m + [1] * m if lifted else [0] * (2 * m)
    for order in (LEAF + 1, 2 * LEAF + 3, 257):
        S = _random_series(f, m, m, order, rng).c
        S[:, 2:] = 0
        u, v = rng.integers(0, p, (2, m, order))
        rank_one = f.array(u[:, None, :] * v[None, :, :] % p)
        for F in (PolyMat(f, f.zeros((2 * m, m, order))), _stacked(f, S), _stacked(f, rank_one)):
            got = approximant_basis(F, order, shift)
            assert np.array_equal(got.c, reference_m_basis(F, order, shift).c), order


def _per_entry_product(f, a, b):
    """Oracle of pm_mul: every entry a sum of Field.convolve products."""
    r, k, la = a.shape
    c, lb = b.shape[1:]
    out = f.zeros((r, c, la + lb - 1))
    for i, j, l in itertools.product(range(r), range(c), range(k)):
        out[i, j] = (out[i, j] + f.convolve(a[i, l], b[l, j])) % f.p
    return out


@pytest.mark.parametrize("p", [67108859, 2**31 - 1, 3037000493, 2**61 - 1])
def test_pm_mul_matches_the_per_entry_oracle(p):
    # all-(p-1) operands are the worst case of the FFT's rounding bound;
    # lengths straddle the crossover of the product's two paths
    f = Field(p)
    T = polymat._PM_FFT_MIN_LEN
    rng = np.random.default_rng(3)
    for k, (la, lb) in itertools.product((1, 3, 8), ((T, T + 7), (T + 1, T + 1), (T + 1, 3 * T), (2, 4 * T))):
        for a, b in (
            (f.array(np.full((2, k, la), p - 1)), f.array(np.full((k, 3, lb), p - 1))),
            (f.array(rng.integers(0, p, (2, k, la))), f.array(rng.integers(0, p, (k, 3, lb)))),
        ):
            want = _per_entry_product(f, a, b)
            assert np.array_equal(pm_mul(PolyMat(f, a), PolyMat(f, b)).c, PolyMat(f, want).c), (k, la, lb)


@pytest.mark.parametrize("p", [67108859, 2**31 - 1, 3037000493])
@pytest.mark.parametrize("size", [2048, _FFT_MAX_SIZE // 8])
def test_pm_mul_exact_with_inner_dimension_8(p, size):
    # k = 8 at the largest transform the generators of the benchmark
    # workloads use (2048) and at the bound's cap k N = 2**18; with all-(p-1)
    # operands entry (i, j) is 8 (p-1)^2 = 8 times the number of overlapping
    # terms, mod p
    f = Field(p)
    half = size // 2
    a = f.array(np.full((2, 8, half), p - 1))
    b = f.array(np.full((8, 1, half), p - 1))
    got = pm_mul(PolyMat(f, a), PolyMat(f, b)).c
    t = np.arange(2 * half - 1)
    overlap = np.minimum(np.minimum(t + 1, half), 2 * half - 1 - t)
    assert np.array_equal(got, np.broadcast_to(8 * overlap % p, got.shape))


def test_approximant_basis_memory_stays_small():
    # an order-1000, 8 x 4 basis (the radical workload's generator) holds an
    # 8 x 8 x 1001 basis (0.5 MB) and the 8 x 4 x 1000 residual (0.25 MB);
    # the products' tiled FFT buffers add well under 1 MB to that
    f = Field(67108859)
    F = _stacked(f, _random_series(f, 4, 4, 1000, np.random.default_rng(8)).c)
    tracemalloc.start()
    try:
        B = approximant_basis(F, 1000, [0] * 4 + [1] * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.rows == 8
    assert peak < 2 * 2**20, f"basis peaked at {peak / 2**20:.1f} MB"


def test_generator_reference_sequence():
    terms = [F.array(b) for b in REF_SEQ]
    G = minimal_matrix_generator(terms, F, 2)
    assert G[0, 0] == P(62, 60, 1)
    assert G[0, 1] == P(25, 88)
    assert G[1, 0] == P(33, 100)
    assert G[1, 1] == P(78, 84, 1)
    assert generator_cancels(G, terms)


def test_generator_scalar_fibonacci():
    terms = [F.array([[v]]) for v in (1, 1, 2, 3)]
    G = minimal_matrix_generator(terms, F, 2)
    assert G[0, 0] == P(100, 100, 1)


def test_generator_needs_two_terms_per_degree():
    terms = [F.array(b) for b in REF_SEQ]
    with pytest.raises(InvalidInput):
        minimal_matrix_generator(terms[:3], F, 2)
    with pytest.raises(InvalidInput):
        minimal_matrix_generator([], F, 1)


def test_generator_zero_sequence():
    terms = [F.zeros((2, 2)) for _ in range(6)]
    G = minimal_matrix_generator(terms, F, 3)
    assert np.array_equal(G.c, np.eye(2, dtype=np.int64)[:, :, None])


def test_generator_cancels_random_rational_sequence():
    # build a sequence from a known denominator, the generator must cancel it
    rng = Rng(8)
    from bfglm.sparse import SparseMat, krylov_left_sequence

    D, m = 12, 2
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    d = (D + m - 1) // m
    terms, _ = krylov_left_sequence(M, U, 2 * d, V)
    G = minimal_matrix_generator(terms, F, d)
    assert generator_cancels(G, terms)
    # every window counts: a change to any one term is seen
    for s in (0, d, 2 * d - 1):
        bad = terms.copy()
        bad[s, 1, 0] = (bad[s, 1, 0] + 1) % F.p
        assert not generator_cancels(G, bad)
    # fewer terms than the degree leave no window to check
    assert generator_cancels(G, terms[: G.max_degree()])


@pytest.mark.parametrize("D", [12, 11])
def test_generator_inverts_its_leading_matrix_once(monkeypatch, D):
    # m = 2: D = 12 gives the uniform row degrees (6, 6), which the inverse
    # normalises, D = 11 the degrees (6, 5); the one inversion is also the
    # row-reducedness check
    from bfglm.sparse import SparseMat, krylov_left_sequence

    rng = Rng(8)
    m, d = 2, -(-D // 2)
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    terms, _ = krylov_left_sequence(M, rng.block(F, D, m), 2 * d, rng.block(F, D, m))
    shapes = []
    real = polymat.mat_inverse
    monkeypatch.setattr(polymat, "mat_inverse", lambda f, A: shapes.append(A.shape) or real(f, A))
    G = minimal_matrix_generator(terms, F, d)
    assert sorted(G.row_degrees()) == sorted([D // 2, D - D // 2])
    assert shapes == [(m, m)]
    assert generator_cancels(G, terms)


def test_largest_invariant_factor_reference():
    terms = [F.array(b) for b in REF_SEQ]
    G = minimal_matrix_generator(terms, F, 2)
    s1 = largest_invariant_factor(G, Rng(42))
    assert s1 == P(7, 100, 76, 1)


def test_largest_invariant_factor_diagonal_oracle():
    a = P(99, 1) * P(96, 1)      # (T-2)(T-5)
    b = P(99, 1) * P(94, 1)      # (T-2)(T-7)
    D = polymat_of(F, [[a, Poly.zero(F)], [Poly.zero(F), b]])
    s1 = largest_invariant_factor(D, Rng(3))
    lcm = (a * b) // a.gcd(b)
    assert s1 == lcm.monic()


class _Draws:
    """A stand-in Rng handing out fixed vectors: y first, then w."""

    def __init__(self, *vectors):
        self.vectors = list(vectors)

    def vector(self, field, n):
        return field.array(self.vectors.pop(0))


def test_unlucky_projection_gives_a_divisor_that_the_quotient_rows_reject():
    # w = e_1 sees only the first diagonal entry: w^T D^{-1} y = y_1 / a, so
    # the projected denominator is a, a proper divisor of s1 = lcm(a, b).
    # Row 0 of a D^{-1} is polynomial, row 1 is not: only the check of
    # every quotient row rejects it.
    a = P(99, 1) * P(96, 1)
    b = P(99, 1) * P(94, 1)
    D = polymat_of(F, [[a, Poly.zero(F)], [Poly.zero(F), b]])
    s1 = largest_invariant_factor(D, _Draws([1, 1], [1, 0]))
    assert s1 == a.monic() and s1.degree < sum(D.row_degrees())
    left_quotient_row(D, s1, 1)
    with pytest.raises(GenericityFailure):
        left_quotient_row(D, s1, 2)


def test_block_core_checks_every_quotient_row(monkeypatch):
    # M = diag(2, 5, 2, 7) and U = V blocked by pairs make the generator
    # diag((T-2)(T-5), (T-2)(T-7)), so the same unlucky w projects a proper
    # divisor; the core must raise, not return it
    from bfglm import param
    from bfglm.sparse import SparseMat

    M = SparseMat.from_dense(F, np.diag([2, 5, 2, 7]))
    U = F.array([[1, 0], [1, 0], [0, 1], [0, 1]])
    rows = []

    def recording(Pmat, s1, k):
        rows.append(k)
        return left_quotient_row(Pmat, s1, k)

    monkeypatch.setattr(param, "left_quotient_row", recording)
    inst = param.Instance(field=F, n=1, D=4, mats=[M])
    core = param._block_core(inst, M, U, U, [1], 4, Rng(0))
    assert core.s1 == P(99, 1) * P(96, 1) * P(94, 1) and rows == [2]
    real = param.largest_invariant_factor
    monkeypatch.setattr(
        param, "largest_invariant_factor", lambda Pmat, rng: real(Pmat, _Draws([1, 1], [1, 0]))
    )
    with pytest.raises(GenericityFailure):
        param._block_core(inst, M, U, U, [1], 4, Rng(0))


def test_largest_invariant_factor_with_a_constant_row():
    # row degrees (0, 1): P^{-1} = [[1/3, -1/(3(T-2))], [0, 1/(T-2)]] is
    # proper but not strictly proper, and s1 = T - 2
    D = polymat_of(F, [[P(3), P(1)], [Poly.zero(F), P(99, 1)]])
    for seed in range(5):
        assert largest_invariant_factor(D, Rng(seed)) == P(99, 1)


def test_largest_invariant_factor_1x1():
    q = P(61, 8, 1).scale(5)
    D = polymat_of(F, [[q]])
    assert largest_invariant_factor(D, Rng(0)) == q.monic()


def test_largest_invariant_factor_singular_at_zero():
    # P(0) is singular, but the expansion at infinity reads only the leading
    # matrix, here the identity
    a = P(0, 1) * P(96, 1)
    b = P(0, 1) * P(94, 1)
    D = polymat_of(F, [[a, Poly.zero(F)], [Poly.zero(F), b]])
    s1 = largest_invariant_factor(D, Rng(5))
    lcm = (a * b) // a.gcd(b)
    assert s1 == lcm.monic()


def test_largest_invariant_factor_draws_only_y_and_w():
    # singular at 0, and the stub has no `element`: nothing but the vectors
    # y and w is drawn; w^T D^{-1} y = 2 (T - 6) / (T (T - 5) (T - 7))
    a = P(0, 1) * P(96, 1)
    b = P(0, 1) * P(94, 1)
    D = polymat_of(F, [[a, Poly.zero(F)], [Poly.zero(F), b]])
    draws = _Draws([1, 1], [1, 1])
    assert largest_invariant_factor(D, draws) == P(0, 1) * P(96, 1) * P(94, 1)
    assert not draws.vectors


def _random_row_reduced(f, rng, degs):
    """Entries of a random m x m matrix with row degrees degs and an
    invertible leading matrix, as Polys."""
    m = len(degs)
    while True:
        c = f.array(rng.integers(0, f.p, (m, m, max(degs) + 1)))
        for i, d in enumerate(degs):
            c[i, :, d + 1 :] = 0
        if is_row_reduced(PolyMat(f, c)):
            return [[Poly(f, c[i, j]) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("p", [65537, 2**31 - 1, 2**61 - 1])
def test_expansion_at_infinity_against_the_invariant_factor_oracle(p):
    # for 2 x 2, s1 = det P / gcd(entries); a common factor g of every entry
    # makes deg s1 < deg det P, so every quotient row is needed
    f = Field(p)
    rng = np.random.default_rng(p % 1000)
    for degs, gdeg in [((1, 1), 0), ((0, 2), 0), ((2, 3), 1), ((1, 2), 2), ((3, 3), 1)]:
        g = Poly(f, rng.integers(0, p, gdeg + 1)).monic() if gdeg else Poly.one(f)
        ent = [[e * g for e in row] for row in _random_row_reduced(f, rng, degs)]
        Pm = polymat_of(f, ent)
        det = ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]
        gcd = ent[0][0].gcd(ent[0][1]).gcd(ent[1][0]).gcd(ent[1][1])
        s1 = largest_invariant_factor(Pm, Rng(int(rng.integers(1 << 30))))
        assert s1 == (det // gcd).monic()
        A = left_quotient_row(Pm, s1, 2)
        assert A.max_degree() <= s1.degree
        prod = pm_mul(A, Pm)
        for i in range(2):
            for j in range(2):
                assert prod[i, j] == (s1 if j == i else Poly.zero(f))


def test_singular_leading_matrix_and_zero_row():
    # leading matrix [[1, 1], [1, 1]]: no expansion at infinity
    lead = polymat_of(F, [[P(0, 1), P(3, 1)], [P(5, 1), P(0, 1)]])
    with pytest.raises(GenericityFailure):
        largest_invariant_factor(lead, Rng(0))
    with pytest.raises(GenericityFailure):
        left_quotient_row(lead, P(1, 0, 1), 1)
    zero_row = polymat_of(F, [[P(0, 1), P(1)], [Poly.zero(F), Poly.zero(F)]])
    with pytest.raises(InvalidInput):
        largest_invariant_factor(zero_row, Rng(0))
    with pytest.raises(InvalidInput):
        left_quotient_row(zero_row, P(0, 1), 1)
    with pytest.raises(InvalidInput):
        largest_invariant_factor(polymat_of(F, [[Poly.zero(F)]]), Rng(0))


def test_left_quotient_row_reference():
    terms = [F.array(b) for b in REF_SEQ]
    G = minimal_matrix_generator(terms, F, 2)
    s1 = largest_invariant_factor(G, Rng(42))
    a = left_quotient_row(G, s1, 1)
    assert a[0, 0] == P(16, 1)
    assert a[0, 1] == P(13)


@pytest.mark.parametrize("i", [0, 1])
def test_left_quotient_row_identity(i):
    rng = Rng(21)
    from bfglm.sparse import SparseMat, krylov_left_sequence

    D, m = 10, 2
    M = SparseMat.from_dense(F, rng.block(F, D, D))
    U = rng.block(F, D, m)
    V = rng.block(F, D, m)
    d = (D + m - 1) // m
    G = minimal_matrix_generator(krylov_left_sequence(M, U, 2 * d, V)[0], F, d)
    s1 = largest_invariant_factor(G, rng)
    A = left_quotient_row(G, s1, i + 1)
    prod = pm_mul(A, G)
    for j in range(prod.cols):
        want = s1 if j == i else Poly.zero(F)
        assert prod[i, j] == want
    assert A.rows == i + 1 and A.max_degree() <= s1.degree
