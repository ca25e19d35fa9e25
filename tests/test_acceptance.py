"""Acceptance gate: eight criteria, each printing one pass/fail line."""

import time

import numpy as np
import pytest

from bfglm.field import Field, Rng
from bfglm.param import (
    Instance,
    SolveStats,
    block_parametrization,
    solve,
    verify_against_points,
)
from bfglm.polymat import (
    approximant_basis,
    left_quotient_row,
    minimal_matrix_generator,
    pm_mul,
)
from bfglm.sparse import SparseMat, combine_matrices, krylov_left_sequence
from bfglm.splitting import block_parametrization_with_splitting, solve_split
from bfglm.toolkit import PointSpec, generate_instance, minimal_polynomial_of_combination
from bfglm.unipoly import Poly, berlekamp_massey, power_projection

from conftest import REF_M1, REF_M2, REF_SEQ, REF_T, REF_U, REF_V
from oracles import generator_cancels, is_row_reduced, power_projection_naive, scalar_numerator_direct
from test_polymat import brute_force_kernel_rows, in_row_space, order_condition_holds

F101 = Field(101)
F = Field(65537)


def report(num, name, ok):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}]: {name}")
    assert ok, f"criterion {num} failed: {name}"


def P(field, *coeffs):
    return Poly(field, coeffs)


def invariant_suite(inst, param, arts, rng):
    """Exact invariants checked on every solved instance."""
    f = inst.field
    a = arts[-1]
    M = a.M
    # s1(M) w = 0 for 5 random vectors
    from bfglm.param import mat_vec

    for _ in range(5):
        w = rng.vector(f, inst.D)
        acc = f.zeros(inst.D)
        for k in range(a.s1.degree, -1, -1):
            acc = (mat_vec(M, acc) + a.s1.coeff(k) * w) % f.p
        if np.any(acc != 0):
            return False
    # Q squarefree
    if not param.Q.gcd(param.Q.derivative()).is_one():
        return False
    # quotient rows: deg(a_i) <= deg(s1) and a_i . Pmat = s1 . e_i
    m = a.Pmat.rows
    A = left_quotient_row(a.Pmat, a.s1, m)
    if A.max_degree() > a.s1.degree or any(A[0, j] != a.a_row[0, j] for j in range(m)):
        return False
    prod = pm_mul(A, a.Pmat)
    for i in range(m):
        for j in range(m):
            want = a.s1 if j == i else Poly.zero(f)
            if prod[i, j] != want:
                return False
    # generator cancels all supplied sequence terms
    if not generator_cancels(a.Pmat, a.seq):
        return False
    # sum t_i V_i = T mod Q (with the rest of the structural checks)
    try:
        param.check_invariants()
    except Exception:
        return False
    return True


def test_criterion_1_reference_example(block_cores):
    start = time.perf_counter()
    mats = [SparseMat.from_dense(F101, REF_M1), SparseMat.from_dense(F101, REF_M2)]
    inst = Instance(field=F101, n=2, D=4, mats=mats)
    U = F101.array(REF_U)
    V = F101.array(REF_V)
    ok = True

    M = combine_matrices(REF_T, mats)
    seq, _ = krylov_left_sequence(M, U, 4, V)
    ok &= all(np.array_equal(s, F101.array(w)) for s, w in zip(seq, REF_SEQ))

    G = minimal_matrix_generator(seq, F101, 2)
    ok &= G[0, 0] == P(F101, 62, 60, 1)
    ok &= G[0, 1] == P(F101, 25, 88)
    ok &= G[1, 0] == P(F101, 33, 100)
    ok &= G[1, 1] == P(F101, 78, 84, 1)

    param = block_parametrization(inst, U, V, REF_T, [1, 1], rng=Rng(7))
    (a,) = block_cores
    ok &= a.s1 == P(F101, 7, 100, 76, 1)
    ok &= param.Q == P(F101, 61, 8, 1)
    ok &= a.a_row[0, 0] == P(F101, 16, 1)
    ok &= a.a_row[0, 1] == P(F101, 13)
    ok &= a.nums[0] == P(F101, 13, 75, 84)
    ok &= a.nums[1] == P(F101, 16, 47, 88)
    ok &= param.V[0] == P(F101, 14, 15)
    ok &= param.V[1] == P(F101, 9, 49)
    ok &= param.t == [2, 53]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"hand-checked 4x4 example, bit exact in {elapsed:.3f}s", ok)


def test_criterion_2_scalar_fixtures():
    ok = True
    fib = [1, 1, 2, 3, 5, 8]
    mp = berlekamp_massey(fib, F101, 2)
    ok &= mp == P(F101, 100, 100, 1)
    ok &= scalar_numerator_direct(fib[:2], F101, mp) == Poly.x(F101)

    seq = [(17 + 33 * pow(3, s, 101)) % 101 for s in range(8)]
    coord = [(17 * 4 + 33 * 2 * pow(3, s, 101)) % 101 for s in range(8)]
    from oracles import parametrization_from_series

    param = parametrization_from_series(seq, [coord], 2, F101)
    ok &= param.V[0] == P(F101, 5, 100)
    ok &= param.V[0].eval(1) == 4
    ok &= param.V[0].eval(3) == 2
    report(2, "scalar numerator and two-point line fixtures", ok)


def test_criterion_3_and_6_radical_oracle_with_invariants(block_cores):
    start = time.perf_counter()
    runs = 0
    successes = 0
    invariant_failures = 0
    master = Rng(2024)
    for D in (10, 50, 200):
        for n in (2, 3, 5):
            for m in (1, 2, 4):
                for seed in range(10):
                    runs += 1
                    rng = master.child()
                    pts = set()
                    while len(pts) < D:
                        pts.add(tuple(rng.element(F) for _ in range(n)))
                    spec = [PointSpec(coords=c) for c in sorted(pts)]
                    inst, truth = generate_instance(F, n, spec, rng.child())
                    stats = SolveStats()
                    block_cores.clear()
                    try:
                        param = solve(inst, m, rng.child(), stats=stats)
                    except Exception:
                        continue
                    if stats.retries > 1:
                        continue
                    rep = verify_against_points(param, truth.points, F)
                    if not (rep["pass"] and param.Q.degree == D):
                        continue
                    if not invariant_suite(inst, param, block_cores, rng.child()):
                        invariant_failures += 1
                        continue
                    successes += 1
    elapsed = time.perf_counter() - start
    rate = successes / runs
    ok = rate >= 0.99 and elapsed < 60.0
    report(
        3,
        f"radical oracle {successes}/{runs} ({100 * rate:.1f}%) in {elapsed:.1f}s",
        ok,
    )
    report(6, f"invariant suite on all {runs} instances ({invariant_failures} failures)", invariant_failures == 0)


MIXED_CASES = []
_r = np.random.default_rng(77)
for _case in range(20):
    n = int(_r.integers(2, 4))
    spec = []
    used = set()
    # a few simple points
    for _ in range(int(_r.integers(2, 9))):
        c = tuple(int(x) for x in _r.integers(0, 65537, n))
        if c not in used:
            used.add(c)
            spec.append(PointSpec(coords=c))
    # one collision pair on the first coordinate
    base = spec[0].coords
    twin = (base[0],) + tuple(int(x) for x in _r.integers(1, 65537, n - 1))
    if twin not in used:
        used.add(twin)
        spec.append(PointSpec(coords=twin))
    # one double point
    c = tuple(int(x) for x in _r.integers(0, 65537, n))
    if c not in used:
        spec.append(PointSpec(coords=c, nu=2, c=tuple(int(x) for x in _r.integers(1, 100, n))))
    MIXED_CASES.append((n, spec))


def test_criterion_4_cross_algorithm_equality():
    ok = True
    checked = 0
    for idx, (n, spec) in enumerate(MIXED_CASES):
        inst, truth = generate_instance(F, n, spec, Rng(500 + idx))
        m = 1 + (idx % 2)
        done = False
        for attempt in range(4):
            rng_a = Rng(1000 + 10 * idx + attempt)
            U = rng_a.block(F, inst.D, m)
            V = rng_a.block(F, inst.D, m)
            t = [rng_a.nonzero_element(F) for _ in range(n)]
            y = [rng_a.nonzero_element(F) for _ in range(n)]
            try:
                plain = block_parametrization(inst, U, V, t, y, rng=Rng(3))
                split = block_parametrization_with_splitting(inst, U, V, t, y, rng=Rng(3))
            except Exception:
                continue
            same = plain.Q == split.Q and all(a == b for a, b in zip(plain.V, split.V))
            ok &= same
            ok &= verify_against_points(split, truth.points, F)["pass"]
            done = True
            checked += 1
            break
        ok &= done
    report(4, f"plain vs splitting identical on {checked}/20 mixed instances", ok and checked == 20)


def test_criterion_5_approximant_oracle():
    rng = np.random.default_rng(99)
    from test_polymat import random_polymat

    ok = True
    for case in range(200):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, r + 1))
        order = int(rng.integers(1, 9))
        Fmat = random_polymat(rng, r, c, min(8, order))
        B = approximant_basis(Fmat, order)
        ok &= order_condition_holds(B, Fmat, order)
        ok &= is_row_reduced(B)
        maxdeg = max(B.row_degrees())
        for v in brute_force_kernel_rows(Fmat, order, min(maxdeg, 8)):
            ok &= in_row_space(v, B)
        if not ok:
            break
    report(5, "200 approximant bases: order condition, reduced, complete", ok)


def test_criterion_7_power_projection_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for case in range(50):
        d = int(rng.integers(1, 65))
        t = int(rng.integers(1, 257))
        m = Poly(F101, list(rng.integers(0, 101, d)) + [1])
        h = Poly(F101, rng.integers(0, 101, d))
        ell = [int(v) for v in rng.integers(0, 101, d)]
        ok &= power_projection(m, h, [ell], t)[0].tolist() == power_projection_naive(m, h, ell, t)
        if not ok:
            break
    report(7, "power projection vs naive oracle, 50 cases", ok)


def test_criterion_8_parallel_determinism_and_bench():
    # gating part: identical results under different worker budgets
    rng = Rng(4242)
    pts = set()
    while len(pts) < 100:
        pts.add(tuple(rng.element(F) for _ in range(3)))
    inst, _ = generate_instance(F, 3, [PointSpec(coords=c) for c in sorted(pts)], rng.child())
    outs = []
    for workers in (1, 4):
        param = solve(inst, 2, Rng(11), workers=workers)
        outs.append(param)
    same = outs[0].Q == outs[1].Q and all(a == b for a, b in zip(outs[0].V, outs[1].V))
    report(8, "identical output with 1 and 4 workers", same)

    # informational part, non-gating: timing profile on a large instance;
    # a larger modulus keeps random combinations separating at this scale
    # while staying inside the int64 fast paths
    FB = Field(67108859)
    big = 2000
    rng = Rng(31337)
    pts = set()
    while len(pts) < big:
        pts.add(tuple(rng.element(FB) for _ in range(3)))
    inst, truth = generate_instance(FB, 3, [PointSpec(coords=c) for c in sorted(pts)], rng.child())
    t_probe = [rng.nonzero_element(FB) for _ in range(3)]
    M = combine_matrices(t_probe, inst.mats)
    stats = SolveStats()
    t0 = time.perf_counter()
    plain = solve(inst, 2, Rng(1), stats=stats)
    plain_wall = time.perf_counter() - t0
    frac = stats.krylov_seconds / stats.total_seconds
    stats2 = SolveStats()
    t0 = time.perf_counter()
    split = solve_split(inst, 2, Rng(1), stats=stats2)
    split_wall = time.perf_counter() - t0
    d_a = stats2.extras.get("D_A", 0)
    print(
        f"informational bench: D={big} density(M_1)={inst.mats[0].density:.4f} "
        f"density(M)={M.density:.4f} krylov_fraction={frac:.2f} "
        f"plain={plain_wall:.2f}s split={split_wall:.2f}s ratio={split_wall / plain_wall:.2f} "
        f"D_A/D={d_a / big:.3f}"
    )
    assert plain.Q.degree == big
    assert split.Q.degree == big
