import numpy as np
import pytest

from bfglm.errors import InvalidInput, UnluckyRandomness
from bfglm.field import Field, Rng
from bfglm.param import (
    BlockSolveArtifacts,
    Instance,
    SolveStats,
    ZeroDimParam,
    block_parametrization,
    mat_vec,
    solve,
    unit_vector,
    verify_against_points,
)
from bfglm.sparse import SparseMat
from bfglm.toolkit import PointSpec, generate_instance
from bfglm.unipoly import Poly

from conftest import REF_T
from oracles import parametrization_from_series

F = Field(101)


def P(*coeffs):
    return Poly(F, coeffs)


def test_parametrization_from_series_two_points():
    # sequence of two weighted points on the line: X = (1, 4) and (3, 2)
    seq = [(17 + 33 * pow(3, s, 101)) % 101 for s in range(8)]
    coord = [(17 * 4 + 33 * 2 * pow(3, s, 101)) % 101 for s in range(8)]
    param = parametrization_from_series(seq, [coord], 2, F)
    assert param.Q == P(3, 97, 1)
    assert param.V[0] == P(5, 100)
    assert param.V[0].eval(1) == 4
    assert param.V[0].eval(3) == 2


def test_parametrization_from_series_single_point():
    seq = [7 for _ in range(4)]  # weight 7 at T = 1
    coord = [(7 * 9) % 101 for _ in range(4)]
    param = parametrization_from_series(seq, [coord], 1, F)
    assert param.Q == P(100, 1)
    assert param.V[0] == P(9)


def test_check_invariants_rejects_bad_params():
    q = P(3, 97, 1)
    good = ZeroDimParam(Q=q, V=[Poly.x(F)], t=[1])
    good.check_invariants()
    with pytest.raises(InvalidInput):
        ZeroDimParam(Q=q.scale(2), V=[Poly.x(F)], t=[1]).check_invariants()
    with pytest.raises(InvalidInput):
        # not squarefree
        ZeroDimParam(Q=P(100, 1) * P(100, 1), V=[Poly.x(F)], t=[1]).check_invariants()
    with pytest.raises(InvalidInput):
        # sum t_i V_i != T mod Q
        ZeroDimParam(Q=q, V=[P(5)], t=[1]).check_invariants()
    # Q = 1 takes the general path: every V_i is reduced mod Q, so zero
    ZeroDimParam(Q=P(1), V=[Poly.zero(F), Poly.zero(F)], t=[1, 0]).check_invariants()
    with pytest.raises(InvalidInput, match="deg"):
        ZeroDimParam(Q=P(1), V=[P(5)], t=[1]).check_invariants()


def test_instance_requires_large_modulus():
    M = SparseMat.from_dense(F, np.zeros((101, 101), dtype=np.int64))
    with pytest.raises(InvalidInput):
        Instance(field=F, n=1, D=101, mats=[M])


def test_unit_vector():
    e = unit_vector(F, 5, 2)
    assert e.tolist() == [0, 0, 1, 0, 0]


@pytest.mark.parametrize("p", [101, 2**31 - 1, 2**61 - 1])
def test_mat_vec_matches_dense(p):
    # 2^31 - 1 and 2^61 - 1 overflow int64 sums and take the exact product
    f = Field(p)
    rng = Rng(2)
    dense = rng.block(f, 8, 8)
    M = SparseMat.from_dense(f, dense)
    w = rng.vector(f, 8)
    assert np.array_equal(mat_vec(M, w), (dense.astype(object) @ w.astype(object)) % p)


def test_block_parametrization_reference(ref_instance, ref_blocks, block_cores):
    U, V = ref_blocks
    param = block_parametrization(ref_instance, U, V, REF_T, [1, 1], rng=Rng(7))
    assert param.Q == P(61, 8, 1)
    assert param.V[0] == P(14, 15)
    assert param.V[1] == P(9, 49)
    assert param.t == [2, 53]
    (a,) = block_cores
    assert a.nums[0] == P(13, 75, 84)
    assert a.nums[1] == P(16, 47, 88)
    assert a.s1 == P(7, 100, 76, 1)
    param.check_invariants()
    # recovered points: roots 33 and 60
    assert param.V[0].eval(33) == 4 and param.V[1].eval(33) == 10
    assert param.V[0].eval(60) == 5 and param.V[1].eval(60) == 20


def test_solve_single_point_instance():
    f = Field(65537)
    inst, truth = generate_instance(f, 2, [PointSpec(coords=(7, 9))], Rng(3))
    assert inst.D == 1
    param = solve(inst, 1, Rng(4))
    assert param.Q.degree == 1
    rep = verify_against_points(param, truth.points, f)
    assert rep["pass"]


@pytest.mark.parametrize("m", [1, 2, 4])
def test_solve_recovers_truth(m):
    f = Field(65537)
    rng = Rng(90 + m)
    pts = set()
    while len(pts) < 9:
        pts.add(tuple(rng.element(f) for _ in range(3)))
    inst, truth = generate_instance(f, 3, [PointSpec(coords=c) for c in sorted(pts)], rng.child())
    stats = SolveStats()
    param = solve(inst, m, Rng(7 + m), stats=stats)
    assert param.Q.degree == 9
    assert verify_against_points(param, truth.points, f)["pass"]
    assert stats.retries <= 1
    assert stats.total_seconds > 0


def test_blocking_factors_agree():
    # same instance solved at different m gives the same polynomials once
    # the same separating combination t is used
    f = Field(65537)
    rng = Rng(17)
    pts = set()
    while len(pts) < 8:
        pts.add(tuple(rng.element(f) for _ in range(2)))
    inst, _ = generate_instance(f, 2, [PointSpec(coords=c) for c in sorted(pts)], rng.child())
    t = [3, 11]
    outs = []
    for m in (1, 2, 4):
        U = Rng(100 + m).block(f, inst.D, m)
        V = Rng(200 + m).block(f, inst.D, m)
        outs.append(block_parametrization(inst, U, V, t, [5, 7], rng=Rng(5)))
    for o in outs[1:]:
        assert o.Q == outs[0].Q
        assert all(a == b for a, b in zip(o.V, outs[0].V))


def test_zero_matrix_instance_is_inseparable():
    # the zero matrix describes two copies of the same point; no linear form
    # can ever separate them and the degree-deficiency certificate fires
    f = Field(65537)
    Z = SparseMat.from_dense(f, np.zeros((2, 2), dtype=np.int64))
    inst = Instance(field=f, n=1, D=2, mats=[Z])
    with pytest.raises(UnluckyRandomness):
        solve(inst, 1, Rng(1))


def test_solve_retries_fresh_t_on_detected_collision():
    # force a collision: points differ only in the second coordinate, and the
    # first t makes their combinations equal; solve must notice the
    # squarefree degree-deficient invariant factor and redraw t
    f = Field(65537)
    inst, truth = generate_instance(
        f, 2, [PointSpec(coords=(10, 20)), PointSpec(coords=(11, 30))], Rng(40)
    )
    from bfglm.param import block_parametrization as bp
    from bfglm.errors import NonSeparating

    # t = (10, 65536): 10*10 + (-1)*20 = 80, 10*11 + (-1)*30 = 80
    bad_t = [10, f.p - 1]
    U = Rng(41).block(f, inst.D, 1)
    V = Rng(42).block(f, inst.D, 1)
    with pytest.raises(NonSeparating):
        bp(inst, U, V, bad_t, [3, 7], rng=Rng(43))
    stats = SolveStats()
    param = solve(inst, 1, Rng(44), stats=stats)
    assert param.Q.degree == 2
    assert verify_against_points(param, truth.points, f)["pass"]


def test_probe_catches_merged_points_beside_a_double_point(monkeypatch):
    # t sends the simple points (10, 20) and (11, 30) both to 80, and the
    # double point gives s1 a repeated root at 30, so the squarefree
    # certificate passes; the probe's rank-one test must catch the merge
    from bfglm import param as param_mod
    from bfglm.errors import NonSeparating

    f = Field(65537)
    spec = [
        PointSpec(coords=(4, 10), nu=2, c=(1, 2)),
        PointSpec(coords=(10, 20)),
        PointSpec(coords=(11, 30)),
    ]
    inst, truth = generate_instance(f, 2, spec, Rng(45))
    bad_t = [10, f.p - 1]
    U = Rng(46).block(f, inst.D, 1)
    V = Rng(47).block(f, inst.D, 1)
    with pytest.raises(NonSeparating):
        block_parametrization(inst, U, V, bad_t, [3, 7], rng=Rng(48))

    # solve starting from the merging t redraws t and returns every point
    calls = []

    def first_t_merges(inst, U, V, t, *args, **kwargs):
        calls.append(t)
        return block_parametrization(inst, U, V, bad_t if len(calls) == 1 else t, *args, **kwargs)

    monkeypatch.setattr(param_mod, "block_parametrization", first_t_merges)
    stats = SolveStats()
    param = param_mod.solve(inst, 1, Rng(49), stats=stats)
    assert stats.extras["t_retries"] == 1
    assert param.Q.degree == 3
    assert verify_against_points(param, truth.points, f)["pass"]


@pytest.mark.xfail(
    strict=True,
    reason="open gap: the probe tests only the simple roots of s1, so a simple "
    "point that t merges into a fat point is lost silently",
)
def test_probe_catches_a_simple_point_merged_into_a_fat_one():
    # t = (1, 1) sends the double point (3, 5) and the simple point (6, 2)
    # both to 8: s1 has a repeated root there, which the probe does not test
    from bfglm.errors import NonSeparating

    f = Field(65537)
    spec = [
        PointSpec(coords=(3, 5), nu=2, c=(1, 2)),
        PointSpec(coords=(6, 2)),
        PointSpec(coords=(10, 11)),
        PointSpec(coords=(20, 7)),
        PointSpec(coords=(4, 40)),
    ]
    for s in range(4):
        inst, _ = generate_instance(f, 2, spec, Rng(s))
        for m in (1, 2):
            rng = Rng(100 + s)
            U, V = rng.block(f, inst.D, m), rng.block(f, inst.D, m)
            y = [rng.nonzero_element(f) for _ in range(2)]
            with pytest.raises(NonSeparating):
                block_parametrization(inst, U, V, [1, 1], y, rng)


def test_a_rejected_plain_attempt_makes_one_krylov_pass(monkeypatch):
    # the probe column N^2 e_1 rides the attempt's one streamed pass, on the
    # merging instance of the test above
    from bfglm import param as param_mod, sparse
    from bfglm.errors import NonSeparating

    f = Field(65537)
    spec = [
        PointSpec(coords=(4, 10), nu=2, c=(1, 2)),
        PointSpec(coords=(10, 20)),
        PointSpec(coords=(11, 30)),
    ]
    inst, _ = generate_instance(f, 2, spec, Rng(45))
    U = Rng(46).block(f, inst.D, 1)
    V = Rng(47).block(f, inst.D, 1)
    passes = []
    real = sparse.krylov_left_sequence

    def counting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparse, "krylov_left_sequence", counting)
    monkeypatch.setattr(param_mod, "krylov_left_sequence", counting)
    with pytest.raises(NonSeparating):
        block_parametrization(inst, U, V, [10, f.p - 1], [3, 7], rng=Rng(48))
    assert len(passes) == 1


def test_solve_raises_unlucky_when_retries_exhausted(monkeypatch):
    from bfglm import param as param_mod
    from bfglm.errors import GenericityFailure

    calls = []

    def always_fail(*args, **kwargs):
        calls.append(1)
        raise GenericityFailure("forced")

    monkeypatch.setattr(param_mod, "block_parametrization", always_fail)
    f = Field(65537)
    inst, _ = generate_instance(f, 2, [PointSpec(coords=(1, 2))], Rng(5))
    stats = SolveStats()
    with pytest.raises(UnluckyRandomness):
        param_mod.solve(inst, 1, Rng(6), retries=3, stats=stats)
    assert len(calls) == 4  # initial attempt plus three retries
    assert stats.retries == 4


def test_verify_against_points_detects_mismatch():
    f = Field(65537)
    inst, truth = generate_instance(f, 2, [PointSpec(coords=(1, 2)), PointSpec(coords=(3, 4))], Rng(5))
    param = solve(inst, 1, Rng(6))
    good = verify_against_points(param, truth.points, f)
    assert good["pass"]
    bad = verify_against_points(param, [(1, 2), (3, 5)], f)
    assert not bad["pass"]


def test_verify_against_points_reports_distinct_points_in_first_order():
    f = Field(65537)
    inst, truth = generate_instance(f, 2, [PointSpec(coords=(1, 2)), PointSpec(coords=(3, 4))], Rng(5))
    param = solve(inst, 1, Rng(6))
    rep = verify_against_points(param, [(3, 4), (1, 2), (3 + f.p, 4)], f)
    x = [(param.t[0] * a + param.t[1] * b) % f.p for a, b in [(3, 4), (1, 2)]]
    assert rep == {
        "pass": True,
        "points": [{"point": (3, 4), "x": x[0], "ok": True}, {"point": (1, 2), "x": x[1], "ok": True}],
        "warnings": [],
    }
    assert all(type(e["x"]) is int and type(e["ok"]) is bool for e in rep["points"])


def test_nilpotent_instance_yields_radical_parametrization():
    # one fat point of multiplicity 3 over one of multiplicity 1
    f = Field(65537)
    spec = [
        PointSpec(coords=(4, 10), nu=3, c=(1, 2)),
        PointSpec(coords=(5, 20)),
    ]
    inst, truth = generate_instance(f, 2, spec, Rng(8))
    assert inst.D == 4
    param = solve(inst, 2, Rng(9))
    assert param.Q.degree == 2  # distinct points only
    rep = verify_against_points(param, truth.points, f)
    assert rep["pass"]


def test_unlucky_invariant_factor_is_redrawn(monkeypatch):
    # the first invariant factor is replaced by a proper divisor, as an
    # unlucky projection would give; its quotient rows fail, the solve
    # redraws and returns every point
    from bfglm import param as param_mod

    spec = [
        PointSpec(coords=(4, 10), nu=2, c=(1, 2)),
        PointSpec(coords=(5, 20)),
        PointSpec(coords=(9, 1)),
    ]
    inst, truth = generate_instance(F, 2, spec, Rng(3))
    real = param_mod.largest_invariant_factor
    seen = []

    def unlucky_first(Pmat, rng):
        s1 = real(Pmat, rng)
        seen.append(s1)
        g = s1.gcd(s1.derivative())
        return g * g if len(seen) == 1 else s1

    monkeypatch.setattr(param_mod, "largest_invariant_factor", unlucky_first)
    stats = SolveStats()
    out = solve(inst, 2, Rng(4), stats=stats)
    # the divisor (T - x)^2 of the double root x is not squarefree, so only
    # the quotient rows can reject it
    assert seen[0].degree == 4 and seen[0].gcd(seen[0].derivative()).degree == 1
    assert stats.retries == 1
    assert out.Q.degree == 3
    assert verify_against_points(out, truth.points, F)["pass"]
