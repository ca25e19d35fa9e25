import hashlib

import numpy as np
import pytest

from bfglm.errors import InvalidInput, InvariantViolation, NonSeparating, NotCoprime, NotInvertible
from bfglm.field import Field, Rng
from bfglm import param as param_mod
from bfglm.param import (
    SolveStats,
    ZeroDimParam,
    block_parametrization,
    solve,
    verify_against_points,
)
from bfglm import splitting, unipoly
from bfglm.splitting import (
    block_parametrization_residual,
    block_parametrization_with_splitting,
    block_parametrization_x1,
    change_separating_element,
    correction_matrices,
    decompose,
    solve_split,
    union_params,
)
from bfglm.toolkit import PointSpec, generate_instance, verify_solution
from bfglm.unipoly import Poly, _fit, power_projection

from oracles import parametrization_from_series, power_projection_naive, simple_separated_dimension

F = Field(65537)


def P(*coeffs):
    return Poly(F, coeffs)


def make(spec, seed):
    return generate_instance(F, len(spec[0].coords), spec, Rng(seed))


def x1_solve(inst, m, seed, y=None):
    rng = Rng(seed)
    U = rng.block(F, inst.D, m)
    V = rng.block(F, inst.D, m)
    y = y if y is not None else [rng.nonzero_element(F) for _ in range(inst.n)]
    return block_parametrization_x1(inst, U, V, y, rng=rng.child())


def test_x1_solve_all_distinct_first_coordinates():
    spec = [PointSpec(coords=(3, 5)), PointSpec(coords=(7, 11)), PointSpec(coords=(9, 2))]
    inst, truth = make(spec, 1)
    param = x1_solve(inst, 2, 2)
    assert param.Q.degree == 3
    assert param.t == [1, 0]
    # param is keyed by X_1 itself: roots are the X_1 values
    for x1, x2 in [(3, 5), (7, 11), (9, 2)]:
        assert param.Q.eval(x1) == 0
        assert param.V[1].eval(x1) == x2


def test_x1_solve_drops_collisions_and_fat_points():
    spec = [
        PointSpec(coords=(3, 5)),
        PointSpec(coords=(3, 8)),          # X_1 collision, both dropped
        PointSpec(coords=(7, 11), nu=2, c=(1, 1)),  # fat point, dropped
        PointSpec(coords=(9, 2)),
    ]
    inst, truth = make(spec, 3)
    param = x1_solve(inst, 2, 4)
    assert param.Q.degree == 1
    assert param.Q.eval(9) == 0
    assert param.V[1].eval(9) == 2


def test_x1_solve_nothing_visible():
    spec = [PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8))]
    inst, _ = make(spec, 5)
    param = x1_solve(inst, 1, 6)
    assert param.Q == P(1)
    assert param.V == [Poly.zero(F), Poly.zero(F)] and param.t == [1, 0]


def test_x1_solve_ignores_the_first_probe_entry():
    # at a shared X_1-value the defect is a multiple of
    # (sum_{i>=2} y_i (x_i - x'_i))^2, so y_1 cancels
    spec = [
        PointSpec(coords=(3, 5)),
        PointSpec(coords=(3, 8)),          # X_1 collision, dropped
        PointSpec(coords=(7, 11), nu=2, c=(1, 1)),  # fat point, dropped
        PointSpec(coords=(9, 2)),
        PointSpec(coords=(12, 4)),
    ]
    inst, _ = make(spec, 9)
    a, b = (x1_solve(inst, 2, 10, y=[y1, 5]) for y1 in (1, 4321))
    assert a.Q == b.Q and all(u == v for u, v in zip(a.V, b.V))
    assert a.Q.degree == 2 and a.Q.eval(3) != 0
    for x1, x2 in [(9, 2), (12, 4)]:
        assert a.V[1].eval(x1) == x2


def test_x1_probe_form_detects_hidden_structure():
    # two points sharing X_1 and X_2 separated only by X_3: without the probe
    # refinement X_1 = 3 would wrongly count as solved
    spec = [
        PointSpec(coords=(3, 5, 1)),
        PointSpec(coords=(3, 5, 2)),
        PointSpec(coords=(8, 4, 9)),
    ]
    inst, _ = make(spec, 7)
    param = x1_solve(inst, 2, 8)
    assert param.Q.degree == 1
    assert param.Q.eval(8) == 0


def _x1_rule_spec():
    """D = 60 over n = 3: 40 simple points with X_1-values of their own,
    5 pairs sharing one and 5 double points, so D_A = 40."""
    rng = np.random.default_rng(60)
    x1s = rng.choice(np.arange(1, 1000), 50, replace=False).tolist()
    pts = [(x1, *map(int, rng.integers(1, F.p, 2))) for x1 in x1s + x1s[40:45]]
    spec = [PointSpec(coords=c) for c in pts[:45] + pts[50:]]
    return spec + [PointSpec(coords=c, nu=2, c=(1, 2, 3)) for c in pts[45:50]]


@pytest.mark.parametrize("m", [1, 3])
def test_x1_solve_reads_T_through_the_coordinate_rule(m):
    # V_1 is e_1's numerator under M_1 over e_1's own, mod F: T mod F
    spec = _x1_rule_spec()
    inst, _ = make(spec, 21)
    assert inst.D == 60
    param = x1_solve(inst, m, 22)
    assert param.Q.degree == 40
    assert param.V[0] == Poly.x(F) % param.Q
    for pt in spec[:40]:
        assert param.Q.eval(pt.coords[0]) == 0
        assert [Vi.eval(pt.coords[0]) for Vi in param.V] == list(pt.coords)


def test_every_coordinate_is_read_through_one_rule(monkeypatch):
    # one _coordinates call per X_1 solve, per change of separating element
    # (whose reference numerator, the trace row's, is Q') and per residual
    from bfglm import param as param_mod

    calls = []
    real = param_mod._coordinates

    def spy(nums, Q):
        calls.append((list(nums), Q))
        return real(nums, Q)

    monkeypatch.setattr(param_mod, "_coordinates", spy)
    monkeypatch.setattr(splitting, "_coordinates", spy)
    inst, truth = make(_x1_rule_spec(), 21)
    rng = Rng(23)
    U, V = rng.block(F, inst.D, 2), rng.block(F, inst.D, 2)
    t, y = ([rng.nonzero_element(F) for _ in range(3)] for _ in range(2))
    param_A = block_parametrization_x1(inst, U, V, y, rng=rng.child())
    assert [Q for _, Q in calls] == [param_A.Q]
    pA = change_separating_element(param_A, t)
    assert len(calls) == 2
    nums, Q = calls[1]
    assert Q == pA.Q and len(nums) == 4 and nums[0] == Q.derivative()
    calls.clear()
    out = block_parametrization_with_splitting(inst, U, V, t, y, rng=rng.child())
    assert len(calls) == 3 and calls[1][0][0] == calls[1][1].derivative()
    assert out.Q == calls[1][1] * calls[2][1]
    assert verify_against_points(out, truth.points, F)["pass"]


def test_decompose_edges():
    M_min = P(1, 2, 1)  # (T + 1)^2: its only root is repeated
    assert decompose(M_min, P(1, 1)) == P(1)
    Q = P(6, 5, 1)  # (T + 2)(T + 3), simple roots
    assert decompose(Q, Q) == Q
    # a defect that vanishes everywhere keeps every simple root
    assert decompose(Q, Q).gcd(Poly.zero(F)) == Q
    assert decompose(Q, Q).gcd(P(1)) == P(1)


def test_decompose_drops_repeated_roots_and_roots_with_a_defect():
    p = F.p
    lin = {a: P(-a % p, 1) for a in (1, 2, 3, 4)}
    M_min = lin[1] * lin[2] * lin[2] * lin[3] * lin[4]
    Q = lin[1] * lin[2] * lin[3] * lin[4]
    # the defect vanishes at 1, 2 and 4, not at 3
    defect = lin[1] * lin[2] * lin[4] * P(5, 1)
    F_ = decompose(M_min, Q).gcd(defect)
    assert F_ == lin[1] * lin[4]
    E = M_min // F_
    assert F_ * E == M_min and F_.gcd(E).is_one()


def _dense_poly_at(f, coeffs, A):
    """sum_k coeffs[k] A^k for a dense matrix A, by Horner."""
    out = f.zeros(A.shape)
    for c in reversed(coeffs):
        out = (f.matmul(out, A) + int(c) * np.eye(len(A), dtype=np.int64)) % f.p
    return out


COMPONENT_SPEC = [
    PointSpec(coords=(3, 5)),
    PointSpec(coords=(7, 11)),
    PointSpec(coords=(9, 2)),
    PointSpec(coords=(9, 6)),   # collision pair forms the residual
    PointSpec(coords=(13, 1)),
]


def test_correction_matrices_zero_when_nothing_solved():
    # F = 1: the projection leaves U as it is
    inst, _ = make([PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8))], 13)
    param = x1_solve(inst, 2, 14)
    assert param.Q == P(1)
    U = Rng(3).block(F, inst.D, 2)
    assert np.array_equal(correction_matrices(param.Q, U, inst), U)


def test_correction_matrices_match_the_dense_oracle():
    inst, _ = make(COMPONENT_SPEC, 15)
    param = x1_solve(inst, 2, 16)
    Fs = param.Q
    assert Fs.degree == 3
    U = Rng(17).block(F, inst.D, 2)
    U_B = correction_matrices(Fs, U, inst)
    M1 = inst.mats[0].to_dense()
    assert np.array_equal(U_B, F.matmul(_dense_poly_at(F, Fs.c, M1).T, U))
    # an eigenvector x of M_1 for the X_1-value a spans the columns of
    # (M_min / (T - a))(M_1); U_B^T x vanishes exactly on the solved values
    M_min = P(-3 % F.p, 1) * P(-7 % F.p, 1) * P(-9 % F.p, 1) * P(-13 % F.p, 1)
    for a in (3, 7, 9, 13):
        X = _dense_poly_at(F, (M_min // P(-a % F.p, 1)).c, M1)
        x = X[:, np.flatnonzero(X.any(axis=0))[0]]
        assert not np.any((F.matmul(M1, x) - a * x) % F.p)
        assert np.any(F.matmul(U_B.T, x)) == (a == 9)


def test_corrections_match_component_difference():
    # the projected sequence is the block sequence of the residual
    # component: a solve through U_B finds exactly the collision pair
    inst, truth = make(COMPONENT_SPEC, 15)
    rng = Rng(16)
    m = 2
    U = rng.block(F, inst.D, m)
    V = rng.block(F, inst.D, m)
    y = [rng.nonzero_element(F) for _ in range(2)]
    param_A = block_parametrization_x1(inst, U, V, y, rng=rng.child())
    assert param_A.Q.degree == 3
    t = [5, 9]
    pB = block_parametrization_residual(inst, U, V, param_A.Q, t, y, rng=rng.child())
    assert pB.Q.degree == 2
    # residual roots are exactly the collision pair under X = 5 X_1 + 9 X_2
    for x1, x2 in [(9, 2), (9, 6)]:
        root = (5 * x1 + 9 * x2) % F.p
        assert pB.Q.eval(root) == 0
        assert pB.V[0].eval(root) == x1
        assert pB.V[1].eval(root) == x2


def test_residual_requires_nonempty_component():
    inst, _ = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2))], 17)
    rng = Rng(18)
    U = rng.block(F, inst.D, 1)
    V = rng.block(F, inst.D, 1)
    param_A = block_parametrization_x1(inst, U, V, [rng.nonzero_element(F) for _ in range(2)], rng=rng.child())
    assert param_A.Q.degree == inst.D
    with pytest.raises(InvalidInput):
        block_parametrization_residual(inst, U, V, param_A.Q, [1, 1], [1, 1], rng=rng.child())


@pytest.mark.parametrize("m", [1, 2])
def test_residual_probe_rejects_a_merging_form(m):
    # X = X_1 solves 3 and 12, and leaves the pair at X_1 = 9 and the double
    # point at 7 to the residual, where it merges the pair: s1 = (T-9)(T-7)^2
    # has a repeated root, so only the plain attempt's probe check sees that
    # the simple root 9 carries two points
    spec = [
        PointSpec(coords=(3, 5)),
        PointSpec(coords=(12, 4)),
        PointSpec(coords=(9, 2)),
        PointSpec(coords=(9, 6)),
        PointSpec(coords=(7, 11), nu=2, c=(1, 1)),
    ]
    inst, _ = make(spec, 1)
    rng = Rng(m)
    U = rng.block(F, inst.D, m)
    V = rng.block(F, inst.D, m)
    stats = SolveStats()
    with pytest.raises(NonSeparating):
        block_parametrization_with_splitting(inst, U, V, [1, 0], [7, 7], rng=rng, stats=stats)
    assert (stats.extras["D_A"], stats.extras["D_B"]) == (2, 4)


def test_change_separating_element_identity():
    inst, truth = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2))], 19)
    param = x1_solve(inst, 1, 20)
    out = change_separating_element(param, [1, 0])
    assert out.Q == param.Q
    assert all(a == b for a, b in zip(out.V, param.V))


def test_change_separating_element_transport():
    inst, truth = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2)), PointSpec(coords=(12, 4))], 22)
    param = x1_solve(inst, 1, 23)
    t = [2, 7]
    out = change_separating_element(param, t)
    assert out.t == [2, 7]
    for x1, x2 in [(3, 5), (9, 2), (12, 4)]:
        root = (2 * x1 + 7 * x2) % F.p
        assert out.Q.eval(root) == 0
        assert out.V[0].eval(root) == x1
        assert out.V[1].eval(root) == x2


def test_change_separating_element_rejects_non_separating(monkeypatch):
    # both points share X_2, so X = X_2 cannot separate them; one projection
    # of the power sequence shows it, and no coordinate is projected
    inst, _ = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 5))], 25)
    param = x1_solve(inst, 1, 26)
    assert param.Q.degree == 2
    calls = []

    def counting(*args):
        calls.append(args)
        return power_projection(*args)

    monkeypatch.setattr(splitting, "power_projection", counting)
    with pytest.raises(NonSeparating):
        change_separating_element(param, [0, 1])
    assert len(calls) == 1


def _synthetic_param(f, r, rng, merge=False):
    """((Q, T, V_2), X_1) of r points with distinct random X_1 values and
    X_2 = V_2(X_1) for a random V_2; with merge, V_2 takes one value at the
    first two points, so that X = X_2 merges them."""
    p = f.p
    xs = sorted({int(x) for x in rng.integers(0, p, 2 * r)})[:r]
    Q = Poly.one(f)
    for a in xs:
        Q = Q * Poly(f, [-a % p, 1])
    V2 = Poly(f, [int(x) for x in rng.integers(0, p, r)])
    if merge:
        c = (V2.eval(xs[1]) - V2.eval(xs[0])) * pow(xs[0] - xs[1], -1, p) % p
        V2 = V2 + Poly(f, [-c * xs[0] % p, c])
    return ZeroDimParam(Q=Q, V=[Poly.x(f) % Q, V2], t=[1, 0]), xs


def _random_form_route(param, t, rng):
    """The change of separating element by a random form ell: its products
    ell(G_i .) on the basis T^j, the powers of X projected for 2r terms, the
    coordinates for r, and the minimal polynomial by Berlekamp-Massey.  The
    products ell(G T^j mod F) are taken on Python ints."""
    F = param.Q
    f, r = F.field, F.degree
    lam = sum((Gi.scale(ti) for ti, Gi in zip(t, param.V)), Poly.zero(f)) % F
    ell = [rng.element(f) for _ in range(r)]
    low = [int(c) for c in F.c[:r]]
    coords = []
    for G in param.V:
        # ell(G T^j mod F), with T times a remainder reduced by one step
        moved, cur = [], [int(c) for c in _fit((G % F).c, r, f)]
        for _ in range(r):
            moved.append(sum(a * b for a, b in zip(ell, cur)) % f.p)
            cur = [(a - cur[-1] * c) % f.p for a, c in zip([0] + cur[:-1], low)]
        coords.append(power_projection_naive(F, lam, moved, r))
    powers = power_projection_naive(F, lam, ell, 2 * r)
    return parametrization_from_series(powers, coords, r, f, t)


@pytest.mark.parametrize(
    "p, r",
    # r = 600 and 1100 take every giant step through the FFT; the naive
    # oracle makes 4r modular products, of 2 ms each at r = 1100 below
    # 2^31.5 and far slower at 2^61 - 1
    [(p, r) for p in [67108859, 2**31 - 1, 3037000493] for r in [40, 600]]
    + [(67108859, 1100), (2**61 - 1, 40)],
)
def test_change_separating_element_matches_the_random_form_route(p, r):
    f = Field(p)
    rng = np.random.default_rng(r)
    param, xs = _synthetic_param(f, r, rng)
    t = [int(x) for x in rng.integers(1, p, 2)]
    got = change_separating_element(param, t)
    want = _random_form_route(param, t, Rng(r))
    assert want.Q.degree == r
    assert got.Q == want.Q and got.t == want.t
    assert all(a == b for a, b in zip(got.V, want.V))
    x = xs[r // 2]
    root = (t[0] * x + t[1] * param.V[1].eval(x)) % p
    assert got.Q.eval(root) == 0 and got.V[1].eval(root) == param.V[1].eval(x)


def test_change_separating_element_rejects_a_merging_form_after_one_projection(monkeypatch):
    # X = X_2 takes one value at two of 600 points: Q' has no inverse mod Q
    f = Field(67108859)
    r = 600
    param, _ = _synthetic_param(f, r, np.random.default_rng(4), merge=True)
    calls = []

    def counting(*args):
        calls.append(args)
        return power_projection(*args)

    def forbidden(*args):
        raise AssertionError("no Berlekamp-Massey in the change of separating element")

    monkeypatch.setattr(splitting, "power_projection", counting)
    monkeypatch.setattr(unipoly, "berlekamp_massey", forbidden)
    with pytest.raises(NonSeparating) as exc:
        change_separating_element(param, [0, 1])
    assert isinstance(exc.value.__context__, NotInvertible)
    assert len(calls) == 1
    # separated by a generic form: one projection of r + 1 terms
    calls.clear()
    out = change_separating_element(param, [1, 1])
    assert out.Q.degree == r
    assert len(calls) == 1 and calls[0][3] == r + 1


def test_change_separating_element_needs_degree_below_p():
    # Newton's identities divide by every k <= deg Q
    f = Field(3)
    Q = Poly(f, [1, 2, 0, 1])  # T^3 - T + 1, squarefree over F_3
    param = ZeroDimParam(Q=Q, V=[Poly.x(f), Poly.zero(f)], t=[1, 0])
    param.check_invariants()
    with pytest.raises(InvalidInput):
        change_separating_element(param, [1, 1])


def test_union_params():
    qa = ZeroDimParam(Q=P(-3 % F.p, 1), V=[P(3), P(5)], t=[1, 0])
    qb = ZeroDimParam(Q=P(-9 % F.p, 1), V=[P(9), P(2)], t=[1, 0])
    u = union_params(qa, qb)
    assert u.Q.degree == 2
    assert u.V[0].eval(3) == 3 and u.V[1].eval(3) == 5
    assert u.V[0].eval(9) == 9 and u.V[1].eval(9) == 2
    with pytest.raises(NotCoprime):
        union_params(qa, qa)
    empty = ZeroDimParam(Q=P(1), V=[P(0), P(0)], t=[1, 0])
    for u, part in [(union_params(empty, qb), qb), (union_params(qa, empty), qa)]:
        assert (u.Q, u.V, u.t) == (part.Q, part.V, part.t)
    with pytest.raises(InvalidInput):
        union_params(qa, ZeroDimParam(Q=qb.Q, V=qb.V, t=[0, 1]))


def test_the_union_check_covers_both_parts():
    # union_params checks nothing itself: the check of the union sees a part
    # that is not squarefree, and a wrong coordinate of a part
    qa = ZeroDimParam(Q=P(-3 % F.p, 1), V=[P(3), P(5)], t=[1, 0])
    double = ZeroDimParam(Q=P(-9 % F.p, 1) * P(-9 % F.p, 1), V=[Poly.x(F), P(2)], t=[1, 0])
    wrong = ZeroDimParam(Q=P(-9 % F.p, 1), V=[P(8), P(2)], t=[1, 0])
    for pB, msg in [(double, "squarefree"), (wrong, "sum t_i V_i")]:
        u = union_params(qa, pB)
        with pytest.raises(InvariantViolation, match=msg):
            u.check_invariants()


def test_change_separating_element_of_the_empty_parametrization():
    # Q = 1 takes the general path: a 0 x 0 trace form and one power sum
    empty = ZeroDimParam(Q=P(1), V=[Poly.zero(F), Poly.zero(F)], t=[1, 0])
    out = change_separating_element(empty, [3, 70000])
    assert out.Q == P(1) and out.V == [Poly.zero(F), Poly.zero(F)]
    assert out.t == [3, 70000 % F.p]
    out.check_invariants()


MIXED_SPECS = [
    [PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2))],
    [PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8)), PointSpec(coords=(9, 2))],
    [
        PointSpec(coords=(4, 10), nu=2, c=(1, 2)),
        PointSpec(coords=(5, 20)),
        PointSpec(coords=(9, 1)),
        PointSpec(coords=(9, 2)),
    ],
    [PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8))],  # D_A = 0 fallback
]


@pytest.mark.parametrize("spec_idx", range(len(MIXED_SPECS)))
@pytest.mark.parametrize("m", [1, 2])
def test_split_agrees_with_plain(spec_idx, m):
    spec = MIXED_SPECS[spec_idx]
    inst, truth = make(spec, 100 + spec_idx)
    U = Rng(1).block(F, inst.D, m)
    V = Rng(2).block(F, inst.D, m)
    t = [3, 11]
    y = [7, 7]
    stats = SolveStats()
    plain = block_parametrization(inst, U, V, t, y, rng=Rng(5))
    split = block_parametrization_with_splitting(inst, U, V, t, y, rng=Rng(5), stats=stats)
    assert plain.Q == split.Q
    assert all(a == b for a, b in zip(plain.V, split.V))
    assert verify_against_points(split, truth.points, F)["pass"]


@pytest.mark.parametrize("spec_idx", [1, 2])
def test_one_check_per_plain_solve_and_two_per_split_solve(monkeypatch, spec_idx):
    # the driver checks what it returns; the X_1 solve keeps its own check
    inst, truth = make(MIXED_SPECS[spec_idx], 100 + spec_idx)
    calls = []
    real = ZeroDimParam.check_invariants

    def spy(self):
        calls.append(self.Q)
        return real(self)

    monkeypatch.setattr(ZeroDimParam, "check_invariants", spy)
    plain = solve(inst, 2, Rng(3))
    assert calls == [plain.Q]
    calls.clear()
    stats = SolveStats()
    split = solve_split(inst, 2, Rng(3), stats=stats)
    assert stats.extras["D_A"] > 0 and stats.extras["D_B"] > 0
    assert len(calls) == 2 and calls[0].degree == stats.extras["D_A"] and calls[1] == split.Q
    assert stats.retries == 0 and "t_retries" not in stats.extras
    assert verify_against_points(split, truth.points, F)["pass"]


@pytest.mark.parametrize(
    "route, attempt",
    [(solve, (param_mod, "block_parametrization")),
     (solve_split, (splitting, "block_parametrization_with_splitting"))],
)
def test_the_driver_rejects_a_broken_attempt_output(monkeypatch, route, attempt):
    inst, _ = make(MIXED_SPECS[0], 100)
    calls = []

    def broken(inst, U, V, t, y, rng, stats=None):
        calls.append(stats)
        return ZeroDimParam(Q=P(-3 % F.p, 1).scale(2), V=[P(3), P(5)], t=[1, 0])

    monkeypatch.setattr(*attempt, broken)
    with pytest.raises(InvariantViolation, match="monic"):
        route(inst, 1, Rng(1))
    # one attempt, given the SolveStats that the driver made
    assert len(calls) == 1 and isinstance(calls[0], SolveStats)


def test_solve_split_matches_solve_results():
    spec = [
        PointSpec(coords=(4, 10, 3), nu=2, c=(1, 2, 3)),
        PointSpec(coords=(5, 20, 7)),
        PointSpec(coords=(9, 1, 2)),
        PointSpec(coords=(9, 2, 5)),
        PointSpec(coords=(13, 4, 4)),
    ]
    inst, truth = make(spec, 30)
    stats = SolveStats()
    param = solve_split(inst, 2, Rng(31), stats=stats)
    assert stats.extras["D_A"] == simple_separated_dimension(truth)
    assert verify_against_points(param, truth.points, F)["pass"]
    other = solve(inst, 2, Rng(32))
    # same point set even though the separating forms differ
    assert verify_against_points(other, truth.points, F)["pass"]
    assert param.Q.degree == other.Q.degree == 5


def test_split_with_a_residual_narrower_than_the_block():
    # D_B = 2 < m: the residual generator has rows of degree 0, whose
    # inverse is proper but not strictly proper; no retry may be needed
    spec = [PointSpec(coords=(i, 3 * i + 1)) for i in range(1, 9)]
    spec += [PointSpec(coords=(20, 5)), PointSpec(coords=(20, 6))]
    inst, truth = make(spec, 1)
    for m in (3, 4):
        stats = SolveStats()
        param = solve_split(inst, m, Rng(2), stats=stats)
        assert stats.extras["D_B"] == 2 and stats.retries == 0
        assert verify_against_points(param, truth.points, F)["pass"]


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_solves_past_the_accumulation_limit_and_on_the_object_tier(p, m):
    # 14 simple points, one more sharing X_1 with the first, one double
    # point: D = 17; 2^31 - 1 sums 2 products per int64, 2^61 - 1 cuts both
    # operands into limbs
    f = Field(p)
    spec = [PointSpec(coords=(i, 3 * i + 1)) for i in range(1, 15)]
    spec += [PointSpec(coords=(1, 9)), PointSpec(coords=(20, 5), nu=2, c=(1, 2))]
    inst, truth = generate_instance(f, 2, spec, Rng(m))
    assert inst.D == 17
    stats = SolveStats()
    plain = solve(inst, m, Rng(7))
    split = solve_split(inst, m, Rng(7), stats=stats)
    assert (stats.extras["D_A"], stats.extras["D_B"]) == (13, 4)
    assert verify_solution(inst, plain, truth)["pass"]
    assert verify_solution(inst, split, truth)["pass"]
    assert plain.Q == split.Q and plain.V == split.V


def _point_list(f, D, seed, collide=0.0, fat=0.0):
    """D points in 3 coordinates drawn from Rng(seed), and the child stream
    that generate_instance draws from: simple points with distinct X_1
    values, or, with a share collide of them sharing X_1 values pairwise and
    a share fat of D in double points, in random order."""
    rng = Rng(seed)
    n_fat = round(fat * D / 2)
    n_pts = D - n_fat
    n_pairs = round(collide * n_pts / 2)
    if n_pairs == 0 and n_fat == 0:
        pts, xs = set(), set()
        while len(pts) < D:
            c = tuple(rng.element(f) for _ in range(3))
            if c[0] not in xs:
                xs.add(c[0])
                pts.add(c)
        return [PointSpec(coords=c) for c in sorted(pts)], rng.child()
    xs = set()
    while len(xs) < n_pts - n_pairs:
        xs.add(rng.element(f))
    xs = sorted(xs)
    pts, coords = set(), []
    for x1 in xs[:n_pairs] + xs:
        c = (x1, rng.element(f), rng.element(f))
        while c in pts:
            c = (x1, rng.element(f), rng.element(f))
        pts.add(c)
        coords.append(c)
    specs = [PointSpec(coords=c) for c in coords]
    for i in sorted(int(i) for i in rng.permutation(n_pts)[:n_fat]):
        specs[i] = PointSpec(coords=coords[i], nu=2, c=tuple(rng.nonzero_element(f) for _ in range(3)))
    return specs, rng.child()


# sha256 prefixes of the coefficients of Q, V_1, V_2, V_3 of solve and
# solve_split (equal, as plain == split) on the D = 60 point lists of
# _point_list with seed 1, block size m, pinned on the object-array
# implementation that int64 storage replaced
BIG_PRIME_PINS = {
    ((1 << 47) - 115, "radical"): "996afd8d24b0ad84",
    ((1 << 47) - 115, "mixed"): "0e80878b856108d0",
    ((1 << 61) - 1, "radical"): "6569c10b04f0b7ca",
    ((1 << 61) - 1, "mixed"): "afe13db1d714b5b2",
}
PIN_LISTS = {"radical": ({}, 4), "mixed": ({"collide": 0.15, "fat": 0.10}, 2)}


@pytest.mark.parametrize("p, name", list(BIG_PRIME_PINS))
def test_big_prime_outputs_are_pinned(p, name):
    f = Field(p)
    shares, m = PIN_LISTS[name]
    specs, rng = _point_list(f, 60, 1, **shares)
    inst, _ = generate_instance(f, 3, specs, rng)
    for param in (solve(inst, m, Rng(1)), solve_split(inst, m, Rng(1))):
        polys = [param.Q, *param.V]
        assert all(P.c.dtype == np.int64 for P in polys)
        text = ";".join(" ".join(str(int(x)) for x in P.c) for P in polys)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == BIG_PRIME_PINS[p, name]


def test_probe_quadratic_statistics():
    # the probe test must keep genuinely simple separated points with high
    # probability across probe draws
    spec = [PointSpec(coords=(3, 5, 8)), PointSpec(coords=(7, 11, 1)), PointSpec(coords=(12, 2, 4))]
    inst, _ = make(spec, 33)
    kept = 0
    trials = 12
    for k in range(trials):
        if x1_solve(inst, 1, 40 + k).Q.degree == 3:
            kept += 1
    assert kept >= trials - 1


def _random_split_spec(rng, p, shape):
    """2 to 6 simple points with distinct X_1-values, plus a residual of the
    given shape: a pair sharing an X_1-value, a double or triple point, both,
    or a double point sharing its X_1-value with a simple point."""
    xs = []
    while len(xs) < 9:
        x = int(rng.integers(1, p))
        xs += [x] if x not in xs else []
    ys = [int(y) for y in rng.integers(0, p, 12)]
    spec = [PointSpec(coords=(x, y)) for x, y in zip(xs[3:3 + int(rng.integers(2, 7))], ys)]
    if shape in ("pair", "pair+fat"):
        spec += [PointSpec(coords=(xs[0], ys[10])), PointSpec(coords=(xs[0], ys[11]))]
    if shape in ("fat2", "fat3", "pair+fat"):
        nu = 3 if shape == "fat3" else 2
        spec.append(PointSpec(coords=(xs[1], ys[9]), nu=nu, c=(1, int(rng.integers(1, 100)))))
    if shape == "fat+simple":
        spec += [PointSpec(coords=(xs[2], ys[9]), nu=2, c=(2, 1)), PointSpec(coords=(xs[2], ys[10]))]
    order = rng.permutation(len(spec))
    return [spec[i] for i in order]


def test_solve_split_on_random_instances():
    # every product width (int64, limbs of one operand, of both), every
    # block size against residuals of 2 to 4 dimensions, so that D_B < m
    # occurs, with X_1 collisions and points of multiplicity 2 and 3
    rng = np.random.default_rng(2024)
    seen = set()
    for p in (65537, 2**31 - 1, 2**61 - 1):
        f = Field(p)
        for m in (1, 2, 3, 4):
            for shape in ("pair", "fat2", "fat3", "pair+fat", "fat+simple"):
                spec = _random_split_spec(rng, p, shape)
                inst, truth = generate_instance(f, 2, spec, Rng(int(rng.integers(1 << 30))))
                stats = SolveStats()
                param = solve_split(inst, m, Rng(int(rng.integers(1 << 30))), stats=stats)
                D_A = simple_separated_dimension(truth)
                assert (stats.extras["D_A"], stats.extras["D_B"]) == (D_A, inst.D - D_A)
                assert param.Q.degree == len(spec)
                assert verify_against_points(param, truth.points, f)["pass"]
                seen.add(inst.D - D_A < m)
    assert seen == {True, False}
