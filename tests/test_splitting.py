import numpy as np
import pytest

from bfglm.errors import InvalidInput, NonSeparating, NotCoprime, NotInvertible
from bfglm.field import Field, Rng, sample_block
from bfglm.numerators import NumeratorInputs, scalar_numerator, scalar_numerator_corrected
from bfglm.param import (
    SolveStats,
    ZeroDimParam,
    _block_core,
    block_parametrization,
    e1_columns,
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
from bfglm.sparse import combine_matrices, krylov_left_sequence
from bfglm.toolkit import PointSpec, generate_instance, verify_solution
from bfglm.unipoly import (
    Poly,
    _fit,
    laurent_expand,
    power_projection,
)

from oracles import parametrization_from_series, power_projection_naive, simple_separated_dimension

F = Field(65537)


def P(*coeffs):
    return Poly(F, coeffs)


def make(spec, seed):
    return generate_instance(F, len(spec[0].coords), spec, Rng(seed))


def x1_solve(inst, m, seed, y=None):
    rng = Rng(seed)
    U = sample_block(rng, F, inst.D, m)
    V = sample_block(rng, F, inst.D, m)
    y = y if y is not None else [rng.nonzero_element(F) for _ in range(inst.n - 1)]
    return block_parametrization_x1(inst, U, V, y, m, rng=rng.child())


def test_x1_solve_all_distinct_first_coordinates():
    spec = [PointSpec(coords=(3, 5)), PointSpec(coords=(7, 11)), PointSpec(coords=(9, 2))]
    inst, truth = make(spec, 1)
    cache, param = x1_solve(inst, 2, 2)
    assert cache.D_A == 3
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
    cache, param = x1_solve(inst, 2, 4)
    assert cache.D_A == 1
    assert param.Q.eval(9) == 0
    assert param.V[1].eval(9) == 2


def test_x1_solve_nothing_visible():
    spec = [PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8))]
    inst, _ = make(spec, 5)
    cache, param = x1_solve(inst, 1, 6)
    assert cache.D_A == 0
    assert param.is_empty()


def test_x1_probe_form_detects_hidden_structure():
    # two points sharing X_1 and X_2 separated only by X_3: without the probe
    # refinement X_1 = 3 would wrongly count as solved
    spec = [
        PointSpec(coords=(3, 5, 1)),
        PointSpec(coords=(3, 5, 2)),
        PointSpec(coords=(8, 4, 9)),
    ]
    inst, _ = make(spec, 7)
    cache, param = x1_solve(inst, 2, 8)
    assert cache.D_A == 1
    assert param.Q.eval(8) == 0


def test_decompose_edges():
    cache, param = x1_solve(make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2))], 9)[0], 1, 10)
    assert decompose(cache.M_min, [P(0)], cache.param_A, [1, 1], 5).tolist() == [[0, 0, 0, 0, 0]]
    assert decompose(cache.M_min, [P(1)], cache.param_A, [1, 1], 0).tolist() == [[]]
    with pytest.raises(InvalidInput):
        decompose(cache.M_min, [P(1)], ZeroDimParam(Q=P(1, 1), V=[P(0), P(0)], t=[1, 0]), [1, 1], 3)


def test_decompose_full_component_matches_laurent():
    # when F = M_min and t = e_1, decomposition is just the Laurent expansion
    # of C/M_min transported along X = X_1, i.e. unchanged
    inst, _ = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2)), PointSpec(coords=(12, 4))], 11)
    cache, param = x1_solve(inst, 1, 12)
    assert cache.D_A == 3 and cache.M_min == param.Q
    C = P(4, 7, 1)
    got = decompose(cache.M_min, [C, P(2, 5)], param, [1, 0], 6)
    want = laurent_expand(C % param.Q, param.Q, 6)
    assert got.tolist() == [want, laurent_expand(P(2, 5), param.Q, 6)]


def test_correction_matrices_zero_when_nothing_solved():
    inst, _ = make([PointSpec(coords=(3, 5)), PointSpec(coords=(3, 8))], 13)
    cache, _ = x1_solve(inst, 2, 14)
    corr = correction_matrices(cache, [1, 1], inst)
    assert corr.D_B == inst.D
    # one array lined up with [L_s V | L_s e_1 | L_s M_1 e_1 | L_s M_2 e_1]
    assert corr.delta.shape == (2 * corr.d_B, 2, 2 + inst.n + 1)
    assert np.all(corr.delta == 0)


def test_residual_numerators_match_per_column_corrections():
    # _block_core subtracts the corrections from the columns as well as from
    # the sequence; the old path corrected each column's terms on its own,
    # with the slices delta_one and delta_coord of the corrections, and is
    # the oracle here
    spec = [
        PointSpec(coords=(3, 5)),
        PointSpec(coords=(7, 11)),
        PointSpec(coords=(9, 2)),
        PointSpec(coords=(9, 6)),
        PointSpec(coords=(13, 1)),
    ]
    inst, _ = make(spec, 15)
    rng = Rng(16)
    m = 2
    U = sample_block(rng, F, inst.D, m)
    V = sample_block(rng, F, inst.D, m)
    cache, _ = block_parametrization_x1(inst, U, V, [rng.nonzero_element(F)], m, rng=rng.child())
    t = [5, 9]
    corr = correction_matrices(cache, t, inst)
    d = corr.d_B
    assert cache.D_A == 3 and np.any(corr.delta[:d, :, m:])
    M = combine_matrices(t, inst.mats)
    W = e1_columns(inst.mats)
    seq, inp, _, _ = _block_core(M, U, V, W, d, Rng(30), delta=corr.delta, target=corr.D_B)
    raw_seq, raw_cols = krylov_left_sequence(M, U, 2 * d, np.hstack([V, W]), short=d)
    assert np.array_equal(seq, (raw_seq - corr.delta[:, :, :m]) % F.p)
    got = scalar_numerator(inp, inp.columns)

    oracle = NumeratorInputs(Pmat=inp.Pmat, s1=inp.s1, a_row=inp.a_row, columns=raw_cols)
    delta_one = [corr.delta[s, :, m : m + 1] for s in range(d)]
    delta_coord = [corr.delta[s, :, m + 1 :] for s in range(d)]
    cols = [[x[:, k : k + 1] for x in delta_coord] for k in range(inst.n)]
    want = [
        scalar_numerator_corrected(oracle, oracle.columns[:, :, j : j + 1], c)
        for j, c in enumerate([delta_one] + cols)
    ]
    assert got == want


def test_corrections_match_component_difference():
    # the corrected sequence must be exactly the block sequence of the
    # residual component: check via a fresh solve of the corrected terms
    spec = [
        PointSpec(coords=(3, 5)),
        PointSpec(coords=(7, 11)),
        PointSpec(coords=(9, 2)),
        PointSpec(coords=(9, 6)),   # collision pair forms the residual
        PointSpec(coords=(13, 1)),
    ]
    inst, truth = make(spec, 15)
    rng = Rng(16)
    m = 2
    U = sample_block(rng, F, inst.D, m)
    V = sample_block(rng, F, inst.D, m)
    y = [rng.nonzero_element(F)]
    cache, param_A = block_parametrization_x1(inst, U, V, y, m, rng=rng.child())
    assert cache.D_A == 3
    t = [5, 9]
    corr = correction_matrices(cache, t, inst)
    assert corr.D_B == 2
    pB = block_parametrization_residual(inst, U, V, corr, t, rng=rng.child())
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
    U = sample_block(rng, F, inst.D, 1)
    V = sample_block(rng, F, inst.D, 1)
    cache, _ = block_parametrization_x1(inst, U, V, [rng.nonzero_element(F)], 1, rng=rng.child())
    corr = correction_matrices(cache, [1, 1], inst)
    assert corr.D_B == 0
    with pytest.raises(InvalidInput):
        block_parametrization_residual(inst, U, V, corr, [1, 1], rng=rng.child())


def test_change_separating_element_identity():
    inst, truth = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2))], 19)
    cache, param = x1_solve(inst, 1, 20)
    out = change_separating_element(param, [1, 0])
    assert out.Q == param.Q
    assert all(a == b for a, b in zip(out.V, param.V))


def test_change_separating_element_transport():
    inst, truth = make([PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2)), PointSpec(coords=(12, 4))], 22)
    cache, param = x1_solve(inst, 1, 23)
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
    cache, param = x1_solve(inst, 1, 26)
    assert cache.D_A == 2
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
    coordinates for r, and the minimal polynomial by Berlekamp-Massey."""
    F = param.Q
    f, r = F.field, F.degree
    lam = sum((Gi.scale(ti) for ti, Gi in zip(t, param.V)), Poly.zero(f)) % F
    ell = f.array([rng.element(f) for _ in range(r)])
    coords = []
    for G in param.V:
        # ell(G T^j mod F), with T times a remainder reduced by one step
        moved, cur = [], _fit((G % F).c, r, f)
        for _ in range(r):
            moved.append(int(f.matmul(ell, cur)))
            cur = (np.concatenate([f.zeros(1), cur[:-1]]) - cur[-1] * F.c[:r]) % f.p
        coords.append(power_projection_naive(F, lam, moved, r))
    powers = power_projection_naive(F, lam, ell, 2 * r)
    return parametrization_from_series(powers, coords, r, f, t)


@pytest.mark.parametrize(
    "p, r",
    # r = 600 and 1100 take every giant step through the FFT; the naive
    # oracle makes 4r modular products, of 2 ms each at r = 1100 on the
    # int64 tier and of 0.5 s on the object tier
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
    assert union_params(empty, qb) is qb
    assert union_params(qa, empty) is qa
    with pytest.raises(InvalidInput):
        union_params(qa, ZeroDimParam(Q=qb.Q, V=qb.V, t=[0, 1]))


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
    U = sample_block(Rng(1), F, inst.D, m)
    V = sample_block(Rng(2), F, inst.D, m)
    t = [3, 11]
    y = [7]
    stats = SolveStats()
    plain = block_parametrization(inst, U, V, t, m, rng=Rng(5))
    split = block_parametrization_with_splitting(inst, U, V, t, y, m, rng=Rng(5), stats=stats)
    assert plain.Q == split.Q
    assert all(a == b for a, b in zip(plain.V, split.V))
    assert verify_against_points(split, truth.points, F)["pass"]


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
    # point: D = 17; 2^31 - 1 sums 2 products per int64, 2^61 - 1 runs on
    # Python ints
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


def test_probe_quadratic_statistics():
    # the probe test must keep genuinely simple separated points with high
    # probability across probe draws
    spec = [PointSpec(coords=(3, 5, 8)), PointSpec(coords=(7, 11, 1)), PointSpec(coords=(12, 2, 4))]
    inst, _ = make(spec, 33)
    kept = 0
    trials = 12
    for k in range(trials):
        cache, _ = x1_solve(inst, 1, 40 + k)
        if cache.D_A == 3:
            kept += 1
    assert kept >= trials - 1
