"""The splitting refinement: solve as much of the point set as possible with
the sparse matrix M_1 alone, subtract its contribution from the block
sequences of the dense combination, solve the small residual, and take the
union after a coordinate change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonSeparating, NotCoprime, NotInvertible
from .field import Field, Rng
from .numerators import matrix_numerator, scalar_numerator
from .param import (
    Instance,
    SolveStats,
    ZeroDimParam,
    _block_core,
    _coordinates,
    _probe_column,
    _rank_one_defect,
    block_parametrization,
    e1_columns,
    retry_solve,
)
from .polymat import PolyMat, left_quotient_row, pm_mul
from .sparse import combine_matrices
from .unipoly import (
    Poly,
    charpoly_from_power_sums,
    crt_pair,
    laurent_expand,
    power_projection,
    scalar_numerator_direct,
    transposed_modmul,
)


@dataclass
class X1SolveCache:
    columns: np.ndarray  # d x m x #W: U^T M_1^s W, W = [e_1 | M_1 e_1 | ... | M_n e_1 | probe]
    seq: np.ndarray  # 2d x m x m: U^T M_1^s V
    Pmat: PolyMat
    M_min: Poly  # minimal polynomial of the first variable
    A: PolyMat  # the first quotient rows of M_min P^{-1}, those the core computed
    param_A: ZeroDimParam  # ((F, T, G_2, ..., G_n), X_1)
    D_A: int


@dataclass
class CorrectionSet:
    delta: np.ndarray  # 2d_B x m x (m + n + 1), lined up with [L_s V | L_s W]
    D_B: int
    d_B: int


def _empty_param(field: Field, n: int, t) -> ZeroDimParam:
    return ZeroDimParam(
        Q=Poly.one(field),
        V=[Poly.zero(field) for _ in range(n)],
        t=[int(x) % field.p for x in t],
    )


def block_parametrization_x1(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    y,
    m: int,
    rng: Rng | None = None,
    stats: SolveStats | None = None,
):
    """Parametrization by X_1 of the points that X_1 alone can see.

    Returns (cache, param) where param is ((F, T, G_2, ..., G_n), X_1): the
    simple points with a unique X_1-value and a reduced local algebra.  F is
    carved out of the minimal polynomial of M_1 by two gcd refinements: one
    drops repeated X_1-values, the other (the a*c - b^2 test with the probe
    form Y) drops X_1-values hiding structure invisible to X_1.
    """
    f = inst.field
    rng = rng or Rng(0)
    if len(y) != inst.n - 1:
        raise InvalidInput("probe form needs n-1 coefficients")
    d = max(1, math.ceil(inst.D / m))
    probe = [_probe_column(inst.mats[1:], y)] if inst.n > 1 else []
    W = e1_columns(inst.mats, *probe)
    seq, inp, F, A = _block_core(inst.mats[0], U, V, W, d, rng, stats=stats)
    M_min = inp.s1
    F = F // F.gcd(M_min // F)
    nums = scalar_numerator(inp, inp.columns)
    # the coordinate X_1 is T itself
    del nums[1]
    if probe:
        c = nums.pop()
        F = F.gcd(_rank_one_defect(nums, y, c))
    t_x1 = [1] + [0] * (inst.n - 1)
    if F.degree == 0:
        param = _empty_param(f, inst.n, t_x1)
    else:
        param = ZeroDimParam(Q=F, V=[Poly.x(f) % F] + _coordinates(nums, F), t=t_x1)
        param.check_invariants()
    cache = X1SolveCache(
        columns=inp.columns, seq=seq, Pmat=inp.Pmat, M_min=M_min, A=A,
        param_A=param, D_A=F.degree,
    )
    return cache, param


def decompose(M_min: Poly, nums: list, param_A: ZeroDimParam, t, tau: int) -> np.ndarray:
    """Values of the already-solved component of linear forms at X-powers.

    With C in nums the numerator of a full sequence against M_min, the
    partial fraction C/M = A/F + B/E isolates the solved part A/F; its
    Laurent terms are the form's values on the solved component, and a power
    projection transports them from X_1-powers to X-powers.  E^{-1} mod F
    and the image H of X are computed once, and every form goes through one
    power projection: row k of the len(nums) x tau result belongs to nums[k].
    """
    f = M_min.field
    F = param_A.Q
    if tau < 0:
        raise InvalidInput("negative length")
    if F.degree == 0:
        return f.zeros((len(nums), tau))
    E = M_min // F
    if not (E * F - M_min).is_zero():
        raise InvalidInput("F must divide the minimal polynomial")
    try:
        E_inv = E.modinv(F)
    except NotInvertible as exc:
        raise NotCoprime(f"solved and residual factors share a root: {exc}")
    forms = [laurent_expand((C % F).modmul(E_inv, F), F, F.degree) for C in nums]
    H = sum((Gi.scale(int(ti)) for ti, Gi in zip(t, param_A.V)), Poly.zero(f)) % F
    return power_projection(F, H, f.array(forms), tau)


def correction_matrices(cache: X1SolveCache, t, inst: Instance) -> CorrectionSet:
    """Contributions of the solved component to every block sequence entry."""
    f = inst.field
    m = cache.Pmat.rows
    D_B = inst.D - cache.D_A
    d_B = max(1, math.ceil(D_B / m))
    # term s of [L_s V | L_s W], W = [e_1 | M_1 e_1 | ... | M_n e_1]
    k = m + inst.n + 1
    delta = f.zeros((2 * d_B, m, k))
    if cache.D_A > 0:
        # the m quotient rows as one m x m matrix, so one product of one
        # matrix numerator gives every scalar numerator
        A = cache.A if cache.A.rows == m else left_quotient_row(cache.Pmat, cache.M_min, m)
        d = len(cache.columns)
        terms = np.concatenate([cache.seq[:d], cache.columns[:, :, : inst.n + 1]], axis=2)
        N = pm_mul(A, matrix_numerator(terms, cache.Pmat))
        nums = [N[i, j] for i in range(m) for j in range(k)]
        vals = decompose(cache.M_min, nums, cache.param_A, t, 2 * d_B)
        delta = np.moveaxis(vals.reshape(m, k, 2 * d_B), -1, 0)
    return CorrectionSet(delta=delta, D_B=D_B, d_B=d_B)


def block_parametrization_residual(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    corr: CorrectionSet,
    t,
    rng: Rng | None = None,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """Parametrization of the residual points from corrected short sequences."""
    if corr.D_B < 1:
        raise InvalidInput("no residual component to solve")
    f = inst.field
    rng = rng or Rng(0)
    M = combine_matrices(t, inst.mats)
    _, inp, R, _ = _block_core(
        M, U, V, e1_columns(inst.mats), corr.d_B, rng,
        stats=stats, delta=corr.delta, target=corr.D_B,
    )
    W = _coordinates(scalar_numerator(inp, inp.columns), R)
    param = ZeroDimParam(Q=R, V=W, t=[int(x) % f.p for x in t])
    param.check_invariants()
    return param


def change_separating_element(param: ZeroDimParam, t) -> ZeroDimParam:
    """Transport a parametrization to the separating form X = sum t_i X_i.

    Works in F_p[T]/F, F = param.Q, with its trace form Tr (Rouillier's RUR,
    in the generating-series form of Bostan-Salvy-Schost): Tr and the forms
    Tr(G_i .) are projected along the powers of the image lam of X for
    deg F + 1 terms in one power projection.  Newton's identities turn the
    power sums Tr(lam^s) into Q = charpoly(lam); the power sequence has
    numerator Q', so V_i = num_i / Q' mod Q.  Nothing is drawn: a Q' not
    invertible mod Q means X merges points, and raises NonSeparating.
    """
    f = param.Q.field
    F = param.Q
    r = F.degree
    t = [int(x) % f.p for x in t]
    if r == 0:
        return _empty_param(f, param.n, t)
    if r >= f.p:
        raise InvalidInput("Newton's identities need deg Q < p")
    lam = sum((Gi.scale(ti) for ti, Gi in zip(t, param.V)), Poly.zero(f)) % F
    trace = laurent_expand(F.derivative(), F, r)
    forms = [trace] + [transposed_modmul(Gi % F, trace, F) for Gi in param.V]
    sums, *coords = power_projection(F, lam, f.array(forms), r + 1)
    Q = charpoly_from_power_sums(sums, f)
    try:
        Qd_inv = Q.derivative().modinv(Q)
    except NotInvertible:
        raise NonSeparating("the requested form does not separate the solved points")
    V = [scalar_numerator_direct(c, f, Q).modmul(Qd_inv, Q) for c in coords]
    new = ZeroDimParam(Q=Q, V=V, t=t)
    new.check_invariants()
    return new


def union_params(pA: ZeroDimParam, pB: ZeroDimParam) -> ZeroDimParam:
    """Parametrization of the disjoint union of two point sets sharing X."""
    if pA.t != pB.t:
        raise InvalidInput("both parts must use the same separating form")
    if pA.is_empty():
        return pB
    if pB.is_empty():
        return pA
    # crt_pair's one xgcd also checks that the components share no root
    V = crt_pair(pA.V, pA.Q, pB.V, pB.Q)
    out = ZeroDimParam(Q=pA.Q * pB.Q, V=V, t=pA.t)
    out.check_invariants()
    return out


def block_parametrization_with_splitting(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    t,
    y,
    m: int,
    rng: Rng | None = None,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """One attempt of the splitting pipeline with fixed randomness."""
    rng = rng or Rng(0)
    cache, param_A = block_parametrization_x1(inst, U, V, y, m, rng=rng, stats=stats)
    D_B = inst.D - cache.D_A
    if stats is not None:
        stats.extras["D_A"] = cache.D_A
        stats.extras["D_B"] = D_B
    if cache.D_A == 0:
        return block_parametrization(inst, U, V, t, m, rng=rng, stats=stats)
    pA = change_separating_element(param_A, t)
    if D_B == 0:
        return pA
    corr = correction_matrices(cache, t, inst)
    pB = block_parametrization_residual(inst, U, V, corr, t, rng=rng, stats=stats)
    return union_params(pA, pB)


def solve_split(
    inst: Instance,
    m: int,
    rng: Rng,
    workers: int = 1,
    retries: int = 3,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """The splitting pipeline under the retry policy of `param.retry_solve`,
    which draws t and then the probe y.

    `workers` has no effect: the streamed Krylov pass has no tasks to share.
    """
    stats = stats if stats is not None else SolveStats()

    def attempt(U, V, t, y):
        return block_parametrization_with_splitting(inst, U, V, t, y, m, rng=rng, stats=stats)

    return retry_solve(inst, m, rng, attempt, (inst.n, inst.n - 1), retries, stats)
