"""The splitting refinement: solve as much of the point set as possible with
the sparse matrix M_1 alone, then solve the small residual as a plain attempt
whose left block U_B = F(M_1)^T U, F the solved factor, sees only the
residual component, and take the union after a coordinate change.

The X_1 solve and the residual are each one `param._block_core` solve with
the probe form y: the X_1 solve keeps the roots where y's defect vanishes
(`decompose`), and the residual is the plain attempt, which is all there is
when nothing is solved (F = 1, U_B = U).  They and the change of separating
element read every coordinate through `param._coordinates`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NonSeparating, NotInvertible
from .field import Rng
from .numerators import matrix_numerator
from .param import (
    Instance,
    SolveStats,
    ZeroDimParam,
    _block_core,
    _coordinates,
    _rank_one_defect,
    block_parametrization,
    decompose,
    retry_solve,
)
from .polymat import PolyMat
from .sparse import horner
from .unipoly import (
    Poly,
    charpoly_from_power_sums,
    crt_pair,
    laurent_expand,
    power_projection,
    squarefree_part,
    transposed_modmul,
)


def block_parametrization_x1(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    y,
    rng: Rng,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """Parametrization ((F, T, G_2, ..., G_n), X_1) of the points that X_1
    alone can see: the simple points with a unique X_1-value and a reduced
    local algebra.  F, of degree D_A, is `decompose`'s factor of the minimal
    polynomial of M_1, with the probe form y's a*c - b^2 defect.  At an
    X_1-value shared by points P and P' the defect is a multiple of
    (sum_{i>=2} y_i (x_i - x'_i))^2: y_1 cancels, as x_1 = x'_1.  The
    coordinates are `_coordinates`', as in the plain attempt: the first is
    T mod F, as X = X_1, and all are zero when X_1 sees no point (F = 1).
    """
    core = _block_core(inst, inst.mats[0], U, V, y, inst.D, rng, stats)
    F = decompose(core.s1, squarefree_part(core.s1)).gcd(_rank_one_defect(core.nums, y))
    param = ZeroDimParam(Q=F, V=_coordinates(core.nums[:-1], F), t=[1] + [0] * (inst.n - 1))
    # after the change of separating element sum t_i V_i = T holds by
    # construction, so no later check sees a wrong G_1 = T mod F
    param.check_invariants()
    return param


def correction_matrices(F: Poly, U: np.ndarray, inst: Instance) -> np.ndarray:
    """U_B = F(M_1)^T U, by Horner: one sparse product per coefficient of F.

    The M_i commute, so U_B^T M^s V = U^T M^s F(M_1) V is the block
    sequence of the residual component alone, seen through a unit.
    """
    return horner(inst.mats[0], F.c, U, transpose=True)


def block_parametrization_residual(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    F: Poly,
    t,
    y,
    rng: Rng,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """Parametrization of the residual points: the plain attempt, probe
    check included, with U_B = F(M_1)^T U for the solved factor F and
    target dimension D_B = D - deg F."""
    D_B = inst.D - F.degree
    if D_B < 1:
        raise InvalidInput("no residual component to solve")
    U_B = correction_matrices(F, U, inst)
    return block_parametrization(inst, U_B, V, t, y, rng, stats=stats, dim=D_B)


def change_separating_element(param: ZeroDimParam, t) -> ZeroDimParam:
    """Transport a parametrization to the separating form X = sum t_i X_i.

    Works in F_p[T]/F, F = param.Q, with its trace form Tr (Rouillier's RUR,
    in the generating-series form of Bostan-Salvy-Schost): Tr and the forms
    Tr(G_i .) are projected along the powers of the image lam of X for
    deg F + 1 terms in one power projection.  Newton's identities turn the
    power sums Tr(lam^s) into Q = charpoly(lam).  One matrix numerator over
    the 1 x 1 generator Q gives the numerators of all n + 1 rows, the trace
    row's being Q', and `_coordinates` reads V_i = num_i / Q' mod Q off
    them.  Nothing is drawn: a Q' not invertible mod Q means X merges
    points, and raises NonSeparating.
    """
    f = param.Q.field
    F = param.Q
    r = F.degree
    t = [int(x) % f.p for x in t]
    if r >= f.p:
        raise InvalidInput("Newton's identities need deg Q < p")
    lam = sum((Gi.scale(ti) for ti, Gi in zip(t, param.V)), Poly.zero(f)) % F
    trace = laurent_expand(F.derivative(), F, r)
    forms = [trace] + [transposed_modmul(Gi % F, trace, F) for Gi in param.V]
    proj = power_projection(F, lam, f.array(forms), r + 1)
    Q = charpoly_from_power_sums(proj[0], f)
    nums = matrix_numerator(proj[:, :r].T[:, None, :], PolyMat(f, Q.c[None, None, :]))
    try:
        V = _coordinates([nums[0, j] for j in range(param.n + 1)], Q)
    except NotInvertible:
        raise NonSeparating("the requested form does not separate the solved points")
    return ZeroDimParam(Q=Q, V=V, t=t)


def union_params(pA: ZeroDimParam, pB: ZeroDimParam) -> ZeroDimParam:
    """Parametrization of the disjoint union of two point sets sharing X.
    It passes `check_invariants` exactly when both parts do (the CRT), so
    they are not checked."""
    if pA.t != pB.t:
        raise InvalidInput("both parts must use the same separating form")
    # crt_pair's one xgcd also checks that the components share no root
    return ZeroDimParam(Q=pA.Q * pB.Q, V=crt_pair(pA.V, pA.Q, pB.V, pB.Q), t=pA.t)


def block_parametrization_with_splitting(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    t,
    y,
    rng: Rng,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """One attempt of the splitting pipeline with fixed randomness."""
    param_A = block_parametrization_x1(inst, U, V, y, rng, stats=stats)
    D_A = param_A.Q.degree
    D_B = inst.D - D_A
    if stats is not None:
        stats.extras["D_A"] = D_A
        stats.extras["D_B"] = D_B
    pA = change_separating_element(param_A, t)
    if D_B == 0:
        return pA
    pB = block_parametrization_residual(inst, U, V, param_A.Q, t, y, rng, stats=stats)
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
    which draws t and then the probe form y.

    `workers` has no effect: the streamed Krylov pass has no tasks to share.
    """
    return retry_solve(inst, m, rng, block_parametrization_with_splitting, retries, stats)
