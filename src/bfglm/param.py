"""Zero-dimensional parametrizations from multiplication matrices by the
block-Krylov route, which reads the minimal polynomial and the numerators
off short matrix sequences.

`_block_core` is the one block solve that the plain, X_1 and residual
attempts share: one Krylov pass projects [V | W], W holding e_1, the M_i e_1
and the probe column N^2 e_1 for the probe form y, and the numerators of
every column follow.  `decompose` keeps the simple roots of the invariant
factor, which the probe's defect refines.  `retry_solve` is the retry policy
of both routes and their one output check; it draws t, then y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from time import perf_counter

import numpy as np

from .errors import (
    GenericityFailure,
    InvalidInput,
    InvariantViolation,
    NonSeparating,
    NotCoprime,
    NotInvertible,
    ShapeError,
    UnluckyRandomness,
)
from .field import Field, Rng
from .numerators import scalar_numerator
from .polymat import PolyMat, largest_invariant_factor, left_quotient_row, minimal_matrix_generator
from .sparse import SparseMat, combine_matrices, krylov_left_sequence, mat_vec
from .unipoly import Poly, squarefree_part

RETRYABLE = (GenericityFailure, NotInvertible, NotCoprime)


@dataclass
class ZeroDimParam:
    """((Q, V_1, ..., V_n), X = sum t_i X_i)."""

    Q: Poly
    V: list
    t: list

    @property
    def n(self) -> int:
        return len(self.V)

    def check_invariants(self) -> None:
        f = self.Q.field
        if self.Q.is_zero() or self.Q.lead() != 1:
            raise InvariantViolation("Q must be monic")
        if not self.Q.gcd(self.Q.derivative()).is_one():
            raise InvariantViolation("Q must be squarefree")
        acc = Poly.zero(f)
        for ti, Vi in zip(self.t, self.V):
            if Vi.degree >= self.Q.degree:
                raise InvariantViolation("deg(V_i) must be below deg(Q)")
            acc = acc + Vi.scale(int(ti))
        if (acc - Poly.x(f)) % self.Q != Poly.zero(f):
            raise InvariantViolation("sum t_i V_i != T mod Q")


@dataclass
class Instance:
    field: Field
    n: int
    D: int
    mats: list  # n SparseMats

    def __post_init__(self):
        if self.field.p <= self.D:
            raise InvalidInput("modulus must exceed the algebra dimension")
        if len(self.mats) != self.n:
            raise ShapeError("matrix count must equal the variable count")
        for M in self.mats:
            if M.dim != self.D:
                raise ShapeError("matrix dimension mismatch")


@dataclass
class SolveStats:
    retries: int = 0
    krylov_seconds: float = 0.0
    total_seconds: float = 0.0
    extras: dict = dc_field(default_factory=dict)


def unit_vector(f: Field, D: int, i: int = 0) -> np.ndarray:
    e = f.zeros(D)
    e[i] = 1
    return e


@dataclass
class BlockSolveArtifacts:
    """One block solve: its intermediates and the numerators of every column
    of W = [e_1 | M_1 e_1 | ... | M_n e_1 | N^2 e_1], N = sum y_i M_i."""

    M: SparseMat
    seq: np.ndarray  # 2d x m x m: the terms L_s . V
    Pmat: object
    s1: Poly
    a_row: object
    nums: list  # numerators of the columns of W, in order


def _block_core(inst: Instance, M, U, V, y, dim, rng, stats=None) -> BlockSolveArtifacts:
    """The one block solve of the plain, X_1 and residual attempts.

    dim is the dimension of the component that U sees, and the block size m
    is U's width: one streamed Krylov pass projects the left blocks
    L_s = U^T M^s onto V for 2d terms, d = ceil(dim / m), and onto W, with
    the probe column N^2 e_1, for d terms.
    The 2d x m x m terms L_s . V give the minimal matrix generator P and its
    largest invariant factor s1.  The first left quotient row is computed,
    or all m of them when deg s1 is below deg det P: their exact check
    certifies s1.  The quotient row and one matrix numerator then give the
    numerators of every column of W with respect to s1.
    """
    f = inst.field
    d = max(1, math.ceil(dim / U.shape[1]))
    e1 = unit_vector(f, inst.D)
    y = f.array(y)
    W = np.stack([e1] + [mat_vec(Mi, e1) for Mi in inst.mats], axis=1)
    # N e_1 = sum y_i M_i e_1, then N^2 e_1 = sum y_i M_i N e_1
    Ne1 = f.matmul(W[:, 1:], y)
    W = np.column_stack([W, f.matmul(np.stack([mat_vec(Mi, Ne1) for Mi in inst.mats], axis=1), y)])
    t0 = perf_counter()
    seq, columns = krylov_left_sequence(M, U, 2 * d, np.hstack([V, W]), short=d)
    if stats is not None:
        stats.krylov_seconds += perf_counter() - t0
    Pmat = minimal_matrix_generator(seq, f, d)
    s1 = largest_invariant_factor(Pmat, rng.child())
    # below deg det P only the exact check of every quotient row proves that
    # s1 P^{-1} is polynomial, i.e. that s1 is not a proper divisor
    rows = Pmat.rows if s1.degree < sum(Pmat.row_degrees()) else 1
    a_row = PolyMat(f, left_quotient_row(Pmat, s1, rows).c[:1])
    nums = scalar_numerator(a_row, Pmat, columns)
    return BlockSolveArtifacts(M, seq, Pmat, s1, a_row, nums)


def _coordinates(nums: list, Q: Poly) -> list:
    """C_w / C_ref mod Q for each numerator C_w after the first, C_ref: that
    of e_1 in a block solve, of the trace form (Q') in the change of
    separating element.  Raises NotInvertible when C_ref is not a unit."""
    ref_inv = nums[0].modinv(Q)
    return [C.modmul(ref_inv, Q) for C in nums[1:]]


def _rank_one_defect(nums: list, y) -> Poly:
    """a*c - b^2, with a, b, c the numerators of e_1, N e_1 and N^2 e_1 for
    the probe N = sum y_i M_i; nums, the numerators of e_1, M_1 e_1, ...,
    M_n e_1 and N^2 e_1, gives a, c and b = sum y_i nums[i], as numerators
    are linear in w.

    At a simple root of s1 carrying one simple point P, (a, b, c) is
    proportional to (1, y(P), y(P)^2) and the defect vanishes; at a root
    shared by two points, or carrying a fat point, it generically does not.
    """
    a, *coords, c = nums
    b = sum((C.scale(yi) for yi, C in zip(y, coords)), Poly.zero(c.field))
    return a * c - b * b


def decompose(M_min: Poly, Q: Poly) -> Poly:
    """The simple roots F of the minimal polynomial M_min = F E of a matrix
    M, from Q, the squarefree part of M_min; the callers keep those where the
    probe's defect vanishes (a root that carries several points goes).

    Every root of F is a simple root of M_min, so gcd(F, E) = 1: F(M)
    vanishes on the solved component and is invertible on the residual one.
    """
    return Q // Q.gcd(M_min // Q)


def block_parametrization(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    t,
    y,
    rng: Rng,
    stats: SolveStats | None = None,
    dim: int | None = None,
) -> ZeroDimParam:
    """One attempt of the block algorithm with fixed randomness: X = sum
    t_i X_i, and the probe form y.

    The block size is U's width.  dim is the dimension of the component
    that U sees: D, or D_B for the splitting route's residual, whose U is
    projected onto it.  Below dim, a squarefree s1 means the action is
    semisimple on a proper subspace: t merges points, or the blocking
    missed part of the space.  An s1 with repeated roots signals nilpotent
    structure instead and passes the core's certificate even when t merges
    two simple points at another root, so the probe's defect tests the
    simple roots.  Either case raises NonSeparating; unlucky draws raise
    GenericityFailure and friends.  `solve` passes this to `retry_solve`,
    which checks the parametrization it returns.
    """
    f = inst.field
    dim = inst.D if dim is None else dim
    M = combine_matrices(t, inst.mats)
    core = _block_core(inst, M, U, V, y, dim, rng, stats)
    s1, nums = core.s1, core.nums
    Q = squarefree_part(s1)
    if s1.degree < dim and (
        s1 == Q or (F := decompose(s1, Q)).gcd(_rank_one_defect(nums, y)) != F
    ):
        raise NonSeparating(f"t merges points: invariant factor of degree {s1.degree} < {dim}")
    return ZeroDimParam(Q=Q, V=_coordinates(nums[:-1], Q), t=[int(x) % f.p for x in t])


def retry_solve(inst: Instance, m: int, rng: Rng, attempt, retries: int, stats: SolveStats | None = None):
    """Call attempt(inst, U, V, t, y, rng, stats=stats) with fresh
    randomness until it succeeds, and check what it returns.

    This is the retry policy of both `solve` and `splitting.solve_split`,
    and their one output check: `check_invariants`, whose InvariantViolation
    is not retried.  The separating form t and then the probe form y are
    drawn with n nonzero entries each from rng.

    * Every attempt draws a fresh U, then a fresh V (D x m).
    * NonSeparating (t caught merging points) redraws both forms at once.
      This happens at most 6 times, and is counted in
      stats.extras["t_retries"], not in stats.retries.
    * A RETRYABLE failure (an unlucky U, V or internal draw) counts as a
      retry.  After 2 in a row the forms are redrawn as well.
    * `retries` caps the retries: the solve gives up at the
      (retries + 1)-th RETRYABLE failure.

    When a budget runs out, UnluckyRandomness is raised.  stats.retries and
    stats.total_seconds are set in every case, on a fresh SolveStats when
    stats is None.  A block size outside [1, D] or a negative `retries`
    raises InvalidInput before any draw.
    """
    f = inst.field
    stats = stats if stats is not None else SolveStats()
    if not 1 <= m <= inst.D:
        raise InvalidInput("block size must be in [1, D]")
    if retries < 0:
        raise InvalidInput("retries must be >= 0")
    start = perf_counter()

    def draw():
        return [[rng.nonzero_element(f) for _ in range(inst.n)] for _ in range(2)]

    forms = draw()
    uv_failures = attempts = t_draws = 0
    # only the message is kept: the exception's traceback would keep the
    # failed attempt's Krylov blocks alive through the next attempt
    last = None
    try:
        while attempts <= retries:
            U = rng.block(f, inst.D, m)
            V = rng.block(f, inst.D, m)
            try:
                param = attempt(inst, U, V, *forms, rng, stats=stats)
            except NonSeparating as exc:
                last = str(exc)
                t_draws += 1
                stats.extras["t_retries"] = t_draws
                if t_draws > 6:
                    break
                forms = draw()
                uv_failures = 0
            except RETRYABLE as exc:
                last = str(exc)
                attempts += 1
                uv_failures += 1
                if uv_failures >= 2:
                    forms = draw()
                    uv_failures = 0
            else:
                param.check_invariants()
                return param
        raise UnluckyRandomness(f"retries exhausted: {last}")
    finally:
        stats.total_seconds = perf_counter() - start
        stats.retries = attempts


def solve(
    inst: Instance,
    m: int,
    rng: Rng,
    workers: int = 1,
    retries: int = 3,
    stats: SolveStats | None = None,
) -> ZeroDimParam:
    """The block algorithm under the retry policy of `retry_solve`: each
    attempt is one `block_parametrization` with a fresh D x m pair U, V.

    `workers` has no effect: the streamed Krylov pass has no tasks to share.
    """
    return retry_solve(inst, m, rng, block_parametrization, retries, stats)


def verify_against_points(param: ZeroDimParam, truth_points, field: Field):
    """Compare a parametrization against known solution points.

    truth_points is a list of coordinate tuples (duplicates allowed, they
    collapse).  Returns a report dict with per-point pass/fail entries.
    """
    report = {"pass": True, "points": [], "warnings": []}
    distinct = list(dict.fromkeys(tuple(int(c) % field.p for c in pt) for pt in truth_points))
    if not distinct:
        report["warnings"].append("empty truth list: vacuous pass")
        return report
    pts = field.array(distinct)
    xs = field.matmul(pts, field.array(param.t))
    ok = param.Q.eval(xs) == 0
    for Vi, coord in zip(param.V, pts.T):
        ok &= Vi.eval(xs) == coord
    for pt, x, good in zip(distinct, xs.tolist(), ok.tolist()):
        report["points"].append({"point": pt, "x": x, "ok": good})
    nx = len(set(xs.tolist()))
    report["pass"] = bool(ok.all()) and param.Q.degree == nx
    if param.Q.degree != nx:
        report["warnings"].append(f"deg(Q)={param.Q.degree} but truth has {nx} distinct X-values")
    return report
