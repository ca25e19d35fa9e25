"""Zero-dimensional parametrizations from multiplication matrices by the
block-Krylov route, which reads the minimal polynomial and the numerators
off short matrix sequences: the block core that the plain, X_1 and residual
solves share, the plain solve, and the retry policy of both routes.
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
from .field import Field, Rng, sample_block
from .numerators import NumeratorInputs, scalar_numerator
from .polymat import PolyMat, largest_invariant_factor, left_quotient_row, minimal_matrix_generator
from .sparse import SparseMat, combine_matrices, krylov_left_sequence, mat_vec, project_vector
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

    def degree(self) -> int:
        return self.Q.degree

    def is_empty(self) -> bool:
        return self.Q.degree == 0

    def check_invariants(self) -> None:
        f = self.Q.field
        if self.Q.is_zero() or self.Q.lead() != 1:
            raise InvariantViolation("Q must be monic")
        if not self.Q.gcd(self.Q.derivative()).is_one() and self.Q.degree > 0:
            raise InvariantViolation("Q must be squarefree")
        acc = Poly.zero(f)
        for ti, Vi in zip(self.t, self.V):
            if Vi.degree >= max(self.Q.degree, 1) and self.Q.degree > 0:
                raise InvariantViolation("deg(V_i) must be below deg(Q)")
            acc = acc + Vi.scale(int(ti))
        if self.Q.degree > 0 and (acc - Poly.x(f)) % self.Q != Poly.zero(f):
            raise InvariantViolation("sum t_i V_i != T mod Q")

    def points(self, roots) -> list:
        return [tuple(Vi.eval(r) for Vi in self.V) for r in roots]


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


def e1_columns(mats, *extra) -> np.ndarray:
    """W = [e_1 | M_1 e_1 | ... | M_n e_1 | extra...]: the columns whose
    projections the numerators read."""
    e1 = unit_vector(mats[0].field, mats[0].dim)
    return np.stack([e1] + [mat_vec(Mi, e1) for Mi in mats] + list(extra), axis=1)


@dataclass
class BlockSolveArtifacts:
    """Intermediates of one block_parametrization run, kept for testing."""

    M: SparseMat
    columns: np.ndarray  # d x m x (n + 1): the terms L_s . W the numerators read
    seq: np.ndarray  # 2d x m x m: the terms L_s . V
    Pmat: object
    s1: Poly
    a_row: object
    C1: Poly
    C_coord: list


def _block_core(M, U, V, W, d, rng, stats=None, target=None):
    """The block-Krylov pipeline shared by the plain, X_1 and residual solves.

    Returns (seq, inp, Q): the 2d x m x m terms U^T M^s V, the
    NumeratorInputs over the d x m x #W terms U^T M^s W of the extra columns
    W, and the squarefree part Q of the largest invariant factor s1 of the
    terms' minimal matrix generator.  The first left quotient row is
    computed, or all m of them when deg s1 is below deg det P: their exact
    check certifies s1.  One streamed Krylov pass makes both projections.

    With a target dimension, a squarefree s1 of lower degree raises
    NonSeparating: the action is semisimple on a proper subspace, so either
    the combination collides two points (needs a fresh t) or the blocking
    missed part of the space.  A degree-deficient s1 with repeated roots
    signals nilpotent structure instead and passes.
    """
    f = M.field
    t0 = perf_counter()
    seq, columns = krylov_left_sequence(M, U, 2 * d, np.hstack([V, W]), short=d)
    if stats is not None:
        stats.krylov_seconds += perf_counter() - t0
    Pmat = minimal_matrix_generator(seq, f, d, d)
    s1 = largest_invariant_factor(Pmat, rng.child())
    Q = squarefree_part(s1)
    if target is not None and s1.degree < target and s1 == Q:
        raise NonSeparating(f"squarefree invariant factor of degree {s1.degree} < {target}")
    # below deg det P only the exact check of every quotient row proves that
    # s1 P^{-1} is polynomial, i.e. that s1 is not a proper divisor
    rows = Pmat.rows if s1.degree < sum(Pmat.row_degrees()) else 1
    A = left_quotient_row(Pmat, s1, rows)
    inp = NumeratorInputs(Pmat=Pmat, s1=s1, a_row=PolyMat(f, A.c[:1]), columns=columns)
    return seq, inp, Q


def _coordinates(nums: list, Q: Poly) -> list:
    """C_w / C_{e_1} mod Q for each numerator after the first, that of e_1."""
    C1_inv = nums[0].modinv(Q)
    return [C.modmul(C1_inv, Q) for C in nums[1:]]


def _rank_one_defect(nums: list, y, c: Poly) -> Poly:
    """a*c - b^2, with a, b, c the numerators of e_1, N e_1 and N^2 e_1 for
    the probe N = sum y_i mats[i]; nums, the numerators of e_1, mats[0] e_1,
    mats[1] e_1, ..., gives a and b = sum y_i nums[1 + i], as numerators are
    linear in w.

    At a simple root of s1 carrying one simple point P, (a, b, c) is
    proportional to (1, y(P), y(P)^2) and the defect vanishes; at a root
    shared by two points, or carrying a fat point, it generically does not.
    """
    b = sum((C.scale(yi) for yi, C in zip(y, nums[1:])), Poly.zero(c.field))
    return nums[0] * c - b * b


def _probe_column(mats, y) -> np.ndarray:
    """N^2 e_1 for the probe N = sum y_i mats[i]."""
    N = combine_matrices(y, mats)
    return mat_vec(N, mat_vec(N, unit_vector(N.field, N.dim)))


def block_parametrization(
    inst: Instance,
    U: np.ndarray,
    V: np.ndarray,
    t,
    m: int,
    rng: Rng | None = None,
    stats: SolveStats | None = None,
    artifacts: list | None = None,
    dim: int | None = None,
) -> ZeroDimParam:
    """One attempt of the block algorithm with fixed randomness.

    dim is the dimension of the component that U sees: D, or D_B for the
    splitting route's residual, whose U is projected onto it.  Raises
    GenericityFailure and friends on unlucky draws, and NonSeparating when t
    is caught merging points; `solve` wraps this with the retry policy.
    """
    f = inst.field
    dim = inst.D if dim is None else dim
    rng = rng or Rng(0)
    M = combine_matrices(t, inst.mats)
    d = max(1, math.ceil(dim / m))
    seq, inp, Q = _block_core(M, U, V, e1_columns(inst.mats), d, rng, stats=stats, target=dim)
    nums = scalar_numerator(inp, inp.columns)
    if inp.s1.degree < dim and inp.s1 != Q:
        # repeated roots pass the core's certificate even when t merges two
        # simple points at another root: test the simple roots of s1 with a
        # probe form, as the X_1 solve does
        probe = rng.child()
        y = [probe.nonzero_element(f) for _ in range(inst.n)]
        Q_simple = Q // Q.gcd(inp.s1 // Q)
        c = scalar_numerator(inp, project_vector(M, U, d, _probe_column(inst.mats, y)))[0]
        if not (_rank_one_defect(nums, y, c) % Q_simple).is_zero():
            raise NonSeparating("a simple root of the invariant factor carries several points")
    param = ZeroDimParam(Q=Q, V=_coordinates(nums, Q), t=[int(x) % f.p for x in t])
    param.check_invariants()
    if artifacts is not None:
        artifacts.append(
            BlockSolveArtifacts(
                M=M, columns=inp.columns, seq=seq, Pmat=inp.Pmat, s1=inp.s1, a_row=inp.a_row,
                C1=nums[0], C_coord=nums[1:],
            )
        )
    return param


def retry_solve(inst: Instance, m: int, rng: Rng, attempt, forms, retries: int, stats: SolveStats):
    """Call attempt(U, V, *drawn_forms) with fresh randomness until it succeeds.

    This is the retry policy of both `solve` and `splitting.solve_split`.
    `forms` gives the length of each random form, drawn in that order with
    nonzero entries from rng: (n,) draws t, (n, n - 1) draws t and then the
    probe y.

    * Every attempt draws a fresh U, then a fresh V (D x m).
    * NonSeparating (t caught merging points) redraws all forms at once.
      This happens at most 6 times, and is counted in
      stats.extras["t_retries"], not in stats.retries.
    * A RETRYABLE failure (an unlucky U, V or internal draw) counts as a
      retry.  After 2 in a row the forms are redrawn as well.
    * `retries` caps the retries: the solve gives up at the
      (retries + 1)-th RETRYABLE failure.

    When a budget runs out, UnluckyRandomness is raised.  stats.retries and
    stats.total_seconds are set in every case.  A block size outside [1, D]
    or a negative `retries` raises InvalidInput before any draw.
    """
    f = inst.field
    if not 1 <= m <= inst.D:
        raise InvalidInput("block size must be in [1, D]")
    if retries < 0:
        raise InvalidInput("retries must be >= 0")
    start = perf_counter()

    def draw():
        return [[rng.nonzero_element(f) for _ in range(k)] for k in forms]

    drawn = draw()
    uv_failures = attempts = t_draws = 0
    # only the message is kept: the exception's traceback would keep the
    # failed attempt's Krylov blocks alive through the next attempt
    last = None
    try:
        while attempts <= retries:
            U = sample_block(rng, f, inst.D, m)
            V = sample_block(rng, f, inst.D, m)
            try:
                return attempt(U, V, *drawn)
            except NonSeparating as exc:
                last = str(exc)
                t_draws += 1
                stats.extras["t_retries"] = t_draws
                if t_draws > 6:
                    break
                drawn = draw()
                uv_failures = 0
            except RETRYABLE as exc:
                last = str(exc)
                attempts += 1
                uv_failures += 1
                if uv_failures >= 2:
                    drawn = draw()
                    uv_failures = 0
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
    artifacts: list | None = None,
) -> ZeroDimParam:
    """The block algorithm under the retry policy of `retry_solve`.

    `workers` has no effect: the streamed Krylov pass has no tasks to share.
    """
    stats = stats if stats is not None else SolveStats()

    def attempt(U, V, t):
        return block_parametrization(inst, U, V, t, m, rng=rng, stats=stats, artifacts=artifacts)

    return retry_solve(inst, m, rng, attempt, (inst.n,), retries, stats)


def verify_against_points(param: ZeroDimParam, truth_points, field: Field):
    """Compare a parametrization against known solution points.

    truth_points is a list of coordinate tuples (duplicates allowed, they
    collapse).  Returns a report dict with per-point pass/fail entries.
    """
    report = {"pass": True, "points": [], "warnings": []}
    distinct = []
    for pt in truth_points:
        pt = tuple(int(c) % field.p for c in pt)
        if pt not in distinct:
            distinct.append(pt)
    if not distinct:
        report["warnings"].append("empty truth list: vacuous pass")
        return report
    xvals = set()
    for pt in distinct:
        x = sum(int(ti) * c for ti, c in zip(param.t, pt)) % field.p
        xvals.add(x)
        ok = param.Q.eval(x) == 0 and all(
            Vi.eval(x) == c for Vi, c in zip(param.V, pt)
        )
        report["points"].append({"point": pt, "x": x, "ok": ok})
        if not ok:
            report["pass"] = False
    if param.Q.degree != len(xvals):
        report["pass"] = False
        report["warnings"].append(
            f"deg(Q)={param.Q.degree} but truth has {len(xvals)} distinct X-values"
        )
    return report
