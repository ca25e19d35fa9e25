"""Reference implementations that only the tests use: each is the direct,
slow form of something the package computes faster."""

from bfglm.field import Field
from bfglm.param import ZeroDimParam, _coordinates
from bfglm.polymat import PolyMat, _product, reversed_series
from bfglm.unipoly import Poly, berlekamp_massey, scalar_numerator_direct, squarefree_part


def parametrization_from_series(ell_powers, ell_coord, bound: int, field: Field, t=None) -> ZeroDimParam:
    """Parametrization from the 2*bound projections of X-powers.

    P is the minimal polynomial of ell(X^s), Q its squarefree part, and each
    coordinate is C_{X_i}/C_1 mod Q with the numerators of the projected
    sequences.
    """
    P = berlekamp_massey(ell_powers, field, bound)
    Q = squarefree_part(P)
    nums = [scalar_numerator_direct(seq, field, P) for seq in [ell_powers, *ell_coord]]
    t = t if t is not None else [0] * len(ell_coord)
    return ZeroDimParam(Q=Q, V=_coordinates(nums, Q), t=[int(x) % field.p for x in t])


def power_projection_naive(F: Poly, H: Poly, ell, t: int):
    """Explicit modular powers of H, then dot products."""
    f = F.field
    ell = [int(x) % f.p for x in ell]
    out = []
    cur = Poly.one(f) % F
    Hm = H % F
    for _ in range(t):
        acc = 0
        for i, a in enumerate(cur.c):
            acc += int(a) * ell[i]
        out.append(acc % f.p)
        cur = cur.modmul(Hm, F)
    return out


def generator_cancels(gen: PolyMat, terms) -> bool:
    """Check sum_k P_k . F_{s+k} = 0 for every window that fits: for the n
    terms F_s, these sums are the coefficients deg P..n-1 of P times the
    reversed series."""
    f, n = gen.field, len(terms)
    lo = max(gen.max_degree(), 0)
    if lo >= n:
        return True
    return not _product(f, gen.c, reversed_series(f, terms), lo, n).any()


def collisions(truth) -> list:
    """Pairs of point indices of a GroundTruth sharing the first coordinate."""
    pts = truth.points
    return [
        (a, b)
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        if pts[a][0] == pts[b][0]
    ]


def simple_separated_dimension(truth) -> int:
    """Dimension of the component the first variable can solve alone."""
    collided = {i for pair in collisions(truth) for i in pair}
    return sum(1 for i, s in enumerate(truth.structure) if s.nu == 1 and i not in collided)
