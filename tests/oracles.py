"""Reference implementations that only the tests use: each is the direct,
slow form of something the package computes faster."""

import numpy as np

from bfglm.errors import FormatError, GenericityFailure, InsufficientTerms, InvalidSpec, ShapeError
from bfglm.field import Field, Rng
from bfglm.param import Instance, ZeroDimParam, _coordinates, unit_vector
from bfglm.polymat import PolyMat, _product, mat_inverse, reversed_series
from bfglm.sparse import SparseMat
from bfglm.toolkit import (
    CHUNK,
    GroundTruth,
    _check_point,
    _chunk_lower,
    _ints,
    _point_spec,
    _read_header,
    _tagged,
)
from bfglm.unipoly import Poly, berlekamp_massey, squarefree_part


def scalar_numerator_direct(seq, field: Field, P: Poly) -> Poly:
    """Numerator of a cancelled scalar sequence with respect to P, as
    (P * sum_{s<d} l_{d-1-s} T^s) div T^d with d = deg(P): the direct form
    of `numerators.matrix_numerator` for one sequence."""
    d = P.degree
    terms = [int(x) % field.p for x in seq]
    if len(terms) < d:
        raise InsufficientTerms(f"need {d} terms, got {len(terms)}")
    if d == 0:
        return Poly.zero(field)
    return Poly(field, (P * Poly(field, terms[:d][::-1])).c[d:])


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


def euclid_remainders(a, b, p: int, stop: int = -1):
    """Euclid's remainder sequence of the coefficient lists a and b (lowest
    degree first) on Python ints, by long division, up to the first
    remainder of degree <= stop: the last two remainders and their
    cofactors s_i, r_i = s_i a mod b, each a trimmed list."""

    def trim(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    r0, r1, s0, s1 = trim(a), trim(b), [1], []
    while len(r1) - 1 > stop:
        d, inv = len(r1) - 1, pow(r1[-1], -1, p)
        r, q = list(r0), [0] * max(len(r0) - d, 0)
        for i in range(len(r0) - 1 - d, -1, -1):
            q[i] = r[i + d] * inv % p
            for j, c in enumerate(r1):
                r[i + j] -= q[i] * c
        s = list(s0) + [0] * max(0, len(q) + len(s1) - len(s0))
        for i, qi in enumerate(q):
            for j, c in enumerate(s1):
                s[i + j] -= qi * c
        r0, r1, s0, s1 = r1, trim(r[:d]), s1, trim(s)
    return r0, s0, r1, s1


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


def is_row_reduced(P: PolyMat) -> bool:
    """Whether the square P has no zero row and an invertible leading
    matrix: the check that `minimal_matrix_generator` makes by its one
    inversion of that matrix."""
    if P.rows != P.cols:
        raise ShapeError("row-reducedness is defined for square matrices here")
    if min(P.row_degrees()) < 0:
        return False
    try:
        mat_inverse(P.field, P.leading_matrix())
        return True
    except GenericityFailure:
        return False


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


def unit_lower_inverse_naive(field: Field, L: np.ndarray) -> np.ndarray:
    """Inverse of one unit lower-triangular matrix by back substitution."""
    n = L.shape[0]
    inv = field.zeros((n, n))
    for i in range(n):
        inv[i, i] = 1
    for r in range(n):
        for c in range(r):
            acc = 0
            for k in range(c, r):
                acc += int(L[r, k]) * int(inv[k, c])
            inv[r, c] = (-acc) % field.p
    return inv


def _mixing_chunks(D: int, chunk: int):
    out = []
    start = 0
    while start < D:
        out.append((start, min(start + chunk, D)))
        start = out[-1][1]
    return out


def generate_instance_dense(
    field: Field,
    n: int,
    spec: list,
    rng: Rng,
    mix: int = 2,
    chunk: int = CHUNK,
):
    """The instance generator on dense D x D arrays: every basis change step
    applied to the whole matrix, then `SparseMat.from_dense`.  The sparse
    `generate_instance` must give the same matrices from the same draws."""
    if n < 1:
        raise InvalidSpec("need at least one variable")
    points = []
    for s in spec:
        if len(s.coords) != n:
            raise InvalidSpec("point arity must match the variable count")
        if s.nu < 1:
            raise InvalidSpec("block size must be >= 1")
        if s.nu > 1:
            if s.c is None or len(s.c) != n:
                raise InvalidSpec("nilpotent blocks need one constant per variable")
            if all(int(ci) % field.p == 0 for ci in s.c):
                raise InvalidSpec("nilpotent blocks need a nonzero constant")
        pt = tuple(int(x) % field.p for x in s.coords)
        if pt in points:
            raise InvalidSpec(f"duplicate point {pt}")
        points.append(pt)
    D = sum(s.nu for s in spec)
    if D == 0:
        raise InvalidSpec("empty instance")
    if field.p <= D:
        raise InvalidSpec("modulus must exceed the dimension")

    p = field.p
    offsets = []
    off = 0
    for s in spec:
        offsets.append(off)
        off += s.nu

    # basis change step 1: move the coordinate vector of 1 to index 0
    w = field.zeros(D)
    for o in offsets:
        w[o] = 1
    u = (w - unit_vector(field, D)) % p
    mats = []
    for i in range(n):
        B = field.zeros((D, D))
        for s, o, pt in zip(spec, offsets, points):
            a = pt[i]
            for r in range(s.nu):
                B[o + r, o + r] = a
            if s.nu > 1:
                ci = int(s.c[i]) % p
                if ci:
                    for r in range(s.nu - 1):
                        B[o + r + 1, o + r] = ci
        # X = S^{-1} B S with S = I + u e0^T
        X = B.copy()
        X[:, 0] = (X[:, 0] + field.matmul(B, u)) % p
        r0 = X[0].copy()
        X = (X - np.outer(u, r0) % p) % p
        mats.append(X)

    # basis change step 2: permutation fixing index 0
    perm = np.concatenate(([0], 1 + rng.permutation(D - 1))) if D > 1 else np.array([0])
    mats = [B[np.ix_(perm, perm)] for B in mats]

    # basis change step 3: chunk-local unit-triangular mixing, sparing index 0
    chunks = _mixing_chunks(D, chunk)
    Ls = []
    for idx, (lo, hi) in enumerate(chunks):
        Ls.append(_chunk_lower(field, hi - lo, rng, mix, skip_col0=(lo == 0)))
    Linvs = [unit_lower_inverse_naive(field, L) for L in Ls]
    out = []
    for B in mats:
        # X = L^{-1} B L, applied chunk by chunk on each side
        X = B.copy()
        for (lo, hi), L in zip(chunks, Ls):
            X[:, lo:hi] = field.matmul(X[:, lo:hi], L)
        for (lo, hi), Linv in zip(chunks, Linvs):
            X[lo:hi, :] = field.matmul(Linv, X[lo:hi, :])
        out.append(SparseMat.from_dense(field, X))

    truth = GroundTruth(points=points, structure=list(spec))
    inst = Instance(field=field, n=n, D=D, mats=out)
    return inst, truth


def write_instance_per_line(inst: Instance, path: str, truth: GroundTruth | None = None) -> None:
    """The instance file written one formatted line per entry, row-major."""
    lines = ["BFGLM 1", f"{inst.field.p} {inst.n} {inst.D}"]
    for i, M in enumerate(inst.mats, start=1):
        coo = M.csr.tocoo()
        triples = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        lines.append(f"matrix {i} {len(triples)}")
        for r, c, v in triples:
            lines.append(f"{r} {c} {v}")
    if truth is not None:
        lines.append(f"truth {len(truth.points)}")
        for pt, s in zip(truth.points, truth.structure):
            words = ["simple"] if s.nu == 1 else ["nilpotent", s.nu, *inst.field.array(s.c)]
            lines.append(" ".join(map(str, ["point", *inst.field.array(pt), *words])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_param_per_line(param: ZeroDimParam, field: Field, path: str) -> None:
    """The parametrization file written one coefficient at a time."""
    lines = [
        "PARAM 1",
        f"{field.p} {param.n} {param.Q.degree}",
        "t: " + " ".join(str(int(x)) for x in param.t),
        "Q: " + " ".join(str(param.Q.coeff(i)) for i in range(param.Q.degree + 1)),
    ]
    for i, Vi in enumerate(param.V, start=1):
        coeffs = [str(Vi.coeff(j)) for j in range(max(Vi.degree + 1, 1))]
        lines.append(f"V_{i}: " + " ".join(coeffs))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance_per_line(path: str):
    """The instance reader that parses and checks one entry line at a time;
    returns (Instance, GroundTruth or None).  A negative count reaches its
    nnz check as an empty block; `read_instance` rejects it at its line."""
    lines, field, n, D = _read_header(path, "BFGLM 1")
    if n < 1 or D < 1:
        raise FormatError(f"need n >= 1 and D >= 1, got n = {n}, D = {D}", line=lines[1][0])
    pos = 2
    mats = []
    for i in range(1, n + 1):
        idx, nnz = _tagged(lines, pos, "matrix", 2)
        if idx != i:
            raise FormatError(f"expected matrix {i}, found {idx}", line=lines[pos][0])
        pos += 1
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            if pos >= len(lines):
                raise FormatError(
                    f"matrix {i} announces {nnz} entries but the file ends early",
                    line=lines[-1][0] + 1,
                )
            lineno, entry = lines[pos]
            r, c, v = _ints(entry.split(), lineno, 3)
            if not (0 <= r < D and 0 <= c < D):
                raise FormatError(f"entry ({r},{c}) outside {D}x{D}", line=lineno)
            if not 0 < v < field.p:
                raise FormatError("explicit zero entry" if v == 0 else f"value {v} outside [0,{field.p})", line=lineno)
            rows.append(r)
            cols.append(c)
            vals.append(v)
            pos += 1
        M = SparseMat.from_coo(field, D, rows, cols, vals)
        if M.nnz != nnz:
            raise FormatError(
                f"matrix {i}: {nnz} entries announced, {M.nnz} distinct found",
                line=lines[pos - 1][0],
            )
        mats.append(M)
    truth = None
    if pos < len(lines):
        lineno = lines[pos][0]
        (k,) = _tagged(lines, pos, "truth", 1)
        pos += 1
        specs, seen = [], set()
        for _ in range(k):
            if pos >= len(lines):
                raise FormatError("truth section ends early", line=lines[-1][0] + 1)
            lineno, entry = lines[pos]
            word, *parts = entry.split()
            simple = parts[n:] == ["simple"]
            if word != "point" or not (simple or parts[n : n + 1] == ["nilpotent"]):
                raise FormatError("expected 'point c_1 ... c_n simple|nilpotent ...'", line=lineno)
            spec = _point_spec(parts[:n] if simple else parts, n, lineno)
            _ints([*spec.coords, *(spec.c or ())], lineno, field=field)
            _check_point(spec, n, field, seen, lambda msg: FormatError(msg, line=lineno))
            specs.append(spec)
            pos += 1
        truth = GroundTruth(points=[s.coords for s in specs], structure=specs)
        if truth.D != D:
            raise FormatError(
                f"truth blocks sum to {truth.D}, header says D={D}", line=lineno
            )
    if pos < len(lines):
        raise FormatError("trailing content", line=lines[pos][0])
    inst = Instance(field=field, n=n, D=D, mats=mats)
    return inst, truth
