"""Instance generation with known ground truth, instance and parametrization
file formats, and end-to-end verification.

Instances are built from an explicit point list: commuting block-diagonal
matrices (one Jordan-style block per point) hidden behind a basis change
that keeps the coordinate vector of the element 1 at index 0 and keeps the
matrices sparse.  Each step of the basis change works on the sparse entries,
in O(nnz): no D x D array is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidInput, InvalidSpec, InvariantViolation
from .field import Field, Rng
from .param import Instance, ZeroDimParam, verify_against_points
from .sparse import SparseMat, combine_matrices, horner, mat_vec, project_vector
from .unipoly import Poly, berlekamp_massey


# indices per block of the unit lower-triangular mixing
CHUNK = 6


@dataclass
class PointSpec:
    coords: tuple  # n coordinates in [0, p)
    nu: int = 1  # local block size; 1 means a simple point
    c: tuple | None = None  # nilpotent mixing constants, one per variable


@dataclass
class GroundTruth:
    points: list  # list of coordinate tuples
    structure: list  # parallel list of PointSpec

    @property
    def D(self) -> int:
        return sum(s.nu for s in self.structure)


def _chunk_lower(field: Field, size: int, rng: Rng, mix: int, skip_col0: bool):
    """Unit lower-triangular chunk with a few random subdiagonal entries."""
    L = field.zeros((size, size))
    for i in range(size):
        L[i, i] = 1
    for r in range(1, size):
        lo = 1 if skip_col0 else 0
        avail = list(range(lo, r))
        if not avail:
            continue
        picks = rng.integers(0, len(avail), size=min(mix, len(avail)))
        for idx in set(int(x) for x in picks):
            L[r, avail[idx]] = rng.element(field)
    return L


def _unit_lower_inverse(field: Field, L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of unit lower-triangular k x k matrices: N = L - I
    is nilpotent, so L^{-1} = sum_{j<k} (-N)^j, summed by Horner."""
    k = L.shape[-1]
    eye = np.eye(k, dtype=np.int64)
    neg = (eye - L) % field.p
    inv = np.broadcast_to(eye, L.shape)
    for _ in range(k - 1):
        inv = (eye + field.exact(np.matmul, neg, inv, k)) % field.p
    return inv.astype(np.int64)


def _check_point(s: PointSpec, n: int, field: Field, seen: set, error=InvalidSpec) -> tuple:
    """The point of s reduced mod p, added to seen, after the rules that the
    generator and the truth section share: n coordinates, nu >= 1, and for
    nu >= 2 n constants, one of them nonzero; no point twice."""
    if len(s.coords) != n:
        raise error("point arity must match the variable count")
    if s.nu < 1:
        raise error("block size must be >= 1")
    if s.nu > 1:
        if s.c is None or len(s.c) != n:
            raise error("nilpotent blocks need one constant per variable")
        if all(int(ci) % field.p == 0 for ci in s.c):
            raise error("nilpotent blocks need a nonzero constant")
    pt = tuple(int(x) % field.p for x in s.coords)
    if pt in seen:
        raise error(f"duplicate point {pt}")
    seen.add(pt)
    return pt


def generate_instance(field: Field, n: int, spec: list, rng: Rng, mix: int = 2):
    """Instance with known solutions; returns (Instance, GroundTruth).

    Each PointSpec contributes one block of B_i: a simple point gives 1x1
    blocks (alpha_i), a nilpotent point of size nu gives alpha_i*I + c_i*N
    with N the shift block.  A basis change (rank-one update fixing the
    element 1 at index 0, a permutation, then unit-triangular mixing within
    chunks of CHUNK indices) hides the block structure with bounded fill-in.
    Each step is applied to the sparse entries, in O(nnz) work.
    """
    if n < 1:
        raise InvalidSpec("need at least one variable")
    if mix < 0:
        raise InvalidSpec("mixing count must be >= 0")
    seen = set()
    points = [_check_point(s, n, field, seen) for s in spec]
    D = sum(s.nu for s in spec)
    if D == 0:
        raise InvalidSpec("empty instance")
    if field.p <= D:
        raise InvalidSpec("modulus must exceed the dimension")

    p = field.p
    owner = np.repeat(np.arange(len(spec)), [s.nu for s in spec])
    # u: the block starts but index 0, so that S = I + u e_0^T maps e_0 to
    # the coordinate vector of 1; sub: the rows with a subdiagonal entry
    u = np.r_[False, owner[1:] != owner[:-1]]
    sub = 1 + np.flatnonzero(owner[1:] == owner[:-1])
    # the draws: a permutation fixing index 0, then the chunks of L in order
    perm = np.concatenate(([0], 1 + rng.permutation(D - 1))) if D > 1 else np.array([0])
    where = np.argsort(perm)
    nch = -(-D // CHUNK)
    L = np.tile(np.eye(CHUNK, dtype=np.int64), (nch, 1, 1))
    for k in range(nch):
        size = min(CHUNK, D - k * CHUNK)
        L[k, :size, :size] = _chunk_lower(field, size, rng, mix, skip_col0=(k == 0))
    Linv = _unit_lower_inverse(field, L)

    mats = []
    for i in range(n):
        diag = np.array([pt[i] for pt in points], dtype=np.int64)[owner]
        c = np.array([int(s.c[i]) % p if s.nu > 1 else 0 for s in spec], dtype=np.int64)[owner]
        rows = np.r_[np.arange(D), sub]
        cols = np.r_[np.arange(D), sub - 1]
        vals = np.r_[diag, c[sub]]
        # row 0 of B_i is B_00 e_0^T and u_0 = 0, so S^{-1} B_i S rewrites
        # only column 0, to B_i e_0 + B_i u - B_00 u; u is 0/1 and a row of
        # B_i has two entries, so the sums fit in int64
        hit = (cols == 0) | u[cols]
        col0 = np.zeros(D, dtype=np.int64)
        np.add.at(col0, rows[hit], vals[hit])
        col0 = (col0 - diag[0] * u) % p
        keep = cols != 0
        # the permutation moves entry (r, c) to (where[r], where[c])
        rows = where[np.r_[rows[keep], np.arange(D)]]
        cols = where[np.r_[cols[keep], np.zeros(D, dtype=np.int64)]]
        vals = np.r_[vals[keep], col0]
        # L is block diagonal: block (I, J) of L^{-1} X L is Linv_I X_IJ L_J,
        # taken over the blocks where X has entries
        key, pos = np.unique(rows // CHUNK * nch + cols // CHUNK, return_inverse=True)
        X = np.zeros((len(key), CHUNK, CHUNK), dtype=np.int64)
        X[pos, rows % CHUNK, cols % CHUNK] = vals
        X = field.exact(np.matmul, Linv[key // nch], X, CHUNK)
        X = field.exact(np.matmul, X, L[key % nch], CHUNK)
        b, bi, bj = np.nonzero(X)
        mats.append(SparseMat.from_coo(
            field, D, key[b] // nch * CHUNK + bi, key[b] % nch * CHUNK + bj, X[b, bi, bj]
        ))

    truth = GroundTruth(points=points, structure=list(spec))
    inst = Instance(field=field, n=n, D=D, mats=mats)
    return inst, truth


# -- file formats ---------------------------------------------------------


def write_instance(inst: Instance, path: str, truth: GroundTruth | None = None) -> None:
    lines = ["BFGLM 1", f"{inst.field.p} {inst.n} {inst.D}"]
    for i, M in enumerate(inst.mats, start=1):
        triples = list(M.triples())
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


def _ints(parts, lineno, count=None, field=None):
    """The integers of parts, count of them when given, and each in [0, p)
    when a field is given: every field element of a file is written reduced."""
    try:
        vals = [int(x) for x in parts]
    except ValueError:
        raise FormatError("expected integers", line=lineno)
    if count is not None and len(vals) != count:
        raise FormatError(f"expected {count} integers, got {len(vals)}", line=lineno)
    if field is not None and not all(0 <= v < field.p for v in vals):
        bad = next(v for v in vals if not 0 <= v < field.p)
        raise FormatError(f"value {bad} outside [0,{field.p})", line=lineno)
    return vals


def _tagged(lines, pos, tag, count=None, field=None):
    """The integers after the word tag on the nonblank line lines[pos],
    count of them when given, and elements of field when given: the one
    reader of the 'matrix', 'truth', 't:', 'Q:' and 'V_i:' lines."""
    if pos >= len(lines):
        raise FormatError(f"missing '{tag}' line", line=lines[-1][0] + 1)
    lineno, text = lines[pos]
    word, *parts = text.split()
    if word != tag:
        raise FormatError(f"expected a '{tag}' line", line=lineno)
    return _ints(parts, lineno, count, field)


def _point_spec(parts, n, lineno):
    """The PointSpec of the words 'c_1 ... c_n' or 'c_1 ... c_n nilpotent nu
    k_1 ... k_n': a points-file line, or a truth line after its 'point'."""
    if len(parts) == n:
        return PointSpec(coords=tuple(_ints(parts, lineno)))
    if len(parts) == 2 * n + 2 and parts[n] == "nilpotent":
        vals = _ints(parts[:n] + parts[n + 1 :], lineno)
        return PointSpec(coords=tuple(vals[:n]), nu=vals[n], c=tuple(vals[n + 1 :]))
    raise FormatError(
        "expected 'c_1 ... c_n' or 'c_1 ... c_n nilpotent nu k_1 ... k_n'", line=lineno
    )


def _read_header(path: str, magic: str):
    """(lines, field, a, b): the nonblank (line number, text) pairs of a
    file whose first line is magic, then the field and the two integers of
    its 'p a b' dimension line."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines or lines[0][1] != magic:
        raise FormatError(f"missing '{magic}' header", line=1)
    if len(lines) < 2:
        raise FormatError("missing dimension line", line=lines[0][0] + 1)
    lineno, dims = lines[1]
    p, a, b = _ints(dims.split(), lineno, 3)
    try:
        return lines, Field(p), a, b
    except InvalidInput as exc:
        raise FormatError(str(exc), line=lineno)


def read_instance(path: str):
    """Returns (Instance, GroundTruth or None)."""
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


def write_param(param: ZeroDimParam, field: Field, path: str) -> None:
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


def read_param(path: str):
    """Returns (ZeroDimParam, Field)."""
    lines, field, n, degQ = _read_header(path, "PARAM 1")
    if n < 1 or degQ < 0:
        raise FormatError(f"need n >= 1 and deg Q >= 0, got n = {n}, deg Q = {degQ}", line=lines[1][0])
    t = _tagged(lines, 2, "t:", n, field)
    qc = _tagged(lines, 3, "Q:", degQ + 1, field)
    if qc[-1] == 0:
        raise FormatError("the top coefficient of Q is zero", line=lines[3][0])
    V = [Poly(field, _tagged(lines, 3 + i, f"V_{i}:", field=field)) for i in range(1, n + 1)]
    if len(lines) > 4 + n:
        raise FormatError("trailing content", line=lines[4 + n][0])
    return ZeroDimParam(Q=Poly(field, qc), V=V, t=t), field


def parse_points_file(path: str, n: int, field: Field):
    """Point list for the generator: one point per line.

    Format per line: n coordinates, optionally followed by
    'nilpotent nu c_1 ... c_n'.  Blank lines and '#' comments are skipped.
    """
    specs = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            parts = ln.split("#", 1)[0].split()
            if parts:
                specs.append(_point_spec(parts, n, lineno))
    return specs


# -- verification ---------------------------------------------------------


def minimal_polynomial_of_combination(inst: Instance, t, rng: Rng):
    """Minimal polynomial of sum t_i M_i via a random scalar sequence.

    Returns (s1, u, v, terms): the 2D terms u^T M^k v, k < 2D, of
    M = sum t_i M_i for u and v drawn in that order, and their minimal
    generator s1.  It divides the minimal polynomial of M, and deg s1 <= D.
    """
    f = inst.field
    M = combine_matrices(t, inst.mats)
    u = rng.vector(f, inst.D)
    v = rng.vector(f, inst.D)
    terms = project_vector(M, u.reshape(-1, 1), 2 * inst.D, v)[:, 0, 0]
    return berlekamp_massey(terms, f, inst.D), u, v, terms


def verify_solution(inst: Instance, param: ZeroDimParam, truth: GroundTruth | None = None):
    """Structural and algebraic checks; returns a report dict.

    One Wiedemann pass gives the minimal generator s1 of u^T M^k v, M =
    sum t_i M_i.  s1 divides the minimal polynomial of M and deg s1 <= D, so
    deg s1 = D gives s1 = minpoly(M) exactly, and s1(M) = 0 needs no check;
    below D, s1(M) W = 0 is checked by Horner on five random columns W.
    When also deg Q = D and Q divides s1, each coordinate is checked on the
    same terms: sum_k V_i[k] u^T M^k v = u^T M_i v, which a wrong V_i passes
    with probability at most 2/p, and only then is the status "certified
    complete and radical"; otherwise it is "subset-consistent" at best.
    """
    f = inst.field
    report = {"pass": True, "checks": [], "status": "subset-consistent"}

    def check(name, ok, detail=""):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            report["pass"] = False

    try:
        param.check_invariants()
        check("parametrization invariants", True)
    except InvariantViolation as exc:
        check("parametrization invariants", False, str(exc))

    check("deg(Q) <= D", param.Q.degree <= inst.D)

    rng = Rng(0xC0FFEE)
    s1, u, v, terms = minimal_polynomial_of_combination(inst, param.t, rng)
    divides = not param.Q.is_zero() and (s1 % param.Q).is_zero()
    check("Q divides the minimal polynomial of the combination", divides)
    if s1.degree == inst.D:
        check(
            "recomputed minimal polynomial annihilates the combination", True,
            "implied: deg s1 = D, so s1 = minpoly(M)",
        )
    else:
        M = combine_matrices(param.t, inst.mats)
        # s1(M) W = 0 for five random vectors, advanced by Horner as one block
        W = np.stack([rng.vector(f, inst.D) for _ in range(5)], axis=1)
        check("recomputed minimal polynomial annihilates the combination", not horner(M, s1.c, W).any())
    if divides and param.Q.degree == inst.D:
        # V_i(M) = (V_i mod Q)(M), and V_i mod Q has fewer than 2D terms
        for i, (Vi, Mi) in enumerate(zip(param.V, inst.mats), start=1):
            c = (Vi % param.Q).c
            lhs = int(f.matmul(c, terms[: len(c)]))
            rhs = int(f.matmul(u, mat_vec(Mi, v)))
            check(f"coordinate {i}: u^T V_{i}(M) v = u^T M_{i} v", lhs == rhs)
        report["status"] = "certified complete and radical"

    if truth is not None:
        pts = verify_against_points(param, truth.points, f)
        check("ground-truth points", pts["pass"], "; ".join(pts["warnings"]))
        report["points"] = pts["points"]
    if not report["pass"]:
        report["status"] = "failed"
    return report
