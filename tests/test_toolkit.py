import tracemalloc

import numpy as np
import pytest

from bfglm.cli import EXIT_VERIFY, main
from bfglm.errors import FormatError, InvalidSpec, InvariantViolation
from bfglm.field import Field, Rng
from bfglm.param import ZeroDimParam, solve
from bfglm.toolkit import (
    CHUNK,
    GroundTruth,
    _chunk_lower,
    _unit_lower_inverse,
    PointSpec,
    generate_instance,
    minimal_polynomial_of_combination,
    parse_points_file,
    read_instance,
    read_param,
    verify_solution,
    write_instance,
    write_param,
)
from bfglm.unipoly import Poly

from oracles import collisions, generate_instance_dense, unit_lower_inverse_naive

F = Field(65537)

SPEC5 = [
    PointSpec(coords=(4, 10), nu=2, c=(1, 2)),
    PointSpec(coords=(5, 20)),
    PointSpec(coords=(9, 1)),
    PointSpec(coords=(9, 2)),
]


def test_generated_matrices_commute():
    inst, truth = generate_instance(F, 2, SPEC5, Rng(1))
    assert inst.D == truth.D == 5
    A, B = (M.to_dense().astype(object) for M in inst.mats)
    assert np.array_equal((A @ B) % F.p, (B @ A) % F.p)


def test_generated_eigenvalues_match_points():
    inst, truth = generate_instance(F, 2, SPEC5, Rng(2))
    for i, M in enumerate(inst.mats):
        dense = M.to_dense().astype(object)
        # char poly roots = point coordinates: check trace instead of roots
        tr = int(np.trace(dense) % F.p)
        want = sum(s.nu * pt[i] for s, pt in zip(truth.structure, truth.points)) % F.p
        assert tr == want


def test_element_one_sits_at_index_zero():
    # the product X_i . eps_0 must reproduce the action on the element 1,
    # whose coordinate vector is eps_0 by construction: its minimal
    # polynomial carries all distinct coordinate values
    inst, truth = generate_instance(F, 2, SPEC5, Rng(3))
    s1 = minimal_polynomial_of_combination(inst, [1, 0], Rng(4))[0]
    for pt in truth.points:
        assert s1.eval(pt[0]) == 0


def test_generation_is_deterministic():
    a, _ = generate_instance(F, 2, SPEC5, Rng(7))
    b, _ = generate_instance(F, 2, SPEC5, Rng(7))
    for Ma, Mb in zip(a.mats, b.mats):
        assert np.array_equal(Ma.to_dense(), Mb.to_dense())


def test_generated_matrices_stay_sparse():
    pts = [PointSpec(coords=(i, (3 * i + 1) % F.p)) for i in range(40)]
    inst, _ = generate_instance(F, 2, pts, Rng(9))
    for M in inst.mats:
        assert M.density < 0.25


# negative coordinates reduce to residues near p, so every case is distinct
# at every modulus below and its entries are as wide as the modulus allows
GENERATOR_CASES = {
    # a nilpotent first block, D = 5: one chunk, shorter than CHUNK
    "nilpotent-first": (2, SPEC5),
    # a simple first block, blocks of 3 and 2 with zero constants and an X_1
    # value shared with the first point (a zero in column 0), D = 13: the
    # last chunk holds one index
    "simple-first": (3, [
        PointSpec(coords=(-1, -2, -3)),
        PointSpec(coords=(-1, -5, -6), nu=3, c=(-2, 0, -7)),
        PointSpec(coords=(-4, -4, -4)),
        PointSpec(coords=(-8, -1, -1), nu=2, c=(0, 0, -5)),
    ] + [PointSpec(coords=(-9 - k, -k, -2 * k)) for k in range(6)]),
    "one-point": (2, [PointSpec(coords=(-7, -3))]),
    "one-variable": (1, [PointSpec(coords=(-5 * k - 2,)) for k in range(7)]
                     + [PointSpec(coords=(-50,), nu=2, c=(-3,))]),
}


@pytest.mark.parametrize("p", [101, 65537, 67108859, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_sparse_generator_matches_the_dense_oracle(case, p):
    f = Field(p)
    n, spec = GENERATOR_CASES[case]
    for seed in (1, 2, 3):
        inst, truth = generate_instance(f, n, spec, Rng(seed))
        want, want_truth = generate_instance_dense(f, n, spec, Rng(seed))
        assert (inst.n, inst.D, truth.points) == (want.n, want.D, want_truth.points)
        assert [list(M.triples()) for M in inst.mats] == [list(M.triples()) for M in want.mats]


@pytest.mark.parametrize("p", [65537, 67108859, 2**31 - 1, 2**61 - 1])
def test_stacked_unit_lower_inverse_matches_back_substitution(p):
    f = Field(p)
    rng = Rng(p % 1000)
    Ls = [_chunk_lower(f, CHUNK, rng, mix, skip_col0=(k == 0)) for k, mix in enumerate([0, 1, 2, 5] * 5)]
    got = _unit_lower_inverse(f, np.array(Ls, dtype=np.int64))
    want = np.array([unit_lower_inverse_naive(f, L) for L in Ls], dtype=np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_generator_allocates_no_dense_matrix():
    # one dense 4000 x 4000 int64 array takes 128 MB
    spec = [PointSpec(coords=(k, (3 * k + 1) % 67108859)) for k in range(4000)]
    f = Field(67108859)
    tracemalloc.start()
    try:
        inst, _ = generate_instance(f, 2, spec, Rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.D == 4000 and peak < 32 * 2**20


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, [PointSpec(coords=(1, 2)), PointSpec(coords=(1, 2))], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, [PointSpec(coords=(1, 2, 3))], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, [PointSpec(coords=(1, 2), nu=2)], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, [PointSpec(coords=(1, 2), nu=2, c=(0, 0))], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, [], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(Field(5), 2, [PointSpec(coords=(i, 0)) for i in range(5)], Rng(1))
    with pytest.raises(InvalidSpec):
        generate_instance(F, 2, SPEC5, Rng(1), mix=-1)


def test_instance_roundtrip(tmp_path):
    inst, truth = generate_instance(F, 2, SPEC5, Rng(11))
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path, truth)
    inst2, truth2 = read_instance(path)
    path2 = str(tmp_path / "inst2.txt")
    write_instance(inst2, path2, truth2)
    assert open(path).read() == open(path2).read()
    assert truth2.points == truth.points
    assert collisions(truth2) == collisions(truth)


def test_instance_format_errors(tmp_path):
    path = str(tmp_path / "bad.txt")

    def expect(text, lineno):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(FormatError) as ei:
            read_instance(path)
        assert ei.value.line == lineno

    expect("nonsense\n", 1)
    expect("BFGLM 1\n65537 1\n", 2)
    # no variable, an empty algebra, a negative dimension
    for dims in ("0 2", "1 0", "1 -3"):
        expect(f"BFGLM 1\n65537 {dims}\n", 2)
    expect("BFGLM 1\n65537 1 2\nmatrix 2 0\n", 3)
    expect("BFGLM 1\n65537 1 2\nmatrix 1 1\n0 5 1\n", 4)
    expect("BFGLM 1\n65537 1 2\nmatrix 1 1\n0 1 0\n", 4)
    expect("BFGLM 1\n65537 1 2\nmatrix 1 0\ntruth 1\npoint 3 unknown\n", 5)
    expect("BFGLM 1\n65537 1 2\nmatrix 1 0\ntruth 1\npoint 3 simple\n", 5)  # D mismatch
    # a word after the tag, and a truth line without one
    expect("BFGLM 1\n65537 1 1\nmatrix 1 0\ntruth 1\npoint 3 simple junk\n", 5)
    expect("BFGLM 1\n65537 1 1\nmatrix 1 0\ntruth 1\npoint 3\n", 5)


def test_param_format_errors(tmp_path):
    path = tmp_path / "bad.txt"
    good = f"PARAM 1\n{F.p} 2 1\nt: 1 0\nQ: 62 1\nV_1: 3\nV_2: 5\n"

    def expect(old, new, lineno):
        path.write_text(good.replace(old, new))
        with pytest.raises(FormatError) as ei:
            read_param(str(path))
        assert ei.value.line == lineno

    path.write_text(good)
    assert read_param(str(path))[0].Q == Poly(F, [62, 1])
    expect(f"{F.p} 2 1", f"{F.p} 0 1", 2)
    expect(f"{F.p} 2 1\nt: 1 0\nQ: 62 1", f"{F.p} 2 -1\nt: 1 0\nQ:", 2)
    # a zero top coefficient, also when written as p
    expect("Q: 62 1", "Q: 62 0", 4)
    expect("Q: 62 1", f"Q: 62 {F.p}", 4)
    # a tag glued to its first number
    expect("V_2: 5", "V_2:0 5", 6)
    expect("t: 1 0", "t: 1 0 0", 3)
    expect("V_2: 5\n", "", 6)
    # a PARAM file ends after V_n:
    expect("V_2: 5\n", "V_2: 5\nV_1: 4 4\nmatrix 1\n", 7)


def test_param_roundtrip(tmp_path):
    inst, truth = generate_instance(F, 2, SPEC5, Rng(13))
    param = solve(inst, 2, Rng(14))
    path = str(tmp_path / "param.txt")
    write_param(param, F, path)
    back, pf = read_param(path)
    assert pf.p == F.p
    assert back.Q == param.Q
    assert back.t == param.t
    assert all(a == b for a, b in zip(back.V, param.V))


def test_parse_points_file(tmp_path):
    path = str(tmp_path / "pts.txt")
    with open(path, "w") as fh:
        fh.write("# comment\n3 5\n9 2 nilpotent 2 1 4\n\n")
    specs = parse_points_file(path, 2, F)
    assert specs[0].coords == (3, 5) and specs[0].nu == 1
    assert specs[1].coords == (9, 2) and specs[1].nu == 2 and specs[1].c == (1, 4)
    with open(path, "w") as fh:
        fh.write("3 5 7\n")
    with pytest.raises(FormatError):
        parse_points_file(path, 2, F)


def test_points_file_and_truth_section_read_the_same_specs(tmp_path):
    lines = ["3 5", "9 2 nilpotent 2 1 4", "4 4"]
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(lines) + "\n")
    specs = parse_points_file(str(pts), 2, F)
    inst, _ = generate_instance(F, 2, specs, Rng(1))
    path = tmp_path / "inst.txt"
    write_instance(inst, str(path))
    tagged = [ln if "nilpotent" in ln else ln + " simple" for ln in lines]
    with open(path, "a") as fh:
        fh.write("truth 3\n" + "".join(f"point {ln}\n" for ln in tagged))
    assert read_instance(str(path))[1].structure == specs


def test_minimal_polynomial_of_combination():
    inst, truth = generate_instance(F, 2, SPEC5, Rng(15))
    t = [3, 11]
    s1 = minimal_polynomial_of_combination(inst, t, Rng(16))[0]
    for pt in truth.points:
        val = (3 * pt[0] + 11 * pt[1]) % F.p
        assert s1.eval(val) == 0
    # nilpotent block forces a repeated factor
    assert not s1.gcd(s1.derivative()).is_one()


def test_verify_solution_positive_and_negative():
    inst, truth = generate_instance(F, 2, SPEC5, Rng(17))
    param = solve(inst, 2, Rng(18))
    rep = verify_solution(inst, param, truth)
    assert rep["pass"]
    # tamper with a coordinate polynomial
    bad = type(param)(Q=param.Q, V=[param.V[0] + Poly(F, [1]), param.V[1]], t=param.t)
    rep2 = verify_solution(inst, bad, truth)
    assert not rep2["pass"]
    assert rep2["status"] == "failed"


def _drop_root(monkeypatch, param, point):
    """Make verify_solution see s1 without the factor T - X(point)."""
    from bfglm import toolkit

    f = param.Q.field
    root = sum(int(t) * c for t, c in zip(param.t, point)) % f.p
    real = toolkit.minimal_polynomial_of_combination

    def dropped(*args):
        s1, *rest = real(*args)
        return (s1 // Poly(f, [-root % f.p, 1]), *rest)

    monkeypatch.setattr(toolkit, "minimal_polynomial_of_combination", dropped)


def test_verify_rejects_a_polynomial_that_does_not_annihilate(monkeypatch):
    # deg Q < D: a recomputed minimal polynomial missing one root must fail
    # the block annihilation check
    inst, truth = generate_instance(F, 2, SPEC5, Rng(17))
    param = solve(inst, 2, Rng(18))
    assert param.Q.degree < inst.D
    # the X-value of the simple point (9, 2)
    _drop_root(monkeypatch, param, truth.points[-1])
    checks = {c["name"]: c["ok"] for c in verify_solution(inst, param)["checks"]}
    assert not checks["recomputed minimal polynomial annihilates the combination"]


def _full_degree(field=F):
    """Six simple points, solved: deg Q = D = 6."""
    pts = [PointSpec(coords=(i, i * i % field.p)) for i in range(1, 7)]
    inst, truth = generate_instance(field, 2, pts, Rng(19))
    param = solve(inst, 2, Rng(20))
    assert param.Q.degree == inst.D
    return inst, truth, param


def test_verify_certifies_full_degree():
    inst, truth, param = _full_degree()
    rep = verify_solution(inst, param, truth)
    assert rep["pass"]
    assert rep["status"] == "certified complete and radical"
    coords = [c for c in rep["checks"] if c["name"].startswith("coordinate")]
    assert len(coords) == inst.n and all(c["ok"] for c in coords)


def test_verify_full_degree_makes_no_horner_pass(monkeypatch):
    # deg Q = D and Q | s1 give s1 = minpoly(M), so s1(M) W = 0 is implied
    from bfglm import toolkit

    def no_horner(*args, **kwargs):
        raise AssertionError("sparse.horner called")

    monkeypatch.setattr(toolkit, "horner", no_horner)
    inst, truth, param = _full_degree()
    rep = verify_solution(inst, param, truth)
    assert rep["pass"] and rep["status"] == "certified complete and radical"
    checks = {c["name"]: c for c in rep["checks"]}
    annihilates = checks["recomputed minimal polynomial annihilates the combination"]
    assert annihilates["ok"] and "implied" in annihilates["detail"]


def test_verify_makes_no_horner_pass_when_s1_has_degree_D(monkeypatch):
    # a double point keeps deg Q < D, but deg s1 = D alone gives s1 =
    # minpoly(M): the annihilation is implied, the rest is checked as before
    from bfglm import sparse, toolkit

    inst, truth = generate_instance(F, 2, SPEC5, Rng(17))
    param = solve(inst, 2, Rng(18))
    s1 = toolkit.minimal_polynomial_of_combination(inst, param.t, Rng(0xC0FFEE))[0]
    assert param.Q.degree < inst.D == s1.degree
    # the pass that is skipped would pass
    M = sparse.combine_matrices(param.t, inst.mats)
    assert not sparse.horner(M, s1.c, Rng(3).block(F, inst.D, 5)).any()

    def no_horner(*args, **kwargs):
        raise AssertionError("sparse.horner called")

    monkeypatch.setattr(toolkit, "horner", no_horner)
    rep = verify_solution(inst, param, truth)
    assert rep["pass"] and rep["status"] == "subset-consistent"
    assert [(c["name"], c["ok"]) for c in rep["checks"]] == [
        ("parametrization invariants", True),
        ("deg(Q) <= D", True),
        ("Q divides the minimal polynomial of the combination", True),
        ("recomputed minimal polynomial annihilates the combination", True),
        ("ground-truth points", True),
    ]
    assert "implied" in rep["checks"][3]["detail"]


def test_verify_full_degree_rejects_an_s1_missing_a_root(monkeypatch):
    inst, truth, param = _full_degree()
    _drop_root(monkeypatch, param, truth.points[0])
    rep = verify_solution(inst, param)
    checks = {c["name"]: c["ok"] for c in rep["checks"]}
    assert not checks["Q divides the minimal polynomial of the combination"]
    assert not checks["recomputed minimal polynomial annihilates the combination"]
    assert rep["status"] == "failed"


@pytest.mark.parametrize("p", [65537, (1 << 31) - 1, (1 << 61) - 1])
def test_verify_rejects_a_tampered_coordinate(tmp_path, p):
    # V_1 + g and V_2 - (t_1/t_2) g keep sum t_i V_i = T mod Q, so only the
    # coordinate checks can see them
    f = Field(p)
    inst, truth, param = _full_degree(f)
    t1, t2 = (int(x) % p for x in param.t)
    g = Poly(f, [3, 1, 4])
    bad = ZeroDimParam(
        Q=param.Q, V=[param.V[0] + g, param.V[1] - g.scale(t1 * f.inv(t2))], t=param.t
    )
    bad.check_invariants()
    assert verify_solution(inst, param)["status"] == "certified complete and radical"
    rep = verify_solution(inst, bad)
    assert rep["status"] == "failed"
    failed = [c["name"] for c in rep["checks"] if not c["ok"]]
    assert failed and all(name.startswith("coordinate") for name in failed)
    inst_path, param_path = str(tmp_path / "inst.txt"), str(tmp_path / "bad.txt")
    write_instance(inst, inst_path)
    write_param(bad, f, param_path)
    assert run_cli("verify", "--in", inst_path, "--param", param_path) == EXIT_VERIFY


# -- command line ----------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_end_to_end(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("4 10 nilpotent 2 1 2\n5 20\n9 1\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    sol = str(tmp_path / "sol.txt")
    assert run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "5", "--truth") == 0
    assert run_cli("solve", "--in", inst, "--out", sol, "--m", "2", "--seed", "1") == 0
    assert run_cli("verify", "--in", inst, "--param", sol, "--truth") == 0
    sol2 = str(tmp_path / "sol2.txt")
    assert run_cli("solve-split", "--in", inst, "--out", sol2, "--m", "2", "--seed", "1") == 0
    assert run_cli("verify", "--in", inst, "--param", sol2, "--truth") == 0
    out = capsys.readouterr().out
    assert "ground-truth points" in out


def test_cli_verify_truth_needs_a_truth_section(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    sol = str(tmp_path / "sol.txt")
    assert run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2") == 0
    assert run_cli("solve", "--in", inst, "--out", sol, "--seed", "3") == 0
    assert run_cli("verify", "--in", inst, "--param", sol) == 0
    capsys.readouterr()
    assert run_cli("verify", "--in", inst, "--param", sol, "--truth") == 2
    out, err = capsys.readouterr()
    assert out == "" and "'truth k' section" in err


def test_cli_x1_index_permutes_back(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n12 4\n")
    inst = str(tmp_path / "inst.txt")
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2", "--truth")
    assert run_cli("solve-split", "--in", inst, "--out", a, "--seed", "3") == 0
    assert run_cli("solve-split", "--in", inst, "--out", b, "--seed", "3", "--x1-index", "1") == 0
    pa, _ = read_param(a)
    pb, _ = read_param(b)
    ia, _ = read_instance(inst)
    assert verify_solution(ia, pa)["pass"]
    assert verify_solution(ia, pb)["pass"]


def test_cli_x1_index_out_of_range(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    capsys.readouterr()
    for k in ("2", "-1"):
        assert run_cli("solve-split", "--in", inst, "--x1-index", k) == 2
        assert capsys.readouterr().err == "x1-index out of range\n"


def test_cli_x1_index_on_three_variables_verifies(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5 1\n9 2 4\n12 4 4\n7 5 8\n")
    inst = str(tmp_path / "inst.txt")
    sol = str(tmp_path / "sol.txt")
    run_cli("gen", "--points", str(pts), "--n", "3", "--out", inst, "--seed", "2", "--truth")
    assert run_cli("solve-split", "--in", inst, "--out", sol, "--seed", "3", "--x1-index", "2") == 0
    assert run_cli("verify", "--in", inst, "--param", sol, "--truth") == 0


def test_cli_error_codes(tmp_path):
    assert run_cli("solve", "--in", str(tmp_path / "missing.txt")) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert run_cli("solve", "--in", str(bad)) == 2
    # a negative D once escaped from scipy as a traceback, exit 1
    bad.write_text("BFGLM 1\n65537 1 -3\n")
    assert run_cli("solve-split", "--in", str(bad)) == 2
    with pytest.raises(SystemExit) as ei:
        run_cli("no-such-command")
    assert ei.value.code == 2


@pytest.mark.parametrize("cmd", ["solve", "solve-split"])
def test_cli_rejects_a_bad_block_size_or_retry_count_on_both_routes(tmp_path, capsys, cmd):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n12 4\n4 4\n")
    inst = str(tmp_path / "inst.txt")
    assert run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst) == 0
    capsys.readouterr()
    for bad in (["--m", "100"], ["--m", "0"]):
        assert run_cli(cmd, "--in", inst, *bad) == 2
        assert capsys.readouterr().err == "error: block size must be in [1, D]\n"
    assert run_cli(cmd, "--in", inst, "--retries", "-1") == 2
    assert capsys.readouterr().err == "error: retries must be >= 0\n"


def test_cli_gen_rejects_a_negative_mix(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    assert run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--mix", "-1") == 2
    assert capsys.readouterr().err.startswith("error: mixing count must be >= 0")


def test_cli_verify_rejects_a_variable_count_mismatch(tmp_path, capsys):
    # checked before anything reads the parametrization's arity
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    sol = tmp_path / "sol.txt"
    sol.write_text(f"PARAM 1\n{F.p} 3 1\nt: 1 0 0\nQ: 62 1\nV_1: 3\nV_2: 5\nV_3: 0\n")
    capsys.readouterr()
    assert run_cli("verify", "--in", inst, "--param", str(sol)) == 4
    assert "variable count mismatch" in capsys.readouterr().err


def test_cli_verify_malformed_param_file(tmp_path, capsys):
    # a file cut after its header, and a modulus that is not prime: both are
    # format errors at line 2, exit code 2, with no traceback
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    sol = tmp_path / "sol.txt"
    for text in ("PARAM 1\n", "PARAM 1\n100 2 1\nt: 1 1\nQ: 0 1\nV_1: 0\nV_2: 0\n"):
        sol.write_text(text)
        with pytest.raises(FormatError) as ei:
            read_param(str(sol))
        assert ei.value.line == 2
        capsys.readouterr()
        assert run_cli("verify", "--in", inst, "--param", str(sol)) == 2
        assert capsys.readouterr().err.startswith("format error: line 2:")


@pytest.mark.parametrize(
    "dims, q, lineno",
    [("2 1", "Q: 1 0", 4), ("2 -1", "Q:", 2)],
    ids=["zero-top-coefficient", "zero-Q"],
)
def test_cli_verify_rejects_a_malformed_Q(tmp_path, capsys, dims, q, lineno):
    # both files were once certified: the first as an empty parametrization,
    # "subset-consistent", the second as Q = 0 dividing the minimal polynomial
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    sol = tmp_path / "sol.txt"
    sol.write_text(f"PARAM 1\n{F.p} {dims}\nt: 1 0\n{q}\nV_1: 0\nV_2: 0\n")
    capsys.readouterr()
    assert run_cli("verify", "--in", inst, "--param", str(sol)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"format error: line {lineno}:")


def test_cli_verify_rejects_content_after_the_last_coordinate(tmp_path, capsys):
    # once certified "complete and radical": the extra lines were not read
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    sol = tmp_path / "sol.txt"
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    run_cli("solve", "--in", inst, "--out", str(sol), "--seed", "3")
    text = sol.read_text()
    assert run_cli("verify", "--in", inst, "--param", str(sol)) == 0
    sol.write_text(text + "V_1: 4 4\nmatrix 1\n")
    capsys.readouterr()
    assert run_cli("verify", "--in", inst, "--param", str(sol)) == 2
    lineno = len(text.splitlines()) + 1
    assert capsys.readouterr().err == f"format error: line {lineno}: trailing content\n"


def test_verify_solution_checks_that_Q_divides_s1_for_Q_zero_and_one():
    inst, _ = generate_instance(F, 2, SPEC5, Rng(17))

    def divides(Q):
        param = ZeroDimParam(Q=Q, V=[Poly.zero(F), Poly.zero(F)], t=[3, 11])
        (ok,) = [c["ok"] for c in verify_solution(inst, param)["checks"] if c["name"].startswith("Q divides")]
        return ok

    # Q = 0 divides nothing; Q = 1 divides every s1, on the general path
    assert not divides(Poly.zero(F))
    assert divides(Poly.one(F))


def test_cli_verify_failure_exit_code(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    sol = str(tmp_path / "sol.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2", "--truth")
    run_cli("solve", "--in", inst, "--out", sol, "--seed", "3")
    text = open(sol).read().splitlines()
    # corrupt one coordinate value
    for i, ln in enumerate(text):
        if ln.startswith("V_1:"):
            parts = ln.split()
            parts[1] = str((int(parts[1]) + 1) % F.p)
            text[i] = " ".join(parts)
    with open(sol, "w") as fh:
        fh.write("\n".join(text) + "\n")
    assert run_cli("verify", "--in", inst, "--param", sol, "--truth") == 4


def test_cli_reports_broken_solver_output_as_internal_error(tmp_path, monkeypatch, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")

    def broken(self):
        raise InvariantViolation("Q must be monic")

    monkeypatch.setattr(ZeroDimParam, "check_invariants", broken)
    for cmd in ("solve", "solve-split"):
        assert run_cli(cmd, "--in", inst, "--out", str(tmp_path / "sol.txt"), "--seed", "3") == 5
        assert "internal error" in capsys.readouterr().err


def test_cli_verify_reports_user_parametrizations_as_input(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("3 5\n9 2\n")
    inst = str(tmp_path / "inst.txt")
    sol = str(tmp_path / "sol.txt")
    run_cli("gen", "--points", str(pts), "--n", "2", "--out", inst, "--seed", "2")
    run_cli("solve", "--in", inst, "--out", sol, "--seed", "3")
    text = open(sol).read().splitlines()
    # a non-monic Q breaks an invariant of the user's file: a verify failure
    q = [i for i, ln in enumerate(text) if ln.startswith("Q:")][0]
    text[q] = "Q: " + " ".join(str(2 * int(c) % F.p) for c in text[q].split()[1:])
    with open(sol, "w") as fh:
        fh.write("\n".join(text) + "\n")
    assert run_cli("verify", "--in", inst, "--param", sol) == 4
    # a modulus that is not prime is malformed input
    text[1] = " ".join([str(F.p + 1)] + text[1].split()[1:])
    with open(sol, "w") as fh:
        fh.write("\n".join(text) + "\n")
    assert run_cli("verify", "--in", inst, "--param", sol) == 2


# every value a file carries lies in [0, p), and a truth section follows the
# generator's point rules: at p = 101 each of these files was read, and
# `verify --truth` certified the first one
SMALL = Field(101)
SMALL_TRUTH = "point 3 5 simple\npoint 9 2 nilpotent 2 1 4\npoint 4 4 simple\n"


def _small_files(tmp_path):
    specs = [PointSpec(coords=(3, 5)), PointSpec(coords=(9, 2), nu=2, c=(1, 4)), PointSpec(coords=(4, 4))]
    inst, truth = generate_instance(SMALL, 2, specs, Rng(3))
    path, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
    write_instance(inst, str(path), truth)
    write_param(solve(inst, 1, Rng(4)), SMALL, str(sol))
    assert SMALL_TRUTH in path.read_text()
    assert run_cli("verify", "--in", str(path), "--param", str(sol), "--truth") == 0
    return path, sol


@pytest.mark.parametrize(
    "old, new",
    [
        ("point 3 5 simple", "point 104 5 simple"),
        ("nilpotent 2 1 4", "nilpotent 2 1 205"),
        ("point 4 4 simple", "point 3 5 simple"),
        ("nilpotent 2 1 4", "nilpotent 2 0 0"),
        # the D sum still comes out right
        ("nilpotent 2 1 4\npoint 4 4 simple", "nilpotent 3 1 4\npoint 4 4 nilpotent 0 1 1"),
    ],
    ids=["coordinate-outside", "constant-outside", "repeated-point", "zero-constants", "empty-block"],
)
def test_cli_verify_rejects_a_truth_point_the_generator_rejects(tmp_path, capsys, old, new):
    path, sol = _small_files(tmp_path)
    text = path.read_text().replace(old, new)
    path.write_text(text)
    lineno = max(i for i, ln in enumerate(text.splitlines(), start=1) if ln.endswith(new.splitlines()[-1]))
    capsys.readouterr()
    assert run_cli("verify", "--in", str(path), "--param", str(sol), "--truth") == 2
    assert capsys.readouterr().err.startswith(f"format error: line {lineno}:")


@pytest.mark.parametrize("tag", ["t:", "Q:", "V_1:"])
def test_cli_verify_rejects_a_param_value_outside_the_field(tmp_path, capsys, tag):
    path, sol = _small_files(tmp_path)
    lines = sol.read_text().splitlines()
    (i,) = [i for i, ln in enumerate(lines) if ln.startswith(tag)]
    word, first, *rest = lines[i].split()
    lines[i] = " ".join([word, str(int(first) + SMALL.p), *rest])
    sol.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", "--in", str(path), "--param", str(sol)) == 2
    assert capsys.readouterr().err.startswith(f"format error: line {i + 1}: value {int(first) + SMALL.p} outside")


def test_a_truth_written_from_unreduced_specs_reads_back(tmp_path):
    specs = [PointSpec(coords=(3, 5)), PointSpec(coords=(-2, 107), nu=2, c=(-1, 205))]
    inst, truth = generate_instance(SMALL, 2, specs, Rng(5))
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path, truth)
    assert "point 99 6 nilpotent 2 100 3\n" in open(path).read()
    _, back = read_instance(path)
    assert back.points == truth.points == [(3, 5), (99, 6)]
    assert back.structure[1] == PointSpec(coords=(99, 6), nu=2, c=(100, 3))
