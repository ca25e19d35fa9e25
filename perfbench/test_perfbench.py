"""Tests of the benchmark itself: toy-size runs of every workload, the
BENCHMARK.json contract, and the span tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer, merge, per_layer_names, route_share, span_metrics
from workloads import ROOT, WORKLOADS, import_bfglm

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload, trace, cwd=ROOT, seed=0):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == per_layer_names()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    info = json.loads(lines[-2])
    assert info["findings"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["param.solve.calls"] == 1 and metrics["splitting.solve_split.calls"] == 1
        # correction, residual solve and union run only when D_B > 0
        assert (metrics["splitting.correction_matrices.calls"] > 0) == (workload == "mixed")
        # both workloads stay below the int64 accumulation cliff
        assert metrics["sparse.vec_mat.exact_frac"] == 0.0
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_install_and_uninstall():
    bfglm = import_bfglm()
    from bfglm import param, unipoly

    orig_solve, orig_quo_rem = param.solve, unipoly.Poly.__dict__["quo_rem"]
    tracer = Tracer()
    tracer.install()
    try:
        # a span is replaced in every module binding the function
        assert bfglm.cli.solve is param.solve is not orig_solve
        assert unipoly.Poly.__dict__["quo_rem"] is not orig_quo_rem
    finally:
        tracer.uninstall()
    assert param.solve is orig_solve and bfglm.cli.solve is orig_solve
    assert unipoly.Poly.__dict__["quo_rem"] is orig_quo_rem


def test_span_table_derivations():
    A, B, C = "param.solve", "unipoly.Poly.quo_rem", "toolkit.verify_solution"
    paths = {(A,): [1.0, 1], (A, B): [2.0, 2], (A, B, B): [0.5, 1], (C,): [4.0, 1]}
    m = span_metrics(paths)
    assert (m[f"{A}.s"], m[f"{A}.self_s"], m[f"{A}.calls"]) == (3.5, 1.0, 1)
    # a recursive call is counted once in the inclusive time
    assert (m[f"{B}.s"], m[f"{B}.self_s"], m[f"{B}.calls"]) == (2.5, 2.5, 3)
    assert route_share(paths, A, (B,)) == pytest.approx(2.5 / 3.5)
    dump = {"paths": [[list(p), s, c] for p, (s, c) in paths.items()], "counts": {"x": 1}}
    merged, counts = merge([dump, dump])
    assert merged[(A, B)] == [4.0, 4] and counts == {"x": 2}


def test_live_spans_nest():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(10000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    s_outer, c_outer = tracer.paths[("outer",)]
    s_inner, c_inner = tracer.paths[("outer", "inner")]
    assert (c_outer, c_inner) == (2, 6)
    assert s_outer > 0 and s_inner > 0
