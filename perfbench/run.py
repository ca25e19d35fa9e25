"""The bfglm benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload radical|mixed --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run it from anywhere inside a checkout; bfglm is imported from the
checkout's src/.  Everything goes through the public API:

* set-up: draw the point list from --seed (untimed), then the timed
  `toolkit.generate_instance`, `write_instance`, `read_instance`;
* a separate solve process (worker.py) reads only the instance file and runs
  `param.solve` or `splitting.solve_split` on request, and reports its peak
  RSS at the end;
* `toolkit.verify_solution` of the plain output, without the ground truth,
  as `bfglm verify` does.

With --trace 0 the run measures rounds of (set-up, plain solve, verify)
until S seconds have passed and there are at least three rounds, with one
split solve after the first round.  Spreading the samples of every metric
over the whole run keeps the medians steady on a machine whose speed drifts
over seconds.  With --trace 1 it
runs an untraced plain solve, then one traced set-up, plain solve, split
solve and verify, and reports the per-layer metrics instead.

Both modes then run the correctness gate, untimed: ground truth, plain ==
split, repeated solves identical, verify status, pinned digests.  The last
line of stdout is the result JSON; the line before it describes the
workload, the versions, every sample and, when traced, where the time went.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from workloads import ROOT, SOLVE_SEED, WORKLOADS, import_bfglm, point_specs

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MIN_ROUNDS = 3
# stop measuring after SOFT_DEADLINE seconds even below MIN_ROUNDS, and kill
# the solve process after HARD_LIMIT: a run must end within 180 s even when
# a solve is pathologically slow
SOFT_DEADLINE = 100
HARD_LIMIT = 165
CERTIFIED = "certified complete and radical"
KRYLOV_LAYERS = ("sparse.krylov_left_sequence", "sparse.project_right", "sparse.project_vector")
SPLIT_ONLY_LAYERS = (
    "splitting.correction_matrices", "splitting.decompose",
    "splitting.block_parametrization_residual", "splitting.union_params",
)
E2E_UNITS = {"plain_s": "s", "split_s": "s", "verify_s": "s", "setup_s": "s", "solve_peak_mb": "MB"}


def setup_once(w, D, seed, path):
    """Point list, then instance generation and the instance file round trip;
    returns (instance, truth, seconds of the program's part)."""
    from bfglm import toolkit

    field, specs, rng = point_specs(w, D, seed)
    t0 = perf_counter()
    inst, truth = toolkit.generate_instance(field, w.n, specs, rng)
    toolkit.write_instance(inst, path)
    inst, _ = toolkit.read_instance(path)
    return inst, truth, perf_counter() - t0


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Worker:
    """The solve process, driven one command per line."""

    def __init__(self, inst_path, warm_path, m, work: Path):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--instance", str(inst_path), "--warmup", str(warm_path),
            "--m", str(m), "--out-dir", str(work),
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"solve process ended with {self.proc.wait()} during {cmd!r}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Run:
    """One benchmark run: samples, solve replies and the objects to check."""

    def __init__(self, args, w, work: Path, tracer):
        self.args, self.w, self.work, self.tracer = args, w, work, tracer
        self.D = w.smoke_D if args.size == "smoke" else w.D
        self.inst_path = work / "instance.txt"
        self.samples = {"plain_s": [], "split_s": [], "verify_s": [], "setup_s": []}
        self.replies = []
        self.file_digests = []
        self.reports = []
        self.inst = self.truth = self.plain = None

    def _traced(self, fn):
        if self.tracer is None:
            return fn()
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def setup(self):
        inst, truth, dt = self._traced(lambda: setup_once(self.w, self.D, self.args.seed, self.inst_path))
        self.samples["setup_s"].append(dt)
        self.file_digests.append(file_digest(self.inst_path))
        if self.inst is None:
            self.inst, self.truth = inst, truth

    def solve(self, worker: Worker, route: str):
        reply = worker.ask(route)
        self.replies.append(reply)
        if "time" in reply:
            self.samples[f"{route}_s"].append(reply["time"])

    def verify(self):
        from bfglm import toolkit

        if self.plain is None:
            path = self.work / "plain.param"
            if not path.exists():
                return
            self.plain = toolkit.read_param(str(path))[0]
        t0 = perf_counter()
        report = self._traced(lambda: toolkit.verify_solution(self.inst, self.plain))
        self.samples["verify_s"].append(perf_counter() - t0)
        self.reports.append(report)

    def measure(self, worker: Worker, start: float):
        """Rounds of (set-up, plain, verify) for --seconds, one split after
        the first round."""
        t_meas = perf_counter()
        rounds = 0
        while True:
            if rounds:
                self.setup()
            self.solve(worker, "plain")
            self.verify()
            rounds += 1
            if rounds == 1:
                self.solve(worker, "split")
            elapsed = perf_counter() - t_meas
            if elapsed >= self.args.seconds and rounds >= MIN_ROUNDS:
                return
            if perf_counter() - start > SOFT_DEADLINE:
                return


def warm_up(w, work: Path):
    """Tiny instance of the workload's field, solved and verified once."""
    from bfglm import param, toolkit
    from bfglm.field import Rng

    path = work / "warm.inst"
    inst, _, _ = setup_once(w, 8, 0, path)
    toolkit.verify_solution(inst, param.solve(inst, 1, Rng(SOLVE_SEED)))
    return path


def first(run: Run, route: str, key: str):
    """`key` of the first successful solve of `route`, or None."""
    return next((r[key] for r in run.replies if r.get("route") == route and key in r), None)


def describe(w, run: Run, worker_result):
    from bfglm.sparse import combine_matrices

    inst, plain = run.inst, run.plain
    f = inst.field
    M1 = inst.mats[0]
    M = combine_matrices(plain.t, inst.mats) if plain is not None else None
    return {
        "p": f.p,
        "acc_limit": f._acc_limit,
        "vec_mat_path": "int64" if inst.D <= f._acc_limit else "per-entry",
        "n": inst.n,
        "D": inst.D,
        "m": w.m,
        "nnz_M1": M1.nnz,
        "density_M1": M1.density,
        "nnz_M": M.nnz if M is not None else None,
        "density_M": M.density if M is not None else None,
        "D_A": first(run, "split", "D_A"),
        "D_B": first(run, "split", "D_B"),
        "deg_Q": plain.Q.degree if plain is not None else None,
        "solve_peak_mb": worker_result["peak_mb"],
    }


def stamp():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def gate(w, args, run: Run):
    """Untimed correctness checks; returns (failed operations, findings)."""
    from bfglm import param, toolkit

    findings = []
    failed = 0
    pinned = json.loads(DIGESTS.read_text()).get(f"{w.name}/{args.size}/{args.seed}")
    refs, outs, truth_checks = {}, {}, {}
    for route in ("plain", "split"):
        replies = [r for r in run.replies if r.get("route") == route]
        errors = [r for r in replies if "error" in r]
        failed += len(errors)
        findings += [f"{route} raised {r['error']}: {r['detail']}" for r in errors]
        digests = [r["digest"] for r in replies if "digest" in r]
        if not digests:
            continue
        ref = refs[route] = digests[0]
        out = outs[route] = toolkit.read_param(str(run.work / f"{route}.param"))[0]
        wrong = sum(d != ref for d in digests)
        if wrong:
            findings.append(f"{route}: {wrong} of {len(digests)} repeated solves differ")
        ok = True
        if ref not in truth_checks:  # byte-identical outputs are checked once
            truth_checks[ref] = param.verify_against_points(out, run.truth.points, run.inst.field)
        pts = truth_checks[ref]
        if not pts["pass"]:
            ok = False
            findings.append(f"{route}: ground-truth mismatch {pts['warnings']}")
        if w.reduced and out.Q.degree != run.inst.D:
            ok = False
            findings.append(f"{route}: deg Q = {out.Q.degree} != D = {run.inst.D}")
        if pinned is not None and pinned[route] != ref:
            ok = False
            findings.append(f"{route}: digest {ref} differs from the pinned {pinned[route]}")
        failed += wrong if ok else len(digests)
    if len(outs) == 2:
        if outs["plain"].t != outs["split"].t:
            # a retry drew a fresh separating form on one route only; both
            # outputs passed the ground truth above, so they hold the same points
            findings.append("note: the routes ended with different separating forms")
        elif refs["plain"] != refs["split"]:
            findings.append("plain != split with the same separating form")
            failed += sum(1 for r in run.replies if r.get("route") == "split" and "digest" in r)
    for rep in run.reports:
        if not rep["pass"] or (w.reduced and rep["status"] != CERTIFIED):
            failed += 1
            findings.append(f"verify_solution: status {rep['status']!r}")
    if len(set(run.file_digests)) != 1:
        failed += len(run.file_digests)
        findings.append("set-up is not deterministic: instance files differ")
    return failed, findings


def trace_report(paths, counts, run: Run, untraced_plain):
    """Per-layer metrics and the route breakdown of a traced run."""
    import spans

    metrics = spans.span_metrics(paths)

    def per_call(root, name):
        calls = sum(c for p, (_, c) in paths.items() if p[0] == root and p[-1] == name)
        n = metrics[f"{root}.calls"]
        return calls / n if n else 0.0

    traced_plain = run.samples["plain_s"][-1] if len(run.samples["plain_s"]) > 1 else None
    overhead = traced_plain / untraced_plain - 1 if traced_plain and untraced_plain else 0.0
    vm_calls = counts["vec_mat_calls"]
    metrics.update({
        "sparse.krylov.madds": counts["krylov_madds"],
        "sparse.vec_mat.exact_frac": counts["vec_mat_exact"] / vm_calls if vm_calls else 0.0,
        "param.attempts": per_call("param.solve", "param.block_parametrization"),
        "splitting.attempts": per_call("splitting.solve_split", "splitting.block_parametrization_x1"),
        "splitting.D_A": first(run, "split", "D_A") or 0,
        "splitting.D_B": first(run, "split", "D_B") or 0,
        "trace.overhead_frac": overhead,
    })

    def shares(root, key):
        """Largest shares of a route's time, grouped by key(path)."""
        total = spans.route_total(paths, root)
        out = {}
        for p, (s, _) in paths.items():
            if p[0] == root and key(p) is not None:
                out[key(p)] = out.get(key(p), 0.0) + s / total
        ranked = sorted(out.items(), key=lambda kv: -kv[1])[:8]
        return {k: round(v, 4) for k, v in ranked}

    why = {"untraced_plain_s": untraced_plain}
    for route, root in (("plain", "param.solve"), ("split", "splitting.solve_split")):
        total = spans.route_total(paths, root)
        why[f"{route}_self_sum_s"] = total
        why[f"{route}_self_sum_over_1_plus_overhead_s"] = total / (1 + overhead)
        # inclusive shares of the spans right under the root, and self shares
        why[f"{route}_children"] = shares(root, lambda p: p[1] if len(p) > 1 else None)
        why[f"{route}_top_self"] = shares(root, lambda p: p[-1])
    why.update({
        "plain_krylov_projection_share": spans.route_share(paths, "param.solve", KRYLOV_LAYERS),
        "split_change_separating_element_share": spans.route_share(
            paths, "splitting.solve_split", ("splitting.change_separating_element",)
        ),
        "split_only_layer_calls": sum(metrics[f"{n}.calls"] for n in SPLIT_ONLY_LAYERS),
    })
    return metrics, why


def run_workload(args, w, work: Path) -> int:
    import spans

    start = perf_counter()
    warm_path = warm_up(w, work)
    tracer = spans.Tracer() if args.trace else None
    run = Run(args, w, work, tracer)
    run.setup()
    worker = Worker(run.inst_path, warm_path, w.m, work)
    watchdog = threading.Timer(max(1.0, HARD_LIMIT - (perf_counter() - start)), worker.proc.kill)
    watchdog.start()
    try:
        if args.trace:
            run.solve(worker, "plain")
            untraced_plain = first(run, "plain", "time")
            worker.ask("trace")
            run.solve(worker, "plain")
            run.solve(worker, "split")
            run.verify()
        else:
            run.measure(worker, start)
        worker.ask("exit")
        worker.proc.wait()
    finally:
        watchdog.cancel()
        worker.close()
    worker_result = json.loads((work / "worker.json").read_text())

    failed, findings = gate(w, args, run)
    attempted = len(run.replies) + len(run.reports) + len(run.file_digests)
    info = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "size": args.size,
        "describe": describe(w, run, worker_result),
        "stamp": stamp(),
        "digests": {route: first(run, route, "digest") for route in ("plain", "split")},
        "attempts": {
            route: [r["attempts"] for r in run.replies if r.get("route") == route and "attempts" in r]
            for route in ("plain", "split")
        },
        "failed_frac": failed / attempted,
        "findings": findings,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "times": run.samples,
    }
    if args.trace:
        paths, counts = spans.merge([tracer.dump(), worker_result["trace"]])
        metrics, info["trace"] = trace_report(paths, counts, run, untraced_plain)
        info["stamp"]["trace.overhead_frac"] = metrics["trace.overhead_frac"]
        units = {name: unit for name, unit, _ in spans.per_layer_names()}
    else:
        nan = float("nan")
        metrics = {k: statistics.median(v) if v else nan for k, v in run.samples.items()}
        metrics["solve_peak_mb"] = worker_result["peak_mb"]
        units = E2E_UNITS
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: toy dimensions that run in seconds, for the tests")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    import_bfglm()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run_workload(args, w, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
