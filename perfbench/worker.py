"""Solve process of the benchmark.

Reads one instance file and solves it through the public API
(param.solve, splitting.solve_split), as `bfglm solve` and
`bfglm solve-split` would.  It is a process of its own so that its peak RSS
counts the solve alone, not the instance generation.  The peak is `VmHWM`
of /proc/self/status, the high-water mark of this process's own address
space.  `getrusage` would not do: when the process is started with vfork,
exec carries the parent's peak RSS over into the child's `ru_maxrss`.

    python3 perfbench/worker.py --instance I --warmup W --m M --out-dir DIR

After a warm-up solve of the tiny instance W it reads one command per line
on stdin and answers each with one JSON line on stdout:

    plain | split   one timed solve: {"route", "time", "digest", "attempts",
                    "D_A", "D_B"} or {"route", "error", "detail"}
    trace           wrap the layers (spans.py) for the solves that follow
    exit            write DIR/worker.json (peak RSS in MB, span table), answer, quit

The first output of each route is written to DIR/<route>.param.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from time import perf_counter

from workloads import SOLVE_SEED, import_bfglm

import_bfglm()
from bfglm import param, splitting, toolkit  # noqa: E402
from bfglm.field import Rng  # noqa: E402

import spans  # noqa: E402


def peak_rss_mb() -> float:
    """High-water RSS of this process's address space, in MB (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # reported in kB
    raise SystemExit("VmHWM missing from /proc/self/status")


def solve_once(route, inst, m, out_dir):
    """One timed solve; its output is written out and digested untimed."""
    # looked up per call, so that a traced wrapper is used once installed
    fn = param.solve if route == "plain" else splitting.solve_split
    stats = param.SolveStats()
    t0 = perf_counter()
    try:
        out = fn(inst, m, Rng(SOLVE_SEED), workers=1, stats=stats)
    except Exception as exc:  # a failed solve is counted by the caller, not fatal
        return {"route": route, "error": type(exc).__name__, "detail": traceback.format_exc(limit=4)}
    dt = perf_counter() - t0
    path = os.path.join(out_dir, f"{route}.param")
    tmp = path + ".tmp"
    toolkit.write_param(out, inst.field, tmp)
    with open(tmp, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if os.path.exists(path):
        os.remove(tmp)
    else:
        os.replace(tmp, path)
    return {
        "route": route,
        "time": dt,
        "digest": digest,
        # one attempt per failed draw plus the successful one
        "attempts": 1 + stats.retries + stats.extras.get("t_retries", 0),
        "D_A": stats.extras.get("D_A"),
        "D_B": stats.extras.get("D_B"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instance", required=True)
    ap.add_argument("--warmup", required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    inst, _ = toolkit.read_instance(args.instance)
    warm, _ = toolkit.read_instance(args.warmup)
    # imports and first-call costs are paid here, outside every timing
    param.solve(warm, args.m, Rng(SOLVE_SEED))
    splitting.solve_split(warm, args.m, Rng(SOLVE_SEED))

    tracer = None
    for line in sys.stdin:
        cmd = line.strip()
        if cmd in ("plain", "split"):
            reply = solve_once(cmd, inst, args.m, args.out_dir)
        elif cmd == "trace":
            tracer = spans.Tracer()
            tracer.install()
            reply = {"trace": True}
        elif cmd == "exit":
            if tracer is not None:
                tracer.uninstall()
            result = {
                "peak_mb": peak_rss_mb(),
                "trace": tracer.dump() if tracer is not None else None,
            }
            with open(os.path.join(args.out_dir, "worker.json"), "w") as fh:
                json.dump(result, fh)
            print(json.dumps({"exit": True}), flush=True)
            return 0
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        print(json.dumps(reply), flush=True)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
