"""Command-line interface: solve, solve-split, gen, verify."""

from __future__ import annotations

import argparse
import sys

from .errors import BfglmError, FormatError, InvariantViolation, UnluckyRandomness
from .field import Field, Rng
from .param import Instance, SolveStats, ZeroDimParam, solve
from .splitting import solve_split
from .toolkit import (
    generate_instance,
    parse_points_file,
    read_instance,
    read_param,
    verify_solution,
    write_instance,
    write_param,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNLUCKY = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


def _print_stats(stats: SolveStats) -> None:
    frac = stats.krylov_seconds / stats.total_seconds if stats.total_seconds else 0.0
    print(f"retries: {stats.retries}")
    print(f"time: {stats.total_seconds:.3f}s (krylov fraction {frac:.2f})")
    for k, v in stats.extras.items():
        print(f"{k}: {v}")


def cmd_solve(args, split: bool) -> int:
    inst, _ = read_instance(args.infile)
    k = args.x1_index if split else 0
    if not 0 <= k < inst.n:
        print("x1-index out of range", file=sys.stderr)
        return EXIT_USAGE
    # X_k plays X_1: solve the instance with its variables in this order,
    # then index V and t back
    order = [k] + [i for i in range(inst.n) if i != k]
    work = Instance(field=inst.field, n=inst.n, D=inst.D, mats=[inst.mats[i] for i in order])
    stats = SolveStats()
    try:
        param = (solve_split if split else solve)(
            work, args.m, Rng(args.seed), retries=args.retries, stats=stats
        )
    except UnluckyRandomness as exc:
        print(f"no generic draw found: {exc}", file=sys.stderr)
        return EXIT_UNLUCKY
    except InvariantViolation as exc:
        print(f"internal error: the solver's output breaks an invariant: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    back = [order.index(i) for i in range(inst.n)]
    param = ZeroDimParam(Q=param.Q, V=[param.V[j] for j in back], t=[param.t[j] for j in back])
    if args.out:
        write_param(param, inst.field, args.out)
        print(f"wrote {args.out} (deg Q = {param.Q.degree})")
    else:
        write_param(param, inst.field, "/dev/stdout")
    _print_stats(stats)
    return EXIT_OK


def cmd_gen(args) -> int:
    field = Field(args.p)
    specs = parse_points_file(args.points, args.n, field)
    rng = Rng(args.seed)
    inst, truth = generate_instance(field, args.n, specs, rng, mix=args.mix)
    write_instance(inst, args.out, truth if args.truth else None)
    print(f"wrote {args.out}: p={field.p} n={inst.n} D={inst.D} "
          f"nnz={[M.nnz for M in inst.mats]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, truth = read_instance(args.infile)
    if args.truth and truth is None:
        print(f"--truth needs a 'truth k' section, and {args.infile} has none", file=sys.stderr)
        return EXIT_USAGE
    param, pfield = read_param(args.param)
    if pfield.p != inst.field.p:
        print("modulus mismatch between instance and parametrization", file=sys.stderr)
        return EXIT_VERIFY
    if param.n != inst.n:
        print(f"variable count mismatch: the instance has {inst.n}, the parametrization "
              f"{param.n}", file=sys.stderr)
        return EXIT_VERIFY
    report = verify_solution(inst, param, truth if args.truth else None)
    for c in report["checks"]:
        mark = "ok" if c["ok"] else "FAIL"
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"[{mark}] {c['name']}{detail}")
    print(f"status: {report['status']}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bfglm")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(s):
        s.add_argument("--in", dest="infile", required=True)
        s.add_argument("--out", default=None)
        s.add_argument("--m", type=int, default=1)
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--retries", type=int, default=3)

    s = sub.add_parser("solve", help="block parametrization")
    common(s)
    s = sub.add_parser("solve-split", help="splitting variant")
    common(s)
    s.add_argument("--x1-index", type=int, default=0,
                   help="variable treated as the sparse splitting axis")

    s = sub.add_parser("gen", help="generate an instance from a point list")
    s.add_argument("--points", required=True)
    s.add_argument("--p", type=int, default=65537)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mix", type=int, default=2,
                   help="extra mixing entries per row in the basis change")
    s.add_argument("--truth", action="store_true",
                   help="embed the ground truth in the instance file")

    s = sub.add_parser("verify", help="check a parametrization against an instance")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--param", required=True)
    s.add_argument("--truth", action="store_true",
                   help="also compare against the embedded ground truth")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.cmd == "solve":
            return cmd_solve(args, split=False)
        if args.cmd == "solve-split":
            return cmd_solve(args, split=True)
        if args.cmd == "gen":
            return cmd_gen(args)
        if args.cmd == "verify":
            return cmd_verify(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BfglmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
