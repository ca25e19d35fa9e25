"""Outside-in span tracing of bfglm's layers.

The tracer wraps public functions of each layer from outside the package:
a function is replaced in every bfglm module that binds it (so a
`from .x import y` in another module sees the wrapper too), and a method is
replaced on its class.  Nothing under src/ changes.

Spans nest through a stack.  The tracer keeps, for each stack path (the
tuple of span names from the root down), the self time spent there and the
number of calls.  Every per-layer figure derives from that table:

* self time of f: sum over paths ending in f;
* inclusive time of f: sum over paths containing f, which counts a
  recursive call once;
* calls of f: sum of calls over paths ending in f.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# module -> public functions (Class.method for methods) wrapped as spans
LAYERS = {
    "toolkit": [
        "generate_instance", "write_instance", "read_instance",
        "verify_solution", "minimal_polynomial_of_combination",
    ],
    "sparse": [
        "combine_matrices", "krylov_left_sequence", "vec_mat",
        "project_right", "project_vector",
    ],
    "param": ["solve", "block_parametrization", "mat_vec"],
    "polymat": [
        "minimal_matrix_generator", "approximant_basis",
        "largest_invariant_factor", "left_quotient_row",
    ],
    "numerators": ["scalar_numerator", "scalar_numerator_corrected", "matrix_numerator"],
    "unipoly": [
        "Poly.quo_rem", "Poly.modinv", "Poly.modmul", "berlekamp_massey",
        "power_projection", "transposed_modmul", "squarefree_part",
        "laurent_expand", "crt_pair", "rational_reconstruct",
    ],
    "field": ["Field.matmul", "Field.convolve"],
    "splitting": [
        "solve_split", "block_parametrization_x1", "change_separating_element",
        "correction_matrices", "decompose", "block_parametrization_residual",
        "union_params",
    ],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# counters besides the spans, with their unit and better direction
COUNTERS = {
    "sparse.krylov.madds": ("count", "lower"),
    "sparse.vec_mat.exact_frac": ("fraction", "lower"),
    "param.attempts": ("count", "lower"),
    "splitting.attempts": ("count", "lower"),
    "splitting.D_A": ("count", "higher"),
    "splitting.D_B": ("count", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in SPAN_NAMES:
        out += [
            (f"{name}.s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.calls", "count", "lower"),
        ]
    out += [(k, unit, better) for k, (unit, better) in COUNTERS.items()]
    return out


class Tracer:
    """Records (path -> [self seconds, calls]) and a few counters."""

    def __init__(self):
        self.paths = {}
        self.counts = {"krylov_madds": 0, "vec_mat_calls": 0, "vec_mat_exact": 0}
        self._path = ()
        self._child = [0.0]  # child time of each open span, root sentinel first
        self._restore = []

    def span(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            outer = tracer._path
            path = outer + (name,)
            tracer._path = path
            tracer._child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tracer._child.pop()
                tracer._child[-1] += dt
                tracer._path = outer
                rec = tracer.paths.get(path)
                if rec is None:
                    tracer.paths[path] = [dt - child, 1]
                else:
                    rec[0] += dt - child
                    rec[1] += 1

        return wrapper

    def install(self):
        """Wrap every function of LAYERS; undo with uninstall()."""
        hooks = {"sparse.krylov_left_sequence": _krylov_hook, "sparse.vec_mat": _vec_mat_hook}
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("bfglm.")]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"bfglm.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                hook = hooks.get(name)
                if hook is not None:
                    hook = hook(getattr(mod, fn_name))
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.span(name, orig, hook))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(mod, fn_name)
                wrapped = self.span(name, orig, hook)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def dump(self):
        """JSON-ready form: [[path list, self_s, calls], ...] and the counts."""
        return {
            "paths": [[list(p), s, c] for p, (s, c) in self.paths.items()],
            "counts": dict(self.counts),
        }


def _krylov_hook(fn):
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs):
        b = sig.bind(*args, **kwargs)
        M, U, count = b.arguments["M"], b.arguments["U"], b.arguments["count"]
        tracer.counts["krylov_madds"] += M.nnz * U.shape[1] * (count - 1)

    return hook


def _vec_mat_hook(fn):
    import numpy as np

    def hook(tracer, args, kwargs):
        M = args[1] if len(args) > 1 else kwargs["M"]
        f = M.field
        tracer.counts["vec_mat_calls"] += 1
        # the condition vec_mat tests before taking its int64 fast path
        if not (f.dtype is np.int64 and M.dim <= f._acc_limit):
            tracer.counts["vec_mat_exact"] += 1

    return hook


def merge(dumps):
    """Sum several dumps (e.g. of the set-up process and the solve process)."""
    paths, counts = {}, {}
    for d in dumps:
        for p, s, c in d["paths"]:
            rec = paths.setdefault(tuple(p), [0.0, 0])
            rec[0] += s
            rec[1] += c
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return paths, counts


def span_metrics(paths):
    """<name>.s / .self_s / .calls for every wrapped function."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = sum(s for p, (s, _) in paths.items() if name in p)
        out[f"{name}.self_s"] = sum(s for p, (s, _) in paths.items() if p[-1] == name)
        out[f"{name}.calls"] = sum(c for p, (_, c) in paths.items() if p[-1] == name)
    return out


def route_share(paths, root, group):
    """Share of the time under span `root` spent inside any span of `group`."""
    under = {p: s for p, (s, _) in paths.items() if p[0] == root}
    total = sum(under.values())
    inside = sum(s for p, s in under.items() if any(g in p for g in group))
    return inside / total if total else 0.0


def route_total(paths, root):
    """Self times summed along one route: the traced duration of its root spans."""
    return sum(s for p, (s, _) in paths.items() if p[0] == root)
