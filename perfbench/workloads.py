"""Workload table of the benchmark and the point-list generators.

Every instance is generated from the workload seed alone, so one seed gives
one instance.  The solver never sees the seed: it reads the instance file
that the set-up step writes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seed of the solver's own randomness (t, y, U, V draws); fixed, like the
# seed the informational bench in the acceptance tests uses.
SOLVE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n: int
    D: int
    m: int
    smoke_D: int
    collide: float = 0.0  # share of points whose X_1 value is shared
    fat: float = 0.0  # share of D held in double points (nu = 2)
    why: str = ""

    @property
    def reduced(self) -> bool:
        """Only simple points: deg Q = D and verify certifies the output."""
        return self.fat == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "radical", p=67108859, n=3, D=2000, m=4, smoke_D=60,
            why="simple points just below the int64 accumulation cliff; "
            "D_A = D, so split is all change of separating element",
        ),
        Workload(
            "mixed", p=67108859, n=3, D=1500, m=2, smoke_D=60,
            collide=0.15, fat=0.10,
            why="X_1 collisions and double points give D_A, D_B > 0, the only "
            "workload running correction, residual solve and CRT union",
        ),
    )
}


def import_bfglm():
    """Import bfglm from the sources of this checkout, never from elsewhere."""
    if not (SRC / "bfglm" / "__init__.py").is_file():
        raise SystemExit(f"bfglm sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bfglm.cli  # noqa: F401  (pulls in every module of the package)
    import bfglm

    if Path(bfglm.__file__).resolve().parent != SRC / "bfglm":
        raise SystemExit(f"imported bfglm from {bfglm.__file__}, not from {SRC}")
    return bfglm


def point_specs(w: Workload, D: int, seed: int):
    """Point list of a workload at dimension D; returns (field, specs, rng).

    The returned rng is the child stream the basis change must draw from.
    """
    from bfglm.field import Field, Rng
    from bfglm.toolkit import PointSpec

    field = Field(w.p)
    rng = Rng(seed)
    n_fat = round(w.fat * D / 2)
    n_pts = D - n_fat
    n_pairs = round(w.collide * n_pts / 2)
    if n_pairs == 0 and n_fat == 0:
        # the family of `bfglm bench` and acceptance criterion 8, with
        # distinct X_1 values so that D_A = D on every seed (about 3% of
        # seeds would otherwise share one X_1 value at D = 2000)
        pts, xs = set(), set()
        while len(pts) < D:
            c = tuple(rng.element(field) for _ in range(w.n))
            if c[0] not in xs:
                xs.add(c[0])
                pts.add(c)
        return field, [PointSpec(coords=c) for c in sorted(pts)], rng.child()
    # n_pts - n_pairs distinct X_1 values, the first n_pairs of them used twice
    xs = set()
    while len(xs) < n_pts - n_pairs:
        xs.add(rng.element(field))
    xs = sorted(xs)
    firsts = xs[:n_pairs] + xs
    pts = set()
    coords = []
    for x1 in firsts:
        while True:
            c = (x1,) + tuple(rng.element(field) for _ in range(w.n - 1))
            if c not in pts:
                break
        pts.add(c)
        coords.append(c)
    order = rng.permutation(n_pts)
    fat = set(int(i) for i in order[:n_fat])
    specs = []
    for i, c in enumerate(coords):
        if i in fat:
            cs = tuple(rng.nonzero_element(field) for _ in range(w.n))
            specs.append(PointSpec(coords=c, nu=2, c=cs))
        else:
            specs.append(PointSpec(coords=c))
    return field, specs, rng.child()
