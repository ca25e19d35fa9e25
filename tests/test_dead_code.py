"""Code with no callers is deleted: every function, class and non-dunder
method of src/bfglm must be referenced somewhere in src/bfglm outside its
own definition, and every such method that is not a property must be called
there, as `.name(` or `name(`, or be named below with the reason it stays.
A method that shares its name with an attribute is referenced by that
attribute, so only the call check sees that nothing calls it.  A reason
that cites the benchmark's span tracer is checked against the tracer's
LAYERS, and one that cites the benchmark runner against the names the
runner reads.  Every dataclass field of src/bfglm is read as an attribute
somewhere in src/, tests/ or perfbench/."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bfglm"
SPANS = ROOT / "perfbench" / "spans.py"
RUN = ROOT / "perfbench" / "run.py"

ALLOWED = {
    "vec_mat": "wrapped by perfbench/spans.py",
    "rational_reconstruct": "wrapped by perfbench/spans.py",
    "scalar_numerator_corrected": "wrapped by perfbench/spans.py",
    "density": "read by perfbench/run.py",
    "to_dense": "the dense oracle that the tests compare sparse products against",
    "from_dense": "builds the tests' small matrices and the dense generator oracle's output",
}


def _names(node) -> Counter:
    """Every name that node loads or reads as an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def _unreferenced():
    trees = _trees()
    used = sum((_names(tree) for tree in trees), Counter())
    defined = set()
    out = set()
    for tree in trees:
        for node in _definitions(tree):
            defined.add(node.name)
            if used[node.name] - _names(node)[node.name] <= 0:
                out.add(node.name)
    return out, defined


def _calls(node) -> Counter:
    """Every name that node calls, as name(...) or as obj.name(...)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                out[sub.func.id] += 1
            elif isinstance(sub.func, ast.Attribute):
                out[sub.func.attr] += 1
    return out


def _uncalled_methods():
    trees = _trees()
    called = sum((_calls(tree) for tree in trees), Counter())
    out = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not any(getattr(dec, "id", None) == "property" for dec in node.decorator_list)
                    and called[node.name] - _calls(node)[node.name] <= 0
                ):
                    out.add(node.name)
    return out


def test_every_definition_has_a_caller():
    unreferenced, _ = _unreferenced()
    assert sorted(unreferenced - set(ALLOWED)) == []


def test_every_method_is_called():
    assert sorted(_uncalled_methods() - set(ALLOWED)) == []


def test_allow_list_is_current():
    # an allowed name that gained a caller or lost its definition goes
    unreferenced, defined = _unreferenced()
    assert sorted(set(ALLOWED) - ((unreferenced | _uncalled_methods()) & defined)) == []


def _layers() -> dict:
    """The LAYERS dict of perfbench/spans.py, read with ast, not imported."""
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no LAYERS")


def test_span_reasons_name_traced_functions():
    traced = {fn.split(".")[-1] for fns in _layers().values() for fn in fns}
    cited = {name for name, why in ALLOWED.items() if "perfbench/spans.py" in why}
    assert cited and sorted(cited - traced) == []


def test_runner_reasons_name_what_the_runner_reads():
    read = _names(ast.parse(RUN.read_text(), str(RUN)))
    cited = {name for name, why in ALLOWED.items() if "perfbench/run.py" in why}
    assert cited and sorted(name for name in cited if not read[name]) == []


def test_traced_names_resolve():
    # a renamed traced function would otherwise surface only as a failed
    # benchmark run
    missing = []
    for mod_name, fns in _layers().items():
        mod = importlib.import_module(f"bfglm.{mod_name}")
        for fn in fns:
            obj = mod
            for part in fn.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{fn}")
    assert missing == []


def _functions():
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def test_the_retry_driver_is_the_one_output_check():
    # an attempt that checked its own output would repeat the driver's
    # gcd(Q, Q'); the X_1 solve's check sees what no later check can
    callers = sorted(node.name for node in _functions() if _calls(node)["check_invariants"])
    assert callers == ["block_parametrization_x1", "retry_solve", "verify_solution"]
    routes = [node for node in _functions() if node.name in ("solve", "solve_split")]
    assert len(routes) == 2
    for node in routes:
        assert _calls(node)["retry_solve"] == 1
        nested = [sub for sub in ast.walk(node) if sub is not node and isinstance(sub, (ast.FunctionDef, ast.Lambda))]
        assert nested == []


def test_remainders_is_the_one_euclid_loop(monkeypatch):
    # a second remainder loop, or a short-quotient branch in quo_rem, would
    # give the half-GCD more than one place to replace
    tree = ast.parse((SRC / "unipoly.py").read_text())
    (poly,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Poly"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update({f"Poly.{node.name}": node for node in poly.body if isinstance(node, ast.FunctionDef)})
    loops = (ast.For, ast.While, ast.comprehension)
    for name in ("Poly.gcd", "Poly.xgcd", "rational_reconstruct", "Poly.quo_rem"):
        assert not any(isinstance(sub, loops) for sub in ast.walk(defs[name])), name
    assert [name for name in defs if _calls(defs[name])["_remainders"]] == [
        "rational_reconstruct", "Poly.gcd", "Poly.xgcd"
    ]
    # and no solve divides by a short quotient: those steps stay in the loop
    from bfglm import unipoly
    from bfglm.field import Field, Rng
    from bfglm.param import solve
    from bfglm.toolkit import PointSpec, generate_instance

    f = Field(67108859)
    specs = [PointSpec(coords=(i + 1, (i * i + 5) % f.p, 7 * i % f.p)) for i in range(300)]
    inst, _ = generate_instance(f, 3, specs, Rng(1))
    quo_rem, short = unipoly.Poly.quo_rem, []

    def spy(self, other):
        if 1 <= len(self.c) - other.degree <= 8:
            short.append((self.degree, other.degree))
        return quo_rem(self, other)

    monkeypatch.setattr(unipoly.Poly, "quo_rem", spy)
    assert solve(inst, 2, Rng(2)).Q.degree == 300
    assert short == []


# a dtype read or an object array outside field.py would bring back a second
# residue representation; Field.exact and Field.axpy own every overflow case
SECOND_TIER = re.compile(r"\.dtype\b|dtype\s*=\s*object|astype\(\s*object\s*\)")


def test_only_the_field_knows_object_arrays():
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "field.py"
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if SECOND_TIER.search(line)
    ]
    assert hits == []


def _dataclass_fields():
    """(class, field) for every annotated field of a dataclass of src/bfglm."""
    for tree in _trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                getattr(dec, "id", getattr(getattr(dec, "func", None), "id", None)) == "dataclass"
                for dec in cls.decorator_list
            ):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield cls.name, node.target.id


def test_every_dataclass_field_is_read():
    # a field that is written and never read is dead state
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
    fields = list(_dataclass_fields())
    assert fields
    assert sorted(f"{c}.{f}" for c, f in fields if f not in read) == []
