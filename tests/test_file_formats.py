"""The instance and parametrization files against their per-line forms:
the array reader against the per-line reader on mutated files, the writers
against per-line writers, and the bytes of one generated instance."""

import hashlib
import random

import numpy as np
import pytest

from bfglm.errors import FormatError
from bfglm.field import Field, Rng
from bfglm.param import Instance, ZeroDimParam, solve
from bfglm.sparse import SparseMat
from bfglm.toolkit import PointSpec, generate_instance, read_instance, write_instance, write_param
from bfglm.unipoly import Poly

from oracles import read_instance_per_line, write_instance_per_line, write_param_per_line

F = Field(65537)
SPECS = [
    PointSpec(coords=(3, 5)),
    PointSpec(coords=(9, 2), nu=2, c=(1, 4)),
    PointSpec(coords=(4, 4)),
    PointSpec(coords=(-1, 7), nu=3, c=(0, 2)),
    PointSpec(coords=(8, 8)),
]
D = 8
# tokens that int() and np.loadtxt read differently, or that neither reads
TOKENS = ["x", "#", "1_0", "+5", "5.0", "0x10", "٣", str(2**63)]


def _base_lines(tmp_path):
    inst, truth = generate_instance(F, 2, SPECS, Rng(5))
    path = tmp_path / "base.txt"
    write_instance(inst, str(path), truth)
    return path.read_text().splitlines()


def _blocks(lines):
    """(index, count) of every 'matrix' and 'truth' line with a count."""
    out = []
    for k, ln in enumerate(lines):
        words = ln.split()
        if words[:1] in (["matrix"], ["truth"]) and words[-1].lstrip("-").isdigit():
            out.append((k, int(words[-1])))
    return out


def _entry_lines(lines):
    """Indices of the nonblank lines after the header that are not block headers."""
    return [k for k, ln in enumerate(lines) if k >= 2 and ln.split()[:1] not in ([], ["matrix"], ["truth"])]


def _set_count(lines, k, count):
    words = lines[k].split()
    lines[k] = " ".join(words[:-1] + [str(count)])


def _mutate(lines, rnd):
    """One random mutation of the lines of a file, in place."""
    kind = rnd.choice(
        ["token", "token", "token", "value", "index", "arity", "blank", "truncate",
         "count", "empty", "cancel", "dup-cancel", "swap"]
    )
    entries, blocks = _entry_lines(lines), _blocks(lines)
    if not entries or len(blocks) < 2:
        kind = "blank"
    else:
        k = rnd.choice(entries)
        words = lines[k].split()
    if kind == "token":
        words[rnd.randrange(len(words))] = rnd.choice(TOKENS)
    elif kind == "value":
        words[-1] = rnd.choice(["-1", "0", str(F.p), str(F.p + 1), "1"])
    elif kind == "index":
        words[rnd.randrange(min(2, len(words)))] = rnd.choice(["-1", str(D), str(D + 7), "0"])
    elif kind == "arity":
        words = words[:2] if rnd.random() < 0.5 else words + ["1"]
    elif kind == "blank":
        lines.insert(rnd.randrange(2, len(lines) + 1), rnd.choice(["", "   ", "\t"]))
        return kind
    elif kind == "truncate":
        cut = rnd.randrange(2, len(lines))
        lines[cut:] = [lines[cut][: rnd.randrange(len(lines[cut]) + 1)]]
        return kind
    elif kind == "count":
        h, count = rnd.choice(blocks)
        _set_count(lines, h, count + rnd.choice([-2, -1, 1, 2]) if count > 2 else count + 1)
        return kind
    elif kind == "empty":
        # one matrix block emptied: a valid file with a zero matrix
        h, count = rnd.choice(blocks[:-1])
        _set_count(lines, h, 0)
        del lines[h + 1 : h + 1 + count]
        return kind
    elif kind in ("cancel", "dup-cancel"):
        # two entries at a new position whose values cancel, with the
        # count raised by two or left as it is; or an entry cancelling an
        # existing one, with the count raised by one
        h, count = rnd.choice(blocks[:-1])
        if kind == "cancel" or len(lines[h + 1].split()) != 3 or not lines[h + 1].split()[2].isdigit():
            a = rnd.randrange(1, F.p)
            new = [f"{D - 1} {D - 1} {a}", f"{D - 1} {D - 1} {F.p - a}"]
            bump = rnd.choice([0, 2])
        else:
            r, c, v = lines[h + 1].split()
            new, bump = [f"{r} {c} {F.p - int(v)}"], 1
        lines[h + 1 + count : h + 1 + count] = new
        _set_count(lines, h, count + bump)
        return kind
    elif kind == "swap":
        words[0], words[-1] = words[-1], words[0]
    lines[k] = " ".join(words)
    return kind


def _outcome(reader, path):
    try:
        inst, truth = reader(str(path))
    except FormatError as exc:
        return ("error", str(exc), exc.line)
    mats = [
        [(a.dtype.str, a.tolist()) for a in (M.csr.indptr, M.csr.indices, M.csr.data)] for M in inst.mats
    ]
    return ("ok", inst.field.p, inst.n, inst.D, mats, truth and (truth.points, truth.structure))


def test_array_reader_matches_the_per_line_reader_on_mutated_files(tmp_path):
    base = _base_lines(tmp_path)
    rnd = random.Random(27)
    path = tmp_path / "mutated.txt"
    seen = {}
    for copy in range(1200):
        lines = list(base)
        if copy % 25 == 0:
            # a negative count, which the per-line reader takes for an empty
            # block, is rejected at its own line
            h, _ = rnd.choice(_blocks(lines))
            count = -rnd.randrange(1, 4)
            _set_count(lines, h, count)
            path.write_text("\n".join(lines) + "\n")
            name, noun = ("truth", "points") if lines[h].startswith("truth") else (lines[h].rsplit(" ", 1)[0], "entries")
            message = f"line {h + 1}: {name} announces {count} {noun}, a negative count"
            assert _outcome(read_instance, path) == ("error", message, h + 1)
            continue
        kinds = [_mutate(lines, rnd) for _ in range(rnd.choice([1, 1, 2, 3]))]
        path.write_text("\n".join(lines) + "\n")
        got, want = _outcome(read_instance, path), _outcome(read_instance_per_line, path)
        assert got == want, (copy, kinds, lines)
        tag = got[0] if got[0] == "ok" else got[1].split(": ", 1)[1].split(" ")[0]
        if tag == "ok" and any(tok in lines[k] for tok in ("1_0", "٣") for k in _entry_lines(lines)):
            tag = "ok, read line by line"
        seen[tag] = seen.get(tag, 0) + 1
    # the mutations reach valid files, also ones that only int() reads, and
    # every kind of entry-line error
    assert seen["ok"] >= 50 and seen.get("ok, read line by line", 0) >= 5, seen
    for tag in ("expected", "entry", "value", "explicit", "matrix", "truth"):
        assert seen.get(tag, 0) >= 10, (tag, seen)


@pytest.mark.parametrize(
    "block",
    [
        "matrix 1 1\n0 1\n",  # every line of the block two words
        "matrix 1 1\n0 1 5 7\n",  # or four
        "matrix 1 2\n0 1 5 7\n1 0 2 2\n",
        "matrix 1 1\n0 1 5 # a comment to np.loadtxt\n",
        "matrix 1 1\n0 1 1\u01fe2\n",  # np.loadtxt reads 1\u01fe2 as 4722
        "matrix 1 1\n0 1 \u0663\n",  # int() reads it as 3
        "matrix 1 2\n0 1 1_0\n\n1 1 +5\n",
        "matrix 1 0\n",
    ],
)
@pytest.mark.filterwarnings("error")
def test_array_reader_matches_the_per_line_reader_on_one_block(tmp_path, block):
    path = tmp_path / "block.txt"
    path.write_text("BFGLM 1\n65537 1 2\n" + block)
    assert _outcome(read_instance, path) == _outcome(read_instance_per_line, path)


def _instances():
    for p in (101, 65537, 2**31 - 1, 2**61 - 1):
        f = Field(p)
        inst, truth = generate_instance(f, 2, SPECS, Rng(p % 97))
        yield inst, truth
    # a zero matrix writes an empty block
    empty = SparseMat.from_coo(F, 3, [], [], [])
    yield Instance(field=F, n=2, D=3, mats=[SparseMat.from_dense(F, np.eye(3, dtype=np.int64)), empty]), None


def test_writers_match_the_per_line_writers(tmp_path):
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    for inst, truth in _instances():
        for t in (truth, None):
            write_instance(inst, str(got), t)
            write_instance_per_line(inst, str(want), t)
            assert got.read_bytes() == want.read_bytes()
    inst, _ = generate_instance(F, 2, SPECS, Rng(5))
    params = [
        solve(inst, 2, Rng(6)),
        ZeroDimParam(Q=Poly(F, [3]), V=[Poly.zero(F), Poly(F, [0, 1])], t=[1, 0]),
        ZeroDimParam(Q=Poly(F, [5, 0, 1]), V=[Poly(F, [F.p - 1, 2]), Poly.zero(F)], t=[0, 7]),
    ]
    for param in params:
        write_param(param, F, str(got))
        write_param_per_line(param, F, str(want))
        assert got.read_bytes() == want.read_bytes()


# the file of this point list, with its truth section, as the generator and
# writer made it before they worked on arrays: a change of draw order or of
# formatting changes these bytes
PINNED_SHA256 = "82051095505c38a641ebc0750d63a4f4b6c7feb057704bc347742335c4c31521"


def test_generated_instance_file_bytes_are_pinned(tmp_path):
    p = 67108859
    specs = (
        [PointSpec(coords=(k, 3 * k + 1, k * k + 7)) for k in range(1, 40)]
        + [PointSpec(coords=(-1, -2, -3))]
        + [PointSpec(coords=(100 + k, 5, 9 + k), nu=2, c=(1, k, 0)) for k in range(7)]
        + [PointSpec(coords=(200, 201, 202), nu=3, c=(2, 0, 5)),
           PointSpec(coords=(300, 301, 302), nu=3, c=(0, 0, -7))]
    )
    inst, truth = generate_instance(Field(p), 3, specs, Rng(2027), mix=2)
    assert inst.D == 60
    path = tmp_path / "pinned.txt"
    write_instance(inst, str(path), truth)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
