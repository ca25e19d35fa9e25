"""Shared fixtures, including a hand-checked 4x4 instance over F_101."""

import numpy as np
import pytest

from bfglm.field import Field, Rng
from bfglm.param import Instance
from bfglm.polymat import PolyMat
from bfglm.sparse import SparseMat

F101 = Field(101)
F65537 = Field(65537)

REF_M1 = [
    [7, 91, 100, 0],
    [41, 2, 20, 0],
    [100, 10, 8, 1],
    [1, 71, 86, 0],
]
REF_M2 = [
    [40, 1, 91, 0],
    [5, 0, 2, 1],
    [0, 0, 10, 0],
    [81, 0, 71, 0],
]
REF_U = [[84, 38], [29, 58], [80, 43], [7, 82]]
REF_V = [[6, 97], [83, 58], [0, 95], [59, 89]]
REF_T = [2, 53]

REF_M_COMBINED = [
    [13, 33, 74, 0],
    [44, 4, 45, 53],
    [99, 20, 41, 2],
    [53, 41, 97, 0],
]

# UT M^s V for s = 0..3
REF_SEQ = [
    [[92, 75], [83, 51]],
    [[54, 34], [70, 73]],
    [[92, 54], [16, 74]],
    [[94, 51], [91, 51]],
]


@pytest.fixture
def f101():
    return F101


@pytest.fixture
def f65537():
    return F65537


@pytest.fixture
def ref_instance():
    mats = [SparseMat.from_dense(F101, REF_M1), SparseMat.from_dense(F101, REF_M2)]
    return Instance(field=F101, n=2, D=4, mats=mats)


@pytest.fixture
def ref_blocks():
    return F101.array(REF_U), F101.array(REF_V)


def dense_mat_pow_seq(field, M, U, V, count):
    """Plain dense oracle for the projected power sequence."""
    M = np.asarray(M, dtype=object)
    cur = np.asarray(U, dtype=object).T % field.p
    V = np.asarray(V, dtype=object)
    out = []
    for _ in range(count):
        out.append((cur @ V) % field.p)
        cur = (cur @ M) % field.p
    return [field.array(b.astype(np.int64)) for b in out]


def polymat_of(field, entries):
    """The PolyMat whose entry (i, j) is the Poly entries[i][j], its
    coefficients stacked into one tensor."""
    length = max(len(e.c) for row in entries for e in row)
    c = field.zeros((len(entries), len(entries[0]), max(length, 1)))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            c[i, j, : len(e.c)] = e.c
    return PolyMat(field, c)


@pytest.fixture
def block_cores(monkeypatch):
    """The BlockSolveArtifacts that `param._block_core` returns while the
    test runs, in call order, failed attempts included."""
    from bfglm import param, splitting

    cores = []
    real = param._block_core

    def recording(*args, **kwargs):
        cores.append(real(*args, **kwargs))
        return cores[-1]

    monkeypatch.setattr(param, "_block_core", recording)
    monkeypatch.setattr(splitting, "_block_core", recording)
    return cores
