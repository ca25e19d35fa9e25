"""Matrix and scalar numerators of linearly recurrent block sequences.

The scalar numerator of the sequence (u_1 M^s w) with respect to the largest
invariant factor is obtained without ever forming that scalar sequence to
full length: a matrix numerator of the short block sequence followed by a
dot product with the quotient row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTerms, ShapeError
from .polymat import PolyMat
from .unipoly import Poly


@dataclass
class NumeratorInputs:
    Pmat: PolyMat
    s1: Poly
    a_row: PolyMat  # 1 x m, a_row . Pmat = s1 . e_i
    columns: list  # the d terms L_s . W (m x k) of the columns W given to the Krylov pass

    def column(self, j: int) -> list:
        """The d terms L_s . w (m x 1) of the column w = W[:, j]."""
        return [c[:, j : j + 1] for c in self.columns]


def matrix_numerator(terms, Pmat: PolyMat) -> PolyMat:
    """Omega = (Pmat . sum_{s<d} E_{d-1-s} T^s) div T^d with d = #terms.

    Using every available term (d >= deg Pmat) is exact: the neglected tail
    of the generating series only contributes below the T^d cutoff.
    """
    f = Pmat.field
    d = len(terms)
    if d < Pmat.max_degree():
        raise InsufficientTerms(f"need {Pmat.max_degree()} terms, got {d}")
    m = Pmat.cols
    cols = terms[0].shape[1]
    if terms[0].shape[0] != m:
        raise ShapeError("term height must match generator size")
    # reversed series R with R[:, :, s] = E_{d-1-s}
    rev = f.zeros((m, cols, d))
    for s in range(d):
        rev[:, :, d - 1 - s] = terms[s] % f.p
    out = []
    for i in range(Pmat.rows):
        row = []
        for j in range(cols):
            acc = Poly.zero(f)
            for k in range(m):
                e = Pmat.entries[i][k]
                if not e.is_zero():
                    acc = acc + Poly(f, f.convolve(e.c, rev[k, j]))
            row.append(acc.div_power(d))
        out.append(row)
    return PolyMat(f, out)


def row_times_column(a_row: PolyMat, omega: PolyMat, j: int = 0) -> Poly:
    """a_row . (column j of omega)."""
    acc = Poly.zero(a_row.field)
    for k in range(a_row.cols):
        acc = acc + a_row.entries[0][k] * omega.entries[k][j]
    return acc


def scalar_numerator(inp: NumeratorInputs, terms) -> Poly:
    """Numerator of (u_i M^s w) with respect to s1, from the d block terms
    L_s . w (m x 1)."""
    omega = matrix_numerator(terms, inp.Pmat)
    return row_times_column(inp.a_row, omega)


def scalar_numerator_corrected(inp: NumeratorInputs, terms, corrections) -> Poly:
    """Same as scalar_numerator with E_s := L_s.w - correction_s."""
    if len(corrections) != len(terms):
        raise ShapeError(
            f"{len(corrections)} corrections for {len(terms)} sequence terms"
        )
    f = inp.Pmat.field
    terms = [
        (t - np.asarray(c).reshape(t.shape)) % f.p for t, c in zip(terms, corrections)
    ]
    omega = matrix_numerator(terms, inp.Pmat)
    return row_times_column(inp.a_row, omega)
