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
from .polymat import PolyMat, pm_mul
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
    """Omega = (Pmat . S) div T^d, one pm_mul: S is the m x k coefficient
    tensor of the reversed series sum_{s<d} E_{d-1-s} T^s of the d = #terms
    terms E_s (m x k), and div T^d drops the first d coefficients.

    Using every available term (d >= deg Pmat) is exact: the neglected tail
    of the generating series only contributes below the T^d cutoff.
    """
    f = Pmat.field
    d = len(terms)
    if d < Pmat.max_degree():
        raise InsufficientTerms(f"need {Pmat.max_degree()} terms, got {d}")
    if terms[0].shape[0] != Pmat.cols:
        raise ShapeError("term height must match generator size")
    rev = f.zeros(terms[0].shape + (d,))
    rev[...] = np.stack(terms[::-1], axis=-1) % f.p
    return PolyMat(f, pm_mul(Pmat, PolyMat(f, rev)).c[:, :, d:])


def scalar_numerator(inp: NumeratorInputs, terms) -> Poly:
    """Numerator of (u_i M^s w) with respect to s1, from the d block terms
    L_s . w (m x 1)."""
    return pm_mul(inp.a_row, matrix_numerator(terms, inp.Pmat))[0, 0]


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
    return pm_mul(inp.a_row, matrix_numerator(terms, inp.Pmat))[0, 0]
