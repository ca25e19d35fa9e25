"""Matrix and scalar numerators of linearly recurrent block sequences.

A block sequence is one array of shape d x m x k, term E_s = L_s . W (m x k)
at index s.  The scalar numerators of the sequences (u_1 M^s w) for the k
columns w of W, with respect to the largest invariant factor, are obtained
without ever forming those scalar sequences to full length: one matrix
numerator of the short block sequence, then one product with the quotient
row.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientTerms, ShapeError
from .polymat import PolyMat, pm_mul, reversed_series
from .unipoly import Poly


def matrix_numerator(terms, Pmat: PolyMat) -> PolyMat:
    """Omega = (Pmat . S) div T^d, one pm_mul: S is the reversed series of
    the d x m x k terms E_s (`reversed_series`), and div T^d drops the first
    d coefficients.

    Using every available term (d >= deg Pmat) is exact: the neglected tail
    of the generating series only contributes below the T^d cutoff.
    """
    f = Pmat.field
    d = len(terms)
    if d < Pmat.max_degree():
        raise InsufficientTerms(f"need {Pmat.max_degree()} terms, got {d}")
    S = reversed_series(f, terms)
    if S.shape[0] != Pmat.cols:
        raise ShapeError("term height must match generator size")
    return PolyMat(f, pm_mul(Pmat, PolyMat(f, S)).c[:, :, d:])


def scalar_numerator(a_row: PolyMat, Pmat: PolyMat, terms) -> list:
    """Numerators of (u_1 M^s w) with respect to s1, one per column w, from
    the d x m x k block terms L_s . W, for the m x m generator Pmat of the
    terms L_s . V and its 1 x m quotient row a_row . Pmat = s1 . e_1: one
    matrix numerator, one product."""
    N = pm_mul(a_row, matrix_numerator(terms, Pmat))
    return [N[0, j] for j in range(N.cols)]


def scalar_numerator_corrected(a_row: PolyMat, Pmat: PolyMat, terms, corrections) -> Poly:
    """Numerator of one column, as scalar_numerator, with E_s := L_s.w -
    correction_s for the d x m x 1 terms L_s . w."""
    if len(corrections) != len(terms):
        raise ShapeError(f"{len(corrections)} corrections for {len(terms)} sequence terms")
    terms = np.asarray(terms)
    return scalar_numerator(a_row, Pmat, terms - np.reshape(corrections, terms.shape))[0]
