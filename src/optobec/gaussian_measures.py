"""Figures of merit extracted from the stationary covariance matrix:
incoherent mode occupations and bipartite logarithmic negativity.

Covariances follow the vacuum-variance-1/2 convention, so a mode in its
ground state contributes (V_xx + V_pp - 1)/2 = 0 incoherent quanta.  The
two-mode entanglement monotone is computed from the lowest symplectic
eigenvalue of the partially transposed 4x4 covariance of the selected
bipartition; determinants are taken at fixed size (2x2 closed form, LU for
the 4x4), no eigen machinery anywhere.  That arithmetic is written once,
over the 16 entries of a 4x4 (:func:`_eta_terms`), and so is the
occupation of a mode (:func:`occupation`).  The public functions run on
numpy columns; :func:`point_log_negativity` is the Python-float step that
:func:`optobec.sweep.evaluate_branches` takes for the few covariances of
one configuration, with the same operations in the same order, so every
E_N has the same bits, or the same error, either way.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

# roundoff guard for the symplectic discriminant, scaled by its natural
# square magnitude so hot thermal blocks do not trip on cancellation noise
_DISC_GUARD = 1e-12


# Two-mode splits out of the [field, mirror, condensate] ordering: the
# quadrature indices of the first-listed mode, then those of the second.
MIRROR_FIELD = (2, 3, 0, 1)
ATOM_FIELD = (4, 5, 0, 1)
MIRROR_ATOM = (2, 3, 4, 5)


def occupation(v_xx, v_pp):
    """Incoherent quanta of a mode from its two quadrature variances,
    (V_xx + V_pp - 1)/2, of Python floats or numpy columns alike."""
    return 0.5 * (v_xx + v_pp - 1.0)


def mirror_phonons(v: np.ndarray) -> float:
    """Effective incoherent phonon number of the mirror, (V_33 + V_44 - 1)/2.

    One value per covariance of a ``(..., 6, 6)`` stack.
    """
    return occupation(v[..., 2, 2], v[..., 3, 3])


def bogoliubov_excitations(v: np.ndarray) -> float:
    """Effective incoherent quanta in the condensate mode, (V_55 + V_66 - 1)/2.

    One value per covariance of a ``(..., 6, 6)`` stack.
    """
    return occupation(v[..., 4, 4], v[..., 5, 5])


def reduce_bipartition(v: np.ndarray, splits: Sequence) -> np.ndarray:
    """4x4 covariances of the two modes named by one split such as
    ``MIRROR_FIELD``, first-listed mode first, or by each of a sequence of
    splits.

    A ``(..., 6, 6)`` stack gives a ``(..., 4, 4)`` stack for one split and
    a ``(..., S, 4, 4)`` stack for a sequence of S splits, in their order.
    """
    idx = np.array(splits)
    return np.asarray(v, dtype=float)[..., idx[..., :, None], idx[..., None, :]]


def _select(take, a, b):
    # np.where for Python floats
    return a if take else b


def _eta_terms(m, where, maximum, sqrt):
    """The symplectic terms of :func:`log_negativity` for a 4x4 given as its
    16 entries row by row: Python floats, with :func:`_select`, ``max`` and
    ``math.sqrt``, or numpy columns, with ``np.where``, ``np.maximum`` and
    ``np.sqrt``, the same operations in the same order either way and in
    the dtype of the entries.

    Returns ``(fault, Sigma, det V, disc, eta_minus^2, 2 eta_minus)``.
    ``fault`` names the first check that fails: 0 none, 1 a Sigma, det V or
    eta_minus^2 that is not finite (checked first, since a NaN passes the
    other two), 2 a discriminant negative beyond the roundoff guard, 3
    eta_minus^2 <= 0.  det V is an LU factorization with partial pivoting
    whose pivot follows ``np.argmax``: the first largest |entry| wins, and
    a NaN wins.  A zero pivot makes det V exactly 0; the elimination then
    divides by 1 instead, which changes no other term and keeps Python
    floats from raising.
    """
    rows = [m[0:4], m[4:8], m[8:12], m[12:16]]
    (b00, b01, c00, c01), (b10, b11, c10, c11), (_, _, p00, p01), (_, _, p10, p11) = rows
    sigma = ((b00 * b11 - b01 * b10) + (p00 * p11 - p01 * p10)
             - 2.0 * (c00 * c11 - c01 * c10))
    det, singular = 1.0, False
    for col in range(3):
        best, top = col, abs(rows[col][col])
        for r in range(col + 1, 4):
            size = abs(rows[r][col])
            take = (size > top) | (size != size) & (top == top)
            best, top = where(take, r, best), where(take, size, top)
        # swap rows col and best; at col 0 this replaces every row, so the
        # elimination below never writes into m
        for r in range(col + 1, 4):
            hit = best == r
            rows[col], rows[r] = (where(hit, rows[r], rows[col]),
                                  where(hit, rows[col], rows[r]))
        pivot = rows[col]
        singular = singular | (pivot[col] == 0.0)
        det = where(best != col, -pivot[col], pivot[col]) * det
        scale = where(pivot[col] == 0.0, 1.0, pivot[col])
        for row in rows[col + 1:]:
            factor = row[col] / scale
            for c in range(col + 1, 4):
                row[c] = row[c] - factor * pivot[c]
    det_v = where(singular, 0.0, det * rows[3][3])
    disc = sigma * sigma - 4.0 * det_v
    guard = _DISC_GUARD * maximum(sigma * sigma, 1.0)
    positive = sigma > 0.0
    eta_sq = where(positive, 2.0 * det_v / where(
        positive, sigma + sqrt(maximum(disc, 0.0)), 1.0), sigma)
    finite = (abs(sigma) < math.inf) & (abs(det_v) < math.inf) & (abs(eta_sq) < math.inf)
    fault = where(finite, where(disc < -guard, 2, where(eta_sq <= 0.0, 3, 0)), 1)
    return fault, sigma, det_v, disc, eta_sq, 2.0 * sqrt(maximum(eta_sq, 0.0))


def log_negativity(v4: np.ndarray) -> np.ndarray:
    """Logarithmic negativity of a two-mode covariance [[B, C], [C^T, B']].

    With Sigma = det B + det B' - 2 det C, the lowest symplectic eigenvalue
    of the partial transpose is eta_minus^2 = (Sigma - sqrt(Sigma^2 - 4 det V))/2,
    evaluated in the cancellation-free arrangement
    2 det V / (Sigma + sqrt(Sigma^2 - 4 det V)); then
    E_N = max(0, -ln 2 eta_minus).  A discriminant negative beyond the
    roundoff guard means the input is not a physical covariance and raises
    ValueError, as does a Sigma, det V or eta_minus^2 that is not finite
    (a covariance beyond the float range), which would otherwise pass the
    guards as NaN and come out as E_N = 0.  The error names the first
    failing covariance of the first check that fails.  The arithmetic runs
    in the dtype of the input array.

    A ``(..., 4, 4)`` stack gives E_N as a float array of shape ``(...)``
    (0-d for one covariance), every entry computed with the same operations
    as its covariance alone, on numpy columns (:func:`_eta_terms`), with
    numpy's logarithm.
    """
    v4 = np.asarray(v4)
    if v4.ndim < 2 or v4.shape[-2:] != (4, 4):
        raise ValueError("bipartite covariance must be 4x4")
    if not np.issubdtype(v4.dtype, np.floating):
        v4 = v4.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _eta_terms(v4.reshape(-1, 16).T, np.where, np.maximum, np.sqrt)
    return _e_n(terms).reshape(v4.shape[:-2])


def point_log_negativity(covariances: Sequence[List[float]]) -> List[float]:
    """:func:`log_negativity` of 4x4 covariances each given as the list of
    its 16 entries, row by row, in Python floats: :func:`_eta_terms`
    covariance by covariance, then the fault check, message and E_N step of
    :func:`log_negativity`, so each E_N has the bits, and each error the
    text, that it gets in a float64 stack."""
    terms = [_eta_terms(m, _select, max, math.sqrt) for m in covariances]
    return _e_n(np.array(terms).reshape(-1, 6).T).tolist()


def _e_n(terms) -> np.ndarray:
    """E_N from the columns of :func:`_eta_terms`, or the ValueError of the
    first failing covariance of the first check that fails."""
    fault, sigma, det_v, disc, eta_sq, two_eta = terms
    if fault.any():
        i = np.flatnonzero(fault == fault[fault > 0].min())[0]
        raise ValueError((
            f"covariance leaves the float range: Sigma = {float(sigma[i]):.3e}, "
            f"det V = {float(det_v[i]):.3e}, eta_minus^2 = {float(eta_sq[i]):.3e}",
            f"covariance is not physical: symplectic discriminant {float(disc[i]):.3e} < 0",
            f"covariance is not physical: eta_minus^2 = {float(eta_sq[i]):.3e} <= 0",
        )[int(fault[i]) - 1])
    e_n = -np.log(two_eta).astype(float)
    # where, not maximum: max(0, x) semantics give +0.0, never -0.0
    return np.where(e_n > 0.0, e_n, 0.0)
