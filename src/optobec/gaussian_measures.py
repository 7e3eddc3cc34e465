"""Figures of merit extracted from the stationary covariance matrix:
incoherent mode occupations and bipartite logarithmic negativity.

Covariances follow the vacuum-variance-1/2 convention, so a mode in its
ground state contributes (V_xx + V_pp - 1)/2 = 0 incoherent quanta.  The
two-mode entanglement monotone is computed from the lowest symplectic
eigenvalue of the partially transposed 4x4 covariance of the selected
bipartition; determinants are taken at fixed size (2x2 closed form, LU for
the 4x4), no eigen machinery anywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# roundoff guard for the symplectic discriminant, scaled by its natural
# square magnitude so hot thermal blocks do not trip on cancellation noise
_DISC_GUARD = 1e-12


# Two-mode splits out of the [field, mirror, condensate] ordering: the
# quadrature indices of the first-listed mode, then those of the second.
MIRROR_FIELD = (2, 3, 0, 1)
ATOM_FIELD = (4, 5, 0, 1)
MIRROR_ATOM = (2, 3, 4, 5)


def mirror_phonons(v: np.ndarray) -> float:
    """Effective incoherent phonon number of the mirror, (V_33 + V_44 - 1)/2.

    One value per covariance of a ``(..., 6, 6)`` stack.
    """
    return 0.5 * (v[..., 2, 2] + v[..., 3, 3] - 1.0)


def bogoliubov_excitations(v: np.ndarray) -> float:
    """Effective incoherent quanta in the condensate mode, (V_55 + V_66 - 1)/2.

    One value per covariance of a ``(..., 6, 6)`` stack.
    """
    return 0.5 * (v[..., 4, 4] + v[..., 5, 5] - 1.0)


def reduce_bipartition(v: np.ndarray, splits: Sequence) -> np.ndarray:
    """4x4 covariances of the two modes named by one split such as
    ``MIRROR_FIELD``, first-listed mode first, or by each of a sequence of
    splits.

    A ``(..., 6, 6)`` stack gives a ``(..., 4, 4)`` stack for one split and
    a ``(..., S, 4, 4)`` stack for a sequence of S splits, in their order.
    """
    idx = np.array(splits)
    return np.asarray(v, dtype=float)[..., idx[..., :, None], idx[..., None, :]]


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _det4(m):
    # fixed-size LU with partial pivoting over a stack of 4x4 matrices, in
    # the dtype of the input (extended-precision covariances go through
    # unharmed); a zero pivot gives a determinant of exactly 0
    work = m.reshape(-1, 4, 4).copy()
    rows = np.arange(len(work))
    det = np.ones(len(work), dtype=work.dtype)
    singular = np.zeros(len(work), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for col in range(3):
            pivot = col + np.abs(work[:, col:, col]).argmax(axis=1)
            pivot_row = work[rows, pivot]
            singular |= pivot_row[:, col] == 0.0
            work[rows, pivot] = work[:, col]
            work[:, col] = pivot_row
            det = np.where(pivot != col, -det, det) * pivot_row[:, col]
            factor = work[:, col + 1:, col] / pivot_row[:, col, None]
            work[:, col + 1:, col:] = (work[:, col + 1:, col:]
                                       - factor[:, :, None] * pivot_row[:, None, col:])
    det = np.where(singular, work.dtype.type(0.0), det * work[:, 3, 3])
    return det.reshape(m.shape[:-2])


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
    guards as NaN and come out as E_N = 0.  The arithmetic runs in the
    dtype of the input array.

    A ``(..., 4, 4)`` stack gives E_N as a float array of shape ``(...)``
    (0-d for one covariance), every entry computed with the same operations
    as its covariance alone.
    """
    v4 = np.asarray(v4)
    if v4.ndim < 2 or v4.shape[-2:] != (4, 4):
        raise ValueError("bipartite covariance must be 4x4")
    if not np.issubdtype(v4.dtype, np.floating):
        v4 = v4.astype(float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_b = _det2(v4[..., :2, :2])
        det_bp = _det2(v4[..., 2:, 2:])
        det_c = _det2(v4[..., :2, 2:])
        det_v = _det4(v4)
        sigma = det_b + det_bp - 2.0 * det_c
        disc = sigma * sigma - 4.0 * det_v
        guard = _DISC_GUARD * np.fmax(1.0, (sigma * sigma).astype(float))
        eta_sq = np.where(sigma > 0.0, 2.0 * det_v / (
            sigma + np.sqrt(np.maximum(disc, disc.dtype.type(0.0)))), sigma)
    # checked first: a NaN passes the comparisons below
    bad = ~(np.isfinite(sigma) & np.isfinite(det_v) & np.isfinite(eta_sq))
    if bad.any():
        raise ValueError(
            f"covariance leaves the float range: Sigma = {float(sigma[bad].flat[0]):.3e}, "
            f"det V = {float(det_v[bad].flat[0]):.3e}, "
            f"eta_minus^2 = {float(eta_sq[bad].flat[0]):.3e}")
    bad = disc < -guard
    if bad.any():
        raise ValueError("covariance is not physical: symplectic discriminant "
                         f"{float(disc[bad].flat[0]):.3e} < 0")
    bad = eta_sq <= 0.0
    if bad.any():
        raise ValueError("covariance is not physical: eta_minus^2 = "
                         f"{float(eta_sq[bad].flat[0]):.3e} <= 0")
    e_n = -np.log(2.0 * np.sqrt(eta_sq)).astype(float)
    # where, not maximum: max(0, x) semantics give +0.0, never -0.0
    return np.where(e_n > 0.0, e_n, 0.0)
