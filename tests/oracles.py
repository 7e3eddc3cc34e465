"""Independent oracles the tests check the solvers against."""

import math
from typing import Optional

import numpy as np

from optobec import HBAR, derive_quantities
from optobec.sweep import CSV_COLUMNS


def matrix_charpoly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A) of any square matrix, ascending order,
    leading 1.

    Trace-based recurrence (Faddeev-LeVerrier, no eigendecomposition): with
    M_1 = I and c_{n-1} = -tr(A), iterate M_k = A M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(A M_k)/k.  Exact for integer matrices up to rounding.
    A ``(..., n, n)`` stack gives ``(..., n + 1)`` coefficients, each row
    computed with the same operations as the matrix alone.  Runs in the
    input's float type, so an ``np.longdouble`` stack gives an
    extended-precision reference.
    """
    a = np.asarray(a)
    a = a.astype(np.promote_types(a.dtype, float))
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError("matrix must be square")
    eye = np.eye(n, dtype=a.dtype)
    coeffs = np.empty(a.shape[:-2] + (n + 1,), dtype=a.dtype)
    coeffs[..., n] = 1.0
    m = eye
    c = -np.trace(a, axis1=-2, axis2=-1)
    coeffs[..., n - 1] = c
    for k in range(2, n + 1):
        m = a @ m + c[..., None, None] * eye
        c = -np.einsum("...ij,...ji->...", a, m) / k
        coeffs[..., n - k] = c
    return coeffs


def _rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator of the classical 4th-order scheme for du/dt = A u."""
    ha = h * a
    term = np.eye(a.shape[0])
    out = term.copy()
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / k
        out = out + term
    return out


def stability_oracle(a: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """Asymptotic growth/decay rate of du/dt = A u along a trajectory.

    Validation oracle (used by the tests, never by the solvers).  Propagates
    a random unit initial vector with the fixed-step 4th-order integrator;
    chunks of 2^17 steps are applied as a renormalized matrix power, which
    is algebraically identical to stepping and reaches a horizon far beyond
    1/|smallest rate| cheaply.  The rate is the least-squares slope of
    log ||u(t)|| over the trailing half of 64 uniformly spaced checkpoints.
    A negative return means decay (stable), positive means growth.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)

    h = 0.02 / scale
    step = _rk4_step_matrix(a, h)

    # chunk = step^(2^17), renormalized at every squaring
    chunk = step.copy()
    log_norm = 0.0
    for _ in range(17):
        chunk = chunk @ chunk
        s = np.abs(chunk).max()
        chunk /= s
        log_norm = 2.0 * log_norm + math.log(s)
    t_chunk = (2 ** 17) * h

    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    logs = np.empty(64)
    acc = 0.0
    for j in range(64):
        u = chunk @ u
        norm = np.linalg.norm(u)
        u /= norm
        acc += log_norm + math.log(norm)
        logs[j] = acc
    times = t_chunk * np.arange(1, 65)
    tail = slice(32, 64)
    slope = np.polyfit(times[tail], logs[tail], 1)[0]
    return float(slope)


def power_at_photon_number(params, delta_c: float, n: float) -> float:
    """Drive power that sustains photon number ``n`` at the detuning ``delta_c``.

    Inverse of the mean-field fixed-point condition:
    P = n ((delta_c - beta n)^2 + kappa^2) hbar omega_c / (2 kappa).
    """
    d = derive_quantities(params)
    eta_sq = n * ((delta_c - d.beta * n) ** 2 + d.kappa ** 2)
    return eta_sq * HBAR * d.omega_cav / (2.0 * d.kappa)


def _format_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".12g")


def rows_to_csv(rows) -> str:
    """CSV text of sweep rows, written field by field with ``format(x, ".12g")``."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join((
            row.config, _format_number(row.value), row.branch,
            _format_number(row.n), _format_number(row.alpha),
            _format_number(row.Delta), row.stability,
            _format_number(row.degenerate),
            _format_number(row.delta_n_m), _format_number(row.delta_n_c),
            _format_number(row.e_n_mirror_field),
            _format_number(row.e_n_atom_field),
            _format_number(row.e_n_mirror_atom),
        )))
    return "\n".join(lines) + "\n"
