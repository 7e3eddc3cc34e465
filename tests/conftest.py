"""Shared test helpers: random stable drift matrices and physical two-mode
covariances built from closed-form symplectic blocks."""

import functools
import math

import numpy as np
import pytest

from optobec import baseline_params, figure_preset, run_sweep


@pytest.fixture(scope="session")
def reference():
    """Reference configuration with the condensate present, sw = 0."""
    return baseline_params()


@pytest.fixture(scope="session")
def preset_rows():
    """Rows of a bundled preset by id; each preset runs at most once."""
    return functools.lru_cache(maxsize=None)(lambda fig: run_sweep(figure_preset(fig)))


@pytest.fixture(scope="session")
def cooling_runs(preset_rows):
    """Rows of the fig5a-c presets (fig6a-c are the same sweeps)."""
    return {fig: preset_rows(fig) for fig in ("fig5a", "fig5b", "fig5c")}


def random_stable_matrix(rng, n=6, margin=0.05):
    """Random dense matrix shifted until every eigenvalue is strictly stable."""
    a = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(a).real.max()
    return a - (shift + margin + rng.uniform(0.0, 1.0)) * np.eye(n)


def rotation_2mode(theta1, theta2):
    """Independent phase rotations of the two modes (symplectic, orthogonal)."""
    out = np.zeros((4, 4))
    for k, th in enumerate((theta1, theta2)):
        c, s = math.cos(th), math.sin(th)
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[c, s], [-s, c]]
    return out


def two_mode_squeezer(r):
    """Two-mode squeezing symplectic matrix in the (x1, p1, x2, p2) ordering."""
    c, s = math.cosh(r), math.sinh(r)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = out[2, 2] = out[3, 3] = c
    out[0, 2] = out[2, 0] = s
    out[1, 3] = out[3, 1] = -s
    return out


def random_physical_cm(rng, max_thermal=3.0, max_squeeze=1.0):
    """Random physical two-mode covariance via its Williamson normal form."""
    nu1 = 0.5 + rng.uniform(0.0, max_thermal)
    nu2 = 0.5 + rng.uniform(0.0, max_thermal)
    s = (rotation_2mode(*rng.uniform(0.0, 2.0 * math.pi, 2))
         @ two_mode_squeezer(rng.uniform(0.0, max_squeeze))
         @ rotation_2mode(*rng.uniform(0.0, 2.0 * math.pi, 2)))
    return s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T
