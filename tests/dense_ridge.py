"""The dense ridge solve, kept only as the tests' independent oracle for the
spectral ridge filter that ``ridge_fit`` and ``ridge_path`` share."""

import numpy as np


def dense_ridge(moments, rho):
    """Slope solving (cov / p + rho * identity) slope = cross_cov by LU."""
    _, _, cov, cross = moments
    p = cov.shape[0]
    return np.linalg.solve(cov / p + rho * np.eye(p), cross)
