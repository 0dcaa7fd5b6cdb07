"""Path-indexed covariance arrays, stored in the shape of their structure.

A covariance array has a path axis and a time axis in front.  Coordinate
products and Gaussians have diagonal tilt covariances A_t and Gamma_r on
every path, and store only the diagonals, (m, K, n); balls store full
matrices, (m, K, n, n).  A reduction over paths keeps its path axis
(``keepdims=True``) when it comes back here.  These helpers are
the only code that tells the two layouts apart; they read the layout from
the number of axes and raise ValueError on any other number.
"""

from __future__ import annotations

import numpy as np

from .numerics import path_mean_se


def _diagonal(cov: np.ndarray) -> bool:
    if cov.ndim not in (3, 4):
        raise ValueError("a covariance array is (m, K, n) or (m, K, n, n), "
                         f"got shape {cov.shape}")
    return cov.ndim == 3


def _embed(diag: np.ndarray) -> np.ndarray:
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,))
    out[..., np.arange(n), np.arange(n)] = diag
    return out


def per_time(values: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Per-time values (K,) shaped to scale ``cov`` along its time axis."""
    return np.reshape(values, (-1,) + (1,) * (1 if _diagonal(cov) else 2))


def identity(cov: np.ndarray) -> np.ndarray:
    """The identity in ``cov``'s layout: ones (n,) or eye (n, n)."""
    n = cov.shape[-1]
    return np.ones(n) if _diagonal(cov) else np.eye(n)


def dense(cov: np.ndarray) -> np.ndarray:
    """Full matrices (m, K, n, n) in either layout.

    One grid time, as `tilt.tilt_table` returns it or a covariance array
    holds it, goes in as a one-wide time slice: ``dense(cov[:, k:k + 1])[:, 0]``.
    """
    return _embed(cov) if _diagonal(cov) else cov


def trace(cov: np.ndarray) -> np.ndarray:
    """tr of every matrix, (m, K)."""
    return cov.sum(axis=-1) if _diagonal(cov) else np.trace(cov, axis1=-2, axis2=-1)


def square(cov: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The matrix square of every matrix, in ``cov``'s layout.

    ``work``, an array of a diagonal ``cov``'s shape, receives a diagonal
    square; a full one is a new array.
    """
    return np.multiply(cov, cov, out=work) if _diagonal(cov) else cov @ cov


def frob_sq(cov: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix, (m, K)."""
    return (cov * cov).sum(axis=-1 if _diagonal(cov) else (-2, -1))


def eig_extremes(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of every matrix's symmetric part, each (m, K)."""
    if _diagonal(cov):
        return cov.min(axis=-1), cov.max(axis=-1)
    lam = np.linalg.eigvalsh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    return lam[..., 0], lam[..., -1]


def outer_mean_se(u: np.ndarray, w: np.ndarray, cov: np.ndarray | None, work=None):
    """Mean over paths of u (x) w + cov and its s / sqrt(m), each (K, n, n).

    ``u`` and ``w`` are (m, K, n) and ``cov`` a covariance array or None.
    A full ``cov`` is added path by path.  Otherwise no per-path outer
    product is built: per grid time the entries come from the moment
    matmuls u^T w / m and (u o u)^T (w o w) / m, with
    s^2 = (sum x^2 - m mean^2) / (m - 1), and the diagonal, where a diagonal
    ``cov`` adds and the mean can dominate the spread, from its per-path
    values u_i w_i + cov_i.  ``work``, two C-contiguous arrays of ``u``'s
    shape, takes that route's (m, K, n) temporaries, so a caller that folds
    block after block reuses them; the numbers are the same either way.
    Per-path values are reduced by `path_mean_se`, so a block of grid times
    gets its rows of the whole-grid result bit for bit.
    """
    if cov is not None and not _diagonal(cov):
        per_path = np.einsum("mki,mkj->mkij", u, w)
        per_path += cov
        # the deviations overwrite per_path, which nothing reads after
        return path_mean_se(per_path, per_path)
    m, _, n = u.shape
    work_a, work_b = (None, None) if work is None else work
    mean = np.moveaxis(u, 0, -1) @ np.moveaxis(w, 0, 1) / m
    if m > 1:
        # two buffers, as two products would be: one buffer would take BLAS syrk
        uu = np.multiply(u, u, out=work_a)
        ww = np.multiply(w, w, out=work_b)
        second = np.moveaxis(uu, 0, -1) @ np.moveaxis(ww, 0, 1)
        se = np.sqrt(np.maximum(second - m * mean * mean, 0.0) / (m * (m - 1.0)))
    else:
        se = np.zeros_like(mean)
    diag = np.multiply(u, w, out=work_a)
    if cov is not None:
        diag += cov
    idx = np.arange(n)
    mean[:, idx, idx], se[:, idx, idx] = path_mean_se(diag, work_b)
    return mean, se
