"""Shared numerical kernels: truncated-normal algebra, the radial
Gauss-Legendre rule for ball tilts, standard errors of ensemble means,
non-uniform finite differences.

The truncated-normal kernel is the workhorse of the closed-form tilt route.
All branches are arranged so that no exponent is ever positive and same-sign
tails go through erfcx, which keeps relative accuracy out to z of several
hundred.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _log_phi(z):
    return -0.5 * z * z - _LOG_SQRT_2PI


def _same_sign_tail(u, v):
    # ratios for 0 < u <= v (possibly v = +inf): mass, (phi(u)-phi(v))/Z,
    # (u phi(u) - v phi(v))/Z with Z = Phi(v) - Phi(u), all pivoted on u.
    with np.errstate(over="ignore"):
        w = np.exp(0.5 * (u * u - v * v))  # exponent <= 0
    w = np.where(np.isfinite(v), w, 0.0)
    ev = np.where(np.isfinite(v), erfcx(np.where(np.isfinite(v), v, 0.0) / _SQRT2), 0.0)
    d = erfcx(u / _SQRT2) - w * ev
    log_mass = -0.5 * u * u + np.log(0.5 * d)
    r1 = _SQRT_2_OVER_PI * (1.0 - w) / d
    r2 = _SQRT_2_OVER_PI * (u - np.where(w > 0.0, v * w, 0.0)) / d
    return log_mass, r1, r2


def trunc_normal_moments(m, s, lo, hi):
    """Moments of N(m, s^2) conditioned on [lo, hi].

    Broadcasts over all arguments; lo/hi may be -inf/+inf.  Returns
    ``(log_mass, mean, var)`` where log_mass is the log-probability that an
    unconditioned draw lands in [lo, hi].
    """
    m, s, lo, hi = np.broadcast_arrays(
        np.asarray(m, float), np.asarray(s, float), np.asarray(lo, float), np.asarray(hi, float)
    )
    shape = m.shape
    m = m.ravel()
    s = s.ravel()
    lo = lo.ravel()
    hi = hi.ravel()

    with np.errstate(invalid="ignore"):
        alpha = (lo - m) / s
        beta = (hi - m) / s
    alpha = np.where(np.isneginf(lo), -np.inf, alpha)
    beta = np.where(np.isposinf(hi), np.inf, beta)

    log_mass = np.zeros_like(m)
    r1 = np.zeros_like(m)
    r2 = np.zeros_like(m)

    fin_a = np.isfinite(alpha)
    fin_b = np.isfinite(beta)

    # one-sided [alpha, inf)
    sel = fin_a & ~fin_b
    if sel.any():
        a = alpha[sel]
        log_mass[sel] = log_ndtr(-a)
        h = np.exp(_log_phi(a) - log_ndtr(-a))
        r1[sel] = h
        r2[sel] = a * h

    # one-sided (-inf, beta]
    sel = ~fin_a & fin_b
    if sel.any():
        b = beta[sel]
        log_mass[sel] = log_ndtr(b)
        h = np.exp(_log_phi(b) - log_ndtr(b))
        r1[sel] = -h
        r2[sel] = -b * h

    both = fin_a & fin_b
    # straddling zero: direct ndtr difference is safe
    sel = both & (alpha <= 0.0) & (beta >= 0.0)
    if sel.any():
        a, b = alpha[sel], beta[sel]
        z = np.maximum(ndtr(b) - ndtr(a), 1e-300)
        log_mass[sel] = np.log(z)
        r1[sel] = (_phi(a) - _phi(b)) / z
        r2[sel] = (a * _phi(a) - b * _phi(b)) / z

    # both in the upper tail
    sel = both & (alpha > 0.0)
    if sel.any():
        lm, q1, q2 = _same_sign_tail(alpha[sel], beta[sel])
        log_mass[sel] = lm
        r1[sel] = q1
        r2[sel] = q2

    # both in the lower tail: reflect
    sel = both & (beta < 0.0)
    if sel.any():
        lm, q1, q2 = _same_sign_tail(-beta[sel], -alpha[sel])
        log_mass[sel] = lm
        r1[sel] = -q1
        r2[sel] = q2

    mean = m + s * r1
    var = np.maximum(s * s * (1.0 + r2 - r1 * r1), 0.0)
    return log_mass.reshape(shape), mean.reshape(shape), var.reshape(shape)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_SCAN = np.linspace(0.0, 1.0, 33)
_WINDOW_DROP = 40.0  # e^-40 ~ 4e-18: the log-weight drop that ends the window


def radial_tilt_moments(s, t: float, radius: float, log_h):
    """Moments of u on [-R, R] under the weight exp(s u - t u^2/2) h(R^2 - u^2).

    ``s`` has shape (m,), one weight per row; ``log_h`` maps R^2 - u^2 to
    log h and must make the weight log-concave in u, so that the window
    {log weight >= max - 40} is one interval.  Three 33-point scans, each
    inside the last one's bracket, locate it, and one 64-point Gauss-Legendre
    rule integrates over it in phi with u = R cos(phi), which keeps every
    integrand analytic at u = +-R.  Moments are taken about the scan mode so
    that small variances do not cancel.

    Returns (log_int, mean, var, gap, prob): log of the weight's integral
    over u, the mean and variance of u, and R^2 - u^2 and the probability
    of each node, both (m, 64), for further moments.
    """
    s = np.asarray(s, float)[:, None]
    rows = np.arange(s.shape[0])

    def log_weight(u, gap):
        with np.errstate(divide="ignore"):
            return s * u - 0.5 * t * u * u + log_h(gap)

    lo = np.full(s.shape[0], -radius)
    hi = np.full(s.shape[0], radius)
    for _ in range(3):
        u = lo[:, None] + (hi - lo)[:, None] * _SCAN
        lw = log_weight(u, (radius - u) * (radius + u))
        best = lw.argmax(axis=1)
        above = lw >= lw[rows, best][:, None] - _WINDOW_DROP
        first = np.maximum(above.argmax(axis=1) - 1, 0)
        last = np.minimum(len(_SCAN) - above[:, ::-1].argmax(axis=1), len(_SCAN) - 1)
        lo, hi, centre = u[rows, first], u[rows, last], u[rows, best]

    phi_lo = np.arccos(np.clip(hi / radius, -1.0, 1.0))
    phi_hi = np.arccos(np.clip(lo / radius, -1.0, 1.0))
    half = 0.5 * (phi_hi - phi_lo)
    phi = (phi_lo + half)[:, None] + half[:, None] * _GL_X
    u = radius * np.cos(phi)
    sin = np.sin(phi)
    gap = (radius * sin) ** 2
    log_f = log_weight(u, gap) + np.log(radius * sin)
    top = log_f.max(axis=1)
    f = np.exp(log_f - top[:, None]) * _GL_W * half[:, None]
    total = f.sum(axis=1)
    prob = f / total[:, None]
    d = u - centre[:, None]
    d1 = (prob * d).sum(axis=1)
    var = (prob * d * d).sum(axis=1) - d1 * d1
    return top + np.log(total), centre + d1, np.maximum(var, 0.0), gap, prob


def jackknife_se(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Standard error of the mean along ``axis``: s / sqrt(m).

    For a plain mean of i.i.d. draws this equals the leave-one-out jackknife
    error exactly; callers pass per-draw values of whatever they average.
    Zero for fewer than two draws.
    """
    values = np.asarray(values, float)
    m = values.shape[axis]
    if m < 2:
        return np.zeros_like(values.mean(axis=axis))
    return values.std(axis=axis, ddof=1) / np.sqrt(m)


def central_difference(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Three-point derivative of y(x) at interior nodes of a non-uniform grid.

    Exact for quadratics; leading error f'''(x) h1 h2 / 6.  Returns an array
    shaped like y with the ``axis`` dimension shortened by 2.
    """
    y = np.moveaxis(np.asarray(y, float), axis, 0)
    x = np.asarray(x, float)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    pad = (slice(None),) + (None,) * (y.ndim - 1)
    h1p, h2p = h1[pad], h2[pad]
    num = h1p**2 * y[2:] + (h2p**2 - h1p**2) * y[1:-1] - h2p**2 * y[:-2]
    d = num / (h1p * h2p * (h1p + h2p))
    return np.moveaxis(d, 0, axis)


def fd_error_budget(mean_y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Discretization error estimate for `central_difference` at interior nodes.

    Step-doubling Richardson: the stride-2 stencil shares the leading
    f''' h1 h2 / 6 error with a larger h1 h2, so the difference of the two
    derivatives calibrates the constant.  Edge interior nodes (no stride-2
    stencil) inherit the nearest estimate.
    """
    x = np.asarray(x, float)
    k = len(x)
    if k < 5:
        raise ValueError("need at least 5 grid points for an error budget")
    d_fine = central_difference(mean_y, x, axis=axis)
    y_m = np.moveaxis(np.asarray(mean_y, float), axis, 0)
    d_coarse = central_difference(y_m[::2], x[::2], axis=0)  # nodes 2, 4, ...
    # also the odd-offset coarse stencil: nodes 3, 5, ...
    d_coarse_odd = central_difference(y_m[1::2], x[1::2], axis=0)

    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    prod_fine = h1 * h2

    budget = np.full(np.moveaxis(d_fine, axis, 0).shape, np.nan)
    d_fine_m = np.moveaxis(d_fine, axis, 0)

    xe = x[::2]
    ph_even = (xe[1:-1] - xe[:-2]) * (xe[2:] - xe[1:-1])
    for j, node in enumerate(range(2, k - 2, 2)):
        scale = prod_fine[node - 1] / max(ph_even[j] - prod_fine[node - 1], 1e-300)
        budget[node - 1] = np.abs(d_fine_m[node - 1] - d_coarse[j]) * scale
    xo = x[1::2]
    ph_odd = (xo[1:-1] - xo[:-2]) * (xo[2:] - xo[1:-1])
    for j, node in enumerate(range(3, k - 2, 2)):
        scale = prod_fine[node - 1] / max(ph_odd[j] - prod_fine[node - 1], 1e-300)
        budget[node - 1] = np.abs(d_fine_m[node - 1] - d_coarse_odd[j]) * scale

    # fill edges with nearest computed budget
    valid = ~np.isnan(budget.reshape(budget.shape[0], -1)).any(axis=1)
    idx = np.where(valid)[0]
    for node in np.where(~valid)[0]:
        budget[node] = budget[idx[np.argmin(np.abs(idx - node))]]
    return np.moveaxis(budget, 0, axis)
