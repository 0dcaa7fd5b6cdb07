"""Shared numerical kernels: truncated-normal moments (the one Gaussian
window), the radial Gauss-Legendre rule for ball tilts, adaptive
Gauss-Kronrod quadrature, standard errors of ensemble means, the exact
two-sample Kolmogorov-Smirnov p-value, non-uniform finite differences and
the trapezoid's step-halving budget.

The truncated-normal kernel is the one code that evaluates a Gaussian
window Phi(beta) - Phi(alpha): the closed-form tilts, the Fisher identity's
convolution and the EPI deficit's sum density all call it.  No exponent is
ever positive, and same-sign tails go through erfcx.  On [z, inf), [z, z + 1]
and their reflections for z from 5 to 300, the log mass and the mean agree
with a quadrature free of cancellation to 1e-13 relative, and the variance,
whose rounding grows as z^4 eps, to 1.5e-6 at z = 300.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, ndtr

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)

trapezoid = getattr(np, "trapezoid", None) or np.trapz

U_CUT = 40.0   # unbounded factor supports end here; their densities are below e^-40
_Z_ZERO = 40.0  # phi(z) and ndtr(-z) round to exactly 0 for z >= 40


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _straddle(a, b):
    # ratios for a <= 0 <= b (either possibly infinite): mass, (phi(a)-phi(b))/Z,
    # (a phi(a) - b phi(b))/Z with Z = Phi(b) - Phi(a).  Beyond |z| = 40, phi is
    # exactly 0 and ndtr exactly 0 or 1, so clipping there changes no bit and
    # keeps inf * 0 out.
    a = np.maximum(a, -_Z_ZERO)
    b = np.minimum(b, _Z_ZERO)
    z = np.maximum(ndtr(b) - ndtr(a), 1e-300)
    pa, pb = _phi(a), _phi(b)
    return np.log(z), (pa - pb) / z, (a * pa - b * pb) / z


def _same_sign_tail(u, v):
    # ratios for 0 < u <= v (possibly v = +inf): mass, (phi(u)-phi(v))/Z,
    # (u phi(u) - v phi(v))/Z with Z = Phi(v) - Phi(u), all pivoted on u.
    with np.errstate(over="ignore"):
        w = np.exp(0.5 * (u * u - v * v))  # exponent <= 0; w = 0 at v = +inf
    d = erfcx(u / _SQRT2) - w * erfcx(v / _SQRT2)
    log_mass = -0.5 * u * u + np.log(0.5 * d)
    r1 = _SQRT_2_OVER_PI * (1.0 - w) / d
    r2 = _SQRT_2_OVER_PI * (u - np.where(w > 0.0, v, 0.0) * w) / d
    return log_mass, r1, r2


def trunc_normal_moments(m, s, lo, hi):
    """Moments of N(m, s^2) conditioned on [lo, hi].

    Broadcasts over all arguments; lo/hi may be -inf/+inf.  Returns
    ``(log_mass, mean, var)`` where log_mass is the log-probability that an
    unconditioned draw lands in [lo, hi].  A window (alpha, beta) in
    standard units that straddles 0 takes the ndtr difference; one in the
    upper tail goes through erfcx, pivoted on alpha; one in the lower tail
    is reflected onto (-beta, -alpha).  Scalars in give numpy scalars out,
    and each regime runs only on the elements it serves.
    """
    alpha = (lo - m) / s
    beta = (hi - m) / s
    sign = 1.0 - 2.0 * (beta < 0.0)  # -1 reflects a lower-tail window
    ends = sign * alpha, sign * beta
    u, v = np.minimum(*ends), np.maximum(*ends)
    tail = u > 0.0
    n_tail = np.count_nonzero(tail)
    if n_tail == tail.size:
        log_mass, r1, r2 = _same_sign_tail(u, v)
    elif n_tail == 0:
        log_mass, r1, r2 = _straddle(u, v)
    else:
        log_mass, r1, r2 = np.empty((3,) + u.shape)
        log_mass[tail], r1[tail], r2[tail] = _same_sign_tail(u[tail], v[tail])
        rest = ~tail
        log_mass[rest], r1[rest], r2[rest] = _straddle(u[rest], v[rest])
    r1 = sign * r1
    mean = m + s * r1
    var = np.maximum(s * s * (1.0 + r2 - r1 * r1), 0.0)
    return log_mass, mean, var


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

    Returns (log_int, mean, var, gap, log_h, prob): log of the weight's
    integral over u, the mean and variance of u, and R^2 - u^2, log h and
    the probability of each node, all three (m, 64), for further moments.
    """
    s = np.asarray(s, float)[:, None]
    rows = np.arange(s.shape[0])
    lo = np.full(s.shape[0], -radius)
    hi = np.full(s.shape[0], radius)
    for _ in range(3):
        u = lo[:, None] + (hi - lo)[:, None] * _SCAN
        lw = s * u - 0.5 * t * u * u + log_h((radius - u) * (radius + u))
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
    log_h_nodes = log_h(gap)
    log_f = s * u - 0.5 * t * u * u + log_h_nodes + np.log(radius * sin)
    top = log_f.max(axis=1)
    f = np.exp(log_f - top[:, None]) * _GL_W * half[:, None]
    total = f.sum(axis=1)
    prob = f / total[:, None]
    d = u - centre[:, None]
    d1 = (prob * d).sum(axis=1)
    var = (prob * d * d).sum(axis=1) - d1 * d1
    return top + np.log(total), centre + d1, np.maximum(var, 0.0), gap, log_h_nodes, prob


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the Kronrod nodes in (0, 1]
# from the outside in, then the centre; their weights; and the 10-point
# Gauss weights, which sit at every second Kronrod node
_XK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077208745815581, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_X21 = np.concatenate([-_XK, _XK[-2::-1]])
_WK21 = np.concatenate([_WK, _WK[-2::-1]])
_WG21 = np.concatenate([_WG, _WG[-2::-1]])
_EPS50 = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gk21(f, a, b):
    """qk21 on every interval [a_i, b_i] at once: (integrals, errors, floors).

    The error estimate is QUADPACK's: resasc min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps times the integral of |f|, the rounding floor that
    halving an interval cannot lower.
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    x = centre[:, None] + half[:, None] * _X21
    fx = np.asarray(f(x.ravel()), float).reshape(x.shape)
    resk = fx @ _WK21
    gap = np.abs(resk - fx @ _WG21) * half
    resabs = (np.abs(fx) @ _WK21) * half
    resasc = (np.abs(fx - 0.5 * resk[:, None]) @ _WK21) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * gap / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (gap != 0.0), scaled, gap)
    floor = np.where(resabs > _TINY / _EPS50, _EPS50 * resabs, 0.0)
    return resk * half, np.maximum(floor, err), floor


def _to_finite(f, lo: float, hi: float):
    """(g, u_of_x, u_lo, u_hi): the integral of f over [lo, hi] as g's over [u_lo, u_hi].

    A half-line maps by x = lo + u / (1 - u) (or x = hi + u / (1 + u)), the
    whole line by x = u / (1 - u^2); g carries the Jacobian.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return f, lambda x: x, lo, hi
    if math.isfinite(lo):
        return (lambda u: f(lo + u / (1.0 - u)) / (1.0 - u) ** 2,
                lambda x: (x - lo) / (1.0 + x - lo), 0.0, 1.0)
    if math.isfinite(hi):
        return (lambda u: f(hi + u / (1.0 + u)) / (1.0 + u) ** 2,
                lambda x: (x - hi) / (1.0 + hi - x), -1.0, 0.0)
    return (lambda u: f(u / (1.0 - u * u)) * (1.0 + u * u) / (1.0 - u * u) ** 2,
            lambda x: 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x)), -1.0, 1.0)


def quad(f, lo: float, hi: float, points=(), epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50) -> tuple[float, float]:
    """Integral of ``f`` over [lo, hi] by adaptive 21-point Gauss-Kronrod: (value, err).

    ``f`` maps an array of nodes to an array of values.  Bisection starts
    from [lo, *points, hi], and each round halves the intervals with the
    largest error estimates above their rounding floors, until the rest sum
    below half the tolerance max(epsabs, epsrel |value|); all of a round's
    new nodes go to ``f`` in one call.  Infinite ends are mapped onto finite
    ones (`_to_finite`).  It stops when the summed error estimate meets the
    tolerance; otherwise, once ``limit`` intervals are in use or no interval
    above its floor can be halved in floating point, ``err`` is returned as
    it stands, above the tolerance.  A non-finite value of ``f`` makes both
    results non-finite.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    g, u_of_x, u_lo, u_hi = _to_finite(f, lo, hi)
    inner = np.array([p for p in points if lo < p < hi], float)
    edges = np.unique(np.concatenate([[u_lo, u_hi], u_of_x(inner)]))
    a, b = edges[:-1], edges[1:]
    value, err, floor = _gk21(g, a, b)
    while True:
        total, total_err = float(value.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol or not math.isfinite(total + total_err) or len(a) >= limit:
            return total, total_err
        # halve the largest errors above their floors, until what is left
        # sums below half the tolerance; a midpoint that rounds onto an end
        # leaves its interval whole
        order = np.argsort(err)[::-1]
        order = order[err[order] > floor[order]]
        count = int(np.searchsorted(np.cumsum(err[order]), total_err - 0.5 * tol)) + 1
        split = order[:min(count, limit - len(a))]
        mid = 0.5 * (a[split] + b[split])
        halves = (a[split] < mid) & (mid < b[split])
        split, mid = split[halves], mid[halves]
        if not len(split):
            return total, total_err
        keep = np.ones(len(a), bool)
        keep[split] = False
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        parts = _gk21(g, new_a, new_b)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        value, err, floor = (np.concatenate([old[keep], new])
                             for old, new in zip((value, err, floor), parts))


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


def ks_pvalues(a, b) -> np.ndarray:
    """Two-sided two-sample Kolmogorov-Smirnov p-value of each column.

    ``a`` and ``b`` are (m, n) samples of equal size m; returns the n
    p-values P(D_{m,m} >= D) under the exact null at every m.  D comes from
    the right-continuous ECDFs of the sorted columns, so ties are handled,
    and the null tail is Hodges' alternating sum in Horner form, clipped to
    [0, 1].  This is the exact route of scipy's ``ks_2samp``, which scipy
    takes only for m <= 10000, and where the sum rounds above 1 (D <= 2/m,
    whose exact tail is 1 to double precision) scipy leaves it for an
    asymptotic formula.  A column with a NaN in either sample gets NaN.
    """
    a = np.sort(np.asarray(a, float), axis=0)
    b = np.sort(np.asarray(b, float), axis=0)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"need two (m, n) samples of one shape, got {a.shape} and {b.shape}")
    m = a.shape[0]
    out = np.full(a.shape[1], np.nan)
    for j in range(a.shape[1]):
        x, y = a[:, j], b[:, j]
        if np.isnan(x[-1]) or np.isnan(y[-1]):  # sorting puts NaN last
            continue
        pooled = np.concatenate([x, y])
        h = int(np.abs(np.searchsorted(x, pooled, "right")
                       - np.searchsorted(y, pooled, "right")).max())  # D = h / m
        p = 0.0
        for k in range(m // h, -1, -1) if h else ():
            term = 1.0
            for i in range(h):
                term = (m - k * h - i) * term / (m + k * h + i + 1)
            p = term * (1.0 - p)
        out[j] = np.clip(2.0 * p, 0.0, 1.0) if h else 1.0
    return out


def trapezoid_budget(curve: np.ndarray, x: np.ndarray) -> float:
    """Step-halving error estimate of ``trapezoid(curve, x)``.

    The coarse rule keeps every other node and the last one; the trapezoid
    error is second order, so the fine rule's error is about a third of the
    difference of the two.
    """
    coarse = sorted(set(range(0, len(x), 2)) | {len(x) - 1})
    return abs(float(trapezoid(curve, x)) - float(trapezoid(curve[coarse], x[coarse]))) / 3.0


def _stencil(y: np.ndarray, x: np.ndarray, stride: int) -> np.ndarray:
    """Three-point derivative along axis 0 from nodes i - stride, i, i + stride."""
    h1 = x[stride:-stride] - x[:-2 * stride]
    h2 = x[2 * stride:] - x[stride:-stride]
    pad = (slice(None),) + (None,) * (y.ndim - 1)
    h1p, h2p = h1[pad], h2[pad]
    num = (h1p**2 * y[2 * stride:] + (h2p**2 - h1p**2) * y[stride:-stride]
           - h2p**2 * y[:-2 * stride])
    return num / (h1p * h2p * (h1p + h2p))


def central_difference(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Three-point derivative of y(x) at interior nodes of a non-uniform grid.

    Exact for quadratics; leading error f'''(x) h1 h2 / 6.  Returns an array
    shaped like y with the ``axis`` dimension shortened by 2.
    """
    y = np.moveaxis(np.asarray(y, float), axis, 0)
    return np.moveaxis(_stencil(y, np.asarray(x, float), 1), 0, axis)


def fd_error_budget(mean_y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Discretization error estimate for `central_difference` at interior nodes.

    Step-doubling Richardson: the stride-2 stencil shares the leading
    f''' h1 h2 / 6 error with a larger h1 h2, so the difference of the two
    derivatives calibrates the constant.  Nodes 1 and K - 2 have no stride-2
    stencil and copy their neighbour's estimate.  Non-finite data stay
    non-finite, so a gate that reads the budget FAILs on them.
    """
    x = np.asarray(x, float)
    if len(x) < 5:
        raise ValueError("need at least 5 grid points for an error budget")
    y = np.moveaxis(np.asarray(mean_y, float), axis, 0)
    pad = (slice(None),) + (None,) * (y.ndim - 1)
    prod_fine = ((x[1:-1] - x[:-2]) * (x[2:] - x[1:-1]))[1:-1]    # nodes 2 .. K-3
    prod_coarse = (x[2:-2] - x[:-4]) * (x[4:] - x[2:-2])
    scale = prod_fine / np.maximum(prod_coarse - prod_fine, 1e-300)
    budget = np.abs(_stencil(y, x, 1)[1:-1] - _stencil(y, x, 2)) * scale[pad]
    return np.moveaxis(np.concatenate([budget[:1], budget, budget[-1:]]), 0, axis)
