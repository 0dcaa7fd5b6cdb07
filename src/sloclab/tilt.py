"""Gaussian-tilted measures and their moments.

For a measure rho and parameters (t, theta) the tilted probability density is

    p_{t,theta}(x) = exp(theta . x - t |x|^2 / 2) rho(x) / Z(t, theta).

This module computes log Z, the barycenter a(t, theta) and the covariance
A(t, theta) of p_{t,theta} along three routes:

* closed form   -- Gaussian conjugacy, and truncated-normal algebra for the
                   coordinate-product factors (the hot path for drivers);
* quadrature    -- adaptive 1D integration per factor, abs tol ~1e-12, the
                   independent oracle for the closed forms and the t = 0
                   product route; and one fixed Gauss-Legendre rule over
                   u = x . theta/|theta| for the ball and its 1D marginal
                   (`ball_tilt_table`, `numerics.radial_tilt_moments`);
* rejection     -- proposal N(theta/t, Id/t) thinned by rho/sup(rho); the
                   route for affine images, and the cross-check for the ball.

`tilt_table` picks the route for a batch of thetas at one t; it is the one
place that branches on the measure family.

A t = 0 tilt is accepted only where the exponential moment is finite; the
divergent cases raise DivergentTilt.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammainc

from . import streams
from .errors import DivergentTilt, InputValidationError, RejectionStall
from .measures import (BallMarginalFactor, BallSpec, GaussianFactor, GaussianSpec,
                       MeasureSpec, ProductSpec)
from .numerics import jackknife_se, radial_tilt_moments
from .reports import LemmaReport, gate

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
REJECTION = "rejection"

_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-12, limit=300)
STALL_ACCEPTANCE = 1e-6
_STALL_MIN_PROPOSALS = 2_000_000


@dataclass(frozen=True)
class TiltState:
    """Moments of one tilted measure p_{t,theta}."""

    t: float
    theta: np.ndarray
    log_z: float
    mean: np.ndarray          # a(t, theta)
    cov: np.ndarray           # A(t, theta)
    method: str
    n_samples: int = 0
    se_mean: np.ndarray | None = None
    se_cov: np.ndarray | None = None


def _validate(spec: MeasureSpec, t: float, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, float))
    if theta.shape != (spec.dim,):
        raise InputValidationError(f"theta must have shape ({spec.dim},)")
    if not np.isfinite(theta).all() or not np.isfinite(t):
        raise InputValidationError("t and theta must be finite")
    if t < 0:
        raise InputValidationError("t must be >= 0")
    return theta


def _check_rates(spec: ProductSpec, theta: np.ndarray) -> None:
    for j, f in enumerate(spec.factors):
        left, right = f.tilt_rates()
        if theta[j] >= right or -theta[j] >= left:
            raise DivergentTilt(
                f"t=0 tilt diverges on factor {j} ({f.tag}): theta={theta[j]:.3g} "
                f"outside (-{left:.3g}, {right:.3g})")


# ---------------------------------------------------------------------------
# Closed forms


def gaussian_tilt(dim: int, t: float, theta: np.ndarray):
    """Conjugate closed form: p_{t,theta} = N(theta/(1+t), Id/(1+t)).

    ``theta`` has shape (..., dim), a batch of thetas.  Returns (log_z (...),
    mean (..., dim), cov (dim, dim)); the covariance is the same for every
    theta.
    """
    tau = 1.0 + t
    log_z = -0.5 * dim * np.log(tau) + 0.5 * (theta ** 2).sum(axis=-1) / tau
    return log_z, theta / tau, np.eye(dim) / tau


def product_tilt_table(spec: ProductSpec, t: float, thetas: np.ndarray):
    """Vectorized tilt moments for a batch of thetas at one t > 0.

    Every factor's batched `tilt_stats` serves its column.  Returns
    (log_z (m,), mean (m, n), var (m, n)); var is the diagonal of A, which is
    diagonal for coordinate products.
    """
    thetas = np.asarray(thetas, float)
    m = thetas.shape[0]
    log_z = np.zeros(m)
    mean = np.empty((m, spec.dim))
    var = np.empty((m, spec.dim))
    for j, f in enumerate(spec.factors):
        lz, mu, v = f.tilt_stats(t, thetas[:, j])
        log_z += lz
        mean[:, j] = mu
        var[:, j] = v
    return log_z, mean, var


def ball_tilt_table(spec: BallSpec, t: float, thetas: np.ndarray):
    """Exact tilt moments of the uniform ball for a batch of thetas (m, n) at one t.

    Write x = u e + y with e = theta/|theta| and y orthogonal to e.  Given u,
    y is N(0, Id/t) cut to the (n-1)-ball of radius (R^2 - u^2)^(1/2), so u
    has the weight exp(|theta| u - t u^2/2) P(chi2_{n-1} <= t (R^2 - u^2))
    and E[|y|^2 | u] = (n-1)/t P(chi2_{n+1} <= .)/P(chi2_{n-1} <= .).  At
    t = 0 u follows the tilted 1D marginal and E[|y|^2 | u] is
    (n-1)/(n+1) (R^2 - u^2).  One `radial_tilt_moments` call integrates u,
    and mean = E[u] e, cov = Var(u) e e^T + E|y|^2/(n-1) (Id - e e^T).

    Returns (log_z (m,), mean (m, n), cov (m, n, n)).
    """
    m, n = thetas.shape
    radius = spec.radius
    k = n - 1
    s = np.linalg.norm(thetas, axis=1)
    e = np.zeros_like(thetas)
    e[:, 0] = 1.0  # theta = 0 is isotropic: any direction serves
    moving = s > 0.0
    e[moving] = thetas[moving] / s[moving, None]

    if t == 0.0:
        log_z, mean_u, var_u = BallMarginalFactor(n).tilt_stats(0.0, s)
        across = (radius * radius - mean_u * mean_u - var_u) / (n + 1)
    else:
        def inside(gap):  # P(chi2_{n-1} <= t gap), 1 when there is no y
            return gammainc(0.5 * k, 0.5 * t * gap) if k else np.ones_like(gap)

        log_int, mean_u, var_u, gap, prob = radial_tilt_moments(
            s, t, radius, lambda gap: np.log(inside(gap)))
        log_z = log_int + 0.5 * k * math.log(2.0 * math.pi / t) - spec.entropy()
        lower = inside(gap)
        ratio = np.divide(gammainc(0.5 * k + 1.0, 0.5 * t * gap), lower,
                          out=np.zeros_like(gap), where=lower > 0.0)
        across = (prob * ratio).sum(axis=1) / t
    cov = across[:, None, None] * np.eye(n) + ((var_u - across)[:, None, None]
                                               * e[:, :, None] * e[:, None, :])
    return log_z, mean_u[:, None] * e, cov


# ---------------------------------------------------------------------------
# Quadrature oracle


def factor_tilt_quadrature(f, t: float, theta: float):
    """(log Z, mean, var) of one tilted 1D factor by adaptive quadrature."""
    if t == 0.0:
        left, right = f.tilt_rates()
        if theta >= right or -theta >= left:
            raise DivergentTilt(f"t=0 tilt diverges on factor {f.tag}")

    def exponent(x):
        return float(theta * x - 0.5 * t * x * x + f.log_density(np.asarray(x, float)))

    # locate the mode of the concave exponent to anchor the integrand; the
    # mode sits near theta/t for t > 0, near 0 for t = 0, or at a finite
    # support endpoint
    if t > 0:
        center = theta / t
        width = 60.0 / math.sqrt(t) + 10.0
    else:
        center = 0.0
        width = 200.0
    lower = f.lo if np.isfinite(f.lo) else min(center, 0.0) - width
    upper = f.hi if np.isfinite(f.hi) else max(center, 0.0) + width
    res = minimize_scalar(lambda x: -exponent(x), bounds=(lower, upper),
                          method="bounded", options={"xatol": 1e-12})
    candidates = [float(res.x)]
    if np.isfinite(f.lo):
        candidates.append(float(f.lo))
    if np.isfinite(f.hi):
        candidates.append(float(f.hi))
    x_star = max(candidates, key=exponent)
    m_log = exponent(x_star)

    def h(x, k):
        return (x - x_star) ** k * np.exp(exponent(x) - m_log)

    a, b = f.lo, f.hi
    kw = dict(_QUAD_KW)
    i0 = quad(h, a, b, args=(0,), **kw)[0]
    i1 = quad(h, a, b, args=(1,), **kw)[0]
    i2 = quad(h, a, b, args=(2,), **kw)[0]
    if i0 <= 0 or not np.isfinite(i0):
        raise DivergentTilt(f"tilt normalization failed on factor {f.tag}")
    mean_c = i1 / i0
    var = i2 / i0 - mean_c * mean_c
    return m_log + math.log(i0), x_star + mean_c, max(var, 0.0)


def tilt_moments_quadrature(spec: MeasureSpec, t: float, theta) -> TiltState:
    """Per-factor adaptive quadrature; defined for coordinate products."""
    theta = _validate(spec, t, theta)
    if isinstance(spec, GaussianSpec):
        spec = ProductSpec([GaussianFactor() for _ in range(spec.dim)])
    if spec.factors is None:
        raise InputValidationError("quadrature route needs a coordinate product")
    log_z = 0.0
    mean = np.empty(spec.dim)
    var = np.empty(spec.dim)
    for j, f in enumerate(spec.factors):
        lz, mu, v = factor_tilt_quadrature(f, t, float(theta[j]))
        log_z += lz
        mean[j] = mu
        var[j] = v
    return TiltState(t, theta, float(log_z), mean, np.diag(var), QUADRATURE)


# ---------------------------------------------------------------------------
# Rejection route


def _proposal(spec: MeasureSpec, t: float, theta: np.ndarray):
    """The rejection route's proposal for p_{t,theta}.

    Returns (draw, log_accept, log_z): draw(rng, k) gives k proposals;
    log_accept(x) gives their log acceptance probabilities, or is None when
    the proposals are exact draws; log_z(acceptance) recovers log Z from the
    measured acceptance rate.  Gaussians are conjugate, t > 0 proposes from
    the matched Gaussian N(theta/t, Id/t) thinned by rho/sup rho, and a t = 0
    ball proposes from the base measure thinned by exp(theta.x - R|theta|).
    """
    if isinstance(spec, GaussianSpec):
        tau = 1.0 + t

        def draw(rng, k):
            return theta / tau + rng.standard_normal((k, spec.dim)) / math.sqrt(tau)

        return draw, None, lambda acceptance: float(gaussian_tilt(spec.dim, t, theta)[0])
    if t > 0:
        peak = spec.peak_log_density()
        center = theta / t
        scale = 1.0 / math.sqrt(t)

        def draw(rng, k):
            return center + scale * rng.standard_normal((k, spec.dim))

        # Z = E_proposal[rho] * (2 pi / t)^{n/2} exp(|theta|^2 / 2t)
        def log_z(acceptance):
            return (peak + math.log(acceptance)
                    + 0.5 * spec.dim * math.log(2.0 * math.pi / t)
                    + float(theta @ theta) / (2.0 * t))

        return draw, lambda x: spec.log_density(x) - peak, log_z
    if not np.any(theta):
        return spec.sample, None, lambda acceptance: 0.0
    if not isinstance(spec, BallSpec):
        raise InputValidationError("t=0 rejection tilts are supported on balls only")
    sup = spec.radius * float(np.linalg.norm(theta))
    return (spec.sample, lambda x: x @ theta - sup,
            lambda acceptance: sup + math.log(acceptance))


def tilt_sample_batch(spec: MeasureSpec, t: float, theta, rng: np.random.Generator,
                      size: int):
    """Draw `size` points of p_{t,theta} by rejection from `_proposal`.

    Returns (samples, proposals, accepted); `accepted` counts every accepted
    proposal including surplus beyond `size`, so accepted/proposals estimates
    the true acceptance probability without truncation bias.  Raises
    RejectionStall when the measured acceptance falls below 1e-6.
    """
    theta = _validate(spec, t, theta)
    draw, log_accept, _ = _proposal(spec, t, theta)
    if log_accept is None:
        return draw(rng, size), size, size

    out = np.empty((size, spec.dim))
    filled = 0
    accepted = 0
    proposed = 0
    batch = max(4 * size, 4096)
    while filled < size:
        x = draw(rng, batch)
        keep = x[rng.random(batch) < np.exp(log_accept(x))]
        take = min(len(keep), size - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
        accepted += len(keep)
        proposed += batch
        if proposed >= _STALL_MIN_PROPOSALS and (accepted / proposed) < STALL_ACCEPTANCE:
            raise RejectionStall(accepted / proposed, proposed, t, float(np.linalg.norm(theta)))
        batch = min(batch * 4, 1 << 21)
    return out, proposed, accepted


def _as_key(stream):
    if isinstance(stream, tuple):
        return stream
    return (stream,)


def tilt_moments_rejection(spec: MeasureSpec, t: float, theta,
                           rng: np.random.Generator, n_samples: int = 1024) -> TiltState:
    """Monte Carlo tilt moments with batch-means standard errors.

    Needs n_samples >= 4: two batch-means blocks of two draws each.
    """
    theta = _validate(spec, t, theta)
    if n_samples < 4:
        raise InputValidationError("rejection moments need n_samples >= 4")
    pts, proposed, accepted = tilt_sample_batch(spec, t, theta, rng, n_samples)
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / (n_samples - 1)

    # batch means over at least two draws per block, so every block
    # covariance is defined
    n_blocks = min(16, n_samples // 2)
    usable = (n_samples // n_blocks) * n_blocks
    blocks = pts[:usable].reshape(n_blocks, -1, spec.dim)
    b_mean = blocks.mean(axis=1)
    b_cov = np.einsum("bki,bkj->bij", blocks - b_mean[:, None, :],
                      blocks - b_mean[:, None, :]) / (blocks.shape[1] - 1)
    se_mean = b_mean.std(axis=0, ddof=1) / math.sqrt(n_blocks)
    se_cov = b_cov.std(axis=0, ddof=1) / math.sqrt(n_blocks)

    log_z = _proposal(spec, t, theta)[2](accepted / proposed)
    return TiltState(t, theta, log_z, mean, cov, REJECTION, n_samples, se_mean, se_cov)


# ---------------------------------------------------------------------------
# Dispatch


def _stack_states(states, method):
    se_cov = None if states[0].se_cov is None else np.stack([s.se_cov for s in states])
    return (np.array([s.log_z for s in states]), np.stack([s.mean for s in states]),
            np.stack([s.cov for s in states]), se_cov, method)


def tilt_table(spec: MeasureSpec, t: float, thetas: np.ndarray, rng_for,
               n_samples: int = 1024, workers: int = 1):
    """Tilt moments for a batch of thetas (m, n) at one t, by the best route.

    Returns (log_z (m,), mean (m, n), cov (m, n, n), se_cov, method).  The
    base measure answers t = 0 with theta = 0; Gaussians are conjugate;
    coordinate products are exact (closed form, with the ballmarg factor by
    quadrature, and adaptive quadrature for every factor at t = 0); balls
    use `ball_tilt_table` at every t; other specs (affine images) use
    rejection sampling with ``rng_for(i)`` as row i's generator, over
    ``workers`` threads.  ``se_cov`` is None except on the rejection route,
    and ``rng_for`` is called on no other route.
    """
    m, n = thetas.shape
    if t == 0.0 and not np.any(thetas):
        return (np.zeros(m), np.tile(spec.mean(), (m, 1)),
                np.tile(spec.cov(), (m, 1, 1)), None, CLOSED_FORM)
    if isinstance(spec, GaussianSpec):
        log_z, mean, cov = gaussian_tilt(n, t, thetas)
        return log_z, mean, np.tile(cov, (m, 1, 1)), None, CLOSED_FORM
    if spec.factors is not None:
        if t == 0.0:
            for theta in thetas:
                _check_rates(spec, theta)
            return _stack_states([tilt_moments_quadrature(spec, t, theta)
                                  for theta in thetas], QUADRATURE)
        log_z, mean, var = product_tilt_table(spec, t, thetas)
        cov = np.zeros((m, n, n))
        cov[:, np.arange(n), np.arange(n)] = var
        closed = not any(isinstance(f, BallMarginalFactor) for f in spec.factors)
        return log_z, mean, cov, None, CLOSED_FORM if closed else QUADRATURE
    if isinstance(spec, BallSpec):
        return (*ball_tilt_table(spec, t, thetas), None, QUADRATURE)

    def row(i):
        return tilt_moments_rejection(spec, t, thetas[i], rng_for(i), n_samples)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(row, range(m)))
    else:
        states = [row(i) for i in range(m)]
    return _stack_states(states, REJECTION)


def tilt_moments(spec: MeasureSpec, t: float, theta, *, stream=None,
                 n_samples: int = 1024) -> TiltState:
    """Moments of p_{t,theta}: `tilt_table` on a batch of one.

    Affine images use rejection sampling and need a `stream` key; their
    state carries `se_cov` (`tilt_moments_rejection` also gives `se_mean`).
    """
    theta = _validate(spec, t, theta)

    def rng_for(i):
        if stream is None:
            raise InputValidationError(
                f"{spec.family} spec needs a stream for rejection moments")
        return streams.generator(*_as_key(stream))

    log_z, mean, cov, se_cov, method = tilt_table(spec, t, theta[None, :], rng_for,
                                                  n_samples)
    if se_cov is None:
        return TiltState(t, theta, float(log_z[0]), mean[0], cov[0], method)
    return TiltState(t, theta, float(log_z[0]), mean[0], cov[0], method, n_samples,
                     se_cov=se_cov[0])


# ---------------------------------------------------------------------------
# Conditional-covariance identity


def conditional_covariance_identity_check(spec: MeasureSpec, t: float, seed: int,
                                          n_outer: int = 1024, n_inner: int = 64,
                                          sigma: float = 4.0, atol: float = 1e-8,
                                          tilt_samples: int = 1024) -> LemmaReport:
    """Check E A_t = E cov(X | X + sqrt(s) Z) with s = 1/t.

    Left side: tilt moments along simulated theta_t = t X + W_t, with
    ``tilt_samples`` draws per tilt on the rejection route.  Right side:
    a quadrature-free estimate -- for fresh pairs y = x + sqrt(s) z the
    conditional law of X given y is p_{t, t y}, sampled by rejection, and the
    empirical covariance of those draws estimates cov(X | y).  Both sides use
    disjoint streams, so the errors combine in quadrature.
    """
    if t <= 0:
        raise InputValidationError("t must be positive")
    dim = spec.dim

    thetas = np.empty((n_outer, dim))
    for i in range(n_outer):
        rng = streams.generator(seed, i, "cond-analytic")
        x = spec.sample(rng, 1)[0]
        thetas[i] = t * x + math.sqrt(t) * rng.standard_normal(dim)
    covs = tilt_table(spec, t, thetas,
                      lambda i: streams.generator(seed, i, "cond-analytic-tilt"),
                      n_samples=tilt_samples)[2]
    lhs = covs.mean(axis=0)
    se_lhs = jackknife_se(covs, axis=0)

    cond = np.empty((n_outer, dim, dim))
    s = 1.0 / t
    for i in range(n_outer):
        rng = streams.generator(seed, i, "cond-empirical")
        x = spec.sample(rng, 1)[0]
        y = x + math.sqrt(s) * rng.standard_normal(dim)
        draws, _, _ = tilt_sample_batch(spec, t, t * y, rng, n_inner)
        mu = draws.mean(axis=0)
        cond[i] = (draws - mu).T @ (draws - mu) / (n_inner - 1)
    rhs = cond.mean(axis=0)
    se_rhs = jackknife_se(cond, axis=0)

    gap = np.abs(lhs - rhs)
    tol = sigma * np.sqrt(se_lhs**2 + se_rhs**2) + atol
    worst = tuple(int(i) for i in np.unravel_index(np.argmax(gap - tol), gap.shape))
    return gate(
        "conditional-covariance",
        float(gap[worst]),
        float(tol[worst]),
        stderr=float(np.sqrt(se_lhs**2 + se_rhs**2)[worst]),
        notes=f"t={t:g}, worst entry {worst}, n_outer={n_outer}, n_inner={n_inner}",
    )
