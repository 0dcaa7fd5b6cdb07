"""Gaussian-tilted measures: their moments and exact draws.

For a measure rho and parameters (t, theta) the tilted probability density is

    p_{t,theta}(x) = exp(theta . x - t |x|^2 / 2) rho(x) / Z(t, theta).

The tables and the draws take a batch of thetas (m, n), one theta being a
batch of one, at one t > 0; `tilt_table` also takes the base state t = 0,
theta = 0, where localization starts: every catalog measure is isotropic
by construction, so it is mean 0 and covariance Id, with no moments to
look up.  Any other t = 0 call raises InputValidationError.

This module computes log Z, the barycenter a(t, theta) and the covariance
A(t, theta) of p_{t,theta} along two routes:

* closed form   -- truncated-normal algebra for the coordinate-product
                   factors, the Gaussian's ``gaussian`` factors among them
                   (the hot path for drivers);
* quadrature    -- adaptive 1D integration, one factor and theta at a time
                   (`factor_tilt_quadrature`), abs tol ~1e-12, the
                   independent oracle for the closed forms; and one fixed
                   Gauss-Legendre rule over u = x . theta/|theta| for the
                   ball and its 1D marginal (`ball_tilt_table`,
                   `numerics.radial_tilt_moments`).

`tilt_table` picks the route by family.  A spec outside the catalog's
families has no route.

`tilt_sample_batch` draws exact points of p_{t,theta} for a batch of thetas
(m, n), as `tilt_table` takes them, from one sampler for 1D log-concave
densities (`sample_log_concave`): a product's m n coordinates in one call,
a ball's m rows of u, then m size rows of |y| given u, then y's direction.
It branches on the measure family as `tilt_table` does.

A tilt that is not finite in floating point raises DivergentTilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance, streams
from .errors import DivergentTilt, InputValidationError
from .measures import BallSpec, MeasureSpec, ProductSpec
from .numerics import (WINDOW_BLOCK, gamma_p, jackknife_se, quad, radial_tilt_moments,
                       xlogy)
from .reports import COV_IDENTITY_FLOOR, LemmaReport, entrywise_gate

_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


def _validate(dim: int, t: float, theta, base: bool = False) -> np.ndarray:
    """theta, a batch of thetas, as floats of shape (m, dim); both finite, t > 0.

    ``base`` also admits the base state t = 0, theta = 0.
    """
    theta = np.asarray(theta, float)
    if theta.ndim != 2 or theta.shape[1] != dim:
        raise InputValidationError(f"theta must have shape (m, {dim})")
    if not np.isfinite(theta).all() or not np.isfinite(t):
        raise InputValidationError("t and theta must be finite")
    if not (t > 0 or (base and t == 0 and not theta.any())):
        raise InputValidationError("t must be > 0, or 0 at theta = 0" if base
                                   else "t must be > 0")
    return theta


# ---------------------------------------------------------------------------
# Closed forms


def gaussian_tilt(dim: int, t: float, theta: np.ndarray):
    """Conjugate closed form: p_{t,theta} = N(theta/(1+t), Id/(1+t)).

    ``theta`` has shape (..., dim), a batch of thetas.  Returns (log_z (...),
    mean (..., dim), var (..., dim)); var is the diagonal of the covariance,
    1/(1+t) for every theta.

    No route calls it: ``gaussian:n`` is a coordinate product and tilts
    through its factors' pieces.  It stays as the conjugate reference that
    the tests hold `tilt_table` to, and because `perfbench/spans.py` binds it
    by name; it goes with that binding (ROADMAP item 7).
    """
    tau = 1.0 + t
    log_z = -0.5 * dim * np.log(tau) + 0.5 * (theta ** 2).sum(axis=-1) / tau
    return log_z, theta / tau, np.full(np.shape(theta), 1.0 / tau)


def product_tilt_table(spec: ProductSpec, t: float, thetas: np.ndarray):
    """Vectorized tilt moments for a batch of thetas at one t > 0.

    Each factor law's batched `tilt_stats` serves all of its columns at
    once, in blocks of rows of about `WINDOW_BLOCK` windows, so that no
    temporary is larger than a block.  Returns (log_z (m,), mean (m, n),
    var (m, n)); var is the diagonal of A, which is diagonal for coordinate
    products.  Every number is per row, so the blocks do not move it.
    """
    thetas = np.asarray(thetas, float)
    m, n = thetas.shape
    log_z, mean, var = np.empty(m), np.empty((m, n)), np.empty((m, n))
    step = max(1, WINDOW_BLOCK // n)
    log_zs, sums = np.empty((2, min(step, m), n))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        block = thetas[rows]
        width = len(block)
        for f, cols in spec.laws:
            if len(cols) == n:  # one law for every column: views, not gathered copies
                cols = slice(None)
            log_zs[:width, cols], mean[rows, cols], var[rows, cols] = f.tilt_stats(
                t, block[:, cols])
        # summed in column order, so log_z does not depend on how the laws group
        log_z[rows] = np.cumsum(log_zs[:width], axis=1, out=sums[:width])[:, -1]
    return log_z, mean, var


def _log_inside(k: int, t: float, gap):
    """log P(chi2_k <= t gap): the log mass of N(0, Id_k/t) in the k-ball of radius gap^(1/2).

    0 when k = 0, where there is no y.
    """
    return np.log(gamma_p(0.5 * k, 0.5 * t * gap)) if k else np.zeros_like(gap)


def _directions(thetas: np.ndarray, s: np.ndarray) -> np.ndarray:
    """theta/|theta| (m, n) given |theta| (m,); theta = 0 is isotropic, so e_1 serves."""
    return np.where(s[:, None] > 0.0, thetas / np.where(s > 0.0, s, 1.0)[:, None],
                    np.eye(thetas.shape[1])[0])


def ball_tilt_table(spec: BallSpec, t: float, thetas: np.ndarray):
    """Exact tilt moments of the uniform ball for a batch of thetas (m, n) at one t > 0.

    Write x = u e + y with e = theta/|theta| and y orthogonal to e.  Given u,
    y is N(0, Id/t) cut to the (n-1)-ball of radius (R^2 - u^2)^(1/2), so u
    has the weight exp(|theta| u - t u^2/2) P(chi2_{n-1} <= t (R^2 - u^2))
    and E[|y|^2 | u] = (n-1)/t P(chi2_{n+1} <= .)/P(chi2_{n-1} <= .).  One
    `radial_tilt_moments` call integrates u, and mean = E[u] e,
    cov = Var(u) e e^T + E|y|^2/(n-1) (Id - e e^T).

    Returns (log_z (m,), mean (m, n), cov (m, n, n)); at small t and large n
    a row's chi-square mass underflows and it is not finite (`tilt_table` rejects it).
    """
    m, n = thetas.shape
    radius = spec.radius
    k = n - 1
    s = np.linalg.norm(thetas, axis=1)
    e = _directions(thetas, s)

    with np.errstate(divide="ignore", invalid="ignore"):  # tilt_table rejects NaN rows
        log_int, mean_u, var_u, gap, log_h, prob = radial_tilt_moments(
            s, t, radius, lambda gap: _log_inside(k, t, gap))
    log_z = log_int + 0.5 * k * math.log(2.0 * math.pi / t) - spec.entropy()
    lower = np.exp(log_h)
    ratio = np.divide(gamma_p(0.5 * k + 1.0, 0.5 * t * gap), lower,
                      out=np.zeros_like(gap), where=lower > 0.0)
    across = (prob * ratio).sum(axis=1) / t
    cov = across[:, None, None] * np.eye(n) + ((var_u - across)[:, None, None]
                                               * e[:, :, None] * e[:, None, :])
    return log_z, mean_u[:, None] * e, cov


# ---------------------------------------------------------------------------
# Quadrature oracle


def factor_tilt_quadrature(f, t: float, theta: float):
    """(log Z, mean, var) of one tilted 1D factor, t > 0, by adaptive quadrature."""
    theta = float(_validate(1, t, [[theta]])[0, 0])

    def exponent(x):
        return theta * x - 0.5 * t * x * x + f.log_density(np.asarray(x, float))

    # anchor the integrand at the mode of the concave exponent
    x_star = float(_find_mode(exponent, np.array([f.lo]), np.array([f.hi]),
                              f.tilt_mode(t, np.array([theta])))[0])
    m_log = float(exponent(x_star))

    def moment(k):
        return lambda x: (x - x_star) ** k * np.exp(exponent(x) - m_log)

    # breakpoints at the mode, so that no rule straddles a narrow peak, and at
    # the kinks between pieces, which a rule can miss between its outer nodes
    points = [x_star] + [end for _, _, lo, hi, _ in f.pieces for end in (lo, hi)]
    i0, i1, i2 = (quad(moment(k), f.lo, f.hi, points=points, **_QUAD_KW)[0]
                  for k in range(3))
    if i0 <= 0 or not np.isfinite(i0):
        raise DivergentTilt(f"tilt normalization failed on factor {f.tag}")
    mean_c = i1 / i0
    var = i2 / i0 - mean_c * mean_c
    return m_log + math.log(i0), x_star + mean_c, max(var, 0.0)


# ---------------------------------------------------------------------------
# Exact draws: one sampler for 1D log-concave densities


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_MODE_STEPS = 60     # golden-section steps: the bracket shrinks by 0.618^60 ~ 3e-13
_DROP_STEPS = 24     # bisection steps for a drop point: 2^-24 of its bracket


def _at(log_density, x):
    """log_density at one point x (m,) per row, as an (m,) array."""
    return log_density(x[:, None])[:, 0]


def _find_mode(log_density, lo, hi, mode):
    """Each row's mode: ``mode`` where it is known in closed form; in NaN rows
    golden section on the finite support [lo, hi], then the best of its point
    and both ends, where a concave log density may peak."""
    search = np.isnan(mode)
    if not search.any():
        return mode
    if not (np.isfinite(lo[search]).all() and np.isfinite(hi[search]).all()):
        raise InputValidationError("a mode search needs a finite support")
    lo, hi = np.where(search, lo, mode), np.where(search, hi, mode)
    a, b = lo.copy(), hi.copy()
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = _at(log_density, c), _at(log_density, d)
    for _ in range(_MODE_STEPS):
        right = fd > fc                      # the mode lies in [c, b]
        a, b = np.where(right, c, a), np.where(right, b, d)
        new = np.where(right, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        f_new = _at(log_density, new)
        c, fc, d, fd = (np.where(right, d, new), np.where(right, fd, f_new),
                        np.where(right, new, c), np.where(right, f_new, fc))
    points = np.stack([0.5 * (a + b), lo, hi], axis=1)
    values = np.nan_to_num(log_density(points), nan=-np.inf)
    return points[np.arange(len(lo)), values.argmax(axis=1)]


def _drop_point(log_density, mode, top, end, sign):
    """(point, drop) per row, going from ``mode`` toward ``end``.

    ``point`` is where log_density has dropped by ``drop`` >= 1 from
    ``top``: a bisection bracket end, found by doubling steps from the mode
    when ``end`` is infinite.  A side whose support ends before the density
    drops by 1 has no tail: point = end and drop = inf.
    """
    finite = np.isfinite(end)
    no_tail = finite & (_at(log_density, np.where(finite, end, mode)) >= top - 1.0)
    near, far = mode.copy(), np.where(finite, end, mode)
    grow, step = ~finite, 1.0
    while grow.any():
        far = np.where(grow, mode + sign * step, far)
        grow &= _at(log_density, far) > top - 1.0
        near = np.where(grow, far, near)
        step *= 2.0
    for _ in range(_DROP_STEPS):
        mid = 0.5 * (near + far)
        inside = _at(log_density, mid) > top - 1.0
        near, far = np.where(inside, mid, near), np.where(inside, far, mid)
    drop = top - _at(log_density, far)
    return np.where(no_tail, end, far), np.where(no_tail, np.inf, drop)


@dataclass(frozen=True)
class Envelope:
    """Devroye's envelope for m log-concave densities, one per row.

    It is flat at ``top`` (m,) = log rho(mode) between ``ends`` (2, m), the
    left and right points where log rho has dropped by ``drops`` (2, m) >= 1
    (inf where the support ends first).  Beyond an end, concavity keeps
    log rho below the chord from the mode through it: top - drop - slope
    |x - end|, with ``slopes`` = drops / |end - mode|.  The flat part holds
    at least 1 - 1/e of the density's mass over its width, so at least
    1/(e+1) of the proposals are accepted.
    """

    top: np.ndarray
    ends: np.ndarray
    drops: np.ndarray
    slopes: np.ndarray

    def draw(self, rng: np.random.Generator, k: int):
        """k proposals per row (m, k) and the log envelope at each."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mass = np.exp(-self.drops) / self.slopes     # each tail's, 0 without one
        width = self.ends[1] - self.ends[0]
        pick, pos = rng.random((2, len(self.top), k))
        pick *= (mass[0] + width + mass[1])[:, None]
        side = (pick >= (mass[0] + width)[:, None]).astype(int)   # 1: right tail
        in_tail = (side == 1) | (pick < mass[0][:, None])
        rows = np.arange(len(self.top))[:, None]
        depth = -np.log1p(-pos)                      # Exp(1), into a tail
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(in_tail, self.ends[side, rows]
                         + (2 * side - 1) * depth / self.slopes[side, rows],
                         self.ends[0][:, None] + pos * width[:, None])
        return x, self.top[:, None] - np.where(in_tail, self.drops[side, rows] + depth, 0.0)


def envelope(log_density, lo, hi, mode) -> Envelope:
    """The `Envelope` of m log-concave densities on [lo, hi] (each (m,)).

    ``log_density`` maps x (m, k) to log rho (m, k), each row up to its own
    constant and -inf outside its support.  ``mode`` (m,) gives each row's
    mode where it is known in closed form; NaN rows, or all rows when it is
    None, are found by golden section, which needs a finite support.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    mode = _find_mode(log_density, lo, hi, np.full(lo.shape, np.nan) if mode is None
                      else np.asarray(mode, float))
    top = _at(log_density, mode)
    if not np.isfinite(top).all():
        raise DivergentTilt("tilted density has no finite peak")
    (left, drop_left), (right, drop_right) = (_drop_point(log_density, mode, top, lo, -1.0),
                                              _drop_point(log_density, mode, top, hi, 1.0))
    ends, drops = np.stack([left, right]), np.stack([drop_left, drop_right])
    with np.errstate(divide="ignore"):
        return Envelope(top, ends, drops, drops / np.abs(ends - mode))


def sample_log_concave(log_density, lo, hi, rng: np.random.Generator, size: int,
                       mode=None):
    """Exact draws from m 1D log-concave densities, ``size`` per row.

    Rejection from the rows' `envelope` (arguments as there), which accepts
    at least 1/(e+1) of its proposals whatever the density.  Returns (draws
    (m, size), proposals, accepted); ``accepted`` counts every accepted
    proposal, surplus included, so accepted/proposals estimates the
    acceptance rate without truncation bias.
    """
    env = envelope(log_density, lo, hi, mode)
    m = len(env.top)
    out = np.empty((m, size))
    filled = np.zeros(m, dtype=int)
    proposals = accepted = 0
    while (filled < size).any():
        pending = filled < size
        k = 2 * int((size - filled).max()) + 4
        x, log_env = env.draw(rng, k)
        with np.errstate(invalid="ignore"):
            keep = np.log(rng.random((m, k))) < log_density(x) - log_env
        keep &= pending[:, None]
        rank = np.cumsum(keep, axis=1) - 1
        take = keep & (rank < (size - filled)[:, None])
        rows, cols = np.nonzero(take)
        out[rows, filled[rows] + rank[rows, cols]] = x[rows, cols]
        filled += take.sum(axis=1)
        proposals += k * int(pending.sum())
        accepted += int(keep.sum())
    return out, proposals, accepted


def _product_draws(spec: ProductSpec, t: float, thetas: np.ndarray, rng, size: int):
    """Coordinate j of row i from exp(theta_ij x - t x^2/2) rho_j(x): the m n
    rows of one `sample_log_concave` call, returned as (m, size, n)."""
    m, n = thetas.shape
    mode = np.empty((m, n))
    for f, cols in spec.laws:
        mode[:, cols] = f.tilt_mode(t, thetas[:, cols])

    def log_density(x):
        x = x.reshape(m, n, -1)
        out = thetas[:, :, None] * x - 0.5 * t * x * x
        for f, cols in spec.laws:
            out[:, cols] += f.log_density(x[:, cols])
        return out.reshape(m * n, -1)

    draws, proposals, accepted = sample_log_concave(
        log_density, np.tile([f.lo for f in spec.factors], m),
        np.tile([f.hi for f in spec.factors], m), rng, size, mode=mode.ravel())
    return draws.reshape(m, n, size).transpose(0, 2, 1), proposals, accepted


def _ball_draws(spec: BallSpec, t: float, thetas: np.ndarray, rng, size: int):
    """x = u e + y as in `ball_tilt_table`, (m, size, n): u from its weight,
    m rows; then |y| from rho^(n-2) exp(-t rho^2/2) on [0, (R^2 - u^2)^(1/2)],
    m size rows; then y's direction uniformly in e's orthogonal complement."""
    m, n = thetas.shape
    radius = spec.radius
    # |theta| by one dot product per row, as np.linalg.norm takes it for one
    # theta: the axis=1 norm can differ by an ulp, which moves every seeded draw
    s = np.sqrt((thetas[:, None, :] @ thetas[:, :, None])[:, 0, 0])
    e = _directions(thetas, s)

    def u_weight(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = _log_inside(n - 1, t, (radius - u) * (radius + u))
        return np.where(np.abs(u) <= radius, s[:, None] * u - 0.5 * t * u * u + inside,
                        -np.inf)

    u, proposals, accepted = sample_log_concave(u_weight, np.full(m, -radius),
                                                np.full(m, radius), rng, size)
    if n == 1:
        return u[:, :, None] * e[:, None, :], proposals, accepted
    reach = np.sqrt(np.maximum((radius - u) * (radius + u), 0.0)).ravel()

    def radial(rho):
        with np.errstate(divide="ignore"):
            inside = (rho >= 0.0) & (rho <= reach[:, None])
            return np.where(inside, xlogy(n - 2, rho) - 0.5 * t * rho * rho, -np.inf)

    rho, p, a = sample_log_concave(radial, np.zeros(m * size), reach, rng, 1,
                                   mode=np.minimum(math.sqrt((n - 2) / t), reach))
    g = rng.standard_normal((m, size, n))
    g -= (g @ e[:, :, None]) * e[:, None, :]
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    return (u[:, :, None] * e[:, None, :] + rho.reshape(m, size, 1) * g,
            proposals + p, accepted + a)


def tilt_sample_batch(spec: MeasureSpec, t: float, thetas, rng: np.random.Generator,
                      size: int):
    """Draw ``size`` exact points of p_{t,theta} for each row of thetas (m, n), t > 0.

    Returns (samples (m, size, n), proposals, accepted), the counts summed
    over every 1D draw: m n size on a product; on a ball m size for u and,
    when n > 1, m size more for |y|.
    """
    thetas = _validate(spec.dim, t, thetas)
    if spec.factors is not None:
        return _product_draws(spec, t, thetas, rng, size)
    if isinstance(spec, BallSpec):
        return _ball_draws(spec, t, thetas, rng, size)
    raise InputValidationError(_NO_ROUTE.format(spec.measure_id()))


# ---------------------------------------------------------------------------
# Dispatch

# the Gaussian is one of the coordinate products; the message still names the
# family a user types
_NO_ROUTE = "{} has no tilt route: tilts exist for Gaussians, coordinate products and balls"


def cov_shape(spec: MeasureSpec) -> tuple:
    """Shape of one row's covariance from `tilt_table`: (n, n) for balls, else variances (n,)."""
    n = spec.dim
    return (n, n) if isinstance(spec, BallSpec) else (n,)


def tilt_table(spec: MeasureSpec, t: float, thetas: np.ndarray):
    """Tilt moments for a batch of thetas (m, n) at one t, by the family's route.

    Returns (log_z (m,), mean (m, n), cov).  ``cov`` is in the shape of its
    structure (`cov_shape`): the variances (m, n) for coordinate products,
    Gaussians among them, whose tilts have diagonal covariances, and full
    matrices (m, n, n) for balls.  t = 0 is the base state, theta = 0,
    isotropic by construction: log Z = 0, mean 0, covariance Id.  At t > 0
    coordinate products are exact (`product_tilt_table`: closed form, with
    the ballmarg factor by quadrature); balls use `ball_tilt_table`.  Other
    specs, a batch of another width, a non-finite entry, t < 0 and t = 0
    with theta != 0 raise InputValidationError; a non-finite row, on any
    route, raises DivergentTilt naming the measure, t and its |theta|.
    """
    thetas = _validate(spec.dim, t, thetas, base=True)
    if not (isinstance(spec, BallSpec) or spec.factors is not None):
        raise InputValidationError(_NO_ROUTE.format(spec.measure_id()))
    m, n = thetas.shape
    if t == 0.0:
        # the base measure, isotropic by construction: mean 0, covariance Id
        cov = np.ones((m, n)) if cov_shape(spec) == (n,) else np.tile(np.eye(n), (m, 1, 1))
        return np.zeros(m), np.zeros((m, n)), cov
    with np.errstate(divide="ignore", invalid="ignore"):  # non-finite rows raise below
        table = (ball_tilt_table(spec, t, thetas) if spec.factors is None
                 else product_tilt_table(spec, t, thetas))
    if not all(np.isfinite(a).all() for a in table):
        bad = ~np.logical_and.reduce([np.isfinite(a).reshape(m, -1).all(axis=1)
                                      for a in table])
        raise DivergentTilt(f"{spec.measure_id()} tilt at t={t:g} is not finite at "
                            f"|theta|={np.linalg.norm(thetas[bad][0]):.6g}")
    return table


# ---------------------------------------------------------------------------
# Conditional-covariance identity


def conditional_covariance_identity_check(ensemble, k: int, seed: int,
                                          sigma: float = 4.0) -> LemmaReport:
    """Check E A_t = E cov(X | X + sqrt(s) Z) with s = 1/t, at grid time t = t_k.

    Left side: the mean over paths of A_t in the run's `PathEnsemble` at
    grid index k, exact tilts along theta_t = t X + W_t.
    Right side: for n_outer = min(paths, 1024) fresh pairs y = x + sqrt(s) z
    the conditional law of X given y is p_{t, t y}; one `tilt_sample_batch`
    call draws n_inner = 64 exact points from each, and their empirical
    covariance estimates cov(X | y).  Pairs and draws come from one stream
    key per check, so they depend on n_outer.  The
    right side uses draws only, from the envelope sampler, and shares no
    formula with the left's tilt table on any family, the Gaussian
    included; the two sides use disjoint streams, so their errors combine
    in quadrature.
    """
    spec = ensemble.spec
    t = float(ensemble.grid.points[k])
    if t <= 0:
        raise InputValidationError("t must be positive")
    dim = spec.dim
    n_outer, n_inner = min(ensemble.n_paths, 1024), 64

    covs = covariance.dense_rows(ensemble.cov[:, k])
    lhs = covs.mean(axis=0)
    se_lhs = jackknife_se(covs)

    rng = streams.generator(seed, "cond-empirical")
    y = spec.sample(rng, n_outer) + rng.standard_normal((n_outer, dim)) / math.sqrt(t)
    draws = tilt_sample_batch(spec, t, t * y, rng, n_inner)[0]
    centred = draws - draws.mean(axis=1, keepdims=True)
    cond = centred.transpose(0, 2, 1) @ centred / (n_inner - 1)
    rhs = cond.mean(axis=0)
    se_rhs = jackknife_se(cond)

    se = np.sqrt(se_lhs**2 + se_rhs**2)
    return entrywise_gate("conditional-covariance", np.abs(lhs - rhs),
                          sigma * se + COV_IDENTITY_FLOOR, se,
                          notes=f"t={t:g}, n_outer={n_outer}, n_inner={n_inner},")
