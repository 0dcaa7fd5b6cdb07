"""Stochastic localization driver and its verification checks.

The localization process theta_t solves d theta_t = dW_t + a(t, theta_t) dt,
theta_0 = 0, where a(t, theta) is the barycenter of the tilted measure
p_{t,theta}.  It is equal in law to the explicit process t X + W_t with
X ~ rho independent of W; both representations are implemented:

* ``direct``  -- theta_t = t X + W_t, exact at every grid time;
* ``sde``     -- Euler-Maruyama on the drift form.

Both drivers derive Brownian increments from the stream key
``(seed, path_index, "w")``, so a common path index means common randomness
and sharp paired comparisons.

Along each path the tilt moments (a, A, log Z) are computed at every grid
time, one block of grid times at a time (`tilt_blocks`, `time_blocks`).
``simulate`` folds each block into its per-time statistics (`StatsFold`)
as the driver tilts it, and keeps only theta whole; `simulate_ensemble`
keeps every block in a `PathEnsemble`, which the checks below read.  They
verify, with Monte Carlo error bars, the identities

    E A_t + E a_t (x) a_t = Id                    (conservation of variance)
    d/dt E A_t = -E A_t^2                          (covariance decay)
    A_t <= Id / t almost surely                    (spectral bound)
    E (a_t - theta_t/(1+t)) (x) theta_t = 0        (orthogonality)
    E p_{t,theta_t}(x) = rho(x)                    (density martingale)

plus the diagnostic ratio sup_{t > 0} E tr[A_t^2] / n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covariance, streams
from .errors import InputValidationError
from .measures import MeasureSpec
from .numerics import jackknife_se, time_blocks
from .reports import (COV_IDENTITY_FLOOR, ROUNDING_FLOOR, LemmaReport, composite_gate,
                      derivative_gate, entrywise_gate, info, ks_gate)
from .tilt import cov_shape, tilt_table

MAX_STEP_RATIO = 1.5


# ---------------------------------------------------------------------------
# Time grids


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid 0 = t_0 < t_1 < ... < t_{K-1}."""

    points: np.ndarray
    kind: str = "geometric"

    def __post_init__(self):
        pts = np.asarray(self.points, float)
        if pts.ndim != 1 or len(pts) < 2:
            raise InputValidationError("grid needs at least two points")
        if pts[0] != 0.0:
            raise InputValidationError("grid must start at t = 0")
        if not np.isfinite(pts).all() or (np.diff(pts) <= 0).any():
            raise InputValidationError("grid points must be finite and strictly increasing")
        if self.kind == "geometric" and len(pts) > 3:
            ratios = pts[2:] / pts[1:-1]
            if ratios.max() > MAX_STEP_RATIO + 1e-9:
                raise InputValidationError(
                    f"geometric step ratio {ratios.max():.3f} exceeds {MAX_STEP_RATIO}")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def r_points(self) -> np.ndarray:
        """Image of the grid under r = t / (1 + t)."""
        return self.points / (1.0 + self.points)


def make_geometric(t_min: float = 0.01, t_max: float = 100.0, n_points: int = 40,
                   include=()) -> TimeGrid:
    """Geometric grid on [t_min, t_max] with t = 0 prepended.

    ``include`` merges extra anchor times (each in [t_min, t_max]) into the
    grid, e.g. to place checks at exact r values.
    """
    if t_min <= 0:
        raise InputValidationError("t_min must be positive; t = 0 is prepended automatically")
    if t_max <= t_min or n_points < 2:
        raise InputValidationError("need t_max > t_min and n_points >= 2")
    pts = np.geomspace(t_min, t_max, n_points)
    extra = np.asarray(list(include), float)
    if extra.size:
        if extra.min() < t_min or extra.max() > t_max:
            raise InputValidationError("include anchors must lie in [t_min, t_max]")
        pts = np.unique(np.concatenate([pts, extra]))
        keep = np.concatenate([[True], np.diff(pts) / pts[:-1] > 1e-9])
        pts = pts[keep]
    return TimeGrid(np.concatenate([[0.0], pts]), "geometric")


def make_uniform(t_max: float, n_steps: int) -> TimeGrid:
    if t_max <= 0 or n_steps < 1:
        raise InputValidationError("need t_max > 0 and n_steps >= 1")
    return TimeGrid(np.linspace(0.0, t_max, n_steps + 1), "uniform")


# ---------------------------------------------------------------------------
# Paths and ensembles


@dataclass(frozen=True)
class PathEnsemble:
    """Path-indexed arrays for a whole ensemble (axis 0 = path).

    ``cov`` holds the tilt covariances A_t in the shape of their structure
    (see `covariance`): the diagonals (m, K, n) for coordinate products, the
    Gaussian among them, full matrices (m, K, n, n) for balls.
    """

    spec: MeasureSpec
    grid: TimeGrid
    theta: np.ndarray           # (m, K, n)
    mean: np.ndarray            # (m, K, n)
    cov: np.ndarray             # (m, K, n) or (m, K, n, n)
    log_z: np.ndarray           # (m, K)

    @property
    def n_paths(self) -> int:
        return self.theta.shape[0]

    @functools.cached_property
    def stats(self) -> "EnsembleStats":
        """`ensemble_stats` of this ensemble, reduced on first read."""
        return ensemble_stats(self)


def path_keys(seed: int, n_paths: int, salt: str = "") -> list:
    """Stream keys of ``n_paths`` paths: ``(seed, i)``, or ``(seed, salt, i)``."""
    if n_paths < 1:
        raise InputValidationError("n_paths must be >= 1")
    return [(seed, salt, i) if salt else (seed, i) for i in range(n_paths)]


def brownian_increments(keys, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Increments W_{t_{k+1}} - W_{t_k} of every key's path, written into ``out`` (m, K - 1, n).

    Path ``key`` draws them from the stream ``(*key, "w")``, so equal keys
    mean equal increments whichever driver reads them.
    """
    dt = np.diff(t)
    for row, rng in zip(out, streams.each((*key, "w") for key in keys)):
        rng.standard_normal(out=row)
    out *= np.sqrt(dt)[:, None]
    return out


def _draw_x(spec, keys) -> np.ndarray:
    x = np.empty((len(keys), spec.dim))
    for i, rng in enumerate(streams.each((*key, "x") for key in keys)):
        x[i] = spec.sample(rng, 1)[0]
    return x


def start_paths(spec: MeasureSpec, grid: TimeGrid, keys, driver: str) -> np.ndarray:
    """theta (m, K, n) of every key's path before any tilt.

    For ``direct`` it is final, theta_t = t X + W_t; for ``sde`` it holds
    the Brownian increments, onto which `tilt_blocks` adds each Euler step.
    Both are built in theta itself: the increments are drawn into it, the
    direct driver sums them in place and adds t X one grid time at a time
    through one (m, n) buffer, so nothing else of theta's size is built.
    """
    t = grid.points
    n = spec.dim
    if driver not in ("direct", "sde"):
        raise InputValidationError(f"unknown driver {driver!r}")

    theta = np.empty((len(keys), len(t), n))
    theta[:, 0] = 0.0
    # the increments, written in place; each sde Euler step adds onto its own
    w = brownian_increments(keys, t, theta[:, 1:])
    if driver == "direct":
        # theta_t = t X + W_t: the increments' running sum, then t X.  X and W
        # come from their own streams, so the order of the draws moves no number.
        np.cumsum(w, axis=1, out=w)
        x = _draw_x(spec, keys)
        tx = np.empty_like(x)
        for k in range(1, len(t)):
            theta[:, k] += np.multiply(x, t[k], out=tx)
    return theta


def tilt_blocks(spec: MeasureSpec, grid: TimeGrid, theta: np.ndarray, driver: str, out):
    """Tilt the paths ``theta`` of `start_paths`, yielding one block of grid times at a time.

    Yields ``(b, mean, cov, log_z)`` for the consecutive blocks ``b`` of
    `time_blocks`: mean (m, k, n), cov (m, k) + `tilt.cov_shape` and log_z
    (m, k).  With ``out`` None one set of block arrays, allocated for the
    widest block, serves every block, so each yielded block is valid until
    the next one, as with `streams.each`; ``out`` = (mean, cov, log_z),
    whole (m, K, ...) arrays, receives them in place and the blocks are its
    views.  The ``sde`` driver's Euler steps complete ``theta`` as it goes,
    through one (m, n) buffer: when a block is yielded, theta is final at
    its grid times.
    """
    t = grid.points
    m, k_pts, n = theta.shape
    dt = np.diff(t)
    row = cov_shape(spec)
    blocks = time_blocks(k_pts, m * math.prod(row) * theta.itemsize)
    tails = ((n,), row, ())
    widest = m * (blocks[0].stop - blocks[0].start)
    scratch = [np.empty(widest * math.prod(tail)) for tail in tails] if out is None else None
    step = np.empty((m, n))  # the sde driver's Euler step
    for b in blocks:
        if out is None:
            width = b.stop - b.start
            mean, cov, log_z = (a[:m * width * math.prod(tail)].reshape((m, width) + tail)
                                for a, tail in zip(scratch, tails))
        else:
            mean, cov, log_z = (a[:, b] for a in out)
        for j, k in enumerate(range(b.start, b.stop)):
            log_z[:, j], mean[:, j], cov[:, j] = tilt_table(spec, t[k], theta[:, k])
            if driver == "sde" and k + 1 < k_pts:  # Euler step, drift a_t = mean of the tilt
                np.multiply(mean[:, j], dt[k], out=step)
                step += theta[:, k]
                theta[:, k + 1] += step
        yield b, mean, cov, log_z


def simulate_ensemble(spec: MeasureSpec, grid: TimeGrid, n_paths: int, seed: int,
                      driver: str = "direct", *, salt: str = "") -> PathEnsemble:
    """Simulate ``n_paths`` independent paths and keep every path array.

    Path i uses the stream key ``(seed, i)`` (or ``(seed, salt, i)``), so its
    arrays do not depend on ``n_paths``, and the two drivers share Brownian
    increments for equal keys.  `tilt_blocks` writes into the ensemble's
    arrays in place.
    """
    theta = start_paths(spec, grid, path_keys(seed, n_paths, salt), driver)
    shape = (n_paths, grid.n_points)
    out = (np.empty(shape + (spec.dim,)), np.empty(shape + cov_shape(spec)), np.empty(shape))
    for _ in tilt_blocks(spec, grid, theta, driver, out):
        pass
    return PathEnsemble(spec, grid, theta, *out)


# ---------------------------------------------------------------------------
# Ensemble statistics


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time ensemble means and their standard errors s / sqrt(m).

    Holds only what the checks and `simulate`'s stats.csv read, and the
    per-path traces those means come from, which `derivative-identity`'s
    trace gate differentiates.
    """

    t: np.ndarray
    r: np.ndarray
    n_paths: int
    dim: int
    mean_decomp: np.ndarray       # (K, n, n)  E[A + a (x) a]
    se_decomp: np.ndarray
    mean_tr_cov: np.ndarray       # (K,)
    se_tr_cov: np.ndarray
    mean_tr_cov_sq: np.ndarray    # (K,)  E tr[A^2]
    se_tr_cov_sq: np.ndarray
    eig_min: np.ndarray           # (K,) of E A_t
    eig_max: np.ndarray
    tr_cov: np.ndarray            # (m, K) tr A_t per path
    tr_cov_sq: np.ndarray         # (m, K) tr A_t^2 per path


class StatsFold:
    """`EnsembleStats` reduced one block of grid times at a time.

    ``add`` takes a block's tilt means (m, k, n) and covariances, in the
    layout of `covariance`; `ensemble_stats` feeds it slices of a stored
    ensemble, and ``simulate`` the blocks of `tilt_blocks` as the driver
    tilts them.  E[a (x) a + A] and its error come from
    `covariance.outer_mean_se`: for diagonal covariances (Gaussians and
    coordinate products) by moment reductions, with no per-path outer
    product; full covariances (balls) still take the per-path route.  Blocks
    of `time_blocks` cover about `numerics.BLOCK_BYTES` = 1 MiB of covariances, so
    the temporaries are a few block-sized arrays instead of whole (m, K, n)
    or (m, K, n, n) ones.  At that size they stay small beside a path array
    (10.75 MiB on cube:32 with 1024 paths, which takes 11 blocks), each
    block still gives numpy whole matrices of work per call, and a
    3-dimensional product with 1024 paths or ball:4 with 64 fits in one
    block.  Every statistic is per grid time, so the blocks give the
    whole-array values bit for bit.  What it keeps whole is per path and
    time scalars (tr A_t and tr A_t^2, (m, K) each) and per-time reductions.
    """

    def __init__(self, grid: TimeGrid, n_paths: int, dim: int):
        k_pts = grid.n_points
        self.grid = grid
        self.mean_decomp = np.empty((k_pts, dim, dim))
        self.se_decomp = np.empty((k_pts, dim, dim))
        self.tr_cov = np.empty((n_paths, k_pts))
        self.tr_cov_sq = np.empty((n_paths, k_pts))
        self.eig_min = np.empty(k_pts)
        self.eig_max = np.empty(k_pts)

    def add(self, b: slice, mean: np.ndarray, cov: np.ndarray) -> None:
        """Fold in grid times ``b``: their tilt means and covariances."""
        self.mean_decomp[b], self.se_decomp[b] = covariance.outer_mean_se(mean, mean, cov)
        self.tr_cov[:, b] = covariance.trace(cov)
        self.tr_cov_sq[:, b] = covariance.trace(covariance.square(cov))
        lo, hi = covariance.eig_extremes(cov.mean(axis=0, keepdims=True))
        self.eig_min[b], self.eig_max[b] = lo[0], hi[0]

    def stats(self) -> EnsembleStats:
        """The statistics, once every grid time is folded in."""
        m, _ = self.tr_cov.shape
        return EnsembleStats(
            t=self.grid.points, r=self.grid.r_points, n_paths=m, dim=self.mean_decomp.shape[-1],
            mean_decomp=self.mean_decomp, se_decomp=self.se_decomp,
            mean_tr_cov=self.tr_cov.mean(axis=0), se_tr_cov=jackknife_se(self.tr_cov),
            mean_tr_cov_sq=self.tr_cov_sq.mean(axis=0),
            se_tr_cov_sq=jackknife_se(self.tr_cov_sq),
            eig_min=self.eig_min, eig_max=self.eig_max,
            tr_cov=self.tr_cov, tr_cov_sq=self.tr_cov_sq,
        )


def ensemble_stats(ensemble: PathEnsemble) -> EnsembleStats:
    """Reduce a stored ensemble to per-time statistics, a `StatsFold` over its `time_blocks`."""
    m, k_pts, n = ensemble.mean.shape
    fold = StatsFold(ensemble.grid, m, n)
    for b in time_blocks(k_pts, ensemble.cov[:, 0].nbytes):
        fold.add(b, ensemble.mean[:, b], ensemble.cov[:, b])
    return fold.stats()


# ---------------------------------------------------------------------------
# Checks


def check_variance_decomposition(ensemble: PathEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E A_t + E a_t (x) a_t = Id at every grid time, entrywise."""
    stats = ensemble.stats
    target = np.eye(stats.dim)
    gap = np.abs(stats.mean_decomp - target)
    tol = sigma * stats.se_decomp + COV_IDENTITY_FLOOR
    return entrywise_gate("variance-decomposition", gap, tol, stats.se_decomp,
                          notes=f"n_paths={stats.n_paths},")


def check_derivative_identity(ensemble: PathEnsemble, sigma: float = 4.0) -> LemmaReport:
    """d/dt E A_t = -E A_t^2 by non-uniform central differences.

    Tolerance is sigma * (stderr + discretization budget); the budget comes
    from step-doubling Richardson on the ensemble mean curve, so it is
    conservative where the mean curve is noisy.  Both gates read a block of
    grid times at a time (`derivative_gate`); the trace gate reads the
    per-path tr A_t and tr A_t^2 that `ensemble.stats` already holds.
    """
    t = ensemble.grid.points
    if len(t) < 5:
        raise InputValidationError("need at least 5 grid times for the derivative check")
    cov = ensemble.cov
    stats = ensemble.stats
    mat = derivative_gate("derivative-identity", lambda s: cov[:, s], t,
                          lambda s: -covariance.square(cov[:, s]), sigma)
    tr = derivative_gate("derivative-identity-trace", lambda s: stats.tr_cov[:, s], t,
                         lambda s: -stats.tr_cov_sq[:, s], sigma)
    return composite_gate("derivative-identity", (mat, tr),
                          notes=f"interior times {len(t) - 2}")


# exact tilts meet A_t <= Id / t up to eigenvalue rounding, far below this slack
SPECTRAL_SLACK = 1e-6


def spectral_margin(mats: np.ndarray, clock: np.ndarray) -> np.ndarray:
    """Pathwise margin clock * lambda_max(mats) - 1, (m, K), indexed by grid time.

    ``mats`` is a covariance array on the grid ``clock`` (K,), diagonal
    (m, K, n) or full (m, K, n, n).  The first grid point is 0, where the
    margin is exactly -1, so it is never the worst entry.  Every tilt is
    exact, so callers gate it with the flat `SPECTRAL_SLACK`.
    """
    lam = covariance.eig_extremes(mats)[1]
    return lam * clock[None, :] - 1.0


def check_spectral_bound(ensemble: PathEnsemble) -> LemmaReport:
    """Pathwise bound t * lambda_max(A_t) <= 1 at every t > 0, up to `SPECTRAL_SLACK`."""
    margin = spectral_margin(ensemble.cov, ensemble.grid.points)
    bad = margin > SPECTRAL_SLACK
    notes = f"paths={ensemble.n_paths}, violations={int(bad.sum())},"
    if bad.any():
        ids = sorted(set(np.where(bad)[0].tolist()))[:8]
        notes += f" offending paths {ids},"
    return entrywise_gate("spectral-bound", margin, SPECTRAL_SLACK, notes=notes)


def trace_square_ratio(ensemble: PathEnsemble) -> LemmaReport:
    """Diagnostic: sup over grid times t > 0 of E tr[A_t^2] / n (INFO, never gates).

    It tracks the dimension-free bound on E tr[A_t^2] / n behind the
    slicing theorem (Guan 2024; Klartag 2023; PAPER.md).  A_0 is the
    covariance of rho, so at t = 0 the ratio is 1 on every isotropic
    measure and says nothing; the grid's t = 0 is left out.
    """
    stats = ensemble.stats
    ratio = stats.mean_tr_cov_sq / stats.dim
    k = 1 + int(np.argmax(ratio[1:]))
    return info("trace-ratio", float(ratio[k]), float(stats.se_tr_cov_sq[k] / stats.dim),
                notes=f"max at t={stats.t[k]:g}; dimension-free bound expected O(1)")


def check_orthogonality(ensemble: PathEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E (a_t - theta_t/(1+t)) (x) theta_t = 0 entrywise at every grid time."""
    t = ensemble.grid.points
    resid = ensemble.mean - ensemble.theta / (1.0 + t)[None, :, None]
    mean, se = covariance.outer_mean_se(resid, ensemble.theta)
    return entrywise_gate("orthogonality", np.abs(mean), sigma * se + ROUNDING_FLOOR, se,
                          notes=f"n_paths={ensemble.n_paths},")


def check_monotone_trace(ensemble: PathEnsemble, sigma: float = 4.0) -> LemmaReport:
    """t -> E tr A_t is non-increasing (paired consecutive differences)."""
    tr = ensemble.stats.tr_cov
    d = tr[:, 1:] - tr[:, :-1]
    mean = d.mean(axis=0)
    se = jackknife_se(d)
    return entrywise_gate("monotone-trace", mean, sigma * se + ROUNDING_FLOOR, se,
                          notes="consecutive grid increments,")


def martingale_x_grid(spec: MeasureSpec) -> np.ndarray:
    """21 points across the support of a 1D measure, cut to [-4, 4], 5% in from each end."""
    f = spec.factors[0] if spec.factors else None
    lo = max(f.lo, -4.0) if f is not None else -spec.radius
    hi = min(f.hi, 4.0) if f is not None else spec.radius
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, 21)


def check_density_martingale(ensemble: PathEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E p_{t, theta_t}(x) = rho(x) at every grid time, on the `martingale_x_grid`."""
    spec = ensemble.spec
    if spec.dim != 1:
        raise InputValidationError("density martingale check is 1D")
    x_grid = martingale_x_grid(spec)

    log_rho = spec.log_density(x_grid[:, None])
    t = ensemble.grid.points
    p = (ensemble.theta[:, :, 0, None] * x_grid[None, None, :]
         - 0.5 * t[None, :, None] * x_grid[None, None, :] ** 2
         + log_rho[None, None, :] - ensemble.log_z[:, :, None])
    np.exp(p, out=p)  # in place: one (m, K, 21) array
    mean = p.mean(axis=0)
    se = jackknife_se(p)
    gap = np.abs(mean - np.exp(log_rho)[None, :])
    return entrywise_gate("martingale", gap, sigma * se + ROUNDING_FLOOR, se,
                          notes=f"{len(x_grid)} x-points, n_paths={ensemble.n_paths},")


def check_driver_equivalence(spec: MeasureSpec, seed: int, n_paths: int,
                             sigma: float = 4.0) -> LemmaReport:
    """SDE and direct drivers, ``n_paths`` paths each, agree in law at t = 1 after 64 Euler steps.

    Paired first/second moments via common random numbers: the sde ensemble
    and the direct side's theta(t_max) = t_max X + W_(t_max), the last time
    of `start_paths`, draw equal increments from equal keys on the grid
    [0, t_max], and the direct side needs no tilt.  Per-coordinate
    two-sample KS against an independent direct theta(t_max) (independence
    keeps the KS null distribution valid); the smallest of the n p-values
    is gated by `reports.ks_gate`.
    """
    t_max, n_steps = 1.0, 64
    grid = make_uniform(t_max, n_steps)
    a = simulate_ensemble(spec, grid, n_paths, seed, driver="sde").theta[:, -1]
    b = start_paths(spec, grid, path_keys(seed, n_paths), "direct")[:, -1]
    fresh = start_paths(spec, make_uniform(t_max, 1), path_keys(seed, n_paths, "ks"),
                        "direct")[:, -1]

    d1 = a - b
    d2 = a * a - b * b
    m1, s1 = d1.mean(axis=0), jackknife_se(d1)
    m2, s2 = d2.mean(axis=0), jackknife_se(d2)
    r_mean = entrywise_gate("driver-equivalence-mean", np.abs(m1),
                            sigma * s1 + ROUNDING_FLOOR, s1, notes="paired theta(t_max),")
    r_var = entrywise_gate("driver-equivalence-second-moment", np.abs(m2),
                           sigma * s2 + ROUNDING_FLOOR, s2, notes="paired theta(t_max)^2,")

    r_ks = ks_gate("driver-equivalence-ks", a, fresh, "(coordinate {j})")

    return composite_gate("driver-equivalence", (r_mean, r_var, r_ks),
                          notes=f"dt={t_max / n_steps:g}, n_paths={n_paths}")
