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

Along each path the tilt moments (a, A, log Z) are computed one grid time
at a time (`tilt_blocks`), on theta built one chunk of grid times at a time
(`start_paths`, `path_chunks`).  ``simulate`` folds each grid time into its
per-time statistics (`StatsFold`) as the driver tilts it and keeps no path
array whole; `simulate_ensemble` writes every grid time into a
`PathEnsemble`, which the checks below read.  They verify, with Monte Carlo
error bars, the identities

    E A_t + E a_t (x) a_t = Id                    (conservation of variance)
    d/dt E A_t = -E A_t^2                          (covariance decay)
    A_t <= Id / t almost surely                    (spectral bound)
    E (a_t - theta_t/(1+t)) (x) theta_t = 0        (orthogonality)
    E p_{t,theta_t}(x) = rho(x)                    (density martingale)

plus the diagnostic ratio sup_{t > 0} E tr[A_t^2] / n.
"""

from __future__ import annotations

import functools
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
    w_end: np.ndarray           # (m, n) W at the grid's last time (`start_paths`)

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


def _draw_x(spec, keys) -> np.ndarray:
    x = np.empty((len(keys), spec.dim))
    for i, rng in enumerate(streams.each((*key, "x") for key in keys)):
        x[i] = spec.sample(rng, 1)[0]
    return x


# Bytes of theta that one chunk of `start_paths` covers.  Only theta comes
# in chunks: `tilt_blocks` tilts and yields a chunk one grid time at a time.
# Every chunk costs one draw call a path, about 1 us, so a chunk also spans
# at least `CHUNK_TIMES` grid times: on cube:32 with 1024 paths the 41 grid
# times take 6 chunks of 8 (2 MiB each), on cube:128 with 4096 paths, whose
# one grid time is 4 MiB, 11 chunks of 4.
CHUNK_BYTES = 2 << 20
CHUNK_TIMES = 4


def path_chunks(spec: MeasureSpec, k_pts: int, n_paths: int) -> list[slice]:
    """Consecutive chunks of grid times that `start_paths` builds theta in.

    Each covers about `CHUNK_BYTES` of theta and at least `CHUNK_TIMES` grid
    times; `tilt_blocks` tilts them one grid time at a time.
    """
    step = max(CHUNK_TIMES, CHUNK_BYTES // (n_paths * spec.dim * 8))
    return [slice(k, min(k + step, k_pts)) for k in range(0, k_pts, step)]


def start_paths(spec: MeasureSpec, grid: TimeGrid, keys, driver: str, out=None):
    """theta of every key's path before any tilt, one chunk of grid times at a time.

    Yields ``(c, theta)`` for the consecutive chunks ``c`` of `path_chunks`,
    theta (m, k, n) at c's grid times.  For ``direct`` it is final,
    theta_t = t X + W_t; for ``sde`` it holds the Brownian increments
    W_t - W_s from the grid time s before, onto which `tilt_blocks` adds
    each Euler step.  Path ``key`` draws its increments from the stream
    ``(*key, "w")``, whose generator it keeps from chunk to chunk, so its
    draws are one unbroken run and equal keys mean equal increments
    whichever driver reads them.  The direct driver carries each path's
    running W from one chunk into the next.  So every number is the one a
    whole (m, K, n) array would hold, computed in the same order.

    With ``out`` None one chunk array, allocated for the widest chunk,
    serves every chunk, so each yielded theta is valid until the next one.
    ``out`` = (theta, w), a whole (m, K, n) array and an (m, n) one,
    receives theta whole, as one chunk, and ``w`` receives W at the grid's
    last time: each path's increments summed in order, the W_t that the
    direct driver adds t X to.
    """
    t = grid.points
    k_pts, m, n = len(t), len(keys), spec.dim
    if driver not in ("direct", "sde"):
        raise InputValidationError(f"unknown driver {driver!r}")
    if out is None:
        chunks = path_chunks(spec, k_pts, m)
        flat = np.empty(m * (chunks[0].stop - chunks[0].start) * n)
        w = np.empty((m, n))
    else:
        chunks = [slice(0, k_pts)]
        whole, w = out
    root_dt = np.sqrt(np.diff(t))
    if driver == "direct":
        x = _draw_x(spec, keys)
        tx = np.empty_like(x)
    rngs = list(streams.each((*key, "w") for key in keys))
    for c in chunks:
        width = c.stop - c.start
        theta = whole[:, c] if out is not None else flat[:m * width * n].reshape(m, width, n)
        first = max(c.start, 1)  # the chunk's first grid time past t = 0
        if c.start == 0:
            theta[:, 0] = 0.0
        # the increments into the chunk's t_k, k >= first, drawn in place
        dw = theta[:, first - c.start:]
        for row, rng in zip(dw, rngs):
            rng.standard_normal(out=row)
        dw *= root_dt[first - 1:c.stop - 1, None]
        if driver == "direct":
            # theta_t = t X + W_t: the running sum, carried on from the chunk
            # before, then t X.  X and W come from their own streams, so the
            # order of the draws moves no number.
            if first > 1:
                dw[:, 0] += w
            np.cumsum(dw, axis=1, out=dw)
            if dw.shape[1]:
                w[...] = dw[:, -1]
            for j, k in enumerate(range(first, c.stop)):
                dw[:, j] += np.multiply(x, t[k], out=tx)
        else:
            # the same running sum, kept beside the increments
            for j, k in enumerate(range(first, c.stop)):
                if k == 1:
                    w[...] = dw[:, j]
                else:
                    w += dw[:, j]
        yield c, theta


def tilt_blocks(spec: MeasureSpec, grid: TimeGrid, paths, driver: str, out):
    """Tilt the paths of `start_paths`, yielding one grid time at a time.

    ``paths`` is `start_paths`' iterator of chunks, with the same ``driver``.
    Yields ``(b, theta, mean, cov, log_z)`` for each grid time, b the
    one-wide slice of it: theta and mean (m, 1, n), cov (m, 1) +
    `tilt.cov_shape` and log_z (m, 1).  With ``out`` None they are
    `tilt_table`'s own arrays, so no block array is copied or kept; each is
    valid until the next step.  ``out`` = (mean, cov, log_z), whole
    (m, K, ...) arrays, receives each grid time at ``[:, k]`` and the steps
    are its views.  The ``sde`` driver's Euler steps complete each chunk of
    theta as it goes, through one (m, n) buffer, which carries the step
    from a chunk's last grid time onto the next chunk's first: when a grid
    time is yielded, theta is final there.
    """
    t = grid.points
    k_pts = len(t)
    dt = np.diff(t)
    for c, theta in paths:
        m, _, n = theta.shape
        if driver == "sde" and c.start:
            theta[:, 0] += step  # the Euler step from the chunk before
        elif driver == "sde":
            step = np.empty((m, n))
        for k in range(c.start, c.stop):
            here = theta[:, k - c.start]
            log_z, mean, cov = tilt_table(spec, t[k], here)
            if driver == "sde" and k + 1 < k_pts:  # Euler step, drift a_t = mean of the tilt
                np.multiply(mean, dt[k], out=step)
                step += here
                if k + 1 < c.stop:
                    theta[:, k + 1 - c.start] += step
            b = slice(k, k + 1)
            if out is None:
                arrays = (a[:, None] for a in (mean, cov, log_z))
            else:
                out[0][:, k], out[1][:, k], out[2][:, k] = mean, cov, log_z
                arrays = (a[:, b] for a in out)
            yield (b, here[:, None], *arrays)


def simulate_ensemble(spec: MeasureSpec, grid: TimeGrid, n_paths: int, seed: int,
                      driver: str = "direct", *, salt: str = "") -> PathEnsemble:
    """Simulate ``n_paths`` independent paths and keep every path array.

    Path i uses the stream key ``(seed, i)`` (or ``(seed, salt, i)``), so its
    arrays do not depend on ``n_paths``, and the two drivers share Brownian
    increments for equal keys.  `start_paths` and `tilt_blocks` write into
    the ensemble's arrays in place.
    """
    shape = (n_paths, grid.n_points)
    theta, w_end = np.empty(shape + (spec.dim,)), np.empty((n_paths, spec.dim))
    out = (np.empty(shape + (spec.dim,)), np.empty(shape + cov_shape(spec)), np.empty(shape))
    paths = start_paths(spec, grid, path_keys(seed, n_paths, salt), driver, (theta, w_end))
    for _ in tilt_blocks(spec, grid, paths, driver, out):
        pass
    return PathEnsemble(spec, grid, theta, *out, w_end=w_end)


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
    """`EnsembleStats` reduced a few grid times at a time.

    ``add`` takes the tilt means (m, k, n) and covariances, in the layout of
    `covariance`, at consecutive grid times: ``simulate`` feeds it each grid
    time of `tilt_blocks` as the driver tilts it, `ensemble_stats` the
    blocks of `time_blocks` of a stored ensemble, each about
    `numerics.BLOCK_BYTES` = 1 MiB of covariances.  E[a (x) a + A] and its
    error come from `covariance.outer_mean_se`: for diagonal covariances
    (Gaussians and coordinate products) by moment reductions, with no
    per-path outer product; full covariances (balls) still take the
    per-path route.  The (m, k, n) temporaries go into two scratch arrays
    that the fold allocates for its first, widest call and reuses for every
    other, so no call faults fresh pages in: two (m, 1, n) arrays in
    ``simulate`` (0.5 MiB on cube:32 with 1024 paths), two blocks in
    `ensemble_stats`.  A full covariance's (m, k, n, n) temporaries are made
    per call, and its deviations overwrite its per-path terms.  Every
    statistic is per grid time, so any split of the grid gives the
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
        self._work = np.empty(0)

    def add(self, b: slice, mean: np.ndarray, cov: np.ndarray) -> None:
        """Fold in grid times ``b``: their tilt means and covariances."""
        if self._work.size < 2 * mean.size:  # sized by the first, widest call
            self._work = np.empty(2 * mean.size)
        work = [a.reshape(mean.shape) for a in np.split(self._work[:2 * mean.size], 2)]
        self.mean_decomp[b], self.se_decomp[b] = covariance.outer_mean_se(mean, mean, cov, work)
        self.tr_cov[:, b] = covariance.trace(cov)
        self.tr_cov_sq[:, b] = covariance.trace(covariance.square(cov, work[0]))
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

    Paired first/second moments via common random numbers: the direct side
    theta(t_max) = t_max X + W_(t_max) takes W_(t_max) from the sde
    ensemble's own increments (`PathEnsemble.w_end`), so it draws no
    increment and needs no tilt.  Per-coordinate two-sample KS against an
    independent direct theta(t_max), the last time of `start_paths` under
    stream salt ``ks`` (independence keeps the KS null distribution valid);
    the smallest of the n p-values is gated by `reports.ks_gate`.
    """
    t_max, n_steps = 1.0, 64
    sde = simulate_ensemble(spec, make_uniform(t_max, n_steps), n_paths, seed, driver="sde")
    a = sde.theta[:, -1]
    b = sde.w_end + _draw_x(spec, path_keys(seed, n_paths)) * t_max
    *_, (_, fresh) = start_paths(spec, make_uniform(t_max, 1), path_keys(seed, n_paths, "ks"),
                                 "direct")
    fresh = fresh[:, -1]

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
