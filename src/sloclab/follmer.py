"""Change of clock r = t / (1 + t) and the rescaled process.

In the new frame the driving data become

    x_r = (1 - r) theta_t        (marginal law: r X + sqrt(r (1 - r)) Z)
    v_r = (1 + t) a_t - theta_t  (score-type drift, v_0 = 0)
    Gamma_r = (1 + t) A_t        (rescaled tilt covariance)

with r running over [0, 1).  The energy E |v_r|^2 equals the relative Fisher
information J(nu_r || N(0, r Id)) of the law nu_r of x_r.  For product
measures this module also computes J independently of the tilts: the law
of r X + sqrt(r (1 - r)) Z is `measures.sum_law` of the two summands'
rescaled pieces, so J is one scalar quadrature per factor law.  A factor
without pieces (``ballmarg``, which only the ball's projections build) has
no Fisher route and is rejected with its name.  The Gamma process satisfies

    (i)   (1 - r) Gamma_r = A_t                       (algebraic rescaling)
    (ii)  E v (x) v = (Id - E Gamma) / (1 - r),  0 <= E Gamma <= Id
    (iii) d/dr E v (x) v = E (Id - Gamma)^2 / (1 - r)^2
    (iv)  d/dr E Gamma = (E Gamma - E Gamma^2) / (1 - r)
    (v)   Gamma_r <= Id / r almost surely

and E |v_r|^2 <= 4 n / (1 - r)^2 on the whole catalog.  Gamma_r keeps the
layout of A_t: the diagonals (m, K, n) for coordinate products, the
Gaussian among them, full matrices (m, K, n, n) otherwise (see
`covariance`).

The frame is a view of the ensemble: it holds theta_t, a_t and A_t by
reference, and the checks compute x_r, v_r and Gamma_r from them a block of
grid times at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covariance, streams
from .errors import InputValidationError
from .localization import SPECTRAL_SLACK, PathEnsemble, spectral_margin
from .measures import GaussianFactor, MeasureSpec, sum_law
from .numerics import U_CUT, jackknife_se, path_mean_se, quad, time_blocks
from .reports import (COV_IDENTITY_FLOOR, ROUNDING_FLOOR, EntrywiseFold, EstimatorResult,
                      LemmaReport, composite_gate, derivative_gate, entrywise_gate, gate,
                      ks_gate)


def v_r(theta: np.ndarray, mean: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v_r = (1 + t) a_t - theta_t, (m, k, n), from theta_t and a_t (m, k, n) at times t (k,)."""
    v = mean * (1.0 + t)[:, None]
    v -= theta
    return v


def gamma_r(cov: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gamma_r = (1 + t) A_t from a covariance array at times t (k,), in its layout.

    ``out``, an array of ``cov``'s shape, receives it instead of a new array.
    """
    return np.multiply(cov, covariance.per_time(1.0 + t, cov), out=out)


@dataclass(frozen=True)
class FrameEnsemble:
    """Localization ensemble transported to the r-clock, as a view of it.

    ``theta``, ``mean`` and ``cov_t`` are the ensemble's ``theta``, ``mean``
    and ``cov`` themselves, not copies.  The checks read x_r, v_r and
    Gamma_r a block of grid times at a time (`blocks`, `x_at`, `v_at`,
    `gamma_at`), each computed from those three arrays, so a check holds a
    few blocks of them and never a whole path array.  ``x``, ``v`` and
    ``gamma`` are the whole arrays, computed on first read and kept; only
    the benchmark's span counters read them.  ``energy``, `path_energy`'s
    (m, K) |v_r|^2, is computed on first read and kept for the Fisher and
    deficit checks.  Every number is elementwise in its grid time, so a
    block's values are the whole array's there bit for bit.  ``gamma`` and
    ``cov_t`` have the layout of the ensemble's ``cov``: (m, K, n) diagonals
    for coordinate products, the Gaussian among them, (m, K, n, n)
    otherwise.
    """

    spec: MeasureSpec
    t: np.ndarray               # (K,) original times
    r: np.ndarray               # (K,) r = t / (1 + t)
    theta: np.ndarray           # (m, K, n) theta_t
    mean: np.ndarray            # (m, K, n) a_t
    cov_t: np.ndarray           # original A_t, kept for (i)
    se_gamma = None             # not a field: always None, and only perfbench/spans.py reads it

    def x_at(self, s: slice) -> np.ndarray:
        """x_r = theta_t / (1 + t) at the grid times ``s``, (m, k, n)."""
        return self.theta[:, s] / (1.0 + self.t[s])[None, :, None]

    def v_at(self, s: slice) -> np.ndarray:
        """`v_r` at the grid times ``s``, (m, k, n)."""
        return v_r(self.theta[:, s], self.mean[:, s], self.t[s])

    def gamma_at(self, s: slice) -> np.ndarray:
        """`gamma_r` at the grid times ``s``, in the layout of ``cov_t``."""
        return gamma_r(self.cov_t[:, s], self.t[s])

    def blocks(self, start: int = 0) -> list[slice]:
        """`time_blocks` of the grid from ``start``, each about `numerics.BLOCK_BYTES` of Gamma."""
        return time_blocks(len(self.t), self.cov_t[:, 0].nbytes, start)

    @functools.cached_property
    def x(self) -> np.ndarray:
        """x_r on the whole grid, (m, K, n)."""
        return self.x_at(slice(None))

    @functools.cached_property
    def v(self) -> np.ndarray:
        """`v_r` on the whole grid, (m, K, n)."""
        return self.v_at(slice(None))

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        """`gamma_r` on the whole grid, in the layout of ``cov_t``."""
        return self.gamma_at(slice(None))

    @functools.cached_property
    def energy(self) -> np.ndarray:
        """|v_r|^2 per path and grid time, (m, K): `path_energy` of the whole grid."""
        return path_energy(self.theta, self.mean, self.t)

    @property
    def n_paths(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[-1]


def to_follmer(ensemble: PathEnsemble) -> FrameEnsemble:
    """The ensemble's frame on the r-clock; it allocates no path array."""
    return FrameEnsemble(
        spec=ensemble.spec, t=ensemble.grid.points, r=ensemble.grid.r_points,
        theta=ensemble.theta, mean=ensemble.mean, cov_t=ensemble.cov)


# ---------------------------------------------------------------------------
# Fisher energy


@dataclass(frozen=True)
class FisherCurve:
    r: np.ndarray
    value: np.ndarray     # E |v_r|^2
    stderr: np.ndarray
    bound: np.ndarray     # 4 n / (1 - r)^2


def path_energy(theta: np.ndarray, mean: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|v_r|^2 per path and grid time, (m, k), from theta_t and a_t (m, k, n) at times t (k,).

    One grid time at a time, so no (m, k, n) array is built: each time's
    `v_r` is the frame's ``v`` there, and its sum over coordinates is the one
    ``(v ** 2).sum(axis=-1)`` takes, so the values match them bit for bit.
    """
    m, k_pts, _ = theta.shape
    sq = np.empty((m, k_pts))
    for k in range(k_pts):
        at = slice(k, k + 1)
        sq[:, k] = np.square(v_r(theta[:, at], mean[:, at], t[at])).sum(axis=-1)[:, 0]
    return sq


def energy_curve(sq: np.ndarray, r: np.ndarray, dim: int) -> FisherCurve:
    """E |v_r|^2 with s / sqrt(m) errors, from |v_r|^2 per path at each r (m, K)."""
    return FisherCurve(r=r, value=sq.mean(axis=0), stderr=jackknife_se(sq),
                       bound=4.0 * dim / (1.0 - r) ** 2)


def fisher_energy(frame: FrameEnsemble) -> FisherCurve:
    """Monte Carlo Fisher energy E |v_r|^2 on the grid image, with s / sqrt(m) errors."""
    return energy_curve(frame.energy, frame.r, frame.dim)


def check_fisher_bound(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E |v_r|^2 <= 4 n / (1 - r)^2 along the whole grid."""
    cur = fisher_energy(frame)
    gap = cur.value - cur.bound
    return entrywise_gate("fisher-bound", gap, sigma * cur.stderr + ROUNDING_FLOOR, cur.stderr,
                          notes=f"n={frame.dim}, n_paths={frame.n_paths},")


def check_fisher_monotone(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """r -> E |v_r|^2 is non-decreasing (paired increments)."""
    sq = frame.energy
    d = sq[:, 1:] - sq[:, :-1]
    mean = d.mean(axis=0)
    se = jackknife_se(d)
    return entrywise_gate("fisher-monotone", -mean, sigma * se + ROUNDING_FLOOR, se,
                          notes="consecutive r increments,")


def _scaled(pieces, a: float) -> tuple:
    """The pieces of a X for a > 0, given those of X."""
    return tuple((c / (a * a), b / a, a * lo, a * hi, k - math.log(a))
                 for c, b, lo, hi, k in pieces)


def _factor_fisher(factor, r: float) -> tuple[float, float]:
    """(J(nu_r || N(0, r)), its quadrature error estimate) for one 1D factor.

    nu_r is the `sum_law` of r X and s Z, s^2 = r (1 - r), and its score is
    (E[r X | y] - y) / s^2.  The breakpoints are the images r u of the
    factor's finite piece ends u.
    """
    s2 = r * (1.0 - r)
    s = math.sqrt(s2)
    first = _scaled(factor.pieces, r)
    law = sum_law(first, _scaled(GaussianFactor.pieces, s))

    def integrand(y):
        log_f, mean = law(y)
        return ((mean - y) / s2 + y / r) ** 2 * np.exp(log_f)
    kinks = sorted({end for _, _, lo, hi, _ in first for end in (lo, hi) if math.isfinite(end)})
    lo_y = r * max(factor.lo, -U_CUT) - 10.0 * s
    hi_y = r * min(factor.hi, U_CUT) + 10.0 * s
    return quad(integrand, lo_y, hi_y, points=kinks)


def marginal_fisher_information(spec: MeasureSpec, r: float) -> EstimatorResult:
    """J(nu_r || N(0, r Id)) by density quadrature; nu_r = law(r X + sqrt(r(1-r)) Z).

    Factorizes over coordinates for products: one quadrature per factor law,
    counted per column.  On the Gaussian nu_r is exactly N(0, r Id) and J
    is 0 up to rounding.  ``stderr`` sums the per-coordinate quadrature
    errors.
    """
    if not 0.0 < r < 1.0:
        raise InputValidationError("need 0 < r < 1")
    if spec.factors is None:
        raise InputValidationError("quadrature route needs a coordinate product")
    return EstimatorResult(*spec.law_total(lambda f: _factor_fisher(f, r),
                                           "the Fisher quadrature"))


def check_fisher_identity(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E |v_r|^2 equals the marginal relative Fisher information J(nu_r || gamma_r).

    Checked at the grid r nearest 0.2, 0.5 and 0.8.  The left side is the
    simulated energy, the right side an independent density quadrature;
    disagreement beyond sigma Monte Carlo standard errors plus the
    quadrature's error estimate, floored at `ROUNDING_FLOOR` (on a Gaussian
    both sides are rounding noise below 1e-30), fails the check.
    """
    cur = fisher_energy(frame)
    indices = sorted({int(np.argmin(np.abs(frame.r - rt))) for rt in (0.2, 0.5, 0.8)})
    subs = []
    for k in indices:
        r = float(frame.r[k])
        if not 0.0 < r < 1.0:
            continue
        j_quad = marginal_fisher_information(frame.spec, r)
        gap = abs(float(cur.value[k]) - j_quad.value)
        tol = max(sigma * float(cur.stderr[k]) + j_quad.stderr, ROUNDING_FLOOR)
        subs.append(gate(f"fisher-identity@r={r:.4g}", gap, tol,
                         stderr=float(cur.stderr[k]),
                         notes=f"mc={cur.value[k]:.6g} quad={j_quad.value:.6g}"))
    if not subs:
        raise InputValidationError("no interior r values to check")
    return composite_gate("fisher-identity", subs, notes=f"{len(subs)} r values")


# ---------------------------------------------------------------------------
# Gamma process properties


def check_gamma_properties(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """All five structural properties of the Gamma process, as sub-reports.

    Each reads Gamma_r and v_r a block of grid times at a time (`FrameEnsemble.blocks`):
    the rescaling gap is folded block by block (`EntrywiseFold`), the
    score covariance, E Gamma's extreme eigenvalues with their jackknife
    slack and the pathwise spectral margins are reduced per block, and the
    derivative gates read their own blocks (`derivative_gate`).  No
    Gamma-sized array is built, and every number is the whole-array one.
    """
    r = frame.r
    m, k_pts, n = frame.theta.shape
    one_minus_r = 1.0 - r
    eye = covariance.identity(frame.cov_t)
    rescaling = EntrywiseFold()
    mean_ii, se_ii = np.empty((k_pts, n, n)), np.empty((k_pts, n, n))
    lam_lo, lam_hi, se_max = np.empty(k_pts), np.empty(k_pts), np.empty(k_pts)
    margin = np.empty((m, k_pts))
    for b in frame.blocks():
        gamma = frame.gamma_at(b)
        # (i) algebraic rescaling back to the t-frame covariance
        rescaling.add(np.abs(gamma / covariance.per_time(1.0 + frame.t[b], gamma)
                             - frame.cov_t[:, b]), 1e-13, start=b.start)
        # (ii) E v (x) v = (Id - E Gamma) / (1 - r); v is one buffer, as the
        # two operands of its outer product
        v = frame.v_at(b)
        mean_ii[b], se_ii[b] = covariance.outer_mean_se(
            v, v, (gamma - eye) / covariance.per_time(one_minus_r[b], gamma))
        # (ii') the extreme eigenvalues of E Gamma and the largest entry of its error
        g_mean, g_se = path_mean_se(gamma)
        lo, hi = covariance.eig_extremes(g_mean[None])
        lam_lo[b], lam_hi[b] = lo[0], hi[0]
        se_max[b] = g_se.reshape(b.stop - b.start, -1).max(axis=1)
        # (v) the pathwise margin of Gamma_r <= Id / r
        margin[:, b] = spectral_margin(gamma, r[b])

    subs = [rescaling.report("gamma-rescaling", notes="float roundoff only,")]
    subs.append(entrywise_gate("score-covariance", np.abs(mean_ii),
                               sigma * se_ii + COV_IDENTITY_FLOOR, se_ii))
    slack = sigma * n * se_max + COV_IDENTITY_FLOOR
    subs.append(entrywise_gate("gamma-psd", -lam_lo, slack, notes="lambda_min >= 0,"))
    subs.append(entrywise_gate("gamma-below-identity", lam_hi - 1.0, slack,
                               notes="lambda_max <= 1,"))

    if k_pts >= 5:
        # (iii) d/dr E v (x) v = E (Id - Gamma)^2 / (1 - r)^2, entrywise
        # over the full matrices, since v (x) v is not diagonal
        def vv(s):
            v = frame.v_at(s)
            return np.einsum("mki,mkj->mkij", v, v)

        def rhs3(s):
            res_sq = covariance.dense(covariance.square(eye - frame.gamma_at(s)))
            return res_sq / one_minus_r[None, s, None, None] ** 2
        subs.append(derivative_gate("score-energy-derivative", vv, r, rhs3, sigma))

        # (iv) d/dr E Gamma = (E Gamma - E Gamma^2) / (1 - r)
        def rhs4(s):
            g = frame.gamma_at(s)
            return (g - covariance.square(g)) / covariance.per_time(one_minus_r[s], g)
        subs.append(derivative_gate("gamma-derivative", frame.gamma_at, r, rhs4, sigma))

    # (v) Gamma_r <= Id / r pathwise (r > 0), as the t-clock spectral check
    subs.append(entrywise_gate("gamma-spectral-bound", margin, SPECTRAL_SLACK,
                               notes="pathwise r * lambda_max <= 1,"))

    return composite_gate("gamma-properties", subs, notes=f"{len(subs)} properties")


def check_xr_law(frame: FrameEnsemble, seed: int, sigma: float = 4.0) -> LemmaReport:
    """x_r is distributed as r X + sqrt(r (1 - r)) Z.

    Moment part: E x_r = 0 and Cov x_r = r Id at every grid time (the catalog
    is isotropic).  Law part: per-coordinate KS against a freshly synthesized
    independent sample at the grid point nearest r = 0.5, gated by
    `reports.ks_gate`.
    """
    r = frame.r
    m, k_pts, n = frame.theta.shape

    mean, se_mean = np.empty((k_pts, n)), np.empty((k_pts, n))
    mean_xx, se_cov = np.empty((k_pts, n, n)), np.empty((k_pts, n, n))
    for b in frame.blocks():
        x = frame.x_at(b)
        mean[b], se_mean[b] = path_mean_se(x)
        mean_xx[b], se_cov[b] = covariance.outer_mean_se(x, x, None)
    r_mean = entrywise_gate("xr-mean", np.abs(mean), sigma * se_mean + ROUNDING_FLOOR,
                            se_mean)

    target = r[:, None, None] * np.eye(n)[None]
    gap_cov = np.abs(mean_xx - target)
    r_cov = entrywise_gate("xr-covariance", gap_cov, sigma * se_cov + ROUNDING_FLOOR, se_cov)

    k = int(np.argmin(np.abs(r - 0.5)))
    rk = float(r[k])
    fresh_x = frame.spec.sample(streams.generator(seed, "xr-law", "x"), m)
    fresh_z = streams.generator(seed, "xr-law", "z").standard_normal((m, n))
    synth = rk * fresh_x + math.sqrt(rk * (1.0 - rk)) * fresh_z
    r_ks = ks_gate("xr-ks", frame.x_at(slice(k, k + 1))[:, 0], synth, f"at r={rk:.4g}")

    return composite_gate("xr-law", (r_mean, r_cov, r_ks), notes=f"n_paths={m}")
