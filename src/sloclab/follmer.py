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
reference, and x_r, v_r and Gamma_r are each computed on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covariance, streams
from .errors import InputValidationError
from .localization import SPECTRAL_SLACK, PathEnsemble, spectral_margin
from .measures import GaussianFactor, MeasureSpec, require_pieces, sum_law
from .numerics import KS_LEVEL, U_CUT, familywise_level, jackknife_se, ks_pvalues, quad
from .reports import (COV_IDENTITY_FLOOR, ROUNDING_FLOOR, EstimatorResult, LemmaReport,
                      composite_gate, derivative_gate, entrywise_gate, gate)


@dataclass(frozen=True)
class FrameEnsemble:
    """Localization ensemble transported to the r-clock, as a view of it.

    ``theta``, ``mean`` and ``cov_t`` are the ensemble's ``theta``, ``mean``
    and ``cov`` themselves, not copies.  ``x``, ``v`` and ``gamma`` are
    computed from them on first read and kept, so every read returns the
    same array; numpy's matmul takes another BLAS route when both operands
    are one buffer, so a recomputed equal copy could move a statistic's
    last bits.  A frame that reads none of them allocates no path array.
    ``gamma`` and ``cov_t`` have the layout of the ensemble's ``cov``:
    (m, K, n) diagonals for coordinate products, the Gaussian among them,
    (m, K, n, n) otherwise.
    """

    spec: MeasureSpec
    t: np.ndarray               # (K,) original times
    r: np.ndarray               # (K,) r = t / (1 + t)
    theta: np.ndarray           # (m, K, n) theta_t
    mean: np.ndarray            # (m, K, n) a_t
    cov_t: np.ndarray           # original A_t, kept for (i)
    se_gamma: np.ndarray | None = None   # always None; only perfbench/spans.py reads it

    @functools.cached_property
    def x(self) -> np.ndarray:
        """x_r = theta_t / (1 + t), (m, K, n)."""
        return self.theta / (1.0 + self.t)[None, :, None]

    @functools.cached_property
    def v(self) -> np.ndarray:
        """v_r = (1 + t) a_t - theta_t, (m, K, n)."""
        v = self.mean * (1.0 + self.t)[None, :, None]
        v -= self.theta
        return v

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        """Gamma_r = (1 + t) A_t, in the layout of ``cov_t``."""
        return self.cov_t * covariance.per_time(1.0 + self.t, self.cov_t)

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
    v_r = (1 + t) a_t - theta_t is formed as the frame's ``v`` forms it, and
    its sum over coordinates is the one ``(v ** 2).sum(axis=-1)`` takes, so
    the values match them bit for bit.
    """
    m, k_pts, _ = theta.shape
    sq = np.empty((m, k_pts))
    for k in range(k_pts):
        v = mean[:, k] * (1.0 + t[k])
        v -= theta[:, k]
        sq[:, k] = np.square(v).sum(axis=-1)
    return sq


def energy_curve(sq: np.ndarray, r: np.ndarray, dim: int) -> FisherCurve:
    """E |v_r|^2 with s / sqrt(m) errors, from |v_r|^2 per path at each r (m, K)."""
    return FisherCurve(r=r, value=sq.mean(axis=0), stderr=jackknife_se(sq, axis=0),
                       bound=4.0 * dim / (1.0 - r) ** 2)


def fisher_energy(frame: FrameEnsemble) -> FisherCurve:
    """Monte Carlo Fisher energy E |v_r|^2 on the grid image, with s / sqrt(m) errors."""
    return energy_curve(path_energy(frame.theta, frame.mean, frame.t), frame.r, frame.dim)


def check_fisher_bound(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """E |v_r|^2 <= 4 n / (1 - r)^2 along the whole grid."""
    cur = fisher_energy(frame)
    gap = cur.value - cur.bound
    return entrywise_gate("fisher-bound", gap, sigma * cur.stderr + ROUNDING_FLOOR, cur.stderr,
                          notes=f"n={frame.dim}, n_paths={frame.n_paths},")


def check_fisher_monotone(frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """r -> E |v_r|^2 is non-decreasing (paired increments)."""
    sq = path_energy(frame.theta, frame.mean, frame.t)
    d = sq[:, 1:] - sq[:, :-1]
    mean = d.mean(axis=0)
    se = jackknife_se(d, axis=0)
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
    require_pieces(spec.factors, "the Fisher quadrature")
    parts = [(len(cols), _factor_fisher(f, r)) for f, cols in spec.laws]
    return EstimatorResult(sum(count * v for count, (v, _) in parts),
                           sum(count * e for count, (_, e) in parts))


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
    """All five structural properties of the Gamma process, as sub-reports."""
    r = frame.r
    m, k_pts, n = frame.v.shape
    gamma = frame.gamma
    subs = []

    # (i) algebraic rescaling back to the t-frame covariance
    back = gamma / covariance.per_time(1.0 + frame.t, gamma)
    gap_i = np.abs(back - frame.cov_t)
    subs.append(entrywise_gate("gamma-rescaling", gap_i, 1e-13,
                               notes="float roundoff only,"))

    # (ii) E v (x) v = (Id - E Gamma) / (1 - r), entrywise, t > 0
    one_minus_r = 1.0 - r
    eye = covariance.identity(gamma)
    mean_ii, se_ii = covariance.outer_mean_se(
        frame.v, frame.v, (gamma - eye) / covariance.per_time(one_minus_r, gamma))
    subs.append(entrywise_gate("score-covariance", np.abs(mean_ii),
                               sigma * se_ii + COV_IDENTITY_FLOOR, se_ii))

    # (ii') 0 <= E Gamma <= Id in the spectral sense
    lam_lo, lam_hi = covariance.eig_extremes(gamma.mean(axis=0, keepdims=True))
    se_g = jackknife_se(gamma, axis=0)
    slack = sigma * n * se_g.reshape(k_pts, -1).max(axis=1) + COV_IDENTITY_FLOOR
    lo_rep = entrywise_gate("gamma-psd", -lam_lo[0], slack, notes="lambda_min >= 0,")
    hi_rep = entrywise_gate("gamma-below-identity", lam_hi[0] - 1.0, slack,
                            notes="lambda_max <= 1,")
    subs.extend([lo_rep, hi_rep])

    if k_pts >= 5:
        # (iii) d/dr E v (x) v = E (Id - Gamma)^2 / (1 - r)^2, entrywise
        # over the full matrices, since v (x) v is not diagonal; both sides
        # are built one block of grid times at a time
        v = frame.v

        def vv(s):
            return np.einsum("mki,mkj->mkij", v[:, s], v[:, s])

        def rhs3(s):
            res_sq = covariance.dense(covariance.square(eye - gamma[:, s]))
            return res_sq / one_minus_r[None, s, None, None] ** 2
        subs.append(derivative_gate("score-energy-derivative", vv, r, rhs3, sigma))

        # (iv) d/dr E Gamma = (E Gamma - E Gamma^2) / (1 - r)
        def rhs4(s):
            g = gamma[:, s]
            return (g - covariance.square(g)) / covariance.per_time(one_minus_r[s], g)
        subs.append(derivative_gate("gamma-derivative", lambda s: gamma[:, s], r, rhs4, sigma))

    # (v) Gamma_r <= Id / r pathwise (r > 0), as the t-clock spectral check
    subs.append(entrywise_gate("gamma-spectral-bound", spectral_margin(gamma, r), SPECTRAL_SLACK,
                               notes="pathwise r * lambda_max <= 1,"))

    return composite_gate("gamma-properties", subs, notes=f"{len(subs)} properties")


def check_xr_law(frame: FrameEnsemble, seed: int, sigma: float = 4.0) -> LemmaReport:
    """x_r is distributed as r X + sqrt(r (1 - r)) Z.

    Moment part: E x_r = 0 and Cov x_r = r Id at every grid time (the catalog
    is isotropic).  Law part: per-coordinate KS against a freshly synthesized
    independent sample at the grid point nearest r = 0.5; the smallest of
    the n p-values is gated at `familywise_level`, so a healthy product
    measure FAILs it with probability `KS_LEVEL` whatever n is.
    """
    r = frame.r
    m = frame.n_paths
    n = frame.dim

    mean = frame.x.mean(axis=0)
    se_mean = jackknife_se(frame.x, axis=0)
    r_mean = entrywise_gate("xr-mean", np.abs(mean), sigma * se_mean + ROUNDING_FLOOR,
                            se_mean)

    mean_xx, se_cov = covariance.outer_mean_se(frame.x, frame.x)
    target = r[:, None, None] * np.eye(n)[None]
    gap_cov = np.abs(mean_xx - target)
    r_cov = entrywise_gate("xr-covariance", gap_cov, sigma * se_cov + ROUNDING_FLOOR, se_cov)

    k = int(np.argmin(np.abs(r - 0.5)))
    rk = float(r[k])
    fresh_x = frame.spec.sample(streams.generator(seed, "xr-law", "x"), m)
    fresh_z = streams.generator(seed, "xr-law", "z").standard_normal((m, n))
    synth = rk * fresh_x + math.sqrt(rk * (1.0 - rk)) * fresh_z
    pvals = ks_pvalues(frame.x[:, k], synth)
    worst = int(np.argmin(pvals))
    level = familywise_level(KS_LEVEL, n)
    r_ks = gate("xr-ks", float(-pvals[worst]), -level,
                notes=f"min p-value {pvals[worst]:.4g} at r={rk:.4g}, "
                      f"level {level:.4g} ({KS_LEVEL} over {n} coordinates)")

    return composite_gate("xr-law", (r_mean, r_cov, r_ks), notes=f"n_paths={m}")
