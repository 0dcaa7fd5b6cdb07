"""Relative entropy, the de Bruijn identity, and the EPI deficit.

Conventions: natural logarithms throughout, gamma_1 is the standard Gaussian
in the relevant dimension, and all relative quantities are against gamma_1.
Every measure is isotropic by construction, so
D(mu || gamma_1) = (n/2) ln(2 pi e) - Ent(mu).

The de Bruijn identity along the localization clock reads

    D(mu || gamma_1) = 1/2 * integral_0^1 E |v_r|^2 dr,

verified here with the r-integral truncated at the last grid point and a
rectangle tail estimate.  Monotonicity of the integrand makes the rectangle
an underestimate, and a known one: the tolerance does not absorb it, so
`de-bruijn` FAILs on healthy measures (ROADMAP item 1).

The EPI deficit of mu is

    delta(mu) = Ent((X1 + X2)/sqrt(2)) - Ent(X)      (X1, X2 iid mu, centered)

which is nonnegative, at most 2n for isotropic log-concave mu, and invariant
under invertible affine maps.  Every catalog measure has an exact route:
for products, the Gaussian among them, a sum over factors, each one
quadrature of -g log g with g the density of X1 + X2 from
`measures.sum_law`, the closed convolution of the factor's pieces; and for
the ball one radial quadrature of the lens volume of two balls.  The
Gaussian, the fixed point of the convolution, gets 0 up to rounding and
the quadrature's error.  The deficit is bounded below by the variance of
the Gamma process:

    delta(mu) >= eps * integral_xi^1 E |Gamma_r - E Gamma_r|^2 / (4 (1-r)) dr

whenever Gamma_r <= Id / eps on (xi, 1); eps = xi is always admissible since
Gamma_r <= Id / r.  ``deficit_chain_audit`` walks the whole inequality chain
numerically, one verdict per displayed line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance
from .errors import InputValidationError
from .follmer import FrameEnsemble
from .measures import GAUSSIAN_ENTROPY_RATE, BallSpec, MeasureSpec, sum_law
from .numerics import (U_CUT, beta_inc, jackknife_se, path_mean, path_mean_se, quad, time_blocks,
                       trapezoid, trapezoid_budget, xlogy)
from .reports import (ROUNDING_FLOOR, EstimatorResult, LemmaReport, composite_gate,
                      entrywise_gate, gate, info)


def kl_to_gaussian(spec: MeasureSpec) -> EstimatorResult:
    """D(mu || gamma_1) = (n/2) ln(2 pi e) - Ent(mu); every spec is isotropic."""
    value = spec.dim * GAUSSIAN_ENTROPY_RATE - spec.entropy()
    return EstimatorResult(float(value), 0.0,
                           notes="relative entropy against the standard Gaussian")


# ---------------------------------------------------------------------------
# de Bruijn identity


def de_bruijn_check(spec: MeasureSpec, frame: FrameEnsemble, sigma: float = 4.0) -> LemmaReport:
    """KL equals half the r-integral of the Fisher energy.

    The integral runs over the realized grid only; the tail over (r_max, 1)
    is replaced by the rectangle 1/2 * E|v_{r_max}|^2 * (1 - r_max), an
    underestimate by monotonicity.  The tolerance does not cover that
    shortfall: on product:exp,uniform,uniform with 1024 paths at seed 0 the
    gap is 0.152 against a tolerance of 0.102 (ROADMAP item 1).
    Tolerance: max(0.02 * KL, sigma * stderr) + 1e-12.
    """
    r = frame.r
    if len(r) < 10:
        raise InputValidationError("grid too coarse for the identity (need >= 10 r-points)")
    lhs = kl_to_gaussian(spec)

    vsq = frame.energy
    per_path = 0.5 * trapezoid(vsq, r, axis=1) + 0.5 * vsq[:, -1] * (1.0 - r[-1])
    rhs = float(per_path.mean())
    se = float(jackknife_se(per_path))

    budget = trapezoid_budget(0.5 * vsq.mean(axis=0), r)

    gap = abs(lhs.value - rhs)
    tol = max(0.02 * abs(lhs.value), sigma * se) + 1e-12
    tail = 0.5 * float(vsq[:, -1].mean()) * (1.0 - r[-1])
    notes = (f"kl={lhs.value:.8g} integral={rhs:.8g} tail-rectangle={tail:.3g} "
             f"trapezoid-budget={budget:.2g} r_max={r[-1]:.8g} n_paths={frame.n_paths}")
    return gate("de-bruijn", gap, tol, stderr=se, notes=notes)


# ---------------------------------------------------------------------------
# EPI deficit


@dataclass(frozen=True)
class DeficitReport:
    delta: EstimatorResult      # Ent((X1+X2)/sqrt 2) - Ent(X)
    bounds: LemmaReport         # nonnegativity and the dimension bound 2n


def _factor_deficit(f) -> tuple[float, float]:
    """(delta of one factor, its quadrature error estimate): Ent(X1 + X2) by one
    quadrature of -g log g, minus ln(2)/2 and Ent(X).

    The breakpoints are the sums of piece ends, where g has its kinks; an
    unbounded support is cut at 2 * U_CUT, where g is below e^-40.
    """
    law = sum_law(f.pieces, f.pieces)

    def integrand(y):
        lg = law(y)[0]
        return -np.exp(lg) * np.where(lg > -np.inf, lg, 0.0)  # 0 where g = 0; NaN stays

    lo, hi = 2.0 * max(f.lo, -U_CUT), 2.0 * min(f.hi, U_CUT)
    ends = [end for _, _, p_lo, p_hi, _ in f.pieces for end in (p_lo, p_hi)]
    kinks = sorted({u + v for u in ends for v in ends if lo < u + v < hi})
    h_sum, err = quad(integrand, lo, hi, points=kinks)
    return h_sum - 0.5 * math.log(2.0) - f.entropy(), err


def _ball_sum_density(spec: BallSpec, s):
    """Density of X1 + X2 at a point of radius s, for X1, X2 iid uniform on the ball.

    The two balls of radius R centred a distance s apart overlap in the
    fraction I_{1 - s^2/4R^2}((n+1)/2, 1/2) of one ball (two caps, Li 2011),
    and the density is that fraction over vol(B_R).
    """
    x = 1.0 - (np.asarray(s, float) / (2.0 * spec.radius)) ** 2
    return beta_inc(0.5 * (spec.dim + 1), 0.5, np.clip(x, 0.0, 1.0)) * math.exp(-spec.entropy())


def _ball_deficit(spec: BallSpec) -> EstimatorResult:
    """delta of the ball: Ent(X1 + X2) by one radial quadrature, minus (n/2) ln 2 + Ent(X)."""
    n = spec.dim
    sphere = math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))

    def integrand(s):
        g = _ball_sum_density(spec, s)
        return -sphere * s ** (n - 1) * xlogy(g, g)

    h_sum, err = quad(integrand, 0.0, 2.0 * spec.radius)
    return EstimatorResult(h_sum - 0.5 * n * math.log(2.0) - spec.entropy(), err,
                           notes="radial quadrature of the lens volume")


def epi_deficit(spec: MeasureSpec, sigma: float = 4.0) -> DeficitReport:
    """EPI deficit delta(mu) = Ent((X1+X2)/sqrt 2) - Ent(X) for centered mu.

    Products factorize: each factor law's deficit (`ProductSpec.laws`) is
    one quadrature of its closed sum density, counted once per column.  The
    ball's is one radial quadrature.  ``stderr`` is the sum of the
    quadratures' error estimates (`numerics.quad`).
    """
    n = spec.dim
    if spec.factors is not None:
        delta = EstimatorResult(*spec.law_total(_factor_deficit, "the EPI deficit"),
                                notes=f"sum-density quadrature, {len(spec.laws)} distinct factors")
    elif isinstance(spec, BallSpec):
        delta = _ball_deficit(spec)
    else:
        raise InputValidationError(f"no EPI deficit route for {spec!r}")

    slack = sigma * delta.stderr + 1e-12
    nonneg = gate("deficit-nonnegative", -delta.value, slack, stderr=delta.stderr)
    upper = gate("deficit-dimension-bound", delta.value - 2.0 * n, slack,
                 stderr=delta.stderr, notes=f"bound 2n = {2 * n}")
    bounds = gate("deficit-bounds", delta.value, 2.0 * n, delta.stderr,
                  notes=delta.notes, sub=(nonneg, upper))
    return DeficitReport(delta, bounds)


# ---------------------------------------------------------------------------
# Deficit lower bound from the Gamma process


def _jack_se_from_replicates(reps: np.ndarray) -> np.ndarray:
    m = reps.shape[0]
    dev = reps - reps.mean(axis=0)
    dev *= dev
    return np.sqrt((m - 1.0) / m * dev.sum(axis=0))


def _snap_to_grid(r: np.ndarray, xi: float) -> int:
    k = int(np.argmin(np.abs(r - xi)))
    if abs(float(r[k]) - xi) > 1e-9:
        raise InputValidationError(
            f"xi={xi} is not on the grid image (nearest r = {r[k]:.6g}); "
            "add the matching time t = xi/(1-xi) to the grid")
    return k


@dataclass(frozen=True)
class GammaSpread:
    """Per-path curves of Gamma_r on the grid from xi, gathered in one pass over its blocks.

    `deficit_lower_bound` reads ``dev_sq`` and ``pair_sq``, and `deficit_chain_audit`
    every curve, so the |Gamma_r - E Gamma_r|^2 curve is computed once for both.
    """

    xi: float
    r: np.ndarray               # (K',) the grid's r from xi on
    mean: np.ndarray            # E Gamma_r with its path axis: a covariance array of one path
    dev_sq: np.ndarray          # (m, K') |Gamma_r - E Gamma_r|^2
    pair_sq: np.ndarray         # (m // 2, K') |Gamma^1 - Gamma^2|^2 / 2 of disjoint path pairs
    resid: np.ndarray           # (m, K') |Id - Gamma_r|^2
    loo_resid: np.ndarray       # (m, K') |Id - (m E Gamma_r - Gamma_r) / (m - 1)|^2


def gamma_spread(frame: FrameEnsemble, xi: float) -> GammaSpread:
    """The `GammaSpread` of ``frame`` from the grid r ``xi`` on, a block of grid times at a time.

    Each block's Gamma_r and its mean over paths give the block's columns
    of every curve, so no Gamma-sized array is built.  The means are each
    path added in order (`path_mean`), and every curve is per path and
    grid time, so the numbers are the whole-array ones bit for bit.
    """
    if not 0.0 < xi < 1.0:
        raise InputValidationError("need 0 < xi < 1")
    k0 = _snap_to_grid(frame.r, xi)
    r = frame.r[k0:]
    if len(r) < 3:
        raise InputValidationError("too few grid points above xi")
    m, k_pts, _ = frame.theta.shape
    q = m // 2
    eye = covariance.identity(frame.cov_t)
    mean = np.empty((1, k_pts - k0) + frame.cov_t.shape[2:])
    dev_sq, resid, loo_resid = (np.empty((m, k_pts - k0)) for _ in range(3))
    pair_sq = np.empty((q, k_pts - k0))
    for b in frame.blocks(k0):
        g = frame.gamma_at(b)
        s = slice(b.start - k0, b.stop - k0)
        gbar = path_mean(g)[None]
        mean[:, s] = gbar
        dev_sq[:, s] = covariance.frob_sq(g - gbar)
        pair_sq[:, s] = 0.5 * covariance.frob_sq(g[0:2 * q:2] - g[1:2 * q:2])
        resid[:, s] = covariance.frob_sq(eye - g)
        loo_resid[:, s] = covariance.frob_sq(eye - (m * gbar - g) / (m - 1.0))
    return GammaSpread(xi, r, mean, dev_sq, pair_sq, resid, loo_resid)


@dataclass(frozen=True)
class DeficitLowerBound:
    estimate: EstimatorResult
    parity: LemmaReport


def deficit_lower_bound(spread: GammaSpread, sigma: float = 4.0) -> DeficitLowerBound:
    """xi * integral_xi^{r_max} E |Gamma_r - E Gamma_r|^2 / (4 (1-r)) dr, from a `gamma_spread`.

    ``xi`` is a grid r in (0, 1), and the factor eps = xi is admissible
    because Gamma_r <= Id / r <= Id / xi on (xi, 1).  The integrand is
    estimated by the plug-in variance (which undercounts by the 1/m Bessel
    factor, keeping the bound conservative); the unobserved tail over
    (r_max, 1) is dropped, not extrapolated, which again only lowers the
    bound.  The parity sub-report cross-checks the plug-in against the
    independent-copy form E |Gamma^1 - Gamma^2|^2 / 2 of disjoint path pairs.
    """
    r = spread.r
    m = len(spread.dev_sq)
    weight = spread.xi / (4.0 * (1.0 - r))

    per_path = trapezoid(spread.dev_sq * weight, r, axis=1)
    value = float(per_path.mean())
    se = float(jackknife_se(per_path))

    per_pair = trapezoid(spread.pair_sq * weight, r, axis=1)
    v2 = float(per_pair.mean())
    se2 = float(jackknife_se(per_pair))
    corrected = value * m / (m - 1.0)
    parity = gate("parity-split", abs(corrected - v2),
                  sigma * math.hypot(se * m / (m - 1.0), se2) + 1e-12,
                  stderr=se2,
                  notes=f"plug-in (Bessel-corrected) {corrected:.6g} vs "
                        f"independent-copy {v2:.6g}")

    est = EstimatorResult(value, se,
                          notes=f"truncated at r_max={r[-1]:.6g}; tail not extrapolated")
    return DeficitLowerBound(est, parity)


# ---------------------------------------------------------------------------
# Proof-chain audit


def deficit_chain_audit(delta: EstimatorResult, frame: FrameEnsemble, xi: float,
                        sigma: float = 4.0) -> LemmaReport:
    """Numerical walk through the deficit inequality chain, one verdict per line.

    ``delta`` is the measure's EPI deficit, `epi_deficit`'s ``.delta``, which a
    run computes once for this check and ``deficit-bounds``; ``xi`` is a grid
    r, in a run the one nearest 0.5.

    Lines, in the order they are glued together:
      1. exact split E|Gamma - EGamma|^2 = E|Id - Gamma|^2 - |Id - EGamma|^2
         (algebraic identity of the plug-in estimators, tolerance 1e-10);
      2. truncated integration by parts of the Fisher energy over [xi, r_max]:
         int E|v|^2 = int E|Id-Gamma|^2/(1-r) + (1-xi) E|v_xi|^2
                      - (1-r_max) E|v_{r_max}|^2;
      3. trace bound |Id - EGamma|^2/(1-r) <= (1 - c) E|v_r|^2 with the
         empirical c = min spectral floor of EGamma on [xi, r_max];
      4. r EGamma_r non-decreasing in the positive-semidefinite order;
      5. the chain 2n >= delta(mu) >= lower bound, with the parity cross-check;
      6. the a-priori bound E|v_xi|^2 <= 4n/(1-xi)^2;
      7. INFO: the empirical constant (1/n) int_0^{r_max} E|v|^2 dr.

    Gamma_r is read a block of grid times at a time: lines 1, 2, 3 and 5
    read the per-path curves of one `gamma_spread`, line 4 its own blocks of
    increments, so no Gamma-sized array is built.
    """
    n = frame.dim
    m = frame.n_paths
    r_full = frame.r
    spread = gamma_spread(frame, xi)
    r = spread.r
    k0 = len(r_full) - len(r)
    vsq_full = frame.energy
    vsq = vsq_full[:, k0:]
    subs = []

    # 1. exact plug-in split; E Gamma keeps its path axis, so it is a
    # covariance array of one path
    plug = spread.dev_sq.mean(axis=0)
    resid_bar = covariance.frob_sq(covariance.identity(frame.cov_t) - spread.mean)[0]
    split = spread.resid.mean(axis=0) - resid_bar
    subs.append(entrywise_gate("variance-split-exact", np.abs(plug - split), 1e-10,
                               notes="algebraic identity of estimators,"))

    # 2. truncated integration by parts
    resid_sq = spread.resid / (1.0 - r)
    balance = (trapezoid(vsq, r, axis=1) - trapezoid(resid_sq, r, axis=1)
               - (1.0 - r[0]) * vsq[:, 0] + (1.0 - r[-1]) * vsq[:, -1])
    budget = sum(trapezoid_budget(curve, r) for curve in (vsq.mean(axis=0),
                                                          resid_sq.mean(axis=0)))
    se_b = float(jackknife_se(balance))
    subs.append(gate("ibp-balance", abs(float(balance.mean())),
                     sigma * se_b + budget + ROUNDING_FLOOR, stderr=se_b,
                     notes=f"trapezoid budget {budget:.3g}"))

    # 3. trace bound with the empirical spectral floor
    floor = float(covariance.eig_extremes(spread.mean)[0].min())
    c_tilde = max(0.0, floor)
    lhs = resid_bar / (1.0 - r)
    rhs = (1.0 - c_tilde) * vsq.mean(axis=0)
    # the leave-one-out means of Gamma enter only through |Id - mean|^2
    loo_v = m * vsq.mean(axis=0)[None] - vsq
    loo_v /= m - 1.0
    reps = spread.loo_resid / (1.0 - r)
    reps -= (1.0 - c_tilde) * loo_v
    se3 = _jack_se_from_replicates(reps)
    subs.append(entrywise_gate("score-trace-bound", lhs - rhs, sigma * se3 + ROUNDING_FLOOR,
                               se3, notes=f"empirical floor c={c_tilde:.4g},"))

    # 4. r * EGamma_r monotone in the PSD order (whole grid), a block of
    # increments at a time, each block reading one grid time past its end
    k_pts = len(r_full)
    lam_min, se4 = np.empty(k_pts - 1), np.empty(k_pts - 1)
    for b in time_blocks(k_pts - 1, frame.cov_t[:, 0].nbytes):
        halo = slice(b.start, b.stop + 1)
        g = frame.gamma_at(halo)
        d_mean, d_se = path_mean_se(np.diff(g * covariance.per_time(r_full[halo], g), axis=1))
        lam_min[b] = covariance.eig_extremes(d_mean[None])[0][0]
        se4[b] = d_se.reshape(b.stop - b.start, -1).max(axis=1) * n
    subs.append(entrywise_gate("clocked-gamma-monotone", -lam_min,
                               sigma * se4 + ROUNDING_FLOOR,
                               notes="lambda_min of consecutive increments,"))

    # 5. the deficit chain
    low = deficit_lower_bound(spread, sigma=sigma)
    up = gate("chain-upper", delta.value - 2.0 * n, sigma * delta.stderr + ROUNDING_FLOOR,
              stderr=delta.stderr, notes=f"delta={delta.value:.6g} <= 2n={2 * n}")
    comb = math.hypot(delta.stderr, low.estimate.stderr)
    lo = gate("chain-lower", low.estimate.value - delta.value, sigma * comb + ROUNDING_FLOOR,
              stderr=comb,
              notes=f"lower={low.estimate.value:.6g} <= delta={delta.value:.6g}")
    subs.extend([up, lo, low.parity])

    # 6. a-priori Fisher bound at xi
    val_xi = float(vsq[:, 0].mean())
    se_xi = float(jackknife_se(vsq[:, 0]))
    bound_xi = 4.0 * n / (1.0 - r[0]) ** 2
    subs.append(gate("fisher-bound-at-xi", val_xi - bound_xi, sigma * se_xi + ROUNDING_FLOOR,
                     stderr=se_xi, notes=f"E|v_xi|^2={val_xi:.6g}, bound={bound_xi:.6g}"))

    # 7. empirical energy constant
    per_c = trapezoid(vsq_full, r_full, axis=1) / n
    subs.append(info("energy-constant", float(per_c.mean()),
                     float(jackknife_se(per_c)),
                     notes="(1/n) integral of E|v_r|^2 over the realized grid"))

    return composite_gate("deficit-chain", subs, notes=f"xi={xi}, n_paths={m}")
