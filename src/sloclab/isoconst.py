"""Isotropic constants, marginal measures, and projection domination.

The isotropic constant of a measure mu with finite entropy and nonsingular
covariance is

    L_mu = exp(-Ent(mu)/n) * det cov(mu)^(1/(2n)),

an affine invariant minimized exactly at Gaussians, where it equals
(2 pi e)^(-1/2).  Every measure here is isotropic by construction, so the
determinant is 1 and L_mu = exp(-Ent(mu)/n).  For centered log-concave mu
with density f the value is pinned by the density at the barycenter:

    L_mu <= f(0)^(1/n) <= e * L_mu.

Marginals of log-concave measures are log-concave, and conditioning on less
information keeps more variance: if E is a tuple of coordinates, the
localization of the marginal mu_E dominates mu's localization restricted to
those coordinates in the positive-semidefinite order,

    E A_{E,t} >= (E A_t)_{E,E},

with equality for independent blocks (products, the Gaussian among them).
Marginals are taken on coordinates only: products have exact marginals only
there, and Gaussians and balls are rotation invariant, so another subspace
would give no law a coordinate tuple cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance
from .errors import InputValidationError
from .localization import PathEnsemble, make_uniform, simulate_ensemble
from .measures import (BallMarginalFactor, BallSpec, MeasureSpec, ProductSpec, DEFAULT_CATALOG,
                       parse_measure_id)
from .numerics import jackknife_se
from .reports import ROUNDING_FLOOR, LemmaReport, composite_gate, entrywise_gate, gate

GAUSSIAN_L = 1.0 / math.sqrt(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class IsotropicConstantReport:
    measure_id: str
    l_value: float              # closed form, as is the entropy
    entropy: float
    sandwich: LemmaReport       # the f(0) two-sided pin
    lower_bound: LemmaReport    # universal Gaussian floor


def isotropic_constant(spec: MeasureSpec) -> IsotropicConstantReport:
    """L_mu = exp(-Ent(mu)/n) with its closed-form entropy, sandwich check, and floor.

    The spec is isotropic by construction: its barycenter, where the
    two-sided f(0) pin holds, is 0, and det cov(mu) = 1.
    """
    n = spec.dim
    ent = spec.entropy()
    l_val = math.exp(-ent / n)

    log_f0 = float(np.asarray(spec.log_density(np.zeros(n)), float))
    mid = math.exp(log_f0 / n)
    tol = 1e-10  # L and the pin are closed forms: only rounding separates them
    low_side = gate("sandwich-lower", l_val - mid, tol, stderr=0.0,
                    notes=f"L={l_val:.8g} <= f(0)-pin={mid:.8g}")
    high_side = gate("sandwich-upper", mid - math.e * l_val, tol * math.e, stderr=0.0,
                     notes=f"f(0)-pin={mid:.8g} <= e*L={math.e * l_val:.8g}")
    sandwich = composite_gate("density-sandwich", (low_side, high_side),
                              notes="L <= f(0)-pin <= e*L")

    lower = gate("l-lower-bound", GAUSSIAN_L - 1e-9 - l_val, 0.0,
                 stderr=0.0, notes=f"floor (2 pi e)^(-1/2) = {GAUSSIAN_L:.8g}")
    return IsotropicConstantReport(spec.measure_id(), l_val, ent, sandwich, lower)


# ---------------------------------------------------------------------------
# Marginals


def marginal(spec: MeasureSpec, coords: tuple) -> MeasureSpec:
    """The law of the coordinates ``coords`` (distinct indices, in order) of X ~ ``spec``.

    Exact routes: products (independence keeps the chosen factors and the
    family, so ``gaussian:4`` gives ``gaussian:2`` and ``cube:4`` gives
    ``cube:2``), and one coordinate of a ball (rotation invariance; the
    radial exponent drops by ambient dimension minus one).  An empty,
    repeated or out-of-range index, and any other marginal, raise
    InputValidationError.
    """
    if not coords or len(set(coords)) < len(coords) or not set(coords) <= set(range(spec.dim)):
        raise InputValidationError(
            f"coordinates must be distinct indices in [0, {spec.dim}), got {coords!r}")
    if spec.factors is not None:
        return ProductSpec([spec.factors[i] for i in coords], family=spec.family)
    if isinstance(spec, BallSpec) and len(coords) == 1:
        return ProductSpec([BallMarginalFactor(spec.dim)])
    raise InputValidationError(
        "marginal is only sample-tractable; the domination check needs a "
        "localizable marginal (product coordinates, or one ball coordinate)")


def check_projection_domination(ensemble: PathEnsemble, coords: tuple, k: int,
                                seed: int = 0, sigma: float = 4.0) -> LemmaReport:
    """Localizing the marginal keeps at least the restricted covariance.

    Reads A_t at grid index k > 0 of the run's ensemble; the marginal on
    ``coords``, another measure, is localized here with as many paths on the
    grid [0, t].  Gates lambda_min(E A_{E,t} - (E A_t)_{E,E}) >= -slack.  For
    exact-equality families (products, the Gaussian among them) an
    entrywise equality sub-report is attached.
    """
    spec, n_paths = ensemble.spec, ensemble.n_paths
    sub_spec = marginal(spec, coords)
    t = float(ensemble.grid.points[k])
    if t <= 0:
        raise InputValidationError("need t > 0")
    part = simulate_ensemble(sub_spec, make_uniform(t, 1), n_paths, seed, salt="marginal")

    idx = np.array(coords)
    # C order fixes the summation order of the path mean below, and so its bits
    proj = np.ascontiguousarray(covariance.dense_rows(ensemble.cov[:, k])[:, idx[:, None], idx])
    lhs = covariance.dense_rows(part.cov[:, 1])
    diff = lhs.mean(axis=0) - proj.mean(axis=0)
    se = np.hypot(jackknife_se(lhs), jackknife_se(proj))
    slack = sigma * len(coords) * float(se.max()) + ROUNDING_FLOOR
    lam_min = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])

    subs = ()
    if spec.factors is not None:
        subs = (entrywise_gate("projection-equality", np.abs(diff),
                               sigma * se + ROUNDING_FLOOR, se,
                               notes="independent blocks carry no cross-information,"),)

    return gate("projection-domination", -lam_min, slack, stderr=float(se.max()),
                notes=f"t={t:g}, subspace dim {len(coords)}, n_paths={n_paths}", sub=subs)


def l_bounds_sweep(catalog=DEFAULT_CATALOG):
    """L_mu for every catalog member, with the universal floor asserted.

    Returns (rows, worst_floor_report): rows are IsotropicConstantReports in
    catalog order; the maximum L observed is reported only as a note because
    no explicit universal upper constant is available to gate against.
    """
    rows = []
    for mid in catalog:
        spec = parse_measure_id(mid)
        rows.append(isotropic_constant(spec))
    worst = max(rows, key=lambda rep: rep.lower_bound.statistic)
    floor = gate("l-lower-bound-sweep", worst.lower_bound.statistic,
                 worst.lower_bound.tolerance, stderr=worst.lower_bound.stderr,
                 notes=f"worst member {worst.measure_id}; "
                       f"max L observed {max(r.l_value for r in rows):.8g}")
    return rows, floor
