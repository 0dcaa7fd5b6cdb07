"""Clock change to r = t/(1+t): frame algebra, Fisher energy, Gamma process."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import truncnorm

from sloclab import follmer, numerics, reports
from sloclab.cli import main
from sloclab.errors import InputValidationError
from sloclab.follmer import (
    check_fisher_bound,
    check_fisher_identity,
    check_fisher_monotone,
    check_gamma_properties,
    check_xr_law,
    fisher_energy,
    marginal_fisher_information,
    to_follmer,
)
from sloclab.localization import make_geometric, simulate_ensemble
from sloclab.measures import (
    SQRT3,
    BallMarginalFactor,
    GaussianFactor,
    ProductSpec,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    sum_law,
)


def _with_arrays(frame, **arrays):
    """A copy of ``frame`` whose ``x``, ``v`` or ``gamma`` reads ``arrays``.

    The three are cached properties, so an array written to the instance
    ``__dict__`` is what every read returns, as if the frame had computed it.
    """
    out = dataclasses.replace(frame)
    out.__dict__.update(arrays)
    return out


@pytest.fixture(scope="module")
def cube1_frame():
    ens = simulate_ensemble(make_cube(1), make_geometric(0.05, 20.0, 16, include=(1.0,)),
                            512, seed=1)
    return to_follmer(ens)


@pytest.fixture(scope="module")
def cube2_frame():
    ens = simulate_ensemble(make_cube(2), make_geometric(0.05, 20.0, 16), 512, seed=0)
    return to_follmer(ens)


# ---------------------------------------------------------------------------
# Frame algebra


def test_gaussian_frame_is_degenerate():
    # a = theta/(1+t) exactly, so v = 0 and Gamma = Id on every path
    ens = simulate_ensemble(make_gaussian(2), make_geometric(0.1, 10.0, 13), 16, seed=2)
    frame = to_follmer(ens)
    assert np.abs(frame.v).max() < 1e-12
    assert np.abs(frame.gamma - np.ones(2)).max() < 1e-13
    assert frame.se_gamma is None


def test_clock_round_trip(cube2_frame):
    t_back = cube2_frame.r / (1.0 - cube2_frame.r)
    assert np.allclose(t_back, cube2_frame.t, rtol=1e-12)
    assert cube2_frame.r[0] == 0.0
    assert (np.diff(cube2_frame.r) > 0).all()
    assert cube2_frame.r[-1] < 1.0


def test_gamma_is_rescaled_covariance_bitwise():
    ens = simulate_ensemble(make_cube(2), make_geometric(0.1, 2.0, 9), 8, seed=3)
    frame = to_follmer(ens)
    scale = (1.0 + ens.grid.points)[None, :, None]
    assert frame.theta is ens.theta and frame.mean is ens.mean and frame.cov_t is ens.cov
    assert np.array_equal(frame.gamma, ens.cov * scale)
    assert np.array_equal(frame.x, ens.theta / scale)
    assert np.array_equal(frame.v, ens.mean * scale - ens.theta)
    # each derived array is built once: a second read is the same object
    for name in ("x", "v", "gamma"):
        assert getattr(frame, name) is getattr(frame, name), name


def test_frame_at_r_zero(cube2_frame):
    assert np.all(cube2_frame.x[:, 0] == 0.0)
    assert np.all(cube2_frame.v[:, 0] == 0.0)
    assert np.allclose(cube2_frame.gamma[:, 0], np.ones(2))


# ---------------------------------------------------------------------------
# Fisher energy


def test_fisher_energy_curve_shape(cube2_frame):
    cur = fisher_energy(cube2_frame)
    assert cur.r.shape == cur.value.shape == cur.stderr.shape == cur.bound.shape
    assert cur.value[0] == 0.0            # v_0 = 0
    assert np.allclose(cur.bound, 8.0 / (1.0 - cur.r) ** 2)


def test_trace_of_score_outer_equals_energy(cube2_frame):
    vv = np.einsum("mki,mkj->mkij", cube2_frame.v, cube2_frame.v)
    tr = np.trace(vv.mean(axis=0), axis1=-2, axis2=-1)
    assert np.allclose(tr, fisher_energy(cube2_frame).value, atol=1e-12)


def test_fisher_energy_cube_three_routes(cube1_frame):
    """Simulated E |v_r|^2 against two separate quadratures at r = 1/2 (t = 1).

    Route A integrates ((1+t) a(t, theta) - theta)^2 over the explicit law of
    theta_t = X + W_1; route B is the module's density-convolution Fisher
    information.  A and B agree to quadrature accuracy, the simulation to
    Monte Carlo accuracy.
    """
    cur = fisher_energy(cube1_frame)
    k = int(np.argmin(np.abs(cur.r - 0.5)))
    assert cur.r[k] == pytest.approx(0.5, abs=1e-12)

    def drift(th):
        a, b = -SQRT3 - th, SQRT3 - th
        return truncnorm.mean(a, b, loc=th, scale=1.0)

    def theta_density(th):
        return (ndtr(th + SQRT3) - ndtr(th - SQRT3)) / (2.0 * SQRT3)

    route_a, _ = quad(lambda th: (2.0 * drift(th) - th) ** 2 * theta_density(th),
                      -SQRT3 - 10.0, SQRT3 + 10.0, limit=200)
    route_b = marginal_fisher_information(make_cube(1), 0.5).value
    assert route_a == pytest.approx(route_b, abs=1e-8)
    assert cur.value[k] == pytest.approx(route_a, abs=5.0 * cur.stderr[k])


def test_marginal_fisher_gaussian_is_zero():
    j = marginal_fisher_information(make_gaussian(3), 0.5)
    assert (j.value, j.stderr) == (0.0, 0.0)


def test_marginal_fisher_validation():
    with pytest.raises(InputValidationError, match="0 < r < 1"):
        marginal_fisher_information(make_cube(1), 1.0)
    with pytest.raises(InputValidationError, match="product"):
        marginal_fisher_information(make_ball(2), 0.5)
    with pytest.raises(InputValidationError, match="'ballmarg' has none"):
        marginal_fisher_information(ProductSpec([BallMarginalFactor(3)]), 0.5)


def test_marginal_fisher_factorizes():
    j1 = marginal_fisher_information(make_cube(1), 0.3)
    j2 = marginal_fisher_information(make_cube(2), 0.3)
    assert j2.value == pytest.approx(2.0 * j1.value, rel=1e-10)
    assert j2.stderr == pytest.approx(2.0 * j1.stderr, rel=1e-10)


def test_marginal_fisher_by_law_matches_per_coordinate_sum():
    # the two uniform columns are one law, quadratured once and counted twice
    spec = make_product("exp,uniform,uniform")
    for r in (0.05, 0.5, 0.95):
        by_law = marginal_fisher_information(spec, r)
        each = [marginal_fisher_information(ProductSpec([f]), r) for f in spec.factors]
        assert by_law.value == pytest.approx(sum(j.value for j in each), rel=1e-15, abs=0.0)
        assert by_law.stderr == pytest.approx(sum(j.stderr for j in each), rel=1e-15, abs=0.0)


FACTOR_TAGS = ("gaussian", "uniform", "exp", "laplace", "truncgauss")
LEGENDRE = np.polynomial.legendre.leggauss(200)


def _support_y(factor, r):
    """Where the law of r X + sqrt(r (1 - r)) Z lives, and the images of the factor's kinks."""
    s = math.sqrt(r * (1.0 - r))
    kinks = [u for u in (factor.lo, 0.0, factor.hi) if math.isfinite(u)]
    lo = r * max(factor.lo, -40.0) - 12.0 * s
    hi = r * min(factor.hi, 40.0) + 12.0 * s
    return lo, hi, sorted({r * u for u in kinks}), kinks


def _fisher_law(factor, r):
    """`sum_law` of r X and s Z, with the pieces rescaled as the Fisher route does."""
    s = math.sqrt(r * (1.0 - r))
    return sum_law(follmer._scaled(factor.pieces, r), follmer._scaled(GaussianFactor.pieces, s))


def _nested_fisher_oracle(factor, r):
    """J(nu_r || N(0, r)) from the factor's log density alone.

    The density of r X + s Z and its derivative are Gauss-Legendre sums over
    the Gaussian kernel's +-12 sd window in u, split at the factor's kinks;
    an adaptive quadrature in y integrates the Fisher integrand.
    """
    s = math.sqrt(r * (1.0 - r))
    lo_y, hi_y, kinks_y, kinks_u = _support_y(factor, r)
    nodes, weights = LEGENDRE

    def integrand(y):
        c, h = y / r, 12.0 * s / r
        a0, b0 = max(c - h, factor.lo), min(c + h, factor.hi)
        if a0 >= b0:
            return 0.0
        edges = sorted({a0, b0} | {u for u in kinks_u if a0 < u < b0})
        f = df = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            k = (np.exp(-0.5 * ((y - r * u) / s) ** 2 + factor.log_density(u))
                 * 0.5 * (b - a) * weights)
            f += k.sum()
            df += (k * (r * u - y)).sum() / (s * s)
        if f < 1e-280:
            return 0.0
        return (df / f + y / r) ** 2 * f / (math.sqrt(2.0 * math.pi) * s)

    val, _ = quad(integrand, lo_y, hi_y, points=kinks_y, epsabs=1e-14, epsrel=1e-11,
                  limit=200)
    return val


@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_closed_marginal_route(tag, r):
    """Each factor's sum law is the law of r X + s Z, and J matches the oracle."""
    factor = make_factor(tag)
    law = _fisher_law(factor, r)
    lo_y, hi_y, kinks_y, _ = _support_y(factor, r)
    mass, mean, second = (
        quad(lambda y: y ** k * math.exp(law(y)[0]), lo_y, hi_y, points=kinks_y,
             epsabs=1e-13, epsrel=1e-12, limit=200)[0] for k in range(3))
    assert abs(mass - 1.0) < 1e-10
    assert abs(mean) < 1e-10
    assert abs(second - r) < 1e-10
    j = marginal_fisher_information(make_product(tag), r)
    assert j.value == pytest.approx(_nested_fisher_oracle(factor, r), rel=1e-8, abs=1e-15)
    assert 0.0 <= j.stderr < 1e-9


@pytest.mark.parametrize("r", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_sum_law_conditional_mean(tag, r):
    """E[r X | r X + s Z = y] and log g against a quadrature over x, for y within 4 sd."""
    factor = make_factor(tag)
    law = _fisher_law(factor, r)
    s = math.sqrt(r * (1.0 - r))
    x_lo, x_hi = r * factor.lo, r * factor.hi
    kinks = [r * u for u in (factor.lo, 0.0, factor.hi) if math.isfinite(u)]
    ys = np.linspace(-4.0, 4.0, 17) * math.sqrt(r)  # nu_r has variance r
    log_g, cond_mean = law(ys)
    for y, lg, mean in zip(ys, log_g, cond_mean):
        # the mass may sit at a support end far from y, so the window is wide
        # and the quadrature also breaks at the integrand's largest node
        a, b = max(x_lo, y - 40.0 * s), min(x_hi, y + 40.0 * s)

        def log_joint(x):  # log p_1(x) + log p_2(y - x), p_1 the density of r X
            return (float(factor.log_density(x / r)) - math.log(r)
                    - 0.5 * ((y - x) / s) ** 2 - math.log(math.sqrt(2.0 * math.pi) * s))
        nodes = np.linspace(a, b, 4001)
        logs = (factor.log_density(nodes / r) - math.log(r) - 0.5 * ((y - nodes) / s) ** 2
                - math.log(math.sqrt(2.0 * math.pi) * s))
        shift, peak = float(logs.max()), float(nodes[np.argmax(logs)])
        den, num = (quad(lambda x: x ** k * math.exp(log_joint(x) - shift), a, b,
                         points=[u for u in (*kinks, peak) if a < u < b], epsabs=1e-14,
                         epsrel=1e-13, limit=200)[0] for k in range(2))
        assert abs(mean - num / den) < 1e-10
        assert abs(lg - (shift + math.log(den))) < 1e-10
    # two uniform pieces make a pair with C = 0, whose mean the law leaves NaN
    uniform = make_factor("uniform").pieces
    log_g, cond_mean = sum_law(uniform, uniform)(np.linspace(-3.0, 3.0, 7))
    assert np.isfinite(log_g).all()
    assert np.isnan(cond_mean).all()


@pytest.mark.parametrize("r", [1e-3, 0.999])
@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_marginal_fisher_finite_at_clock_ends(tag, r):
    j = marginal_fisher_information(make_product(tag), r)
    assert math.isfinite(j.value) and j.value >= 0.0
    assert math.isfinite(j.stderr)


def test_laplace_fisher_at_high_r():
    # an unsplit nested quadrature gave 0.508941 here, with only a warning
    j = marginal_fisher_information(make_product("laplace"), 0.95)
    assert j.value == pytest.approx(0.5068226962, abs=1e-10)


# ---------------------------------------------------------------------------
# Checks


def test_fisher_bound_passes(cube2_frame):
    rep = check_fisher_bound(cube2_frame)
    assert not rep.failed


def test_fisher_monotone_passes(cube2_frame):
    rep = check_fisher_monotone(cube2_frame)
    assert not rep.failed


def test_fisher_identity_passes(cube1_frame):
    rep = check_fisher_identity(cube1_frame)
    assert not rep.failed
    assert rep.sub
    for s in rep.sub:
        assert s.check_id.startswith("fisher-identity@r=")


def test_fisher_identity_passes_on_a_gaussian():
    # both sides vanish: the energy is rounding noise (about 1e-33) with zero
    # stderr and quadrature error, so only the rounding floor separates them
    frame = to_follmer(simulate_ensemble(make_gaussian(3), make_geometric(0.01, 100.0, 40),
                                         256, seed=0))
    rep = check_fisher_identity(frame)
    assert not rep.failed
    assert all(s.tolerance == 1e-9 for s in rep.sub)


def test_fisher_identity_flags_scaled_drift():
    # 1.1 v raises E |v_r|^2 by 21%; with 8192 paths the gap at r = 0.8 is 1.75-2.45
    # times the 4-sigma tolerance at seeds 0-3.  The energy is read from theta
    # and a_t, so the drift is scaled through the a_t that gives v_r = 1.1 v.
    spec = make_product("exp,laplace,truncgauss")
    frame = to_follmer(simulate_ensemble(spec, make_geometric(0.05, 20.0, 16), 8192, seed=0))
    assert not check_fisher_identity(frame).failed
    mean = (1.1 * frame.v + frame.theta) / (1.0 + frame.t)[None, :, None]
    rep = check_fisher_identity(dataclasses.replace(frame, mean=mean))
    assert rep.failed


def test_gamma_properties_pass(cube2_frame):
    rep = check_gamma_properties(cube2_frame)
    assert not rep.failed
    ids = [s.check_id for s in rep.sub]
    assert ids == ["gamma-rescaling", "score-covariance", "gamma-psd",
                   "gamma-below-identity", "score-energy-derivative",
                   "gamma-derivative", "gamma-spectral-bound"]


def test_gamma_derivative_flags_scaled_time(cube2_frame):
    gamma = cube2_frame.gamma.copy()
    gamma[:, 8] *= 1.2
    rep = check_gamma_properties(_with_arrays(cube2_frame, gamma=gamma))
    assert rep.failed
    assert {s.check_id: s for s in rep.sub}["gamma-derivative"].failed


def test_gamma_derivatives_fail_on_a_non_finite_path(cube2_frame):
    gamma = cube2_frame.gamma.copy()
    gamma[0, :, 0] = np.nan
    rep = check_gamma_properties(_with_arrays(cube2_frame, gamma=gamma))
    subs = {s.check_id: s for s in rep.sub}
    for check_id in ("score-energy-derivative", "gamma-derivative"):
        assert subs[check_id].failed
        assert "non-finite" in subs[check_id].notes
    assert rep.failed and not rep.statistic <= rep.tolerance


@pytest.mark.parametrize("k", [0, 8, 15])
def test_score_energy_derivative_fails_on_a_non_finite_v_in_one_node_blocks(
        k, cube2_frame, monkeypatch):
    # every interior node its own block: a NaN in one path's v at grid time k
    # reaches the gate through the blocks' one-node halos, ends included
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1)
    v = cube2_frame.v.copy()
    v[3, k, 1] = np.nan
    rep = check_gamma_properties(_with_arrays(cube2_frame, v=v))
    sub = {s.check_id: s for s in rep.sub}["score-energy-derivative"]
    assert sub.failed
    assert "non-finite statistic" in sub.notes


def test_xr_law_passes(cube2_frame):
    rep = check_xr_law(cube2_frame, seed=11)
    assert not rep.failed
    assert {s.check_id for s in rep.sub} == {"xr-mean", "xr-covariance", "xr-ks"}


def test_xr_law_ks_fails_on_nan(cube2_frame):
    x = cube2_frame.x.copy()
    x[3, :, 1] = np.nan
    rep = check_xr_law(_with_arrays(cube2_frame, x=x), seed=11)
    ks = next(s for s in rep.sub if s.check_id == "xr-ks")
    assert ks.failed
    assert "non-finite statistic" in ks.notes
    assert rep.failed


def test_xr_law_headlines_the_failing_ks_part(cube2_frame, monkeypatch):
    # a KS p-value below the level FAILs xr-law, and the headline shows it
    monkeypatch.setattr(reports, "KS_LEVEL", 1.0)
    rep = check_xr_law(cube2_frame, seed=11)
    ks = next(s for s in rep.sub if s.check_id == "xr-ks")
    assert ks.failed and rep.failed
    assert (rep.statistic, rep.tolerance) == (ks.statistic, ks.tolerance)
    assert rep.statistic > rep.tolerance


def test_xr_law_passes_cube8_at_the_family_wise_level(tmp_path):
    # its smallest of 8 KS p-values is 0.0057: above the family-wise
    # 1 - 0.99^(1/8) = 0.00126, below the per-coordinate 0.01
    code = main(["verify", "--measure", "cube:8", "--paths", "4096", "--seed", "0",
                 "--checks", "xr-law", "--out", str(tmp_path)])
    assert code == 0
    head = json.loads((tmp_path / "reports.json").read_text())[0]
    assert head["check_id"] == "xr-law" and head["verdict"] == "PASS"


def test_xr_ks_still_fails_on_scaled_xr():
    frame = to_follmer(simulate_ensemble(make_cube(8), make_geometric(), 4096, seed=0))
    rep = check_xr_law(_with_arrays(frame, x=1.2 * frame.x), seed=0)
    ks = next(s for s in rep.sub if s.check_id == "xr-ks")
    assert ks.failed and ks.tolerance == pytest.approx(-0.0012556, rel=1e-4)
    assert -ks.statistic < 1e-6

