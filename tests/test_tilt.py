"""Tilted measures: closed forms vs quadrature vs rejection, t=0 edge cases."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, ndtr, xlogy

from sloclab import streams
from sloclab.errors import DivergentTilt, InputValidationError, RejectionStall
from sloclab.measures import (
    AffineImageSpec,
    BallMarginalFactor,
    SQRT3,
    UniformFactor,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.tilt import (
    CLOSED_FORM,
    QUADRATURE,
    REJECTION,
    ball_tilt_table,
    conditional_covariance_identity_check,
    factor_tilt_quadrature,
    product_tilt_table,
    tilt_moments,
    tilt_moments_quadrature,
    tilt_moments_rejection,
    tilt_sample_batch,
    tilt_table,
)

# a sheared cube: an affine image, so its tilts go through rejection
SKEW = AffineImageSpec(make_cube(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Closed forms


def test_gaussian_conjugacy():
    theta = np.array([1.0, -1.0, 0.5])
    state = tilt_moments(make_gaussian(3), 2.0, theta)
    assert state.method == CLOSED_FORM
    assert np.allclose(state.mean, theta / 3.0, atol=1e-14)
    assert np.allclose(state.cov, np.eye(3) / 3.0, atol=1e-14)
    expect_log_z = -1.5 * math.log(3.0) + float(theta @ theta) / 6.0
    assert state.log_z == pytest.approx(expect_log_z, rel=1e-14)


def test_gaussian_t_zero_tilt_is_mean_shift():
    theta = np.array([0.7, -0.2])
    state = tilt_moments(make_gaussian(2), 0.0, theta)
    assert np.allclose(state.mean, theta)
    assert np.allclose(state.cov, np.eye(2))
    assert state.log_z == pytest.approx(0.5 * float(theta @ theta))


@pytest.mark.parametrize("measure_id", ["gaussian:2", "cube:2", "ball:3", "product:exp,laplace"])
def test_base_state_is_exact(measure_id):
    spec = parse_measure_id(measure_id)
    state = tilt_moments(spec, 0.0, np.zeros(spec.dim))
    assert state.method == CLOSED_FORM
    assert state.log_z == 0.0
    assert np.allclose(state.mean, np.zeros(spec.dim))
    assert np.allclose(state.cov, np.eye(spec.dim))


def test_cube_tilt_matches_truncated_normal():
    # at theta = 0, t = 1 the tilted cube factor is a standard normal cut at
    # |x| <= sqrt(3)
    state = tilt_moments(make_cube(1), 1.0, np.zeros(1))
    c = SQRT3
    z = 2.0 * ndtr(c) - 1.0
    phi_c = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    var = 1.0 - 2.0 * c * phi_c / z
    assert state.cov[0, 0] == pytest.approx(var, rel=1e-12)
    assert state.mean[0] == pytest.approx(0.0, abs=1e-14)
    log_z = math.log(math.sqrt(2.0 * math.pi) * z / (2.0 * SQRT3))
    assert state.log_z == pytest.approx(log_z, rel=1e-12)


def test_cube_large_t_variance_saturates_spectral_bound():
    # truncation becomes invisible at t = 100: var -> 1/t to roundoff
    state = tilt_moments(make_cube(1), 100.0, np.zeros(1))
    assert state.cov[0, 0] == pytest.approx(0.01, rel=1e-12)
    # at moderate t the cut at sqrt(3) still bites and var sits strictly below
    mid = tilt_moments(make_cube(1), 4.0, np.zeros(1))
    assert 0.24 < mid.cov[0, 0] < 0.25


def test_exp_t_zero_tilt_closed_oracle():
    # exp factor tilted at t=0 by theta < 1 stays exponential:
    # rate 1 - theta, support [-1, inf)
    theta = 0.9
    state = tilt_moments(make_product("exp"), 0.0, np.array([theta]))
    assert state.method == QUADRATURE
    assert state.log_z == pytest.approx(-theta - math.log(1.0 - theta), rel=1e-9)
    assert state.mean[0] == pytest.approx(1.0 / (1.0 - theta) - 1.0, rel=1e-8)
    assert state.cov[0, 0] == pytest.approx(1.0 / (1.0 - theta) ** 2, rel=1e-7)


def test_laplace_t_zero_tilt_closed_oracle():
    # laplace rate lambda = sqrt(2): Z = lambda^2/(lambda^2 - theta^2)
    theta = 1.0
    state = tilt_moments(make_product("laplace"), 0.0, np.array([theta]))
    assert state.log_z == pytest.approx(math.log(2.0), rel=1e-9)
    assert state.mean[0] == pytest.approx(2.0, rel=1e-8)
    assert state.cov[0, 0] == pytest.approx(6.0, rel=1e-7)


# ---------------------------------------------------------------------------
# Quadrature as the oracle for the closed forms


@pytest.mark.parametrize("tag", ["gaussian", "uniform", "exp", "laplace", "truncgauss"])
@pytest.mark.parametrize("t,theta", [(0.3, 0.8), (1.0, 0.0), (4.0, -2.5), (0.05, 0.2)])
def test_closed_tilt_against_quadrature(tag, t, theta):
    f = make_factor(tag)
    lz_c, mu_c, v_c = f.tilt_stats(t, np.array(theta))
    lz_q, mu_q, v_q = factor_tilt_quadrature(f, t, theta)
    assert float(lz_c) == pytest.approx(lz_q, abs=1e-9)
    assert float(mu_c) == pytest.approx(mu_q, abs=1e-9)
    assert float(v_c) == pytest.approx(v_q, abs=1e-9)


def test_narrow_uniform_factor_tilt():
    f = UniformFactor(0.5)
    lz_c, mu_c, v_c = f.tilt_stats(2.0, np.array(1.3))
    lz_q, mu_q, v_q = factor_tilt_quadrature(f, 2.0, 1.3)
    assert float(lz_c) == pytest.approx(lz_q, abs=1e-10)
    assert float(mu_c) == pytest.approx(mu_q, abs=1e-10)
    assert float(v_c) == pytest.approx(v_q, abs=1e-10)


def test_quadrature_handles_ball_marginal():
    f = BallMarginalFactor(4)
    lz, mu, v = factor_tilt_quadrature(f, 0.5, 0.7)
    assert np.isfinite([lz, mu, v]).all()
    assert 0.0 < mu < f.hi
    assert 0.0 < v < 1.0


def test_quadrature_route_requires_products():
    with pytest.raises(InputValidationError, match="coordinate product"):
        tilt_moments_quadrature(make_ball(3), 1.0, np.zeros(3))


def test_product_tilt_table_matches_scalar_route():
    spec = make_product("exp,laplace,uniform")
    thetas = np.array([[0.2, -0.5, 1.0], [0.0, 0.0, 0.0], [-1.5, 2.0, -0.3]])
    log_z, mean, var = product_tilt_table(spec, 0.8, thetas)
    for i, th in enumerate(thetas):
        state = tilt_moments(spec, 0.8, th)
        assert log_z[i] == pytest.approx(state.log_z, rel=1e-12)
        assert np.allclose(mean[i], state.mean, atol=1e-12)
        assert np.allclose(var[i], np.diag(state.cov), atol=1e-12)


TABLE_CASES = {  # case -> (measure, t, thetas, expected route)
    "gaussian": ("gaussian:3", 1.5, [[0.2, -0.4, 1.0], [0.0, 0.0, 0.0], [3.0, 1.0, -2.0]],
                 CLOSED_FORM),
    "cube": ("cube:2", 0.8, [[0.5, -0.3], [0.0, 0.0], [-2.0, 4.0]], CLOSED_FORM),
    "product-t0": ("product:exp,laplace,uniform", 0.0, [[-0.5, 0.3, 1.0], [0.4, -0.6, 0.0]],
                   QUADRATURE),
    "ball": ("ball:3", 2.0, [[0.4, -0.2, 0.1], [0.0, 0.0, 0.0], [2.0, 1.0, -1.0]], QUADRATURE),
    "ball-t0": ("ball:3", 0.0, [[0.4, -0.2, 0.1], [-1.0, 0.5, 2.0]], QUADRATURE),
    "ball-base": ("ball:3", 0.0, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], CLOSED_FORM),
    "skew": (SKEW, 2.0, [[0.4, -0.2], [0.0, 0.0], [2.0, -1.0]], REJECTION),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tilt_table_matches_tilt_moments(case):
    measure, t, rows, route = TABLE_CASES[case]
    spec = measure if isinstance(measure, AffineImageSpec) else parse_measure_id(measure)
    thetas = np.array(rows)
    rng_calls = []

    def rng_for(i):
        rng_calls.append(i)
        return streams.generator(17, i)

    log_z, mean, cov, se_cov, method = tilt_table(spec, t, thetas, rng_for, 64)
    assert method == route
    assert (se_cov is not None) == (method == REJECTION)
    assert sorted(rng_calls) == (list(range(len(rows))) if method == REJECTION else [])
    for i, theta in enumerate(thetas):
        state = tilt_moments(spec, t, theta, stream=(17, i), n_samples=64)
        assert state.method == method
        assert log_z[i] == state.log_z
        assert np.array_equal(mean[i], state.mean)
        assert np.array_equal(cov[i], state.cov)
        if se_cov is not None:
            assert np.array_equal(se_cov[i], state.se_cov)


# ---------------------------------------------------------------------------
# log Z is the moment generating function: gradients recover the moments


def test_mean_is_gradient_of_log_z():
    spec = make_product("exp,laplace")
    t = 0.7
    theta = np.array([0.3, -0.2])
    state = tilt_moments(spec, t, theta)
    h = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fp = tilt_moments(spec, t, theta + e).log_z
        fm = tilt_moments(spec, t, theta - e).log_z
        assert (fp - fm) / (2 * h) == pytest.approx(state.mean[j], rel=1e-6)


def test_covariance_is_hessian_of_log_z():
    spec = make_product("exp,laplace")
    t = 0.7
    theta = np.array([0.3, -0.2])
    state = tilt_moments(spec, t, theta)
    f0 = state.log_z
    h = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fp = tilt_moments(spec, t, theta + e).log_z
        fm = tilt_moments(spec, t, theta - e).log_z
        assert (fp - 2 * f0 + fm) / h**2 == pytest.approx(state.cov[j, j], abs=1e-5)
    # coordinate products have separable log Z, so the cross term vanishes
    assert state.cov[0, 1] == 0.0


# ---------------------------------------------------------------------------
# Divergent t = 0 tilts


def test_exp_divergent_tilt():
    with pytest.raises(DivergentTilt, match="factor 0"):
        tilt_moments(make_product("exp,exp"), 0.0, np.array([2.0, 0.0]))
    # the left tail is unbounded in rate, so large negative theta is fine
    state = tilt_moments(make_product("exp,exp"), 0.0, np.array([-5.0, 0.0]))
    assert np.isfinite(state.log_z)


def test_laplace_divergent_tilt_both_sides():
    lap = make_product("laplace")
    for theta in (1.5, -1.5, math.sqrt(2.0)):
        with pytest.raises(DivergentTilt):
            tilt_moments(lap, 0.0, np.array([theta]))
    state = tilt_moments(lap, 0.0, np.array([1.2]))
    assert state.mean[0] > 0.0


def test_positive_t_never_diverges():
    state = tilt_moments(make_product("exp"), 0.1, np.array([50.0]))
    assert np.isfinite(state.log_z)
    assert state.mean[0] > 100.0


# ---------------------------------------------------------------------------
# Rejection route


def test_rejection_matches_closed_form_on_product():
    t, theta = 1.0, np.array([0.5, -0.3])
    for measure in ("product:exp,uniform", "gaussian:2"):
        spec = parse_measure_id(measure)
        closed = tilt_moments(spec, t, theta)
        rej = tilt_moments_rejection(spec, t, theta, streams.generator(11, "rej"), 4096)
        assert rej.method == REJECTION
        assert rej.n_samples == 4096
        assert np.abs(rej.mean - closed.mean).max() < 5.0 * rej.se_mean.max() + 1e-3
        assert np.abs(rej.cov - closed.cov).max() < 5.0 * rej.se_cov.max() + 1e-3
        assert rej.log_z == pytest.approx(closed.log_z, abs=0.05), measure


@pytest.mark.parametrize("n_samples", [16, 24, 31])
def test_rejection_errors_finite_below_32_samples(n_samples):
    spec = make_ball(3)
    rej = tilt_moments_rejection(spec, 2.0, np.array([0.4, -0.2, 0.1]),
                                 streams.generator(4, "few"), n_samples)
    assert rej.n_samples == n_samples
    assert np.isfinite(rej.se_mean).all()
    assert np.isfinite(rej.se_cov).all()


def test_rejection_needs_four_samples():
    spec, theta = make_ball(3), np.array([0.4, -0.2, 0.1])
    for n_samples in (1, 2, 3):
        with pytest.raises(InputValidationError, match="n_samples >= 4"):
            tilt_moments_rejection(spec, 2.0, theta, streams.generator(4, "few"), n_samples)
    rej = tilt_moments_rejection(spec, 2.0, theta, streams.generator(4, "few"), 4)
    assert np.isfinite(rej.se_mean).all()
    assert np.isfinite(rej.se_cov).all()


def test_rejection_acceptance_rate_oracle():
    # cube at tiny t: proposal N(0, Id/t) nearly flat; acceptance is the
    # orthant probability of landing in the cube
    t = 0.01
    pts, proposed, accepted = tilt_sample_batch(
        make_cube(2), t, np.zeros(2), streams.generator(5, "acc"), 8192)
    p_true = (2.0 * ndtr(SQRT3 * math.sqrt(t)) - 1.0) ** 2
    assert accepted / proposed == pytest.approx(p_true, rel=0.05)
    assert (np.abs(pts) <= SQRT3).all()


def test_rejection_sample_mean_cube():
    spec = make_cube(2)
    t, theta = 4.0, np.array([2.0, 0.0])
    closed = tilt_moments(spec, t, theta)
    pts, _, _ = tilt_sample_batch(spec, t, theta, streams.generator(6, "mean"), 4096)
    se = np.sqrt(np.diag(closed.cov) / 4096)
    assert np.abs(pts.mean(axis=0) - closed.mean).max() < 4.0 * se.max()


def test_rejection_stall_raises():
    # cube:8 at t = 1e-4: acceptance ~ (sqrt(3 t) ...)^8, absurdly small
    with pytest.raises(RejectionStall) as err:
        tilt_sample_batch(make_cube(8), 1e-4, np.zeros(8), streams.generator(7, "stall"), 4)
    assert err.value.acceptance < 1e-6
    assert err.value.proposals >= 2_000_000


def test_ball_t_zero_tilt_against_marginal_quadrature():
    # theta = (c, 0, 0): everything reduces to the first-coordinate marginal
    spec = make_ball(3)
    theta = np.array([0.5, 0.0, 0.0])
    rej = tilt_moments_rejection(spec, 0.0, theta, streams.generator(8, "ballt0"), 8192)
    f = BallMarginalFactor(3)
    rho = lambda y: np.exp(f.log_density(y))
    z, _ = quad(lambda y: math.exp(0.5 * y) * rho(y), f.lo, f.hi, limit=200)
    m1, _ = quad(lambda y: y * math.exp(0.5 * y) * rho(y), f.lo, f.hi, limit=200)
    assert rej.log_z == pytest.approx(math.log(z), abs=0.06)
    assert rej.mean[0] == pytest.approx(m1 / z, abs=5.0 * rej.se_mean[0] + 1e-3)
    assert (np.linalg.norm(rej.theta) > 0.0) and (rej.t == 0.0)


def test_t_zero_rejection_needs_bounded_support():
    with pytest.raises(InputValidationError, match="balls only"):
        tilt_sample_batch(SKEW, 0.0, np.array([1.0, 0.0]), streams.generator(9, "t0"), 16)


def test_rejection_spec_needs_stream():
    with pytest.raises(InputValidationError, match="stream"):
        tilt_moments(SKEW, 1.0, np.ones(2))


def test_tilt_sample_single_draw():
    def draw():
        pts, _, _ = tilt_sample_batch(make_ball(3), 1.0, np.zeros(3),
                                      streams.generator(3, "single"), size=1)
        return pts

    x = draw()
    assert x.shape == (1, 3)
    assert np.linalg.norm(x[0]) <= math.sqrt(5.0)
    # same key, same draw
    assert np.array_equal(x, draw())


# ---------------------------------------------------------------------------
# The ball's radial quadrature


@pytest.mark.parametrize("n", [3, 4])
def test_ball_tilt_matches_rejection(n):
    # the same stream gives tilt_moments_rejection and the raw draws, whose
    # per-draw spread is the standard error of every sample moment
    spec = make_ball(n)
    dirs = streams.generator(n, "ball-sweep-dirs").standard_normal((2, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    size = 4096
    worst = 0.0
    for t in (0.0, 0.05, 1.0, 4.0, 20.0):
        for j, scale in enumerate((0.3, 1.5 * t or 1.0)):
            theta = scale * dirs[j]
            exact = tilt_moments(spec, t, theta)
            assert exact.method == QUADRATURE
            key = (n, "ball-sweep", j, int(100 * t))
            rej = tilt_moments_rejection(spec, t, theta, streams.generator(*key), size)
            pts, proposed, accepted = tilt_sample_batch(spec, t, theta,
                                                        streams.generator(*key), size)
            centred = pts - rej.mean
            se_mean = centred.std(axis=0, ddof=1) / math.sqrt(size)
            prods = centred[:, :, None] * centred[:, None, :]
            se_cov = prods.std(axis=0, ddof=1) / math.sqrt(size)
            # all proposals accepted: log Z is exact up to the count's resolution
            se_log_z = math.sqrt(max(1.0 - accepted / proposed, 1.0 / proposed) / accepted)
            worst = max(worst, float((np.abs(exact.mean - rej.mean) / se_mean).max()),
                        float((np.abs(exact.cov - rej.cov) / se_cov).max()),
                        abs(exact.log_z - rej.log_z) / se_log_z)
    assert worst <= 4.0


def _ball_phi_oracle(n, t, s):
    """(log Z, E u, Var u, E|y|^2/(n-1)) of the ball's tilt by adaptive quad in phi."""
    radius = math.sqrt(n + 2.0)
    spec = make_ball(n)
    k = n - 1

    def parts(phi):
        u, gap = radius * np.cos(phi), (radius * np.sin(phi)) ** 2
        if t == 0.0:
            return s * u + xlogy(0.5 * k, gap), gap * k / (n + 1)
        lower = gammainc(0.5 * k, 0.5 * t * gap) if k else np.ones_like(gap)
        upper = gammainc(0.5 * k + 1.0, 0.5 * t * gap)
        return (s * u - 0.5 * t * u * u + np.log(lower),
                k / t * np.divide(upper, lower, out=np.zeros_like(gap), where=lower > 0))

    grid = np.linspace(1e-9, math.pi - 1e-9, 4001)
    with np.errstate(divide="ignore"):
        log_w = parts(grid)[0] + np.log(np.sin(grid))
    top, peak = float(log_w.max()), float(grid[log_w.argmax()])

    def integrand(phi, power):
        with np.errstate(divide="ignore"):
            log_f, y2 = parts(np.array(phi))
        w = math.exp(float(log_f) - top) * radius * math.sin(phi)
        # u - u(peak), stable where both sit near +-R
        d = -2.0 * radius * math.sin(0.5 * (phi + peak)) * math.sin(0.5 * (phi - peak))
        return w * float(y2) if power == "y" else w * d ** power

    kw = dict(epsabs=0.0, epsrel=1e-13, limit=500, points=[peak])
    i0, i1, i2, iy = (quad(integrand, 0.0, math.pi, args=(p,), **kw)[0]
                      for p in (0, 1, 2, "y"))
    if t == 0.0:
        log_z = top + math.log(i0) - n * math.log(radius) - math.log(
            math.gamma(0.5) * math.gamma(0.5 * n + 0.5) / math.gamma(0.5 * n + 1.0))
    else:
        log_z = top + math.log(i0) + 0.5 * k * math.log(2.0 * math.pi / t) - spec.entropy()
    d1 = i1 / i0
    return log_z, radius * math.cos(peak) + d1, i2 / i0 - d1 * d1, iy / i0 / max(k, 1)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("t", [0.0, 0.05, 1.0, 20.0, 100.0, 1e4])
def test_ball_tilt_matches_adaptive_quadrature(n, t):
    spec = make_ball(n)
    sizes = [0.0, 1.8, 0.9 * t * spec.radius + 0.5, 1.1 * t * spec.radius + 3.0]
    thetas = np.zeros((len(sizes), n))
    thetas[:, 0] = sizes
    log_z, mean, cov = ball_tilt_table(spec, t, thetas)
    for i, size in enumerate(sizes):
        lz, mu, var, across = _ball_phi_oracle(n, t, size)
        assert log_z[i] == pytest.approx(lz, rel=1e-10, abs=1e-10)
        assert mean[i, 0] == pytest.approx(mu, abs=1e-10 * max(abs(mu), math.sqrt(var)))
        assert cov[i, 0, 0] == pytest.approx(var, rel=1e-10)
        if n > 1:
            assert cov[i, 1, 1] == pytest.approx(across, rel=1e-10)
            assert np.abs(cov[i, 0, 1:]).max() == 0.0


@pytest.mark.parametrize("nu", [1, 2, 4])
def test_ball_marginal_batch_matches_adaptive_quadrature(nu):
    f = BallMarginalFactor(nu)
    thetas = np.array([-2.5, 0.0, 0.7, 3.0])
    for t in (0.0, 0.05, 1.0, 20.0, 100.0):
        log_z, mean, var = f.tilt_stats(t, thetas)
        for i, theta in enumerate(thetas):
            lz_q, mu_q, v_q = factor_tilt_quadrature(f, t, float(theta))
            assert log_z[i] == pytest.approx(lz_q, abs=1e-10)
            assert mean[i] == pytest.approx(mu_q, abs=1e-10)
            assert var[i] == pytest.approx(v_q, abs=1e-10)


def test_ball_tilt_finite_where_rejection_stalls():
    # ball:4 at t = 0.05, |theta| = 1.8: rejection from N(theta/t, Id/t)
    # accepts almost nothing there
    spec = make_ball(4)
    thetas = np.array([[1.8, 0.0, 0.0, 0.0], [0.0, -1.0, 1.5, 0.0]])

    def no_rng(i):
        raise AssertionError("the ball's route draws nothing")

    log_z, mean, cov, se_cov, method = tilt_table(spec, 0.05, thetas, no_rng)
    assert method == QUADRATURE and se_cov is None
    assert np.isfinite(log_z).all() and np.isfinite(mean).all() and np.isfinite(cov).all()
    lam = np.linalg.eigvalsh(cov)
    assert lam.min() > 0.0 and 0.05 * lam.max() <= 1.0
    assert (np.linalg.norm(mean, axis=1) < spec.radius).all()


# ---------------------------------------------------------------------------
# Validation and the state object


def test_validate_rejects_bad_inputs():
    g = make_gaussian(2)
    with pytest.raises(InputValidationError, match="shape"):
        tilt_moments(g, 1.0, np.zeros(3))
    with pytest.raises(InputValidationError, match="finite"):
        tilt_moments(g, 1.0, np.array([np.nan, 0.0]))
    with pytest.raises(InputValidationError, match=">= 0"):
        tilt_moments(g, -1.0, np.zeros(2))


def test_tilt_state_is_frozen():
    state = tilt_moments(make_gaussian(2), 1.0, np.zeros(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 2.0


# ---------------------------------------------------------------------------
# Conditional covariance identity


def test_conditional_covariance_gaussian():
    rep = conditional_covariance_identity_check(make_gaussian(2), 1.0, seed=3,
                                                n_outer=128, n_inner=16)
    assert not rep.failed
    assert rep.check_id == "conditional-covariance"


def test_conditional_covariance_cube():
    rep = conditional_covariance_identity_check(make_cube(2), 1.0, seed=4,
                                                n_outer=64, n_inner=32)
    assert not rep.failed


def test_conditional_covariance_needs_positive_t():
    with pytest.raises(InputValidationError):
        conditional_covariance_identity_check(make_gaussian(2), 0.0, seed=0)
