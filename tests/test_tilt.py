"""Tilted measures: closed forms vs quadrature vs exact draws; t = 0 is the base state."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, ndtr, xlogy
from scipy.stats import kstest

from sloclab import covariance, streams
from sloclab.cli import main
from sloclab.errors import DivergentTilt, InputValidationError
from sloclab.localization import make_uniform, simulate_ensemble
from sloclab.measures import (
    DEFAULT_CATALOG,
    BallMarginalFactor,
    SQRT3,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.tilt import (
    ball_tilt_table,
    conditional_covariance_identity_check,
    cov_shape,
    envelope,
    factor_tilt_quadrature,
    gaussian_tilt,
    product_tilt_table,
    sample_log_concave,
    tilt_sample_batch,
    tilt_table,
)

FACTOR_TAGS = ("gaussian", "uniform", "exp", "laplace", "truncgauss")


def _tilt_row(spec, t, theta):
    """`tilt_table` on a batch of one: (log Z, mean (n,), covariance (n, n))."""
    log_z, mean, cov = tilt_table(spec, t, np.asarray(theta, float)[None])
    return float(log_z[0]), mean[0], covariance.dense(cov[:, None])[0, 0]


# ---------------------------------------------------------------------------
# Closed forms


@pytest.mark.parametrize("measure, rows", [("cube:32", 1024),
                                           ("product:exp,laplace,uniform", 1500),
                                           ("product:uniform,exp,uniform", 1500)])
def test_product_table_rows_do_not_depend_on_their_batch(measure, rows):
    # the table runs its rows in blocks (the last two cases end in a ragged
    # one) and each run of one law's columns as a slice (the last case
    # interleaves two laws); each row, tilted alone, has the bits it has in
    # the batch
    spec = parse_measure_id(measure)
    t = 0.7
    thetas = t * spec.sample(np.random.default_rng(4), rows) + np.random.default_rng(
        5).standard_normal((rows, spec.dim)) * math.sqrt(t)
    batch = product_tilt_table(spec, t, thetas)
    for i in range(rows):
        alone = product_tilt_table(spec, t, thetas[i:i + 1])
        assert all(np.array_equal(a[i:i + 1], b) for a, b in zip(batch, alone)), i


def test_gaussian_conjugacy():
    theta = np.array([1.0, -1.0, 0.5])
    log_z, mean, cov = _tilt_row(make_gaussian(3), 2.0, theta)
    assert np.allclose(mean, theta / 3.0, atol=1e-14)
    assert np.allclose(cov, np.eye(3) / 3.0, atol=1e-14)
    expect_log_z = -1.5 * math.log(3.0) + float(theta @ theta) / 6.0
    assert log_z == pytest.approx(expect_log_z, rel=1e-14)


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_cov_shape_is_the_layout_tilt_table_returns(measure_id):
    # the driver allocates its covariance arrays from cov_shape before any tilt
    spec = parse_measure_id(measure_id)
    thetas = np.full((4, spec.dim), 0.3)
    for t in (0.0, 0.5):
        cov = tilt_table(spec, t, thetas if t else np.zeros_like(thetas))[2]
        assert cov.shape == (4,) + cov_shape(spec), t


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG + ("product:exp,laplace",))
def test_base_state_is_exact(measure_id):
    # A_0 = Id with no rounding: the base state is isotropic by construction
    spec = parse_measure_id(measure_id)
    m, n = 3, spec.dim
    log_z, mean, cov = tilt_table(spec, 0.0, np.zeros((m, n)))
    assert np.array_equal(log_z, np.zeros(m))
    assert np.array_equal(mean, np.zeros((m, n)))
    expect = np.tile(np.eye(n), (m, 1, 1)) if spec.family == "ball" else np.ones((m, n))
    assert cov.shape == expect.shape
    assert np.array_equal(cov, expect)
    log_z, mean, cov = _tilt_row(spec, 0.0, np.zeros(n))
    assert log_z == 0.0
    assert np.array_equal(mean, np.zeros(n))
    assert np.array_equal(cov, np.eye(n))


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_t_zero_admits_only_the_base_state(measure_id):
    # localization starts at theta_0 = 0, so t = 0 is the base state and nothing else
    spec = parse_measure_id(measure_id)
    m, n = 2, spec.dim
    log_z, mean, cov = tilt_table(spec, 0.0, np.zeros((m, n)))
    assert np.array_equal(log_z, np.zeros(m)) and np.array_equal(mean, np.zeros((m, n)))
    assert np.array_equal(covariance.dense(cov[:, None])[:, 0], np.tile(np.eye(n), (m, 1, 1)))
    theta = np.zeros((m, n))
    theta[1, -1] = 0.5
    with pytest.raises(InputValidationError, match=r"^t must be > 0, or 0 at theta = 0$"):
        tilt_table(spec, 0.0, theta)
    for th in (np.zeros(n), theta[1]):
        with pytest.raises(InputValidationError, match=r"^t must be > 0$"):
            tilt_sample_batch(spec, 0.0, th[None], streams.generator(0), 4)
        for f in spec.factors or ():
            with pytest.raises(InputValidationError, match=r"^t must be > 0$"):
                factor_tilt_quadrature(f, 0.0, float(th[-1]))


def test_cube_tilt_matches_truncated_normal():
    # at theta = 0, t = 1 the tilted cube factor is a standard normal cut at
    # |x| <= sqrt(3)
    log_z, mean, cov = _tilt_row(make_cube(1), 1.0, np.zeros(1))
    c = SQRT3
    z = 2.0 * ndtr(c) - 1.0
    phi_c = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    var = 1.0 - 2.0 * c * phi_c / z
    assert cov[0, 0] == pytest.approx(var, rel=1e-12)
    assert mean[0] == pytest.approx(0.0, abs=1e-14)
    expect_log_z = math.log(math.sqrt(2.0 * math.pi) * z / (2.0 * SQRT3))
    assert log_z == pytest.approx(expect_log_z, rel=1e-12)


def test_cube_large_t_variance_saturates_spectral_bound():
    # truncation becomes invisible at t = 100: var -> 1/t to roundoff
    cov = _tilt_row(make_cube(1), 100.0, np.zeros(1))[2]
    assert cov[0, 0] == pytest.approx(0.01, rel=1e-12)
    # at moderate t the cut at sqrt(3) still bites and var sits strictly below
    mid = _tilt_row(make_cube(1), 4.0, np.zeros(1))[2]
    assert 0.24 < mid[0, 0] < 0.25


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


def test_quadrature_handles_ball_marginal():
    f = BallMarginalFactor(4)
    lz, mu, v = factor_tilt_quadrature(f, 0.5, 0.7)
    assert np.isfinite([lz, mu, v]).all()
    assert 0.0 < mu < f.hi
    assert 0.0 < v < 1.0


@pytest.mark.parametrize("t", [0.0, 0.7, 5.0, 1e3])
def test_untruncated_gaussian_piece_matches_conjugate_form(t):
    thetas = np.linspace(-30.0, 30.0, 1024)
    log_z, mean, var = make_factor("gaussian").tilt_stats(t, thetas)
    ref_log_z, ref_mean, ref_var = gaussian_tilt(1, t, thetas[:, None])
    assert np.array_equal(mean, ref_mean[:, 0])
    # the piece's log Z and (tau^-1/2)^2 round apart from the conjugate
    # -log(tau)/2 + theta^2/2tau and 1/tau by an ulp or two
    assert np.abs(var - ref_var[:, 0]).max() <= 1e-15 * ref_var.max()
    assert (np.abs(log_z - ref_log_z) <= 1e-15 * np.maximum(1.0, np.abs(ref_log_z))).all()


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_gaussian_tilt_table_matches_conjugate_form(n):
    # gaussian:n tilts through its factors' pieces, bit for bit as the product
    # of n gaussian factors does; the conjugate N(theta/tau, Id/tau), tau = 1 + t, is its oracle.  |theta| is
    # 0, 1 and 3 times its typical norm (t (1 + t) n)^(1/2), four directions each
    spec = make_gaussian(n)
    product_of_factors = make_product(",".join(["gaussian"] * n))
    eps = np.finfo(float).eps
    directions = streams.generator(n, "gaussian-conjugate").standard_normal((4, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for t in (1e-6, 0.01, 0.5, 3.0, 100.0, 1e4):
        tau = 1.0 + t
        thetas = np.concatenate([k * math.sqrt(t * tau * n) * directions for k in (0, 1, 3)])
        log_z, mean, var = tilt_table(spec, t, thetas)
        ref_log_z, ref_mean, ref_var = gaussian_tilt(n, t, thetas)
        for got, product in zip((log_z, mean, var), tilt_table(product_of_factors, t, thetas)):
            assert np.array_equal(got, product), t
        assert np.array_equal(mean, ref_mean), t
        # (tau^-1/2)^2 and 1/tau round apart by up to 1.55 eps relative
        assert (np.abs(var - ref_var) <= 2.0 * eps * ref_var).all(), t
        # each coordinate's log Z adds terms of size theta_j^2/2tau, |log tau|/2 and log(2 pi)/2
        scale = (thetas ** 2).sum(axis=1) / (2.0 * tau) + 0.5 * n * (abs(math.log(tau))
                                                                     + math.log(2.0 * math.pi))
        assert (np.abs(log_z - ref_log_z) <= 8.0 * eps * scale).all(), t


def test_product_tilt_table_matches_scalar_route():
    # one law per column, laws out of column order, and one law for 32
    # columns: mean and var are bit-equal to each coordinate's own
    # tilt_stats, and log_z to their sum in column order
    t = 0.8
    inputs = [("product:exp,laplace,uniform", [[0.2, -0.5, 1.0], [0.0, 0.0, 0.0],
                                               [-1.5, 2.0, -0.3]]),
              ("product:uniform,exp,uniform,laplace", [[0.2, -0.5, 1.0, 0.3], [0.0] * 4,
                                                       [-1.5, 2.0, -0.3, -1.2]]),
              ("cube:32", 3.0 * streams.generator(17, "cube32-thetas").standard_normal((4, 32)))]
    for measure, rows in inputs:
        spec, thetas = parse_measure_id(measure), np.array(rows)
        log_z, mean, var = product_tilt_table(spec, t, thetas)
        total = 0.0
        for j, f in enumerate(spec.factors):
            lz, mu, v = f.tilt_stats(t, thetas[:, j])
            assert np.array_equal(mean[:, j], mu) and np.array_equal(var[:, j], v), (measure, j)
            total = total + lz
        assert np.array_equal(log_z, total), measure
        for i, th in enumerate(thetas):
            row_log_z, row_mean, row_cov = _tilt_row(spec, t, th)
            assert log_z[i] == pytest.approx(row_log_z, rel=1e-12)
            assert np.allclose(mean[i], row_mean, atol=1e-12)
            assert np.allclose(var[i], np.diag(row_cov), atol=1e-12)


TABLE_CASES = {  # case -> (measure, t, thetas)
    "gaussian": ("gaussian:3", 1.5, [[0.2, -0.4, 1.0], [0.0, 0.0, 0.0], [3.0, 1.0, -2.0]]),
    "cube": ("cube:2", 0.8, [[0.5, -0.3], [0.0, 0.0], [-2.0, 4.0]]),
    "ball": ("ball:3", 2.0, [[0.4, -0.2, 0.1], [0.0, 0.0, 0.0], [2.0, 1.0, -1.0]]),
    "ball-base": ("ball:3", 0.0, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tilt_table_batch_equals_its_rows_tilted_alone(case):
    measure, t, rows = TABLE_CASES[case]
    spec = parse_measure_id(measure)
    thetas = np.array(rows)
    log_z, mean, cov = tilt_table(spec, t, thetas)
    for i, theta in enumerate(thetas):
        row_log_z, row_mean, row_cov = tilt_table(spec, t, theta[None])
        assert log_z[i] == row_log_z[0]
        assert np.array_equal(mean[i], row_mean[0])
        # Gaussians and products return the diagonal (m, n), the rest (m, n, n)
        assert np.array_equal(cov[i], row_cov[0])


def test_tilt_table_rejects_affine_images(outside_spec):
    # MeasureSpec is public: a spec of no catalog family, an affine image
    # among them, gets a message naming the families that have a route
    for t, thetas in ((2.0, np.array([[0.4, -0.2]])), (0.0, np.zeros((1, 2)))):
        with pytest.raises(InputValidationError,
                           match=r"outside:2 has no tilt route: tilts exist for "
                                 r"Gaussians, coordinate products and balls"):
            tilt_table(outside_spec, t, thetas)
    with pytest.raises(InputValidationError, match="no tilt route"):
        tilt_table(outside_spec, 1.0, np.ones((1, 2)))
    with pytest.raises(InputValidationError, match="no tilt route"):
        tilt_sample_batch(outside_spec, 1.0, np.ones((1, 2)), streams.generator(0), 4)


def test_tilt_table_validates_its_batch():
    # a batch wider than the spec, a NaN row and t < 0 are each rejected
    # with a message, not dropped, broadcast or passed on as numbers
    nan_row = np.zeros((3, 2))
    nan_row[1] = np.nan
    cases = ((make_cube(2), 1.0, np.zeros((3, 3)), r"theta must have shape \(m, 2\)"),
             (make_ball(2), 1.0, np.zeros((3, 3)), r"theta must have shape \(m, 2\)"),
             (make_cube(2), 1.0, nan_row, "t and theta must be finite"),
             (make_cube(2), -1.0, np.zeros((3, 2)), r"t must be > 0, or 0 at theta = 0"))
    for spec, t, thetas, message in cases:
        with pytest.raises(InputValidationError, match=message):
            tilt_table(spec, t, thetas)


# ---------------------------------------------------------------------------
# log Z is the moment generating function: gradients recover the moments


def test_mean_is_gradient_of_log_z():
    spec = make_product("exp,laplace")
    t = 0.7
    theta = np.array([0.3, -0.2])
    mean = _tilt_row(spec, t, theta)[1]
    h = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fp = _tilt_row(spec, t, theta + e)[0]
        fm = _tilt_row(spec, t, theta - e)[0]
        assert (fp - fm) / (2 * h) == pytest.approx(mean[j], rel=1e-6)


def test_covariance_is_hessian_of_log_z():
    spec = make_product("exp,laplace")
    t = 0.7
    theta = np.array([0.3, -0.2])
    f0, _, cov = _tilt_row(spec, t, theta)
    h = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fp = _tilt_row(spec, t, theta + e)[0]
        fm = _tilt_row(spec, t, theta - e)[0]
        assert (fp - 2 * f0 + fm) / h**2 == pytest.approx(cov[j, j], abs=1e-5)
    # coordinate products have separable log Z, so the cross term vanishes
    assert cov[0, 1] == 0.0


# ---------------------------------------------------------------------------
# Large tilts


def test_positive_t_never_diverges():
    log_z, mean, _ = _tilt_row(make_product("exp"), 0.1, np.array([50.0]))
    assert np.isfinite(log_z)
    assert mean[0] > 100.0


# ---------------------------------------------------------------------------
# Exact draws


def _factor_cases():
    """(t, theta): theta/t from -50 to 50 at t = 0.05, 1 and 20."""
    return [(t, r * t) for t in (0.05, 1.0, 20.0) for r in (-50.0, -3.0, 0.4, 2.5, 50.0)]


def _ball_cases():
    """(t, |theta|): |theta|/t up to 50 at t = 0.05, 1 and 20."""
    return [(t, r * t) for t in (0.05, 1.0, 20.0) for r in (0.0, 0.4, 2.5, 50.0)]


def _tilted(f, t, theta):
    """log of exp(theta x - t x^2/2) rho(x) for one factor."""
    return lambda x: theta * x - 0.5 * t * x * x + f.log_density(x)


def _ball_u_weight(n, t, s):
    """log weight of u = x . e on [-R, R], written out independently of tilt.py."""
    radius = math.sqrt(n + 2.0)

    def log_w(u):
        gap = np.maximum((radius - u) * (radius + u), 0.0)
        with np.errstate(divide="ignore"):
            if n > 1:
                inside = np.log(gammainc(0.5 * (n - 1), 0.5 * t * gap))
            else:
                inside = 0.0 * gap
        return np.where(np.abs(u) <= radius, s * u - 0.5 * t * u * u + inside, -np.inf)

    return log_w


def _radial(n, t, reach):
    """log density rho^(n-2) exp(-t rho^2/2) of |y| on [0, reach], and its mode."""
    def log_w(r):
        with np.errstate(divide="ignore"):
            return np.where((r >= 0.0) & (r <= reach), xlogy(n - 2, r) - 0.5 * t * r * r,
                            -np.inf)

    return log_w, min(math.sqrt((n - 2) / t), reach)


def _swept_densities():
    """(log density, lo, hi, mode or NaN) over every factor and the ball's two stages."""
    out = []
    for tag in FACTOR_TAGS:
        f = make_factor(tag)
        out += [(_tilted(f, t, theta), f.lo, f.hi, f.tilt_mode(t, theta))
                for t, theta in _factor_cases()]
    for n in (2, 3, 8, 32):
        radius = math.sqrt(n + 2.0)
        for t, s in _ball_cases():
            log_r, mode_r = _radial(n, t, 0.6 * radius)
            out += [(_ball_u_weight(n, t, s), -radius, radius, math.nan),
                    (log_r, 0.0, 0.6 * radius, mode_r)]
    return out


def _grid_cdf(log_w, lo, hi, mean, sd):
    """Trapezoid-rule CDF of exp(log_w) on mean +- 15 sd, cut to [lo, hi]."""
    x = np.linspace(max(lo, mean - 15.0 * sd), min(hi, mean + 15.0 * sd), 40001)
    w = log_w(x)
    w = np.exp(w - w.max())
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(x))])
    return lambda q: np.interp(q, x, cum / cum[-1])


@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_factor_draws_pass_ks_against_quadrature_cdf(tag):
    # every (t, theta) case alone; then per t one batch over a product of two
    # equal factors, with a different theta in each row and coordinate, each
    # column of each row against its own CDF
    f = make_factor(tag)
    cases = _factor_cases()
    calls = [(make_product(tag), t, np.array([[theta]]), (41, tag, i))
             for i, (t, theta) in enumerate(cases)]
    pair = make_product(f"{tag},{tag}")
    for t in sorted({t for t, _ in cases}):
        col = np.array([theta for u, theta in cases if u == t])
        calls.append((pair, t, np.stack([col, col[::-1]], axis=1),
                      (41, tag, "batch", int(100 * t))))
    worst = 1.0
    for spec, t, thetas, key in calls:
        pts, _, _ = tilt_sample_batch(spec, t, thetas, streams.generator(*key), 4000)
        assert pts.shape == (len(thetas), 4000, spec.dim)
        for (i, j), theta in np.ndenumerate(thetas):
            _, mean, cov = _tilt_row(make_product(tag), t, np.array([theta]))
            cdf = _grid_cdf(_tilted(f, t, theta), f.lo, f.hi, mean[0], math.sqrt(cov[0, 0]))
            worst = min(worst, kstest(pts[i, :, j], cdf).pvalue)
    assert worst > 1e-4


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_ball_draws_pass_ks_for_u_and_radius(n):
    # u against its quadrature CDF; |y| given u through its conditional CDF,
    # a truncated chi distribution, whose values at the draws are uniform.
    # Every (t, |theta|) case alone along e_1; then per t one batch whose rows
    # have different lengths and directions, each row against its own CDFs
    spec = make_ball(n)
    radius, k = spec.radius, n - 1
    cases = _ball_cases()
    dirs = streams.generator(43, n, "dirs").standard_normal((len(cases), n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    calls = [(t, s * np.eye(n)[:1], (43, n, i)) for i, (t, s) in enumerate(cases)]
    calls += [(t, np.array([s * d for (u, s), d in zip(cases, dirs) if u == t]),
               (43, n, "batch", int(100 * t))) for t in sorted({t for t, _ in cases})]
    worst = 1.0
    for t, thetas, key in calls:
        _, mean, cov = ball_tilt_table(spec, t, thetas)
        pts, _, _ = tilt_sample_batch(spec, t, thetas, streams.generator(*key), 4000)
        for theta, x, mu, c in zip(thetas, pts, mean, cov):
            s = float(np.linalg.norm(theta))
            e = theta / s if s > 0.0 else np.eye(n)[0]
            u = x @ e
            y = x - u[:, None] * e
            y2 = (y * y).sum(axis=1)
            cdf = _grid_cdf(_ball_u_weight(n, t, s), -radius, radius, mu @ e,
                            math.sqrt(e @ c @ e))
            reach2 = (radius - u) * (radius + u)
            pit = gammainc(0.5 * k, 0.5 * t * y2) / gammainc(0.5 * k, 0.5 * t * reach2)
            worst = min(worst, kstest(u, cdf).pvalue, kstest(pit, "uniform").pvalue)
    assert worst > 1e-4


def test_no_proposal_rises_above_its_envelope():
    rng = streams.generator(31, "envelope")
    worst = -np.inf
    for log_w, lo, hi, mode in _swept_densities():
        x, log_env = envelope(log_w, [lo], [hi], [mode]).draw(rng, 20000)
        worst = max(worst, float((log_w(x) - log_env).max()))
    assert worst <= 1e-12


def test_acceptance_stays_above_one_over_e_plus_one():
    floor = 1.0 / (math.e + 1.0)
    rng = streams.generator(47, "floor")
    counts = [sample_log_concave(log_w, [lo], [hi], rng, 2000, mode=[mode])[1:]
              for log_w, lo, hi, mode in _swept_densities()]
    # whole draws where N(theta/t, Id/t) thinned by rho/sup rho accepted
    # nothing: cube:8 at t = 1e-4 and at the quick start's t = 0.889,
    # |theta| = 7.2, and balls up to n = 128
    whole = [(make_cube(8), 1e-4, np.zeros(8)), (make_cube(8), 0.889, np.full(8, 2.55))]
    whole += [(make_ball(n), t, np.full(n, 1.5 * t)) for n in (4, 16, 128) for t in (0.05, 0.9)]
    counts += [tilt_sample_batch(spec, t, theta[None], rng, 2000)[1:] for spec, t, theta in whole]
    for proposed, accepted in counts:
        rate = accepted / proposed
        assert rate >= floor - 3.0 * math.sqrt(rate * (1.0 - rate) / proposed)


def test_rejection_acceptance_rate_oracle():
    # the tilted gaussian factor is N(theta/tau, 1/tau): its envelope is flat
    # on mean +- (2/tau)^(1/2), where log rho has dropped by 1, with tails of
    # rate (tau/2)^(1/2), so Z / envelope mass = pi^(1/2) / (2 (1 + 1/e))
    _, proposed, accepted = tilt_sample_batch(make_product("gaussian"), 3.0, np.array([[1.2]]),
                                              streams.generator(5, "acc"), 8192)
    p_true = math.sqrt(math.pi) / (2.0 * (1.0 + math.exp(-1.0)))
    se = math.sqrt(p_true * (1.0 - p_true) / proposed)
    assert accepted / proposed == pytest.approx(p_true, abs=4.0 * se)
    # a flat density never drops by 1, so its envelope is the density itself
    flat = lambda x: np.where(np.abs(x) <= SQRT3, 0.0, -np.inf)
    pts, proposed, accepted = sample_log_concave(flat, np.full(2, -SQRT3), np.full(2, SQRT3),
                                                 streams.generator(5, "flat"), 1000)
    assert accepted == proposed
    assert (np.abs(pts) <= SQRT3).all()


def test_rejection_matches_closed_form_on_product():
    t, theta, size = 1.0, np.array([0.5, -0.3]), 4096
    for measure in ("product:exp,uniform", "gaussian:2"):
        spec = parse_measure_id(measure)
        _, closed_mean, closed_cov = _tilt_row(spec, t, theta)
        pts = tilt_sample_batch(spec, t, theta[None], streams.generator(11, "rej"), size)[0][0]
        centred = pts - pts.mean(axis=0)
        prods = centred[:, :, None] * centred[:, None, :]
        se_mean = centred.std(axis=0, ddof=1) / math.sqrt(size)
        se_cov = prods.std(axis=0, ddof=1) / math.sqrt(size)
        assert np.all(np.abs(pts.mean(axis=0) - closed_mean) <= 5.0 * se_mean), measure
        assert np.all(np.abs(prods.sum(axis=0) / (size - 1) - closed_cov) <= 5.0 * se_cov), measure


@pytest.mark.parametrize("n_samples", [16, 24, 31])
def test_rejection_errors_finite_below_32_samples(n_samples, capsys):
    # tilt-probe's sample route reports se_mean from --tilt-samples' floor of 16 up
    code = main(["tilt-probe", "--measure", "ball:3", "--t", "2", "--theta", "0.4,-0.2,0.1",
                 "--tilt-samples", str(n_samples)])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("route=sample ")]
    assert code == 0 and len(lines) == 1
    se = np.array(re.search(r"se_mean=\(([^)]*)\)", lines[0]).group(1).split(","), float)
    assert se.shape == (3,) and np.isfinite(se).all() and (se > 0.0).all()


def test_rejection_sample_mean_cube():
    spec = make_cube(2)
    t, theta = 4.0, np.array([2.0, 0.0])
    _, closed_mean, closed_cov = _tilt_row(spec, t, theta)
    pts = tilt_sample_batch(spec, t, theta[None], streams.generator(6, "mean"), 4096)[0][0]
    se = np.sqrt(np.diag(closed_cov) / 4096)
    assert np.abs(pts.mean(axis=0) - closed_mean).max() < 4.0 * se.max()


def test_tilt_sample_single_draw():
    def draw():
        pts, _, _ = tilt_sample_batch(make_ball(3), 1.0, np.zeros((1, 3)),
                                      streams.generator(3, "single"), size=1)
        return pts[0]

    x = draw()
    assert x.shape == (1, 3)
    assert np.linalg.norm(x[0]) <= math.sqrt(5.0)
    # same key, same draw
    assert np.array_equal(x, draw())


# ---------------------------------------------------------------------------
# The ball's radial quadrature


@pytest.mark.parametrize("n", [3, 4])
def test_ball_tilt_matches_rejection(n):
    # the exact draws' per-draw spread is the standard error of every sample moment
    spec = make_ball(n)
    dirs = streams.generator(n, "ball-sweep-dirs").standard_normal((2, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    size = 4096
    worst = 0.0
    for t in (0.05, 1.0, 4.0, 20.0):
        for j, scale in enumerate((0.3, 1.5 * t)):
            theta = scale * dirs[j]
            _, exact_mean, exact_cov = _tilt_row(spec, t, theta)
            key = (n, "ball-sweep", j, int(100 * t))
            pts = tilt_sample_batch(spec, t, theta[None], streams.generator(*key), size)[0][0]
            mean = pts.mean(axis=0)
            centred = pts - mean
            se_mean = centred.std(axis=0, ddof=1) / math.sqrt(size)
            prods = centred[:, :, None] * centred[:, None, :]
            se_cov = prods.std(axis=0, ddof=1) / math.sqrt(size)
            worst = max(worst, float((np.abs(exact_mean - mean) / se_mean).max()),
                        float((np.abs(exact_cov - prods.sum(axis=0) / (size - 1))
                               / se_cov).max()))
    assert worst <= 4.0


def _ball_phi_oracle(n, t, s):
    """(log Z, E u, Var u, E|y|^2/(n-1)) of the ball's tilt by adaptive quad in phi."""
    radius = math.sqrt(n + 2.0)
    spec = make_ball(n)
    k = n - 1

    def parts(phi):
        u, gap = radius * np.cos(phi), (radius * np.sin(phi)) ** 2
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
    log_z = top + math.log(i0) + 0.5 * k * math.log(2.0 * math.pi / t) - spec.entropy()
    d1 = i1 / i0
    return log_z, radius * math.cos(peak) + d1, i2 / i0 - d1 * d1, iy / i0 / max(k, 1)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("t", [0.05, 1.0, 20.0, 100.0, 1e4])
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
    for t in (0.05, 1.0, 20.0, 100.0):
        log_z, mean, var = f.tilt_stats(t, thetas)
        for i, theta in enumerate(thetas):
            lz_q, mu_q, v_q = factor_tilt_quadrature(f, t, float(theta))
            assert log_z[i] == pytest.approx(lz_q, abs=1e-10)
            assert mean[i] == pytest.approx(mu_q, abs=1e-10)
            assert var[i] == pytest.approx(v_q, abs=1e-10)


def test_ball_tilt_finite_where_rejection_stalls():
    # ball:4 at t = 0.05, |theta| = 1.8: rejection from N(theta/t, Id/t)
    # accepts almost nothing there; the radial quadrature draws nothing
    spec = make_ball(4)
    thetas = np.array([[1.8, 0.0, 0.0, 0.0], [0.0, -1.0, 1.5, 0.0]])
    log_z, mean, cov = tilt_table(spec, 0.05, thetas)
    assert np.isfinite(log_z).all() and np.isfinite(mean).all() and np.isfinite(cov).all()
    lam = np.linalg.eigvalsh(cov)
    assert lam.min() > 0.0 and 0.05 * lam.max() <= 1.0
    assert (np.linalg.norm(mean, axis=1) < spec.radius).all()


@pytest.mark.parametrize("n,t", [(512, 0.01), (1024, 0.05)])
def test_ball_tilt_raises_where_it_is_not_finite(n, t):
    # |theta| = sqrt(t (1 + t) n), the typical size of theta_t: at small t the
    # chi-square mass of the radial weight underflows, and NaN moments would
    # reach the driver's eigensolver
    s = math.sqrt(t * (1.0 + t) * n)
    thetas = np.zeros((2, n))
    thetas[:, 0] = (0.5 * s, s)
    with pytest.raises(DivergentTilt,
                       match=rf"ball:{n} tilt at t={t:g} is not finite at \|theta\|="
                             rf"{0.5 * s:.6g}$"):
        tilt_table(make_ball(n), t, thetas)


def test_product_tilt_raises_where_it_is_not_finite():
    # at t = 1e-20 the closed uniform tilt's window mass underflows: log Z is
    # -inf and the moments NaN, where quadrature gives finite values
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DivergentTilt, match=r"^product:uniform tilt at t=1e-20 is not "
                                                r"finite at \|theta\|=0\.3$"):
            tilt_table(make_product("uniform"), 1e-20, np.array([[0.0], [0.3]]))


# ---------------------------------------------------------------------------
# Validation


def test_validate_rejects_bad_inputs():
    g = make_gaussian(2)
    with pytest.raises(InputValidationError, match="shape"):
        tilt_table(g, 1.0, np.zeros((1, 3)))
    with pytest.raises(InputValidationError, match="finite"):
        tilt_table(g, 1.0, np.array([[np.nan, 0.0]]))
    with pytest.raises(InputValidationError, match="t must be > 0"):
        tilt_table(g, -1.0, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Conditional covariance identity


def test_conditional_covariance_gaussian():
    ens = simulate_ensemble(make_gaussian(2), make_uniform(1.0, 1), 128, seed=3)
    rep = conditional_covariance_identity_check(ens, 1, seed=3)
    assert not rep.failed
    assert rep.check_id == "conditional-covariance"
    assert rep.notes.startswith("t=1,")


def test_conditional_covariance_cube():
    ens = simulate_ensemble(make_cube(2), make_uniform(1.0, 1), 64, seed=4)
    rep = conditional_covariance_identity_check(ens, 1, seed=4)
    assert not rep.failed


def test_conditional_covariance_needs_positive_t():
    ens = simulate_ensemble(make_gaussian(2), make_uniform(1.0, 1), 8, seed=0)
    with pytest.raises(InputValidationError, match="positive"):
        conditional_covariance_identity_check(ens, 0, seed=0)


@pytest.mark.parametrize("measure", ["cube:4", "ball:4"])
def test_conditional_covariance_flags_an_inflated_ensemble_covariance(measure):
    # the left side is the ensemble's own A_t: a defect in it must show
    ens = simulate_ensemble(parse_measure_id(measure), make_uniform(1.0, 1), 1024, seed=0)
    assert not conditional_covariance_identity_check(ens, 1, seed=0).failed
    cov = ens.cov.copy()
    cov[:, 1] *= 1.2
    rep = conditional_covariance_identity_check(dataclasses.replace(ens, cov=cov), 1, seed=0)
    assert rep.failed
