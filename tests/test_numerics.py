"""Numerical kernels checked against mpmath, scipy and hand-computed cases."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import ks_2samp, truncnorm

from sloclab.infotheory import epi_deficit
from sloclab.measures import BallMarginalFactor, ProductSpec, TruncGaussFactor, make_factor
from sloclab.numerics import (
    beta_inc,
    central_difference,
    erfcx,
    familywise_level,
    fd_error_budget,
    gamma_half_step,
    gamma_p,
    jackknife_se,
    WINDOW_BLOCK,
    ks_pvalues,
    trapezoid,
    trapezoid_budget,
    trunc_normal_moments,
    xlogy,
)
from sloclab.numerics import quad as gk_quad
from sloclab.reports import FAIL


def _window_quad(lo, hi):
    """(log mass, mean, var) of N(0, 1) cut to [lo, hi], by quad without cancellation.

    A window below 0 is reflected onto the upper tail.  Each x is written as
    p + y, with p the window's end nearest 0 (0 if it straddles 0), so that
    phi(x) / phi(p) = exp(-y (y + 2p) / 2) neither underflows nor rounds y
    at the scale of p; an unbounded end is cut where that ratio is e^-60.
    The mean is p plus the mean of y, and the variance integrates
    (y - mean)^2.
    """
    if hi < 0.0:
        log_mass, mean, var = _window_quad(-hi, -lo)
        return log_mass, -mean, var
    p = max(lo, 0.0)
    reach = 120.0 / (math.sqrt(p * p + 120.0) + p)

    def scaled(y):
        return math.exp(-0.5 * y * (y + 2.0 * p))

    def integral(f):
        return quad(f, max(lo - p, -reach), min(hi - p, reach),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    mass = integral(scaled)
    shift = integral(lambda y: y * scaled(y)) / mass
    var = integral(lambda y: (y - shift) ** 2 * scaled(y)) / mass
    return math.log(mass) - 0.5 * p * p - 0.5 * math.log(2.0 * math.pi), p + shift, var


class TestTruncNormal:
    def test_matches_scipy_two_sided(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.normal(scale=3.0)
            s = np.exp(rng.normal())
            lo = m + s * rng.normal(scale=2.0)
            hi = lo + s * np.exp(rng.normal())
            a, b = (lo - m) / s, (hi - m) / s
            log_mass, mean, var = trunc_normal_moments(m, s, lo, hi)
            ref = truncnorm(a, b, loc=m, scale=s)
            assert mean == pytest.approx(ref.mean(), rel=1e-9, abs=1e-12)
            assert var == pytest.approx(ref.var(), rel=1e-9, abs=1e-12)
            mass = truncnorm.cdf(b, a, b) - truncnorm.cdf(a, a, b)  # sanity: 1
            assert mass == pytest.approx(1.0)

    def test_deep_tail_stays_finite(self):
        # naive phi/Phi ratios overflow far earlier than this
        log_mass, mean, var = trunc_normal_moments(0.0, 1.0, 40.0, 41.0)
        assert np.isfinite(log_mass) and log_mass < -700.0
        assert 40.0 < mean < 41.0
        assert 0.0 < var < 1.0

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("width", [1.0, np.inf])
    @pytest.mark.parametrize("z", [5.0, 10.0, 20.0, 40.0, 100.0, 300.0])
    def test_deep_tail_matches_quadrature(self, z, width, side):
        # [z, z + width] and its reflection; the variance's rounding grows as
        # z^4 eps (1.5e-6 at z = 300), the mean's stays at a few eps
        lo, hi = sorted((side * z, side * (z + width)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_mass, mean, var = trunc_normal_moments(0.0, 1.0, lo, hi)
        ref_log_mass, ref_mean, ref_var = _window_quad(lo, hi)
        assert log_mass == pytest.approx(ref_log_mass, rel=1e-13)
        assert mean == pytest.approx(ref_mean, rel=1e-13)
        assert var == pytest.approx(ref_var, rel=1e-5)

    def test_lower_tail_reflects_upper(self):
        lm_u, mean_u, var_u = trunc_normal_moments(0.0, 1.0, 3.0, 5.0)
        lm_l, mean_l, var_l = trunc_normal_moments(0.0, 1.0, -5.0, -3.0)
        assert lm_l == pytest.approx(lm_u, rel=1e-13)
        assert mean_l == pytest.approx(-mean_u, rel=1e-13)
        assert var_l == pytest.approx(var_u, rel=1e-13)

    def test_unbounded_interval_recovers_gaussian(self):
        log_mass, mean, var = trunc_normal_moments(1.7, 2.5, -np.inf, np.inf)
        assert log_mass == pytest.approx(0.0, abs=1e-15)
        assert mean == pytest.approx(1.7)
        assert var == pytest.approx(2.5**2)

    def test_one_sided_matches_scipy(self):
        log_mass, mean, var = trunc_normal_moments(0.0, 1.0, 1.0, np.inf)
        ref = truncnorm(1.0, np.inf)
        assert mean == pytest.approx(ref.mean(), rel=1e-10)
        assert var == pytest.approx(ref.var(), rel=1e-10)
        assert np.exp(log_mass) == pytest.approx(1.0 - 0.8413447460685429, rel=1e-10)

    def test_broadcasting(self):
        m = np.zeros((3, 1))
        lo = np.array([-1.0, 0.0, 1.0, 2.0])
        log_mass, mean, var = trunc_normal_moments(m, 1.0, lo, lo + 1.0)
        assert log_mass.shape == mean.shape == var.shape == (3, 4)

    def test_windows_do_not_depend_on_their_batch(self):
        # two whole blocks and a ragged third: every window, computed alone,
        # has the bits it has in the batch
        rng = np.random.default_rng(11)
        count = 2 * WINDOW_BLOCK + 37
        ends = np.array([(-1.0, 2.0), (-np.inf, 0.3), (0.5, 3.0), (2.0, np.inf),
                         (-4.0, -1.0), (-np.inf, -2.0), (-np.inf, np.inf), (30.0, 31.0),
                         (-300.0, -299.0), (40.0, np.inf)])
        m = rng.normal(scale=2.0, size=count)
        s = np.exp(rng.normal(scale=0.5, size=count))
        lo, hi = (m + s * ends[np.arange(count) % len(ends)].T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = trunc_normal_moments(m, s, lo, hi)
            for i in range(count):
                alone = trunc_normal_moments(m[i], s[i], lo[i], hi[i])
                assert all(np.array_equal(a[i], b) for a, b in zip(batch, alone)), i
        assert all(np.isfinite(a).all() for a in batch)


def _leave_one_out_se(x):
    """Reference: the jackknife standard error over axis 0 from the leave-one-out means."""
    m = len(x)
    loo = (x.sum(axis=0) - x) / (m - 1)
    return np.sqrt((m - 1) / m * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))


class TestJackknife:
    def test_plain_mean_reduces_to_classical_se(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 17, 200):
            x = rng.normal(size=(m, 5, 3, 3)) * rng.uniform(0.1, 10.0, size=(5, 3, 3))
            se = jackknife_se(x)
            assert se.shape == (5, 3, 3)
            assert np.allclose(se, _leave_one_out_se(x), rtol=1e-12, atol=0.0)

    def test_single_draw_returns_zero(self):
        assert jackknife_se(np.array([3.0])) == 0.0


class TestCentralDifference:
    def test_exact_on_quadratic_nonuniform(self):
        x = np.array([0.0, 0.3, 1.0, 1.1, 2.5, 4.0])
        y = 2.0 * x**2 - 3.0 * x + 7.0
        d = central_difference(y[None], x)[0]  # one path
        assert np.allclose(d, 4.0 * x[1:-1] - 3.0, atol=1e-12)

    def test_axis_handling(self):
        x = np.linspace(0.0, 1.0, 9)
        y = np.stack([x**2, 3.0 * x], axis=0)  # two paths on the grid axis 1
        d = central_difference(y, x)
        assert d.shape == (2, 7)
        assert np.allclose(d[0], 2.0 * x[1:-1])
        assert np.allclose(d[1], 3.0)

    def test_error_budget_brackets_cubic_error(self):
        # f = x^3 has f''' = 6, so the  h1 h2 / 6 error term is exactly h1 h2
        x = np.geomspace(1.0, 3.0, 17)
        y = x**3
        d = central_difference(y[None], x)[0]
        budget = fd_error_budget(y, x)
        true_err = np.abs(d - 3.0 * x[1:-1] ** 2)
        assert budget.shape == true_err.shape
        assert (budget >= 0.0).all()
        # Richardson on an exact-cubic signal recovers the error to roundoff
        interior = slice(1, -1)  # edge nodes borrow a neighbor's budget
        assert np.allclose(budget[interior], true_err[interior], rtol=1e-6, atol=1e-12)

    def test_error_budget_needs_five_points(self):
        with pytest.raises(ValueError):
            fd_error_budget(np.zeros(4), np.linspace(0, 1, 4))

    @pytest.mark.parametrize("shape, axis", [((41,), 0), ((41, 3), 0), ((41, 3, 3), 0)])
    def test_error_budget_matches_per_node_stencils(self, shape, axis):
        # node by node: the fine three-point derivative against the one from
        # (i - 2, i, i + 2), scaled by h1 h2 / (H1 H2 - h1 h2); nodes 1 and
        # K - 2 copy their neighbour
        rng = np.random.default_rng(3)
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 40))])
        y = rng.standard_normal(shape)
        y = np.moveaxis(y, axis, 0)  # the budget runs along axis 0
        got = fd_error_budget(y, x)
        for i in range(2, 39):
            fine = central_difference(y[None, i - 1:i + 2], x[i - 1:i + 2])[0, 0]
            coarse = central_difference(y[None, i - 2:i + 3:2], x[i - 2:i + 3:2])[0, 0]
            h = (x[i] - x[i - 1]) * (x[i + 1] - x[i])
            big = (x[i] - x[i - 2]) * (x[i + 2] - x[i])
            assert np.allclose(got[i - 1], np.abs(fine - coarse) * h / (big - h),
                               rtol=1e-12, atol=0.0)
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[-1], got[-2])

    def test_error_budget_keeps_non_finite_columns(self):
        # a NaN column stays NaN (its gate then FAILs); the others are untouched
        x = np.linspace(0.0, 1.0, 9)
        y = np.stack([x**3, x**3], axis=1)
        y[:, 0] = np.nan
        budget = fd_error_budget(y, x)
        assert np.isnan(budget[:, 0]).all()
        assert np.array_equal(budget[:, 1], fd_error_budget(x**3, x))


class TestTrapezoidBudget:
    def test_is_a_third_of_the_step_halving_change(self):
        x = np.linspace(0.0, 1.0, 9)
        y = np.exp(x)
        fine = trapezoid(y, x)
        coarse = trapezoid(y[::2], x[::2])
        assert trapezoid_budget(y, x) == abs(fine - coarse) / 3.0
        # the Richardson estimate tracks the fine rule's true error
        assert trapezoid_budget(y, x) == pytest.approx(abs(fine - (math.e - 1.0)), rel=2e-3)

    def test_odd_node_count_keeps_the_last_node(self):
        x = np.linspace(0.0, 1.0, 8)
        y = x * x
        coarse = [0, 2, 4, 6, 7]
        assert trapezoid_budget(y, x) == abs(trapezoid(y, x) - trapezoid(y[coarse], x[coarse])) / 3.0


class TestGaussWindow:
    @pytest.mark.parametrize("lo, hi", [(-1.0, 2.0), (0.5, 3.0), (-4.0, -1.0), (-np.inf, 0.3),
                                        (1.0, np.inf), (30.0, 31.0), (-31.0, -30.0)])
    def test_log_mass_and_ratio_match_quadrature(self, lo, hi):
        # the window's ratio (phi(hi) - phi(lo)) / (Phi(hi) - Phi(lo)) is -mean
        log_mass, mean, _ = trunc_normal_moments(0.0, 1.0, lo, hi)
        ref_log_mass, ref_mean, _ = _window_quad(lo, hi)
        assert log_mass == pytest.approx(ref_log_mass, rel=1e-12, abs=1e-13)
        assert mean == pytest.approx(ref_mean, rel=1e-10)


def _mp(f, *args):
    """float of an mpmath function at 40 digits."""
    with mpmath.workdps(40):
        return float(f(*(mpmath.mpf(float(v)) for v in args)))


def _rel(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return np.max(np.abs(got - want) / np.abs(want))


class TestSpecialFunctions:
    """The numpy special functions against mpmath (the oracle) and scipy."""

    def test_erfcx_on_zero_to_1e10(self):
        x = np.concatenate([np.linspace(0.0, 10.0, 401),
                            np.geomspace(1e-8, 1e10, 400), [1e-300, 1e10]])
        ref = np.array([_mp(lambda v: mpmath.erfc(v) * mpmath.exp(v * v), v) for v in x])
        assert _rel(erfcx(x), ref) <= 1e-15
        assert _rel(special.erfcx(x), ref) <= 2e-15
        assert erfcx(np.inf) == 0.0 and erfcx(0.0) == 1.0
        assert isinstance(erfcx(1.0), np.float64)

    def test_gamma_p_on_both_sides_of_a_plus_1(self):
        for a in np.arange(1, 258) / 2.0:  # 1/2, 1, ..., 128.5
            x = np.concatenate([[0.1 * a, 0.5 * a, a, a + 0.5, a + 1.0, a + 1.5,
                                 2.0 * a + 2.0, 4.0 * a + 40.0],
                                (a + 1.0) * (1.0 + np.array([-1e-12, 1e-12]))])
            ref = np.array([_mp(lambda v: mpmath.gammainc(a, 0, v, regularized=True), v)
                            for v in x])
            assert _rel(gamma_p(a, x), ref) <= 2e-13, a
            assert _rel(special.gammainc(a, x), ref) <= 2e-13, a

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5, 8.0, 32.5, 128.5])
    def test_log_gamma_p_as_x_goes_to_0(self, a):
        # down to where P is about e^-600
        x_min = max(math.exp((math.lgamma(a + 1.0) - 600.0) / a), 1e-200)
        x = np.geomspace(x_min, max(1e-2, 10.0 * x_min), 25)
        ref = np.array([_mp(lambda v: mpmath.log(mpmath.gammainc(a, 0, v, regularized=True)), v)
                        for v in x])
        assert _rel(np.log(gamma_p(a, x)), ref) <= 2e-13

    def test_gamma_p_ends(self):
        with np.errstate(invalid="ignore"):
            got = gamma_p(1.5, np.array([0.0, np.inf, -1.0, np.nan]))
        assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2:]).all()
        with pytest.raises(ValueError, match="multiple of 1/2"):
            gamma_p(0.3, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
    def test_lens_beta_inc(self, n):
        a = 0.5 * (n + 1)
        x = np.concatenate([[0.0, 1.0], np.geomspace(1e-8, 1.0, 30)[:-1],
                            1.0 - np.geomspace(1e-12, 0.5, 20), np.linspace(0.0, 1.0, 41)])
        ref = np.array([_mp(lambda v: mpmath.betainc(a, 0.5, 0, v, regularized=True), v)
                        for v in x])
        assert np.max(np.abs(beta_inc(a, 0.5, x) - ref)) <= 1e-13
        assert np.max(np.abs(special.betainc(a, 0.5, x) - ref)) <= 1e-13

    def test_xlogy_keeps_0_log_0(self):
        got = xlogy(np.array([0.0, 0.0, 2.0, 2.0, 1.5]), np.array([0.0, 3.0, 0.0, -1.0, 4.0]))
        assert got[0] == 0.0 and got[1] == 0.0 and got[2] == -np.inf and np.isnan(got[3])
        assert got[4] == special.xlogy(1.5, 4.0)
        assert np.array_equal(xlogy(0.0, np.array([0.0, 1.0])), [0.0, 0.0])

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5, 17.0, 33.5, 129.0, 1000.5])
    def test_gamma_half_step(self, a):
        log_step, psi_step = gamma_half_step(a)
        ref_log = _mp(lambda v: mpmath.loggamma(v + 0.5) - mpmath.loggamma(v), a)
        ref_psi = _mp(lambda v: mpmath.psi(0, v + 0.5) - mpmath.psi(0, v), a)
        assert log_step == pytest.approx(ref_log, rel=4e-16, abs=4e-16)
        assert psi_step == pytest.approx(ref_psi, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 16, 64])
    def test_ball_marginal_normalizer_and_entropy(self, nu):
        f = BallMarginalFactor(nu)
        e, log_r = f.exponent, math.log(f.radius)
        log_norm = (2.0 * e + 1.0) * log_r + special.betaln(0.5, e + 1.0)
        entropy = log_norm - e * (2.0 * log_r + special.psi(e + 1.0) - special.psi(e + 1.5))
        # log_density(0) = e log R^2 - log norm
        assert f.log_density(0.0) == pytest.approx(2.0 * e * log_r - log_norm,
                                                   rel=1e-14, abs=1e-14)
        assert f.entropy() == pytest.approx(entropy, rel=1e-14, abs=0.0)
        ref = _mp(lambda r, e: mpmath.log(r) + mpmath.log(mpmath.beta(0.5, e + 1))
                  + e * (mpmath.psi(0, e + 1.5) - mpmath.psi(0, e + 1)), f.radius, e)
        assert f.entropy() == pytest.approx(ref, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("cut", [TruncGaussFactor.cut])
    def test_trunc_gauss_mass(self, cut):
        assert TruncGaussFactor().z_cut == pytest.approx(2.0 * special.ndtr(cut) - 1.0,
                                                            rel=1e-14, abs=0.0)


def test_familywise_level_keeps_the_min_p_gate_at_its_level():
    assert familywise_level(0.01, 1) == pytest.approx(0.01, rel=1e-14)
    assert familywise_level(1.0, 8) == 1.0
    for n in (2, 8, 32):
        level = familywise_level(0.01, n)
        assert 0.01 / n <= level <= 0.01 / n + 0.01 ** 2
        assert 1.0 - (1.0 - level) ** n == pytest.approx(0.01, rel=1e-12)


class TestKsPvalues:
    """`ks_pvalues` against scipy's ``ks_2samp`` under ``==``, not approx."""

    @pytest.mark.parametrize("m", [2, 3, 7, 64, 1024, 4096, 10000])
    def test_equals_scipy(self, m):
        rng = np.random.default_rng(m)
        for decimals in (None, 1):        # continuous, and rounded (ties)
            for shift in (0.0, 0.05, 0.5):  # the null, and two alternatives
                a = rng.standard_normal((m, 6))
                b = rng.standard_normal((m, 6)) + shift
                if decimals is not None:
                    a, b = np.round(a, decimals), np.round(b, decimals)
                got = ks_pvalues(a, b)
                assert got.shape == (6,)
                for j in range(6):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        ref = ks_2samp(a[:, j], b[:, j])
                    if caught:
                        # D <= 2/m: scipy's Horner sum rounded above 1, so it
                        # left its exact route for an asymptotic formula; the
                        # exact tail is 1 to double precision
                        assert "Exact calculation unsuccessful" in str(caught[0].message)
                        assert round(ref.statistic * m) <= 2
                        assert got[j] == 1.0 and ref.pvalue == pytest.approx(1.0, abs=1e-4)
                    else:
                        assert got[j] == ref.pvalue, (decimals, shift, j)

    def test_exact_where_scipy_leaves_its_exact_route(self):
        # perfectly interleaved samples: D = 1/m, whose exact p-value is 1
        x = np.arange(7.0)[:, None]
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            ref = ks_2samp(x[:, 0], x[:, 0] + 0.5).pvalue
        assert ref < 1.0
        assert ks_pvalues(x, x + 0.5)[0] == 1.0
        assert ks_pvalues(x, x)[0] == 1.0  # D = 0

    def test_stays_exact_above_scipy_auto_limit(self):
        rng = np.random.default_rng(16384)
        a, b = rng.standard_normal((2, 16384, 2))
        got = ks_pvalues(a, b)
        for j in range(2):
            assert got[j] == ks_2samp(a[:, j], b[:, j], method="exact").pvalue

    def test_nan_stays_in_its_column(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 64, 3))
        clean = ks_pvalues(a, b)
        a[5, 1] = np.nan
        got = ks_pvalues(a, b)
        assert np.isnan(got[1]) and np.isnan(ks_2samp(a[:, 1], b[:, 1]).pvalue)
        assert got[0] == clean[0] and got[2] == clean[2]
        assert np.isnan(ks_pvalues(b, a)[1])

    def test_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="one shape"):
            ks_pvalues(np.zeros((4, 2)), np.zeros((5, 2)))


class TestQuad:
    """Adaptive Gauss-Kronrod quadrature against scipy's QUADPACK."""

    TIGHT = dict(epsabs=1e-13, epsrel=1e-12, limit=300)

    @staticmethod
    def _counted(f):
        sizes = []

        def g(x):
            sizes.append(x.shape)
            return f(x)
        return g, sizes

    def test_kinked_integrand_with_its_kink_as_a_point(self):
        f = lambda x: np.abs(x - 1.0 / 3.0) * np.exp(x)
        g, sizes = self._counted(f)
        value, err = gk_quad(g, 0.0, 2.0, points=[1.0 / 3.0], **self.TIGHT)
        ref, ref_err = quad(f, 0.0, 2.0, points=[1.0 / 3.0], **self.TIGHT)
        assert abs(value - ref) <= err + ref_err
        assert err <= 1e-12 * abs(value)
        assert sizes == [(42,)]  # one call: both pieces converge in their first rule
        # without the point the kink needs bisection, one call per round
        value, err = gk_quad(g, 0.0, 2.0, **self.TIGHT)
        assert abs(value - ref) <= err + ref_err
        assert len(sizes) > 2 and all(len(s) == 1 and s[0] % 42 == 0 for s in sizes[2:])

    @pytest.mark.parametrize("tag", ["exp", "gaussian"])
    @pytest.mark.parametrize("t, theta", [(0.0, 0.5), (2.0, -1.0)])
    def test_half_and_whole_line_tilt_oracle(self, tag, t, theta):
        # exp lives on [-1, inf), gaussian on the whole line
        f = make_factor(tag)
        for k in range(3):
            def h(x, k=k):
                return x ** k * np.exp(theta * x - 0.5 * t * x * x + f.log_density(x))
            value, err = gk_quad(h, f.lo, f.hi, **self.TIGHT)
            ref, ref_err = quad(lambda x: float(h(np.asarray(x))), f.lo, f.hi, **self.TIGHT)
            assert abs(value - ref) <= err + ref_err
            assert err <= max(1e-13, 1e-12 * abs(value))

    def test_identically_zero_integrand(self):
        assert gk_quad(np.zeros_like, -1.0, np.inf) == (0.0, 0.0)
        assert gk_quad(np.zeros_like, 0.0, 1.0, points=[0.5]) == (0.0, 0.0)

    def test_exhausted_limit_returns_its_error(self):
        tol = 1e-15
        value, err = gk_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, epsabs=tol,
                             epsrel=0.0, limit=4)
        assert err > tol
        assert abs(value - 5.0 / 18.0) <= err
        value, err = gk_quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, epsabs=tol,
                             epsrel=0.0, limit=200)
        assert abs(value - 5.0 / 18.0) <= err <= 1e-13

    def test_nan_propagates(self):
        value, err = gk_quad(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
        assert math.isnan(value) and math.isnan(err)

    def test_nan_integrand_fails_the_deficit_gate(self):
        # a NaN in the sum density becomes a non-finite deficit, and the
        # deficit gates FAIL and say so instead of passing silently
        f = make_factor("uniform")
        f.pieces = tuple((c, b, lo, hi, math.nan) for c, b, lo, hi, _ in f.pieces)
        with np.errstate(invalid="ignore"):
            report = epi_deficit(ProductSpec([f])).bounds
        assert report.verdict == FAIL
        assert "non-finite statistic" in report.notes
        assert all(s.verdict == FAIL and "non-finite" in s.notes for s in report.sub)

    def test_rejects_an_empty_or_reversed_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            gk_quad(np.exp, 1.0, 1.0)
