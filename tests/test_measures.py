"""Measure catalog: densities, moments, entropies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sloclab.errors import UnknownMeasureError
from sloclab.measures import (
    DEFAULT_CATALOG,
    BallMarginalFactor,
    BallSpec,
    ProductSpec,
    SQRT3,
    UniformFactor,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.numerics import quad as gk_quad
from sloclab.numerics import trunc_normal_moments
from sloclab.streams import generator
from sloclab.tilt import envelope

# ---------------------------------------------------------------------------
# 1D factors


FACTOR_TAGS = ["gaussian", "uniform", "exp", "laplace", "truncgauss"]


@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_factor_is_standardized(tag):
    f = make_factor(tag)
    x = f.sample(generator(3, tag), 200_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_factor_density_normalized_and_moments(tag):
    f = make_factor(tag)
    lo = f.lo if np.isfinite(f.lo) else -40.0
    hi = f.hi if np.isfinite(f.hi) else 40.0
    rho = lambda y: np.exp(f.log_density(y))
    mass, _ = quad(rho, lo, hi, limit=200)
    m1, _ = quad(lambda y: y * rho(y), lo, hi, limit=200)
    m2, _ = quad(lambda y: y * y * rho(y), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert m1 == pytest.approx(0.0, abs=1e-9)
    assert m2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tag", FACTOR_TAGS)
def test_factor_entropy_matches_quadrature(tag):
    f = make_factor(tag)
    lo = f.lo if np.isfinite(f.lo) else -40.0
    hi = f.hi if np.isfinite(f.hi) else 40.0

    def nll(y):
        ld = f.log_density(y)
        return np.where(np.isfinite(ld), -np.exp(ld) * ld, 0.0)

    ref, _ = quad(nll, lo, hi, limit=200)
    assert f.entropy() == pytest.approx(ref, abs=1e-9)


def test_factor_closed_entropies():
    assert make_factor("gaussian").entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert make_factor("uniform").entropy() == pytest.approx(math.log(2 * SQRT3))
    assert make_factor("exp").entropy() == pytest.approx(1.0)
    assert make_factor("laplace").entropy() == pytest.approx(1.0 + 0.5 * math.log(2.0))


PEAK_FACTORS = [make_factor(tag) for tag in FACTOR_TAGS] + [
    BallMarginalFactor(nu) for nu in (1, 2, 3, 4)]


@pytest.mark.parametrize("f", PEAK_FACTORS, ids=lambda f: f.tag + str(getattr(f, "ambient_dim", "")))
def test_peak_log_density_is_the_max(f):
    # the sampler's envelope is flat at the tilted density's peak: pieces give
    # the mode in closed form, golden section finds ballmarg's; a peak below
    # sup log rho would bias every draw
    lo, hi = max(f.lo, -12.0), min(f.hi, 12.0)
    grid = np.concatenate([np.linspace(lo, hi, 200_001), [lo, 0.0, hi]])
    for t, theta in ((0.05, 0.0), (0.05, -0.7), (1.0, 0.8), (20.0, -30.0)):
        dens = theta * grid - 0.5 * t * grid**2 + f.log_density(grid)
        peak = envelope(lambda x: theta * x - 0.5 * t * x * x + f.log_density(x),
                        [f.lo], [f.hi], [f.tilt_mode(t, theta)]).top[0]
        assert peak >= dens.max()
        assert peak == pytest.approx(dens.max(), abs=1e-7 * max(1.0, abs(peak)))
    assert np.isnan(f.tilt_mode(1.0, 0.8)) == (not f.pieces)


def test_product_laws_group_columns_by_pieces():
    # laws come in order of first appearance, each with every column it serves
    spec = make_product("uniform,exp,uniform,laplace")
    assert [(f.tag, cols.tolist()) for f, cols in spec.laws] == [
        ("uniform", [0, 2]), ("exp", [1]), ("laplace", [3])]
    assert all(f is spec.factors[cols[0]] for f, cols in spec.laws)
    assert [cols.tolist() for _, cols in make_cube(32).laws] == [list(range(32))]
    # ballmarg has no pieces, so equal parameters do not make two factors one law
    twins = ProductSpec([BallMarginalFactor(4), BallMarginalFactor(4)])
    assert [(f, cols.tolist()) for f, cols in twins.laws] == [(twins.factors[0], [0]),
                                                              (twins.factors[1], [1])]


def test_product_runs_group_consecutive_equal_factors():
    assert [(f.tag, run) for f, run in make_product("exp,exp,uniform,exp").runs] == [
        ("exp", 2), ("uniform", 1), ("exp", 1)]
    assert [run for _, run in make_cube(32).runs] == [32]
    twins = ProductSpec([BallMarginalFactor(4), BallMarginalFactor(4)])
    assert [run for _, run in twins.runs] == [1, 1]
    shared = BallMarginalFactor(4)
    assert [run for _, run in ProductSpec([shared, shared]).runs] == [2]


@pytest.mark.parametrize("size", [0, 1, 7])
@pytest.mark.parametrize("tags", [",".join([tag] * 3) for tag in FACTOR_TAGS]
                         + ["exp,uniform,exp", "truncgauss,truncgauss,uniform"])
def test_product_sample_matches_per_factor_draws(tags, size):
    # one draw per run of equal factors gives the numbers of one draw per column
    spec = make_product(tags)
    rng = generator(19, tags, size)
    expect = np.stack([f.sample(rng, size) for f in spec.factors], axis=-1)
    got = spec.sample(generator(19, tags, size), size)
    assert got.shape == (size, spec.dim)
    assert got.flags.c_contiguous
    assert np.array_equal(got, expect)


def test_closed_factors_derive_everything_from_pieces():
    for tag in FACTOR_TAGS:
        cls = type(make_factor(tag))
        assert not {"log_density", "tilt_mode", "tilt_stats"} & set(vars(cls))
        assert make_factor(tag).pieces
    assert len(make_factor("laplace").pieces) == 2


def test_laplace_mixture_variance_does_not_cancel():
    # far left the right piece has no weight, so the mixture is the left piece
    # alone; E x^2 - (E x)^2 would lose 2e-12 of the variance here to cancellation
    f = make_factor("laplace")
    t, theta = 1e4, -30005.0
    c, b, lo, hi, _ = f.pieces[0]
    _, mean_left, var_left = trunc_normal_moments((theta - b) / (t + c),
                                                  1.0 / math.sqrt(t + c), lo, hi)
    _, mean, var = f.tilt_stats(t, np.array(theta))
    assert float(mean) == pytest.approx(float(mean_left), rel=1e-15, abs=0.0)
    assert float(var) == pytest.approx(float(var_left), rel=1e-15, abs=0.0)


def test_ball_marginal_factor_standardized():
    f = BallMarginalFactor(3)
    rho = lambda y: np.exp(f.log_density(y))
    mass, _ = quad(rho, f.lo, f.hi, limit=200)
    m2, _ = quad(lambda y: y * y * rho(y), f.lo, f.hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert m2 == pytest.approx(1.0, abs=1e-10)
    # the untilted batch route returns the base moments
    log_z, mean, var = f.tilt_stats(0.0, np.zeros(2))
    assert np.allclose(log_z, 0.0, atol=1e-13)
    assert np.allclose(mean, 0.0, atol=1e-13)
    assert np.allclose(var, 1.0, atol=1e-12)


def test_ball_marginal_one_dim_is_uniform():
    # nu = 1: exponent 0, plain uniform on [-sqrt(3), sqrt(3)]
    f = BallMarginalFactor(1)
    assert f.radius == pytest.approx(SQRT3)
    assert f.log_density(0.0) == pytest.approx(-math.log(2.0 * SQRT3))


@pytest.mark.parametrize("nu", [1, 2, 4, 64])
def test_ball_marginal_entropy_closed_form_matches_quadrature(nu):
    f = BallMarginalFactor(nu)

    def nll(y):
        ld = f.log_density(y)
        return -math.exp(ld) * ld

    ref, err = quad(nll, f.lo, f.hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-12
    assert f.entropy() == pytest.approx(ref, abs=1e-12)
    if nu == 1:
        assert f.entropy() == pytest.approx(math.log(2.0 * f.radius), abs=1e-15)


def test_unknown_factor_tag():
    with pytest.raises(UnknownMeasureError, match="unknown factor tag"):
        make_factor("cauchy")


# ---------------------------------------------------------------------------
# Catalog specs


def test_gaussian_entropy_and_potential():
    g1 = make_gaussian(1)
    assert g1.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert -g1.log_density(np.array([0.0])) == pytest.approx(0.5 * math.log(2 * math.pi))
    g3 = make_gaussian(3)
    assert g3.entropy() == pytest.approx(3 * g1.entropy())
    assert -g3.log_density(np.ones(3)) == pytest.approx(1.5 + 1.5 * math.log(2 * math.pi))


def test_cube_potential_inside_and_outside():
    cube = make_cube(2)
    inside = -cube.log_density(np.zeros(2))
    assert inside == pytest.approx(math.log(12.0))  # area of [-sqrt3, sqrt3]^2
    assert cube.log_density(np.array([2.0, 0.0])) == -np.inf
    assert cube.entropy() == pytest.approx(math.log(12.0))


def test_uniform_box_density():
    box = ProductSpec([UniformFactor()])
    assert np.exp(box.log_density(np.array([0.3]))) == pytest.approx(1.0 / (2.0 * SQRT3))
    assert box.log_density(np.array([1.8])) == -np.inf
    assert (UniformFactor.lo, UniformFactor.hi) == (-SQRT3, SQRT3)


def test_ball_radius_and_entropy():
    b2 = make_ball(2)
    assert b2.radius == pytest.approx(2.0)
    b3 = make_ball(3)
    vol = (4.0 / 3.0) * math.pi * 5.0**1.5
    assert b3.entropy() == pytest.approx(math.log(vol), rel=1e-12)
    assert -b3.log_density(np.zeros(3)) == pytest.approx(math.log(vol))
    assert b3.log_density(np.array([3.0, 0.0, 0.0])) == -np.inf


def test_ball_one_dim_is_interval():
    b1 = make_ball(1)
    x = np.linspace(-1.7, 1.7, 9)[:, None]
    expect = np.full(9, -math.log(2.0 * SQRT3))
    assert np.allclose(b1.log_density(x), expect)


def test_product_of_gaussians_matches_gaussian():
    prod = make_product("gaussian,gaussian,gaussian")
    g = make_gaussian(3)
    x = generator(8, "pts").standard_normal((50, 3)) * 2.0
    assert np.allclose(prod.log_density(x), g.log_density(x), atol=1e-12)
    assert prod.entropy() == pytest.approx(g.entropy())


def test_product_accepts_list_and_string():
    a = make_product("exp, laplace")
    b = make_product(["exp", "laplace"])
    assert a.measure_id() == b.measure_id() == "product:exp,laplace"


def _factor_moments(f):
    """[mass, E x, E x^2] of a 1D factor, by quadrature of its own log density."""
    kinks = [end for _, _, lo, hi, _ in f.pieces for end in (lo, hi)]
    return [gk_quad(lambda x, k=k: x**k * np.exp(f.log_density(x)), f.lo, f.hi,
                    points=kinks, epsabs=1e-14, epsrel=1e-14, limit=400)[0]
            for k in range(3)]


def _radial_moments(spec):
    """[mass, E |X|^2] of a rotation-invariant spec, by radial quadrature of its density."""
    n = spec.dim
    sphere = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    edge = getattr(spec, "radius", np.inf)

    def density(r):
        x = np.zeros(r.shape + (n,))
        x[..., 0] = r
        return np.exp(spec.log_density(x))

    return [gk_quad(lambda r, k=k: sphere * r ** (n - 1 + k) * density(r), 0.0, 2.0 * edge,
                    points=(edge,), epsabs=1e-14, epsrel=1e-14, limit=400)[0]
            for k in (0, 2)]


@pytest.mark.parametrize("f", PEAK_FACTORS + [BallMarginalFactor(nu) for nu in (8, 64)],
                         ids=lambda f: f.tag + str(getattr(f, "ambient_dim", "")))
def test_factor_is_isotropic_by_its_density(f):
    assert _factor_moments(f) == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_catalog_is_isotropic(measure_id):
    # from the densities alone: every product factor has mean 0 and variance
    # 1; a ball or a Gaussian is rotation invariant, so mean 0 and E |X|^2 = n
    # make its covariance Id
    spec = parse_measure_id(measure_id)
    assert spec.measure_id() == measure_id
    if spec.factors is not None:
        for f in spec.factors:
            assert _factor_moments(f) == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
        return
    if isinstance(spec, BallSpec):
        assert spec.radius**2 == pytest.approx(spec.dim + 2.0, rel=1e-15)
    assert _radial_moments(spec) == pytest.approx([1.0, spec.dim], abs=1e-12 * spec.dim)


MEASURE_IDS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["gaussian", "cube", "ball"]),
              st.integers(1, 64)),
    st.lists(st.sampled_from(FACTOR_TAGS), min_size=1, max_size=6).map(
        lambda tags: "product:" + ",".join(tags)),
    st.sampled_from(DEFAULT_CATALOG),
)


@settings(deadline=None)
@given(MEASURE_IDS)
def test_measure_id_round_trips(measure_id):
    assert parse_measure_id(measure_id).measure_id() == measure_id


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_catalog_empirical_moments(measure_id):
    spec = parse_measure_id(measure_id)
    x = spec.sample(generator(17, "moments", measure_id), 100_000)
    assert np.abs(x.mean(axis=0)).max() < 0.05
    emp_cov = np.cov(x.T).reshape(spec.dim, spec.dim)
    assert np.abs(emp_cov - np.eye(spec.dim)).max() < 0.08


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_catalog_potential_is_midpoint_convex(measure_id):
    spec = parse_measure_id(measure_id)
    rng = generator(21, "convexity", measure_id)
    x = spec.sample(rng, 10_000)
    y = spec.sample(rng, 10_000)
    # psi = -log rho is convex: log rho at the midpoint is at least the mean of its ends
    lhs = spec.log_density(0.5 * (x + y))
    rhs = 0.5 * (spec.log_density(x) + spec.log_density(y))
    assert (lhs >= rhs - 1e-9).all()


def test_sample_zero_count():
    for spec in (make_gaussian(2), make_cube(3), make_ball(2)):
        out = spec.sample(generator(1, "empty"), 0)
        assert out.shape == (0, spec.dim)


def test_parse_measure_id_errors():
    with pytest.raises(UnknownMeasureError, match="malformed"):
        parse_measure_id("gaussian")
    with pytest.raises(UnknownMeasureError, match="unknown measure family"):
        parse_measure_id("simplex:3")
    with pytest.raises(UnknownMeasureError, match="malformed"):
        parse_measure_id("cube:two")
    with pytest.raises(UnknownMeasureError, match="dimension must be >= 1"):
        parse_measure_id("ball:0")
