"""Measure catalog: densities, moments, entropies, whitening, subspaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sloclab.errors import InputValidationError, SingularCovariance, UnknownMeasureError
from sloclab.measures import (
    DEFAULT_CATALOG,
    AffineImageSpec,
    BallMarginalFactor,
    ProductSpec,
    SQRT3,
    SubspaceBasis,
    UniformFactor,
    coordinate_subspace,
    isotropize,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.streams import generator


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


def test_factor_sum_entropies():
    # (X + X')/sqrt(2): uniform goes triangular, exp goes Gamma(2)
    assert make_factor("uniform").sum_entropy() == pytest.approx(0.5 + math.log(SQRT3 * math.sqrt(2.0)))
    assert make_factor("exp").sum_entropy() == pytest.approx(1.0 + np.euler_gamma - 0.5 * math.log(2.0))
    assert make_factor("gaussian").sum_entropy() == pytest.approx(make_factor("gaussian").entropy())
    # X + X' for Laplace(b) has density e^{-w} (1 + w)/(4b), w = |z|/b
    b = make_factor("laplace").scale
    h_sum = 2.0 * quad(lambda w: -math.exp(-w) * (1.0 + w) / 4.0
                       * math.log(math.exp(-w) * (1.0 + w) / (4.0 * b)),
                       0.0, 80.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    assert make_factor("laplace").sum_entropy() == pytest.approx(
        h_sum - 0.5 * math.log(2.0), abs=1e-12)
    assert make_factor("truncgauss").sum_entropy() is None


def test_factor_tilt_rates():
    assert make_factor("exp").tilt_rates() == (np.inf, 1.0)
    r = make_factor("laplace").tilt_rates()
    assert r[0] == r[1] == pytest.approx(math.sqrt(2.0))
    assert make_factor("gaussian").tilt_rates() == (np.inf, np.inf)


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


def test_unknown_factor_tag():
    with pytest.raises(UnknownMeasureError, match="unknown factor tag"):
        make_factor("cauchy")


# ---------------------------------------------------------------------------
# Catalog specs


def test_gaussian_entropy_and_potential():
    g1 = make_gaussian(1)
    assert g1.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert g1.potential(np.array([0.0])) == pytest.approx(0.5 * math.log(2 * math.pi))
    g3 = make_gaussian(3)
    assert g3.entropy() == pytest.approx(3 * g1.entropy())
    assert np.allclose(g3.cov(), np.eye(3))


def test_cube_potential_inside_and_outside():
    cube = make_cube(2)
    inside = cube.potential(np.zeros(2))
    assert inside == pytest.approx(math.log(12.0))  # area of [-sqrt3, sqrt3]^2
    assert cube.potential(np.array([2.0, 0.0])) == np.inf
    assert cube.entropy() == pytest.approx(math.log(12.0))


def test_uniform_box_density():
    box = ProductSpec([UniformFactor(1.0)])
    assert np.exp(box.log_density(np.array([0.3]))) == pytest.approx(0.5)
    assert box.cov()[0, 0] == pytest.approx(1.0 / 3.0)


def test_ball_radius_and_entropy():
    b2 = make_ball(2)
    assert b2.radius == pytest.approx(2.0)
    b3 = make_ball(3)
    vol = (4.0 / 3.0) * math.pi * 5.0**1.5
    assert b3.entropy() == pytest.approx(math.log(vol), rel=1e-12)
    assert b3.potential(np.zeros(3)) == pytest.approx(math.log(vol))
    assert b3.potential(np.array([3.0, 0.0, 0.0])) == np.inf


def test_ball_one_dim_is_interval():
    b1 = make_ball(1)
    x = np.linspace(-1.7, 1.7, 9)[:, None]
    expect = np.full(9, -math.log(2.0 * SQRT3))
    assert np.allclose(b1.log_density(x), expect)


def test_product_of_gaussians_matches_gaussian():
    prod = make_product("gaussian,gaussian,gaussian")
    g = make_gaussian(3)
    x = generator(8, "pts").standard_normal((50, 3)) * 2.0
    assert np.allclose(prod.potential(x), g.potential(x), atol=1e-12)
    assert prod.entropy() == pytest.approx(g.entropy())


def test_product_accepts_list_and_string():
    a = make_product("exp, laplace")
    b = make_product(["exp", "laplace"])
    assert a.measure_id() == b.measure_id() == "product:exp,laplace"


@pytest.mark.parametrize("measure_id", DEFAULT_CATALOG)
def test_catalog_is_isotropic(measure_id):
    spec = parse_measure_id(measure_id)
    assert spec.isotropic
    assert spec.measure_id() == measure_id


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
    lhs = spec.potential(0.5 * (x + y))
    rhs = 0.5 * (spec.potential(x) + spec.potential(y))
    assert (lhs <= rhs + 1e-9).all()


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


# ---------------------------------------------------------------------------
# Affine images and whitening


def test_affine_image_moments_and_entropy():
    mat = np.array([[2.0, 0.0], [1.0, 1.0]])
    shift = np.array([1.0, -1.0])
    spec = AffineImageSpec(make_gaussian(2), mat, shift)
    assert np.allclose(spec.mean(), shift)
    assert np.allclose(spec.cov(), mat @ mat.T)
    assert spec.entropy() == pytest.approx(make_gaussian(2).entropy() + math.log(2.0))
    x = spec.sample(generator(4, "affine"), 200_000)
    assert np.abs(x.mean(axis=0) - shift).max() < 0.03
    assert np.abs(np.cov(x.T) - mat @ mat.T).max() < 0.08


def test_affine_image_density_change_of_variables():
    mat = np.diag([2.0, 0.5])
    spec = AffineImageSpec(make_cube(2), mat)
    # density of the image at M x is rho(x) / |det M|
    x = np.array([0.5, 0.5])
    assert spec.log_density(mat @ x) == pytest.approx(make_cube(2).log_density(x) - math.log(1.0))
    assert spec.potential(np.array([10.0, 0.0])) == np.inf


def test_affine_image_rejects_singular_map():
    with pytest.raises(InputValidationError, match="invertible"):
        AffineImageSpec(make_gaussian(2), np.zeros((2, 2)))
    with pytest.raises(InputValidationError, match="square"):
        AffineImageSpec(make_gaussian(2), np.eye(3))


def test_isotropize_identity_is_noop():
    g = make_gaussian(4)
    assert isotropize(g) is g
    cube = make_cube(2)
    assert isotropize(cube) is cube


def test_isotropize_box():
    box = ProductSpec([UniformFactor(1.0), UniformFactor(2.0)])
    iso = isotropize(box)
    assert isinstance(iso, AffineImageSpec)
    assert np.allclose(iso.mat, np.diag([SQRT3, SQRT3 / 2.0]))
    assert np.allclose(iso.cov(), np.eye(2))
    assert isotropize(iso) is iso  # idempotent


def test_isotropize_scaled_gaussian():
    wide = AffineImageSpec(make_gaussian(2), 2.0 * np.eye(2))
    iso = isotropize(wide)
    assert np.allclose(iso.mat, 0.5 * np.eye(2))
    assert iso.entropy() == pytest.approx(make_gaussian(2).entropy())
    x = iso.sample(generator(9, "iso"), 100_000)
    assert np.abs(np.cov(x.T) - np.eye(2)).max() < 0.05


def test_isotropize_with_supplied_moments():
    g = make_gaussian(2)
    iso = isotropize(g, mean=np.array([3.0, 0.0]), cov=np.eye(2))
    assert np.allclose(iso.mean(), [-3.0, 0.0])


def test_isotropize_singular_covariance():
    with pytest.raises(SingularCovariance):
        isotropize(make_gaussian(2), mean=np.zeros(2), cov=np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_isotropize_shape_mismatch():
    with pytest.raises(InputValidationError):
        isotropize(make_gaussian(2), mean=np.zeros(3), cov=np.eye(3))


# ---------------------------------------------------------------------------
# Subspaces


def test_coordinate_subspace_round_trip():
    basis = coordinate_subspace(5, [0, 3])
    assert basis.ambient_dim == 5
    assert basis.dim == 2
    assert basis.is_coordinate
    assert basis.coordinate_indices() == [0, 3]
    assert np.array_equal(np.arange(5.0) @ basis.columns, [0.0, 3.0])


def test_random_subspace_is_orthonormal(random_subspace):
    basis = random_subspace(6, 3, generator(2, "subspace"))
    gram = basis.columns.T @ basis.columns
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    assert not basis.is_coordinate


def test_subspace_rejects_bad_columns():
    with pytest.raises(InputValidationError, match="orthonormal"):
        SubspaceBasis(np.ones((3, 2)))
    with pytest.raises(InputValidationError, match="matrix"):
        SubspaceBasis(np.ones((2, 3)))


def test_non_coordinate_indices_raise(random_subspace):
    q = random_subspace(4, 2, generator(3, "subspace"))
    with pytest.raises(InputValidationError, match="coordinate"):
        q.coordinate_indices()
