"""Entropy oracle, KL pins, the de Bruijn identity, and deficit machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sloclab import streams
from sloclab.errors import InputValidationError
from sloclab.follmer import to_follmer
from sloclab.infotheory import (
    CLOSED_FORM,
    GRID_CONVOLUTION,
    LENS_QUADRATURE,
    _ball_sum_density,
    _factor_grid_deficit,
    de_bruijn_check,
    deficit_chain_audit,
    deficit_lower_bound,
    epi_deficit,
    kl_to_gaussian,
)
from sloclab.localization import make_geometric, simulate_ensemble
from sloclab.measures import (
    DEFAULT_CATALOG,
    GAUSSIAN_ENTROPY_RATE,
    AffineImageSpec,
    LaplaceFactor,
    ProductSpec,
    UniformFactor,
    make_ball,
    make_cube,
    make_gaussian,
    make_product,
    parse_measure_id,
)

EULER_GAMMA = np.euler_gamma


# ---------------------------------------------------------------------------
# Entropy oracle


def test_closed_form_entropy_route():
    for mid in ("gaussian:3", "cube:2", "ball:3", "product:exp,laplace"):
        spec = parse_measure_id(mid)
        kl = kl_to_gaussian(spec)
        assert kl.method == CLOSED_FORM
        assert kl.stderr == 0.0
        assert kl.value == spec.dim * GAUSSIAN_ENTROPY_RATE - spec.entropy()


@pytest.mark.parametrize("mid", DEFAULT_CATALOG)
def test_entropy_matches_sampled_log_density(mid):
    # independent of every closed form: -mean log rho over fresh draws
    spec = parse_measure_id(mid)
    n_draws = 1 << 15
    vals = -spec.log_density(spec.sample(streams.generator(0, "entropy-oracle", mid), n_draws))
    se = float(vals.std(ddof=1)) / math.sqrt(n_draws)
    assert spec.entropy() == pytest.approx(float(vals.mean()), abs=4.0 * se + 1e-12)


def test_mc_entropy_gaussian():
    # the plug-in -mean log rho at a larger sample than the catalog sweep
    spec = make_gaussian(2)
    n_draws = 50_000
    vals = -spec.log_density(spec.sample(streams.generator(3, "mc-entropy"), n_draws))
    se = float(vals.std(ddof=1)) / math.sqrt(n_draws)
    assert se > 0.0
    assert float(vals.mean()) == pytest.approx(2.0 * GAUSSIAN_ENTROPY_RATE, abs=4.0 * se)


# ---------------------------------------------------------------------------
# KL pins


def test_kl_closed_pins():
    # frozen six-digit oracles for the catalog's 1D families
    assert kl_to_gaussian(make_cube(1)).value == pytest.approx(0.1764852, abs=5e-7)
    assert kl_to_gaussian(make_product("laplace")).value == pytest.approx(0.0723649, abs=5e-7)
    assert kl_to_gaussian(make_product("exp")).value == pytest.approx(0.4189385, abs=5e-7)
    assert kl_to_gaussian(make_gaussian(4)).value == 0.0


def test_kl_additive_over_factors():
    one = kl_to_gaussian(make_cube(1)).value
    eight = kl_to_gaussian(make_cube(8)).value
    assert eight == pytest.approx(8.0 * one, rel=1e-12)


def test_kl_requires_isotropic():
    with pytest.raises(InputValidationError, match="isotropize"):
        kl_to_gaussian(ProductSpec([UniformFactor(1.0), UniformFactor(2.0)]))


# ---------------------------------------------------------------------------
# de Bruijn identity


def test_de_bruijn_gaussian_is_exact():
    ens = simulate_ensemble(make_gaussian(2), make_geometric(0.01, 100.0, 40), 64, seed=0)
    rep = de_bruijn_check(make_gaussian(2), to_follmer(ens))
    assert not rep.failed
    assert rep.statistic < 1e-10  # v = 0 and KL = 0, both sides vanish


def test_de_bruijn_cube():
    ens = simulate_ensemble(make_cube(1), make_geometric(0.01, 20_000.0, 48), 2048, seed=2)
    rep = de_bruijn_check(make_cube(1), to_follmer(ens))
    assert not rep.failed
    assert "tail-rectangle" in rep.notes
    assert "kl=0.17648" in rep.notes


def test_de_bruijn_needs_fine_grid():
    ens = simulate_ensemble(make_cube(1), make_geometric(0.1, 1.0, 7), 16, seed=0)
    with pytest.raises(InputValidationError, match=">= 10"):
        de_bruijn_check(make_cube(1), to_follmer(ens))


# ---------------------------------------------------------------------------
# EPI deficit


def test_epi_deficit_gaussian_zero():
    rep = epi_deficit(make_gaussian(3))
    assert rep.delta.value == 0.0
    assert rep.delta.method == CLOSED_FORM
    assert not rep.bounds.failed


def test_epi_deficit_uniform_pin():
    # (X1+X2)/sqrt 2 is triangular: delta = 1/2 - ln(2)/2 per coordinate
    rep = epi_deficit(make_cube(1))
    pin = 0.5 - 0.5 * math.log(2.0)
    assert rep.delta.method == CLOSED_FORM
    assert rep.delta.value == pytest.approx(pin, abs=1e-12)
    assert rep.delta.value == pytest.approx(0.1534264, abs=5e-7)
    rep3 = epi_deficit(make_cube(3))
    assert rep3.delta.value == pytest.approx(3.0 * pin, rel=1e-12)


def test_epi_deficit_exp_pin():
    # X1 + X2 is a shifted Gamma(2): delta = euler_gamma - ln(2)/2
    rep = epi_deficit(make_product("exp"))
    assert rep.delta.value == pytest.approx(EULER_GAMMA - 0.5 * math.log(2.0), abs=1e-12)
    assert not rep.bounds.failed


def test_epi_deficit_laplace_grid_vs_closed_density():
    # sum of two iid Laplace(b) draws has density e^{-|z|/b} (1 + |z|/b)/(4b);
    # integrate it directly: the closed sum entropy serves epi_deficit, and
    # the fft grid route stays within its discretization error of it
    b = 1.0 / math.sqrt(2.0)

    def f_sum(z):
        az = abs(z) / b
        return math.exp(-az) * (1.0 + az) / (4.0 * b)

    h_sum, _ = quad(lambda z: -f_sum(z) * math.log(f_sum(z)), 0.0, 60.0,
                    epsabs=1e-14, epsrel=1e-13, limit=300)
    delta_ref = (2.0 * h_sum - 0.5 * math.log(2.0)) - (1.0 + math.log(2.0 * b))
    rep = epi_deficit(make_product("laplace"))
    assert rep.delta.method == CLOSED_FORM
    assert rep.delta.value == pytest.approx(delta_ref, abs=1e-10)
    grid_route = _factor_grid_deficit(LaplaceFactor(), 1 << 14, 12.0)
    assert grid_route == pytest.approx(delta_ref, abs=1e-6)
    # truncgauss has no closed sum entropy, so the grid route serves it
    assert epi_deficit(make_product("laplace,truncgauss")).delta.method == GRID_CONVOLUTION


def test_factor_grid_deficit_matches_closed_uniform():
    grid_route = _factor_grid_deficit(UniformFactor(), 1 << 14, 12.0)
    assert grid_route == pytest.approx(0.5 - 0.5 * math.log(2.0), abs=1e-4)


def _sphere_area(n):
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


@pytest.mark.parametrize("n", range(1, 9))
def test_ball_sum_density_has_unit_mass(n):
    spec = make_ball(n)
    mass, _ = quad(lambda s: _sphere_area(n) * s ** (n - 1) * float(_ball_sum_density(spec, s)),
                   0.0, 2.0 * spec.radius, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_epi_deficit_ball_exact():
    # ball:1 is the isotropic uniform factor, whose deficit has a closed form
    assert epi_deficit(make_ball(1)).delta.value == pytest.approx(
        0.5 - 0.5 * math.log(2.0), abs=1e-12)
    for n, pin in ((3, 0.3676054724), (4, 0.4473513300)):
        rep = epi_deficit(make_ball(n))
        assert rep.delta.method == LENS_QUADRATURE
        assert rep.delta.value == pytest.approx(pin, abs=1e-9)
        assert 0.0 < rep.delta.stderr < 1e-9
        assert not rep.bounds.failed


@pytest.mark.parametrize("n", [3, 4])
def test_ball_sum_entropy_matches_sampled_pairs(n):
    # cross-entropy of the lens density against fresh pairs X1 + X2
    spec = make_ball(n)
    m = 1 << 16
    rng = streams.generator(0, "ball-sum", n)
    s = np.linalg.norm(spec.sample(rng, m) + spec.sample(rng, m), axis=-1)
    vals = -np.log(_ball_sum_density(spec, s))
    se = float(vals.std(ddof=1)) / math.sqrt(m)
    h_sum = epi_deficit(spec).delta.value + 0.5 * n * math.log(2.0) + spec.entropy()
    assert h_sum == pytest.approx(float(vals.mean()), abs=4.0 * se)


def test_epi_deficit_is_affine_invariant():
    base = make_ball(3)
    scaled = AffineImageSpec(base, 2.0 * np.eye(3))
    assert epi_deficit(scaled).delta == epi_deficit(base).delta
    prod = make_product("exp,laplace")
    c, s = math.cos(0.7), math.sin(0.7)
    rotated = AffineImageSpec(prod, np.array([[c, -s], [s, c]]))
    assert epi_deficit(rotated).delta == epi_deficit(prod).delta


# ---------------------------------------------------------------------------
# Deficit lower bound and the chain audit


@pytest.fixture(scope="module")
def cube2_frame_anchored():
    ens = simulate_ensemble(make_cube(2), make_geometric(0.05, 20.0, 16, include=(1.0,)),
                            512, seed=0)
    return to_follmer(ens)


def test_deficit_lower_bound_cube(cube2_frame_anchored):
    low = deficit_lower_bound(cube2_frame_anchored, xi=0.5)
    assert low.eps == 0.5
    assert low.estimate.value >= 0.0
    assert not low.parity.failed
    # the bound must sit below the actual deficit
    delta = epi_deficit(make_cube(2)).delta.value
    assert low.estimate.value <= delta + 4.0 * low.estimate.stderr


def test_deficit_lower_bound_xi_snap(cube2_frame_anchored):
    with pytest.raises(InputValidationError, match="add the matching time"):
        deficit_lower_bound(cube2_frame_anchored, xi=0.4321)
    with pytest.raises(InputValidationError, match="0 < xi < 1"):
        deficit_lower_bound(cube2_frame_anchored, xi=1.5)


def test_deficit_chain_audit_cube(cube2_frame_anchored):
    rep = deficit_chain_audit(make_cube(2), cube2_frame_anchored, xi=0.5)
    assert not rep.failed
    ids = [s.check_id for s in rep.sub]
    assert ids == ["variance-split-exact", "ibp-balance", "score-trace-bound",
                   "clocked-gamma-monotone", "chain-upper", "chain-lower",
                   "parity-split", "fisher-bound-at-xi", "energy-constant"]
    assert rep.sub[-1].verdict == "INFO"
    assert "xi=0.5" in rep.notes

