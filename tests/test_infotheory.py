"""Entropy oracle, KL pins, the de Bruijn identity, and deficit machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from sloclab import streams
from sloclab.errors import InputValidationError
from sloclab.follmer import to_follmer
from sloclab.infotheory import (
    _ball_sum_density,
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
    SQRT3,
    BallMarginalFactor,
    ProductSpec,
    make_ball,
    make_cube,
    make_factor,
    make_gaussian,
    make_product,
    parse_measure_id,
    sum_law,
)

EULER_GAMMA = np.euler_gamma


# ---------------------------------------------------------------------------
# Entropy oracle


def test_closed_form_entropy_route():
    for mid in ("gaussian:3", "cube:2", "ball:3", "product:exp,laplace"):
        spec = parse_measure_id(mid)
        kl = kl_to_gaussian(spec)
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
    assert not rep.bounds.failed


def test_epi_deficit_uniform_pin():
    # (X1+X2)/sqrt 2 is triangular: delta = 1/2 - ln(2)/2 per coordinate
    rep = epi_deficit(make_cube(1))
    pin = 0.5 - 0.5 * math.log(2.0)
    assert rep.delta.value == pytest.approx(pin, abs=1e-12)
    assert rep.delta.value == pytest.approx(0.1534264, abs=5e-7)
    rep3 = epi_deficit(make_cube(3))
    assert rep3.delta.value == pytest.approx(3.0 * pin, rel=1e-12)


def test_epi_deficit_exp_pin():
    # X1 + X2 is a shifted Gamma(2): delta = euler_gamma - ln(2)/2
    rep = epi_deficit(make_product("exp"))
    assert rep.delta.value == pytest.approx(EULER_GAMMA - 0.5 * math.log(2.0), abs=1e-12)
    assert not rep.bounds.failed


def test_epi_deficit_matches_closed_sum_entropies():
    # Ent((X + X')/sqrt 2) in closed form: the Gaussian is stable, the
    # uniform's sum is triangular with half-width w sqrt 2, exp's is a shifted
    # Gamma(2), and Laplace(b)'s has density e^{-w} (1 + w)/(4b) at w = |z|/b,
    # whose entropy is 1 + log(4b) - e E1(1)/2
    b = make_factor("laplace").scale
    sum_entropy = {
        "gaussian": GAUSSIAN_ENTROPY_RATE,
        "uniform": 0.5 + math.log(SQRT3 * math.sqrt(2.0)),
        "exp": 1.0 + EULER_GAMMA - 0.5 * math.log(2.0),
        "laplace": 1.0 + math.log(4.0 * b) - 0.5 * math.e * exp1(1.0) - 0.5 * math.log(2.0),
    }
    for tag, h_sum in sum_entropy.items():
        rep = epi_deficit(make_product(tag))
        assert rep.delta.value == pytest.approx(h_sum - make_factor(tag).entropy(), abs=1e-12)
        assert 0.0 <= rep.delta.stderr < 1e-10
        assert not rep.bounds.failed


def test_epi_deficit_by_law_matches_per_coordinate_sum():
    # the two uniform columns are one law, quadratured once and counted twice
    spec = make_product("exp,uniform,uniform")
    by_law = epi_deficit(spec).delta
    each = [epi_deficit(ProductSpec([f])).delta for f in spec.factors]
    assert by_law.value == pytest.approx(sum(d.value for d in each), rel=1e-15, abs=0.0)
    assert by_law.stderr == pytest.approx(sum(d.stderr for d in each), rel=1e-15, abs=0.0)
    assert "2 distinct factors" in by_law.notes


def test_epi_deficit_laplace_matches_direct_density():
    # sum of two iid Laplace(b) draws has density e^{-|z|/b} (1 + |z|/b)/(4b);
    # integrate it directly
    b = 1.0 / math.sqrt(2.0)

    def f_sum(z):
        az = abs(z) / b
        return math.exp(-az) * (1.0 + az) / (4.0 * b)

    h_sum, _ = quad(lambda z: -f_sum(z) * math.log(f_sum(z)), 0.0, 60.0,
                    epsabs=1e-14, epsrel=1e-13, limit=300)
    delta_ref = (2.0 * h_sum - 0.5 * math.log(2.0)) - (1.0 + math.log(2.0 * b))
    assert epi_deficit(make_product("laplace")).delta.value == pytest.approx(delta_ref, abs=1e-12)


def _nested_sum_entropy(f):
    """Ent(X1 + X2) from the factor's log density alone: the sum density is an
    inner adaptive quadrature of rho(x) rho(y - x), the entropy an outer one."""
    def rho(x):
        return math.exp(float(f.log_density(np.array(x))))

    def g(y):
        a, b = max(f.lo, y - f.hi), min(f.hi, y - f.lo)
        if a >= b:
            return 0.0
        return quad(lambda x: rho(x) * rho(y - x), a, b, epsabs=1e-15, epsrel=1e-13)[0]

    def integrand(y):
        val = g(y)
        return -val * math.log(val) if val > 0.0 else 0.0

    return quad(integrand, 2.0 * f.lo, 2.0 * f.hi, points=[0.0], epsabs=1e-14,
                epsrel=1e-13, limit=200)[0]


def test_epi_deficit_truncgauss_matches_nested_quadrature():
    f = make_factor("truncgauss")
    ref = _nested_sum_entropy(f) - 0.5 * math.log(2.0) - f.entropy()
    rep = epi_deficit(make_product("truncgauss"))
    assert rep.delta.value == pytest.approx(ref, abs=1e-10)
    assert 0.0 < rep.delta.stderr < 1e-10


@pytest.mark.parametrize("tag", ["uniform", "exp", "laplace", "truncgauss"])
def test_sum_density_matches_sampled_pairs(tag):
    # cross-entropy of the kernel's sum density against fresh pairs X1 + X2:
    # it equals Ent(X1 + X2) only when the density is the law of the pairs
    f = make_factor(tag)
    m = 1 << 16
    rng = streams.generator(0, "factor-sum", tag)
    law = sum_law(f.pieces, f.pieces)
    vals = -law(f.sample(rng, m) + f.sample(rng, m))[0]
    se = float(vals.std(ddof=1)) / math.sqrt(m)
    h_sum = epi_deficit(make_product(tag)).delta.value + 0.5 * math.log(2.0) + f.entropy()
    assert h_sum == pytest.approx(float(vals.mean()), abs=4.0 * se)


@pytest.mark.parametrize("tag", ["gaussian", "uniform", "exp", "laplace", "truncgauss"])
def test_sum_density_moments(tag):
    # X1 + X2 of a unit-variance, centered factor: mass 1, mean 0, variance 2
    f = make_factor(tag)
    law = sum_law(f.pieces, f.pieces)
    lo, hi = 2.0 * max(f.lo, -40.0), 2.0 * min(f.hi, 40.0)
    mass, mean, second = (
        quad(lambda y: y ** k * math.exp(law(y)[0]), lo, hi, points=[0.0],
             epsabs=1e-13, epsrel=1e-12, limit=200)[0] for k in range(3))
    assert abs(mass - 1.0) < 1e-10
    assert abs(mean) < 1e-10
    assert abs(second - 2.0) < 1e-10


def test_epi_deficit_shares_one_quadrature_per_distinct_factor():
    one = epi_deficit(make_cube(1)).delta
    many = epi_deficit(make_cube(32)).delta
    assert many.value == 32.0 * one.value
    assert many.stderr == 32.0 * one.stderr
    mixed = epi_deficit(make_product("exp,uniform,exp")).delta
    exp = epi_deficit(make_product("exp")).delta
    assert mixed.value == pytest.approx(2.0 * exp.value + one.value, rel=1e-14)
    assert "2 distinct factors" in mixed.notes


def test_epi_deficit_needs_pieces():
    with pytest.raises(InputValidationError, match="'ballmarg' has none"):
        epi_deficit(ProductSpec([make_factor("exp"), BallMarginalFactor(3)]))


def test_epi_deficit_rejects_specs_outside_the_catalog(outside_spec):
    with pytest.raises(InputValidationError, match="no EPI deficit route for <OutsideSpec"):
        epi_deficit(outside_spec)


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


# ---------------------------------------------------------------------------
# Deficit lower bound and the chain audit


@pytest.fixture(scope="module")
def cube2_frame_anchored():
    ens = simulate_ensemble(make_cube(2), make_geometric(0.05, 20.0, 16, include=(1.0,)),
                            512, seed=0)
    return to_follmer(ens)


def test_deficit_lower_bound_cube(cube2_frame_anchored):
    low = deficit_lower_bound(cube2_frame_anchored, xi=0.5)
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
    rep = deficit_chain_audit(epi_deficit(make_cube(2)).delta, cube2_frame_anchored, xi=0.5)
    assert not rep.failed
    ids = [s.check_id for s in rep.sub]
    assert ids == ["variance-split-exact", "ibp-balance", "score-trace-bound",
                   "clocked-gamma-monotone", "chain-upper", "chain-lower",
                   "parity-split", "fisher-bound-at-xi", "energy-constant"]
    assert rep.sub[-1].verdict == "INFO"
    assert "xi=0.5" in rep.notes

