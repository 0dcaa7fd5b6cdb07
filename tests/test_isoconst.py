"""Isotropic constants, marginal dispatch, and projection domination."""

import dataclasses
import math

import numpy as np
import pytest

from sloclab import streams
from sloclab.errors import InputValidationError
from sloclab.isoconst import (
    GAUSSIAN_L,
    check_projection_domination,
    isotropic_constant,
    l_bounds_sweep,
    marginal,
)
from sloclab.localization import make_geometric, make_uniform, simulate_ensemble
from sloclab.measures import (
    BallMarginalFactor,
    LaplaceFactor,
    ProductSpec,
    make_ball,
    make_cube,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.numerics import quad

# independent volume/entropy pins for the closed catalog members
L_CUBE = 1.0 / (2.0 * math.sqrt(3.0))
L_EXP = math.exp(-1.0)
L_BALL3 = ((4.0 / 3.0) * math.pi * 5.0 ** 1.5) ** (-1.0 / 3.0)
L_BALL4 = (0.5 * math.pi ** 2 * 6.0 ** 2) ** (-1.0 / 4.0)


# ---------------------------------------------------------------------------
# L values


def test_l_closed_pins():
    assert isotropic_constant(make_gaussian(3)).l_value == pytest.approx(
        0.24197072451914337, abs=1e-12)
    assert isotropic_constant(make_cube(2)).l_value == pytest.approx(L_CUBE, abs=1e-9)
    assert isotropic_constant(make_product("exp")).l_value == pytest.approx(
        L_EXP, abs=1e-9)
    assert isotropic_constant(make_ball(3)).l_value == pytest.approx(L_BALL3, abs=1e-9)
    assert isotropic_constant(make_ball(4)).l_value == pytest.approx(L_BALL4, abs=1e-9)


def test_l_is_dimension_free_for_cubes():
    # product structure: entropy scales linearly, det cov stays 1
    l1 = isotropic_constant(make_cube(1)).l_value
    l6 = isotropic_constant(make_cube(6)).l_value
    assert l6 == pytest.approx(l1, rel=1e-12)


def test_gaussian_attains_the_floor():
    rep = isotropic_constant(make_gaussian(2))
    assert rep.l_value == pytest.approx(GAUSSIAN_L, abs=1e-14)
    assert not rep.lower_bound.failed
    # isotropic by construction: det cov = 1, so L is exp(-Ent/n) alone
    assert rep.l_value == math.exp(-rep.entropy / 2)


def test_sandwich_holds_on_closed_catalog():
    for mid in ("gaussian:2", "cube:2", "ball:3", "product:exp,laplace,uniform"):
        rep = isotropic_constant(parse_measure_id(mid))
        assert not rep.sandwich.failed, mid
        assert not rep.lower_bound.failed, mid
        assert [s.check_id for s in rep.sandwich.sub] == ["sandwich-lower", "sandwich-upper"]


def test_sandwich_is_tight_for_exponential():
    # density at the barycenter is exp(-1) per factor, exactly L: the lower
    # side's gap L - f(0)-pin vanishes
    rep = isotropic_constant(make_product("exp,exp"))
    low = rep.sandwich.sub[0]
    assert low.check_id == "sandwich-lower"
    assert abs(low.statistic) <= 1e-12 * rep.l_value


def test_mc_entropy_route_keeps_gates():
    # L from a sampled entropy agrees with the closed-form report, whose gates hold
    spec = make_gaussian(2)
    rep = isotropic_constant(spec)
    n_draws = 50_000
    vals = -spec.log_density(spec.sample(streams.generator(2, "mc-entropy"), n_draws))
    ent_se = float(vals.std(ddof=1)) / math.sqrt(n_draws)
    l_mc = math.exp(-float(vals.mean()) / spec.dim)
    l_se = l_mc * ent_se / spec.dim
    assert l_se > 0.0
    assert l_mc == pytest.approx(GAUSSIAN_L, abs=4.0 * l_se)
    assert rep.l_value == pytest.approx(l_mc, abs=4.0 * l_se)
    assert not rep.lower_bound.failed
    assert not rep.sandwich.failed


# ---------------------------------------------------------------------------
# Marginal dispatch


def test_marginal_gaussian_any_subspace():
    sub = marginal(make_gaussian(4), (3, 1))
    assert sub.measure_id() == "gaussian:2"
    assert sub.dim == 2
    assert marginal(make_cube(4), (3, 1)).measure_id() == "cube:2"


def test_marginal_coordinate_product_keeps_factors():
    spec = make_product("exp,laplace,uniform")
    sub = marginal(spec, (1,))
    assert isinstance(sub, ProductSpec)
    assert sub.family == "product"
    assert isinstance(sub.factors[0], LaplaceFactor)


def test_marginal_cube_stays_a_cube():
    sub = marginal(make_cube(3), (2, 0))
    assert isinstance(sub, ProductSpec)
    assert sub.family == "cube"
    assert sub.dim == 2
    assert sub.measure_id() == "cube:2"


def test_marginal_ball_line_slice():
    sub = marginal(make_ball(3), (0,))
    assert isinstance(sub, ProductSpec)
    assert sub.dim == 1
    f = sub.factors[0]
    assert isinstance(f, BallMarginalFactor) and f.ambient_dim == 3
    # one-dimensional shadow of the ball keeps unit variance
    var, _ = quad(lambda y: y * y * np.exp(f.log_density(y)), f.lo, f.hi,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    assert var == pytest.approx(1.0, abs=1e-9)


def test_marginal_without_exact_route_raises():
    with pytest.raises(InputValidationError, match="localizable marginal"):
        marginal(make_ball(3), (0, 2))


def test_marginal_ambient_mismatch():
    # an index outside the ambient dimension, negative ones included, never wraps
    for coords in ((3,), (-1,)):
        with pytest.raises(InputValidationError, match=r"distinct indices in \[0, 3\)"):
            marginal(make_cube(3), coords)


@pytest.mark.parametrize("coords", [(0, 0), ()])
def test_marginal_rejects_repeated_or_no_coordinates(coords):
    with pytest.raises(InputValidationError, match="distinct indices"):
        marginal(make_cube(3), coords)


# ---------------------------------------------------------------------------
# Projection domination


def test_domination_gaussian_with_equality():
    ens = simulate_ensemble(make_gaussian(4), make_uniform(1.0, 1), 256, seed=0)
    rep = check_projection_domination(ens, (0, 1), 1, seed=0)
    assert not rep.failed
    assert [s.check_id for s in rep.sub] == ["projection-equality"]


def test_domination_cube_coordinate_block():
    ens = simulate_ensemble(make_cube(4), make_uniform(1.0, 1), 256, seed=1)
    rep = check_projection_domination(ens, (0, 3), 1, seed=1)
    assert not rep.failed
    assert [s.check_id for s in rep.sub] == ["projection-equality"]
    assert "n_paths=256" in rep.notes


def test_domination_ball_slice_is_one_sided():
    ens = simulate_ensemble(make_ball(3), make_uniform(1.0, 1), 128, seed=2)
    rep = check_projection_domination(ens, (0,), 1, seed=2)
    assert not rep.failed
    assert rep.sub == ()  # dependent coordinates: inequality only


def test_domination_reads_the_ensemble_at_its_grid_index():
    grid = make_geometric(0.1, 10.0, 13, include=(1.0,))
    k = int(np.flatnonzero(grid.points == 1.0)[0])
    rep = check_projection_domination(simulate_ensemble(make_cube(4), grid, 256, seed=1),
                                      (0, 3), k, seed=1)
    assert not rep.failed
    assert rep.notes.startswith("t=1,")


@pytest.mark.parametrize("measure", ["cube:4", "ball:4"])
def test_domination_flags_an_inflated_ensemble_covariance(measure):
    # A_t of the measure scaled by 1.2: its projection outgrows the marginal's
    spec = parse_measure_id(measure)
    coords = (0, 3) if spec.family == "cube" else (0,)
    ens = simulate_ensemble(spec, make_uniform(1.0, 1), 1024, seed=0)
    assert not check_projection_domination(ens, coords, 1, seed=0).failed
    cov = ens.cov.copy()
    cov[:, 1] *= 1.2
    rep = check_projection_domination(dataclasses.replace(ens, cov=cov), coords, 1, seed=0)
    assert rep.failed
    equality = [s for s in rep.sub if s.check_id == "projection-equality"]
    assert [s.failed for s in equality] == ([True] if spec.family == "cube" else [])


def test_domination_needs_localizable_marginal():
    ens = simulate_ensemble(make_ball(3), make_uniform(1.0, 1), 32, seed=0)
    with pytest.raises(InputValidationError, match="localizable marginal"):
        check_projection_domination(ens, (0, 1), 1)


def test_domination_needs_positive_time():
    ens = simulate_ensemble(make_gaussian(2), make_uniform(1.0, 1), 32, seed=0)
    with pytest.raises(InputValidationError, match="t > 0"):
        check_projection_domination(ens, (0,), 0)


# ---------------------------------------------------------------------------
# Catalog sweep


def test_l_bounds_sweep_floor():
    rows, floor = l_bounds_sweep()
    assert len(rows) == 9
    assert not floor.failed
    assert floor.check_id == "l-lower-bound-sweep"
    assert "worst member" in floor.notes
    # worst member is the floor case itself
    assert rows and max(r.l_value for r in rows) < 0.5
    worst_id = floor.notes.split("worst member ")[1].split(";")[0]
    assert worst_id.startswith("gaussian")
