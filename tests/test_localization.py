"""Localization drivers, grids, ensemble statistics, and the process checks."""

import dataclasses
import math

import numpy as np
import pytest

from sloclab import localization, numerics, streams
from sloclab.cli import main
from sloclab.errors import InputValidationError
from sloclab.localization import (
    PathEnsemble,
    TimeGrid,
    check_density_martingale,
    check_derivative_identity,
    check_driver_equivalence,
    check_monotone_trace,
    check_orthogonality,
    check_spectral_bound,
    check_variance_decomposition,
    make_geometric,
    make_uniform,
    martingale_x_grid,
    path_chunks,
    path_keys,
    simulate_ensemble,
    start_paths,
    tilt_blocks,
    trace_square_ratio,
)
from sloclab.measures import make_ball, make_cube, make_gaussian, parse_measure_id


# ---------------------------------------------------------------------------
# Time grids


def test_grid_starts_at_zero():
    with pytest.raises(InputValidationError, match="start at t = 0"):
        TimeGrid(np.array([0.1, 1.0]))


def test_grid_strictly_increasing():
    with pytest.raises(InputValidationError, match="strictly increasing"):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(InputValidationError, match="at least two"):
        TimeGrid(np.array([0.0]))


def test_geometric_ratio_cap():
    with pytest.raises(InputValidationError, match="step ratio"):
        make_geometric(0.01, 100.0, 5)
    grid = make_geometric(0.01, 100.0, 40)
    assert grid.n_points == 41
    assert grid.points[0] == 0.0
    assert grid.points[1] == pytest.approx(0.01)
    assert grid.points[-1] == pytest.approx(100.0)


def test_geometric_include_anchors():
    grid = make_geometric(0.01, 100.0, 40, include=(0.25, 1.0, 4.0))
    for anchor in (0.25, 1.0, 4.0):
        assert np.isclose(grid.points, anchor).any()
    with pytest.raises(InputValidationError, match="anchors"):
        make_geometric(0.01, 100.0, 40, include=(200.0,))


def test_geometric_include_merges_near_duplicates():
    grid = make_geometric(0.01, 100.0, 40, include=(0.01 * (1.0 + 1e-13),))
    base = make_geometric(0.01, 100.0, 40)
    assert grid.n_points == base.n_points


def test_r_points_map():
    grid = make_uniform(3.0, 3)
    assert np.allclose(grid.r_points, grid.points / (1.0 + grid.points))
    assert grid.r_points[0] == 0.0
    assert grid.r_points[-1] == pytest.approx(0.75)


def test_uniform_grid_validation():
    with pytest.raises(InputValidationError):
        make_uniform(0.0, 4)
    with pytest.raises(InputValidationError):
        make_uniform(1.0, 0)


# ---------------------------------------------------------------------------
# Direct driver


def test_direct_driver_reproduces_documented_streams():
    # theta_t = t X + W_t built from the documented keys, bitwise
    spec = make_cube(2)
    grid = make_geometric(0.1, 2.0, 9)
    seed, i = 13, 5
    ens = simulate_ensemble(spec, grid, i + 1, seed)

    x = spec.sample(streams.generator(seed, i, "x"), 1)[0]
    dt = np.diff(grid.points)
    incr = streams.generator(seed, i, "w").standard_normal((len(dt), 2)) * np.sqrt(dt)[:, None]
    w = np.concatenate([np.zeros((1, 2)), np.cumsum(incr, axis=0)])
    expect = grid.points[:, None] * x[None, :] + w
    assert np.array_equal(ens.theta[i], expect)
    # theta_t - W_t is t X at every grid time after the first
    assert np.allclose((ens.theta[i] - w)[1:] / grid.points[1:, None], x, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("measure", ["cube:3", "ball:3", "product:exp,laplace,uniform"])
def test_in_place_direct_theta_matches_stream_keys_on_every_path(measure):
    # the increments, their running sum and t X are written into theta in
    # place; rebuilt per path from the documented keys, bitwise
    spec = parse_measure_id(measure)
    grid = make_geometric(0.05, 20.0, 16)
    seed, m, n = 4, 24, spec.dim
    ens = simulate_ensemble(spec, grid, m, seed)
    dt = np.diff(grid.points)
    for i in range(m):
        x = spec.sample(streams.generator(seed, i, "x"), 1)[0]
        incr = (streams.generator(seed, i, "w").standard_normal((len(dt), n))
                * np.sqrt(dt)[:, None])
        w = np.concatenate([np.zeros((1, n)), np.cumsum(incr, axis=0)])
        assert np.array_equal(ens.theta[i], grid.points[:, None] * x[None, :] + w)


def test_direct_driver_marginal_variance():
    # Var theta_t = t^2 Var X + t = t^2 + t for isotropic rho
    spec = make_cube(1)
    grid = make_uniform(1.0, 4)
    ens = simulate_ensemble(spec, grid, 4096, seed=2)
    v = ens.theta[:, -1, 0].var()
    # Var of the sample variance: (E theta^4 - v^2)/m with E theta^4 = 10.8
    se = math.sqrt((10.8 - 4.0) / 4096)
    assert abs(v - 2.0) < 4.0 * se


def test_time_zero_state_is_exact():
    spec = parse_measure_id("product:exp,laplace")
    ens = simulate_ensemble(spec, make_geometric(0.1, 1.0, 7), 8, seed=0)
    assert np.all(ens.theta[:, 0] == 0.0)
    assert np.all(ens.log_z[:, 0] == 0.0)
    assert np.allclose(ens.mean[:, 0], 0.0)
    assert np.allclose(ens.cov[:, 0], np.ones(2))


def test_cube_pathwise_spectral_bound_tight_at_large_t():
    ens = simulate_ensemble(make_cube(2), make_geometric(1.0, 100.0, 13), 64, seed=3)
    lam_max = ens.cov.max(axis=-1)
    t = ens.grid.points
    assert (lam_max[:, 1:] * t[1:] <= 1.0 + 1e-9).all()
    # at t = 100 the bound is nearly saturated
    assert lam_max[:, -1].max() * 100.0 > 0.999


def test_unknown_driver_rejected():
    with pytest.raises(InputValidationError, match="driver"):
        simulate_ensemble(make_cube(1), make_uniform(1.0, 4), 4, seed=0, driver="milstein")
    with pytest.raises(InputValidationError, match="n_paths"):
        simulate_ensemble(make_cube(1), make_uniform(1.0, 4), 0, seed=0)


# ---------------------------------------------------------------------------
# SDE driver


def _euler_variance(t_max, n_steps):
    # exact variance recursion of the Euler chain for the Gaussian drift
    dt = t_max / n_steps
    v = 0.0
    for k in range(n_steps):
        t_k = k * dt
        v = (1.0 + dt / (1.0 + t_k)) ** 2 * v + dt
    return v


@pytest.mark.parametrize("n_steps", [16, 64])
def test_sde_driver_matches_euler_recursion(n_steps):
    # for the Gaussian the Euler chain is linear, so its variance recursion
    # is exact; the simulated ensemble must match it, not the continuum value
    m = 8192
    ens = simulate_ensemble(make_gaussian(1), make_uniform(1.0, n_steps), m, seed=5,
                            driver="sde")
    v_target = _euler_variance(1.0, n_steps)
    v_emp = ens.theta[:, -1, 0].var()
    se = v_target * math.sqrt(2.0 / (m - 1))  # exactly Gaussian chain
    assert abs(v_emp - v_target) < 4.0 * se


def test_euler_recursion_first_order_in_dt():
    # halving the step roughly halves the weak error against Var = t^2 + t
    gap_coarse = abs(_euler_variance(1.0, 16) - 2.0)
    gap_fine = abs(_euler_variance(1.0, 32) - 2.0)
    assert 1.7 < gap_coarse / gap_fine < 2.3


def test_drivers_share_brownian_increments():
    # same (seed, i) means identical dW for both drivers; for the Gaussian,
    # theta_sde(1) = 2 int dW/(1+s) and theta_direct(1) = X + W_1, so the
    # shared noise forces corr = int_0^1 ds/(1+s) = ln 2 at t = 1
    spec = make_gaussian(1)
    grid = make_uniform(1.0, 64)
    m = 4096
    sde = simulate_ensemble(spec, grid, m, seed=9, driver="sde")
    direct = simulate_ensemble(spec, grid, m, seed=9, driver="direct")
    fresh = simulate_ensemble(spec, grid, m, seed=9, driver="direct", salt="ks")
    a, b, c = sde.theta[:, -1, 0], direct.theta[:, -1, 0], fresh.theta[:, -1, 0]
    assert np.corrcoef(a, b)[0, 1] == pytest.approx(math.log(2.0), abs=0.05)
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.07  # salted ensemble is independent


def test_sde_path_runs_on_product_and_ball():
    e1 = simulate_ensemble(parse_measure_id("product:exp,uniform"), make_uniform(0.5, 8), 1,
                           seed=1, driver="sde")
    assert np.isfinite(e1.theta).all()
    assert e1.cov.shape == (1, 9, 2)  # products keep diagonals
    e2 = simulate_ensemble(make_ball(2), make_uniform(0.5, 4), 2, seed=1, driver="sde")
    assert np.isfinite(e2.theta).all()
    assert e2.cov.shape == (2, 5, 2, 2)  # the ball's exact tilt is a full matrix


# ---------------------------------------------------------------------------
# Determinism


def test_ensemble_prefix_matches_bitwise():
    # path i depends only on its key (seed, i), never on n_paths
    for spec, driver in ((make_cube(2), "direct"), (make_ball(2), "sde"),
                         (parse_measure_id("product:exp,laplace"), "sde")):
        grid = make_geometric(0.5, 2.0, 5)
        six = simulate_ensemble(spec, grid, 6, seed=21, driver=driver)
        three = simulate_ensemble(spec, grid, 3, seed=21, driver=driver)
        for name in ("theta", "mean", "cov", "log_z"):
            assert np.array_equal(getattr(six, name)[:3], getattr(three, name)), name


@pytest.mark.parametrize("driver", ["direct", "sde"])
@pytest.mark.parametrize("measure, m, block_bytes, chunk_bytes, chunk_times, widths", [
    # blocks of one grid time, chunks of three: the last chunk is ragged
    ("cube:2", 8, 1, 1, 3, [3] * 5 + [2]),
    # chunks of one grid time, the first of them t = 0 alone
    ("ball:3", 8, 1, 1, 1, [1] * 17),
    # one grid time's theta (m n 8 = 48 bytes) exceeds the chunk's budget:
    # a chunk is still one block, here of two grid times
    ("ball:3", 2, 288, 47, 1, [2] * 8 + [1]),
    # one path, chunks of two blocks of two grid times
    ("cube:3", 1, 48, 96, 1, [4] * 4 + [1]),
])
def test_chunked_paths_are_the_whole_arrays_bits(monkeypatch, driver, measure, m, block_bytes,
                                                 chunk_bytes, chunk_times, widths):
    # start_paths carries each path's stream, its running W (direct) and the
    # Euler step (sde) from chunk to chunk, so every chunked number is the
    # one the whole-array route computes
    spec, grid = parse_measure_id(measure), make_geometric(0.05, 20.0, 16)
    whole = simulate_ensemble(spec, grid, m, seed=3, driver=driver)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(localization, "CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(localization, "CHUNK_TIMES", chunk_times)
    chunks = path_chunks(spec, grid.n_points, m)
    assert [c.stop - c.start for c in chunks] == widths
    blocks = [(b, *(a.copy() for a in arrays)) for b, *arrays in tilt_blocks(
        spec, grid, start_paths(spec, grid, path_keys(3, m), driver), driver, None)]
    assert [b.start for b, *_ in blocks] == [0] + [b.stop for b, *_ in blocks[:-1]]
    assert blocks[-1][0].stop == grid.n_points
    for i, name in enumerate(("theta", "mean", "cov", "log_z"), 1):
        chunked = np.concatenate([block[i] for block in blocks], axis=1)
        assert chunked.tobytes() == getattr(whole, name).tobytes(), name


def test_sde_ensemble_keeps_the_direct_drivers_brownian_end():
    # driver-equivalence pairs the sde paths with t X + W_t, W_t taken from
    # the sde ensemble's own increments: the direct driver's W_t to the bit
    spec, grid = parse_measure_id("product:exp,uniform"), make_uniform(1.0, 16)
    sde = simulate_ensemble(spec, grid, 64, seed=2, driver="sde")
    direct = simulate_ensemble(spec, grid, 64, seed=2)
    assert sde.w_end.tobytes() == direct.w_end.tobytes()
    assert not np.array_equal(direct.theta[:, -1], direct.w_end)


def test_simulation_is_deterministic():
    spec = make_ball(3)
    grid = make_geometric(0.5, 2.0, 5)
    a = simulate_ensemble(spec, grid, 4, seed=8, driver="sde")
    b = simulate_ensemble(spec, grid, 4, seed=8, driver="sde")
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.log_z, b.log_z)


def test_salt_gives_independent_ensemble():
    spec = make_cube(1)
    grid = make_uniform(1.0, 4)
    a = simulate_ensemble(spec, grid, 4, seed=8)
    b = simulate_ensemble(spec, grid, 4, seed=8, salt="ks")
    assert not np.array_equal(a.theta, b.theta)


def test_workers_do_not_change_results(tmp_path, capsys):
    # --workers is accepted and validated but has no effect: every tilt is exact
    written = []
    for workers in ("1", "3"):
        out = tmp_path / workers
        assert main(["simulate", "--measure", "ball:2", "--paths", "6", "--seed", "4",
                     "--grid-points", "10", "--t-min", "0.5", "--t-max", "2",
                     "--workers", workers, "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in ("stats.csv", "follmer.csv")])
    capsys.readouterr()
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# Ensemble statistics


def test_gaussian_stats_are_deterministic_in_cov():
    ens = simulate_ensemble(make_gaussian(3), make_geometric(0.1, 10.0, 13), 32, seed=1)
    assert np.ptp(ens.cov, axis=0).max() == 0.0  # A_t = Id/(1+t) on every path
    stats = ens.stats
    tau = 1.0 + stats.t
    assert np.allclose(ens.cov.mean(axis=0), 1.0 / tau[:, None], atol=1e-14)
    assert np.allclose(stats.eig_min, 1.0 / tau, atol=1e-14)
    assert np.allclose(stats.eig_max, 1.0 / tau, atol=1e-14)


def test_trace_square_at_time_zero():
    ens = simulate_ensemble(make_cube(8), make_geometric(0.1, 1.0, 7), 3, seed=0)
    stats = ens.stats
    assert stats.mean_tr_cov_sq[0] == pytest.approx(8.0, abs=1e-12)
    # A_0 = Id says nothing about the bound, so the maximum runs over t > 0 only
    rep = trace_square_ratio(ens)
    assert rep.verdict == "INFO"
    assert rep.statistic == stats.mean_tr_cov_sq[1:].max() / 8.0
    assert rep.statistic < 1.0
    assert "max at t=0.1;" in rep.notes


def test_derivative_identity_needs_five_points():
    ens = simulate_ensemble(make_cube(1), make_uniform(1.0, 3), 8, seed=0)
    with pytest.raises(InputValidationError, match="5 grid times"):
        check_derivative_identity(ens)


# ---------------------------------------------------------------------------
# Checks on healthy ensembles


@pytest.fixture(scope="module")
def cube2_ensemble():
    return simulate_ensemble(make_cube(2), make_geometric(0.05, 20.0, 16), 512, seed=0)


def test_variance_decomposition_passes(cube2_ensemble):
    rep = check_variance_decomposition(cube2_ensemble)
    assert not rep.failed
    assert rep.check_id == "variance-decomposition"


def test_derivative_identity_passes(cube2_ensemble):
    rep = check_derivative_identity(cube2_ensemble)
    assert not rep.failed
    assert {s.check_id for s in rep.sub} == {"derivative-identity",
                                             "derivative-identity-trace"}


def test_spectral_bound_passes(cube2_ensemble):
    rep = check_spectral_bound(cube2_ensemble)
    assert not rep.failed
    assert "violations=0" in rep.notes


def test_orthogonality_passes(cube2_ensemble):
    rep = check_orthogonality(cube2_ensemble)
    assert not rep.failed


def test_monotone_trace_passes(cube2_ensemble):
    rep = check_monotone_trace(cube2_ensemble)
    assert not rep.failed


def test_orthogonality_exact_for_gaussian():
    ens = simulate_ensemble(make_gaussian(2), make_geometric(0.1, 10.0, 13), 16, seed=6)
    rep = check_orthogonality(ens)
    # a = theta/(1+t) identically: the residual is zero to roundoff
    assert rep.statistic < 1e-12
    assert not rep.failed


def test_spectral_bound_flags_offending_path():
    # hand-build an ensemble with one inflated covariance
    grid = make_uniform(1.0, 2)
    m, k, n = 5, 3, 2
    cov = np.tile(np.eye(n) * 0.3, (m, k, 1, 1))
    cov[3, 2] = np.eye(n) * 1.8  # t=1: 1.8 > 1/t
    ens = PathEnsemble(spec=None, grid=grid,
                       theta=np.zeros((m, k, n)), mean=np.zeros((m, k, n)),
                       cov=cov, log_z=np.zeros((m, k)), w_end=np.zeros((m, n)))
    rep = check_spectral_bound(ens)
    assert rep.failed
    assert "offending paths [3]" in rep.notes
    # the index is (path, grid time)
    assert rep.notes.endswith(", worst at index (3, 2)")


def test_derivative_identity_flags_scaled_time(cube2_ensemble):
    cube2_ensemble.stats  # a cached reduction must not leak into the copy
    cov = cube2_ensemble.cov.copy()
    cov[:, 8] *= 1.2
    bad = dataclasses.replace(cube2_ensemble, cov=cov)
    rep = check_derivative_identity(bad)
    assert rep.failed
    assert [s.check_id for s in rep.sub if s.failed] == ["derivative-identity",
                                                          "derivative-identity-trace"]
    assert check_variance_decomposition(bad).failed


def test_derivative_identity_flags_non_finite_path(cube2_ensemble):
    cov = cube2_ensemble.cov.copy()
    cov[0, 5, 0] = np.nan
    rep = check_derivative_identity(dataclasses.replace(cube2_ensemble, cov=cov))
    assert rep.failed
    assert "non-finite statistic" in rep.notes


def test_derivative_identity_fails_on_a_non_finite_path():
    # every entry of one coordinate is NaN: the budget has no finite node to
    # copy from, and the check FAILs with its reason instead of raising
    ens = simulate_ensemble(make_cube(2), make_geometric(0.05, 20.0, 16), 64, seed=0)
    cov = ens.cov.copy()
    cov[0, :, 0] = np.nan
    rep = check_derivative_identity(dataclasses.replace(ens, cov=cov))
    assert rep.failed
    assert "non-finite" in rep.notes
    assert all(s.failed and "non-finite" in s.notes for s in rep.sub)


def test_martingale_cube():
    ens = simulate_ensemble(make_cube(1), make_geometric(0.05, 20.0, 16), 512, seed=0)
    rep = check_density_martingale(ens)
    assert not rep.failed
    assert "x-points" in rep.notes


def test_martingale_needs_one_dim():
    with pytest.raises(InputValidationError, match="1D"):
        check_density_martingale(simulate_ensemble(make_cube(2), make_uniform(1.0, 4), 8,
                                                   seed=0))


@pytest.mark.parametrize("measure, lo, hi", [
    ("ball:1", -math.sqrt(3.0), math.sqrt(3.0)),     # the ball's support, no factors
    ("cube:1", -math.sqrt(3.0), math.sqrt(3.0)),
    ("product:exp", -1.0, 4.0),                      # cut to [-4, 4]
    ("gaussian:1", -4.0, 4.0),
])
def test_martingale_default_x_grid_spans_the_support(measure, lo, hi):
    ens = simulate_ensemble(parse_measure_id(measure), make_geometric(0.05, 20.0, 16), 64,
                            seed=0)
    pad = 0.05 * (hi - lo)
    x_grid = martingale_x_grid(ens.spec)
    np.testing.assert_array_equal(x_grid, np.linspace(lo + pad, hi - pad, 21))
    assert check_density_martingale(ens).notes.startswith("21 x-points,")


def test_martingale_fails_on_a_shifted_normalizer():
    # log Z off by 0.05 on every path scales every E p_t(x) by exp(-0.05)
    ens = simulate_ensemble(make_cube(1), make_geometric(0.05, 20.0, 16), 512, seed=0)
    assert not check_density_martingale(ens).failed
    rep = check_density_martingale(dataclasses.replace(ens, log_z=ens.log_z + 0.05))
    assert rep.failed


def test_driver_equivalence_cube():
    rep = check_driver_equivalence(make_cube(1), seed=0, n_paths=2000)
    assert not rep.failed
    ids = {s.check_id for s in rep.sub}
    assert ids == {"driver-equivalence-mean", "driver-equivalence-second-moment",
                   "driver-equivalence-ks"}
