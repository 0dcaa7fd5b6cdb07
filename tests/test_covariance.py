"""Diagonal covariance storage: same verdicts as full matrices, a fraction of the memory."""

import csv
import dataclasses
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sloclab import covariance, numerics
from sloclab.cli import _fmt, main
from sloclab.follmer import check_gamma_properties, check_xr_law, fisher_energy, to_follmer
from sloclab.infotheory import (de_bruijn_check, deficit_chain_audit, deficit_lower_bound,
                                 epi_deficit, gamma_spread)
from sloclab.localization import (check_density_martingale, check_derivative_identity,
                                  check_driver_equivalence, check_monotone_trace,
                                  check_orthogonality, check_spectral_bound,
                                  check_variance_decomposition, ensemble_stats, make_geometric,
                                  path_chunks, path_keys, simulate_ensemble, start_paths,
                                  tilt_blocks, trace_square_ratio)
from sloclab.measures import parse_measure_id
from sloclab.numerics import jackknife_se, time_blocks

MEASURES = ("cube:4", "product:exp,laplace,uniform", "gaussian:3")
_INDEX = re.compile(r" worst at index \(([\d, ]+)\)")


def _index(rep):
    """The entry an entrywise report names, or None."""
    found = _INDEX.search(rep.notes)
    return None if found is None else [int(v) for v in re.findall(r"\d+", found.group(1))]


def _full(diagonals):
    """Full matrices (..., n, n) with ``diagonals`` (..., n) on the diagonal."""
    n = diagonals.shape[-1]
    out = np.zeros(diagonals.shape + (n,))
    out[..., np.arange(n), np.arange(n)] = diagonals
    return out


def _reports(spec, ens, frame):
    """Every check that reads a covariance, flattened, and the deficit lower bound."""
    checks = [check_variance_decomposition(ens), check_derivative_identity(ens),
              check_spectral_bound(ens), check_orthogonality(ens), check_monotone_trace(ens),
              check_gamma_properties(frame), check_xr_law(frame, seed=0),
              de_bruijn_check(spec, frame), trace_square_ratio(ens),
              deficit_chain_audit(epi_deficit(spec).delta, frame, xi=0.5)]
    low = deficit_lower_bound(gamma_spread(frame, xi=0.5))
    return [f for rep in checks for f in rep.flat()], low


def _structural_zero(full, diagonal):
    """``full`` names an off-diagonal zero, an entry ``diagonal`` does not store."""
    index, stored = _index(full), _index(diagonal)
    return (stored is not None and len(index) == len(stored) + 1
            and index[-1] != index[-2] and full.statistic == 0.0)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("measure", MEASURES)
def test_diagonal_storage_matches_full_matrices(measure):
    spec = parse_measure_id(measure)
    ens = simulate_ensemble(spec, make_geometric(0.01, 100.0, 40, include=(1.0,)), 256,
                            seed=0)
    frame = to_follmer(ens)
    assert ens.cov.shape == ens.mean.shape and frame.gamma.shape == frame.v.shape

    full_ens = dataclasses.replace(ens, cov=_full(ens.cov))
    full_frame = dataclasses.replace(frame, cov_t=full_ens.cov)
    stored, low = _reports(spec, ens, frame)
    full, full_low = _reports(spec, full_ens, full_frame)

    assert [f.check_id for f in stored] == [f.check_id for f in full]
    moved = {f.check_id for f, g in zip(full, stored) if _structural_zero(f, g)}
    for f, g in zip(full, stored):
        assert f.verdict == g.verdict, f.check_id
        # a composite may quote a sub-report that moved
        quotes_moved = any(s.check_id in moved for s in f.flat()[1:])
        if f.check_id in moved or quotes_moved:
            continue
        assert _close(f.statistic, g.statistic), (f.check_id, f.statistic, g.statistic)
        assert _close(f.tolerance, g.tolerance), f.check_id
        assert _close(f.stderr, g.stderr), f.check_id
        i, j = _index(f), _index(g)
        # a diagonal entry (k, i, i) is (k, i) in diagonal storage
        assert i == j or (len(i) == len(j) + 1 and i[-1] == i[-2] and i[:-1] == j), \
            f.check_id
    # only entrywise derivative gates of a diagonal covariance can land on a
    # structural zero under full storage
    assert moved <= {"derivative-identity", "gamma-derivative"}
    assert _close(low.parity.statistic, full_low.parity.statistic)
    assert _close(low.estimate.value, full_low.estimate.value)
    assert _close(low.estimate.stderr, full_low.estimate.stderr)


MIXED16 = "product:" + ",".join(["exp", "laplace", "uniform", "truncgauss"] * 3
                                + ["gaussian"] * 4)


@pytest.mark.parametrize("measure", ["cube:16", "gaussian:16", MIXED16])
def test_simulate_path_peaks_below_one_full_covariance_array(measure):
    grid = make_geometric()
    m, n = 512, 16
    one_full = m * grid.n_points * n * n * 8
    tracemalloc.start()
    try:
        ens = simulate_ensemble(parse_measure_id(measure), grid, m, seed=0)
        ens.stats
        fisher_energy(to_follmer(ens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_full, (peak, one_full)


def test_path_layer_peaks_in_units_of_one_path_array():
    # theta, mean and the diagonal cov are the ensemble's three (m, K, n)
    # arrays; the direct driver writes theta in place, and the Fisher energy
    # reads |v_r|^2 from theta and mean one grid time at a time, so it adds
    # no path array beside them
    grid = make_geometric()
    m, n = 512, 16
    one_path = m * grid.n_points * n * 8
    tracemalloc.start()
    try:
        ens = simulate_ensemble(parse_measure_id("cube:16"), grid, m, seed=0)
        simulated = tracemalloc.get_traced_memory()[1]
        ens.stats
        fisher_energy(to_follmer(ens))
        framed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert simulated < 4.5 * one_path, simulated / one_path
    assert framed < 4.5 * one_path, framed / one_path


def test_frame_and_stats_allocate_no_whole_path_array():
    # one (m, K, n) array is 10.75 MiB here: to_follmer builds none of x, v
    # and gamma, and ensemble_stats' temporaries cover one block of grid
    # times (21.5 MiB above its inputs when they covered whole arrays)
    ens = simulate_ensemble(parse_measure_id("cube:32"), make_geometric(), 1024, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = to_follmer(ens)
        framed = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ensemble_stats(ens)
        stats_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not {"x", "v", "gamma"} & vars(frame).keys()
    assert framed < 1 << 20, framed
    assert stats_peak < 4 << 20, stats_peak


@pytest.mark.parametrize("measure, n_paths, n_blocks", [
    ("cube:32", 1024, 41), ("ball:8", 256, 21), ("product:exp,laplace,uniform", 4096, 21)])
def test_blocked_stats_match_whole_arrays_bitwise(measure, n_paths, n_blocks):
    spec, grid = parse_measure_id(measure), make_geometric()
    for driver in ("direct", "sde"):
        ens = simulate_ensemble(spec, grid, n_paths, seed=0, driver=driver)
        assert len(time_blocks(grid.n_points, ens.cov[:, 0].nbytes)) == n_blocks
        stats = ensemble_stats(ens)
        mean, se = covariance.outer_mean_se(ens.mean, ens.mean, ens.cov)
        assert np.array_equal(stats.mean_decomp, mean)
        assert np.array_equal(stats.se_decomp, se)
        tr_sq = covariance.trace(covariance.square(ens.cov)).mean(axis=0)
        assert np.array_equal(stats.mean_tr_cov_sq, tr_sq)
        assert np.array_equal(stats.mean_tr_cov, covariance.trace(ens.cov).mean(axis=0))
        lo, hi = covariance.eig_extremes(ens.cov.mean(axis=0, keepdims=True))
        assert np.array_equal(stats.eig_min, lo[0]) and np.array_equal(stats.eig_max, hi[0])


@pytest.mark.parametrize("driver", ["direct", "sde"])
@pytest.mark.parametrize("measure, n_paths", [("cube:32", 1024), ("ball:8", 256),
                                              ("product:exp,laplace,uniform", 4096),
                                              ("product:exp", 1024), ("gaussian:1", 1024),
                                              ("ball:1", 1024)])
def test_simulate_writes_the_stored_ensembles_values(tmp_path, capsys, measure, n_paths, driver):
    # simulate folds each grid time as the driver tilts it and holds
    # no whole mean or cov; every cell it writes is the stored route's value,
    # also where a grid time of one coordinate gives each path one number
    assert main(["simulate", "--measure", measure, "--paths", str(n_paths),
                 "--driver", driver, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    ens = simulate_ensemble(parse_measure_id(measure), make_geometric(0.01, 100.0, 40),
                            n_paths, seed=0, driver=driver)
    stats, frame = ensemble_stats(ens), to_follmer(ens)
    curve = fisher_energy(frame)
    lo, hi = covariance.eig_extremes(frame.gamma.mean(axis=0, keepdims=True))
    dev = np.abs(stats.mean_decomp - np.eye(stats.dim)).max(axis=(1, 2))
    expected = {
        "stats.csv": {"t": stats.t, "r": stats.r, "trace_cov": stats.mean_tr_cov,
                      "trace_cov_se": stats.se_tr_cov, "trace_cov_sq": stats.mean_tr_cov_sq,
                      "trace_cov_sq_se": stats.se_tr_cov_sq, "eig_min": stats.eig_min,
                      "eig_max": stats.eig_max, "decomp_dev": dev},
        "follmer.csv": {"r": curve.r, "fisher": curve.value, "fisher_se": curve.stderr,
                        "fisher_bound": curve.bound, "gamma_eig_min": lo[0],
                        "gamma_eig_max": hi[0]},
    }
    for name, columns in expected.items():
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(columns), name
        assert rows == [[_fmt(x) for x in row] for row in zip(*columns.values())], name


DERIVATIVE_GATES = ("derivative-identity", "derivative-identity-trace",
                    "score-energy-derivative", "gamma-derivative")


def _derivative_reports(ens):
    """The four derivative sub-reports of an ensemble and its frame, by id."""
    subs = check_derivative_identity(ens).sub + check_gamma_properties(to_follmer(ens)).sub
    return {s.check_id: s for s in subs if s.check_id in DERIVATIVE_GATES}


@pytest.mark.parametrize("measure", ["cube:2", "ball:3"])
def test_derivative_gates_match_in_one_node_blocks(measure, monkeypatch):
    # cube:2 stores diagonal covariances and ball:3 full ones; at BLOCK_BYTES
    # 256 KiB each gate takes ball:3's 14 interior nodes in two blocks of 7,
    # at 1 byte in 14
    ens = simulate_ensemble(parse_measure_id(measure), make_geometric(0.05, 20.0, 16), 512,
                            seed=0)
    node_bytes = 512 * 9 * 8  # one node of ball:3's largest y, v (x) v or A_t
    assert len(time_blocks(14, node_bytes)) == 2
    whole = _derivative_reports(ens)
    assert sorted(whole) == sorted(DERIVATIVE_GATES)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1)
    assert len(time_blocks(14, 8)) == 14
    assert _derivative_reports(ens) == whole


def test_gamma_properties_peaks_below_one_dense_path_array():
    # one (m, K, n, n) array is 41 MiB here; v (x) v and (Id - Gamma)^2 are
    # built a block of grid times at a time, where building them whole made
    # the check peak at 206 MiB
    grid = make_geometric()
    m, n = 512, 16
    one_dense = m * grid.n_points * n * n * 8
    frame = to_follmer(simulate_ensemble(parse_measure_id("cube:16"), grid, m, seed=0))
    frame.v, frame.gamma
    tracemalloc.start()
    try:
        rep = check_gamma_properties(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "score-energy-derivative" in {s.check_id for s in rep.sub}
    assert peak < one_dense, peak / one_dense


def test_streamed_simulate_peaks_within_its_path_array_bounds(tmp_path, capsys):
    # simulate holds no path array whole: theta comes in chunks of grid
    # times (`path_chunks`) and mean, cov, |v_r|^2 and Gamma_r are folded one
    # grid time at a time, in `tilt_table`'s own arrays and reused buffers.
    # On cube:32 (8 grid times a chunk) the peak is one chunk of theta, one
    # grid time's tilt and the fold's scratch: 0.73 path arrays under the
    # direct driver, 0.68 under sde, where tilt blocks of four grid times
    # peaked at 1.08, whole theta beside a block at 1.69, a whole-row tilt
    # at 2.36 and the stored ensemble and the frame's v at 4.3.  The
    # 3-dimensional product takes its 41 grid times in one chunk, and its
    # per-path scalars, (m, K) each, are a third of a path array: 3.3 path
    # arrays, where one tilt block of all 41 grid times peaked at 8.4
    for measure, n, bound in (("cube:32", 32, 0.8), ("product:exp,uniform,uniform", 3, 4.0)):
        one_path = 1024 * 41 * n * 8
        for driver in ("direct", "sde"):
            tracemalloc.start()
            try:
                assert main(["simulate", "--measure", measure, "--paths", "1024",
                             "--driver", driver, "--out", str(tmp_path / driver)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "(41 grid times" in capsys.readouterr().out
            assert peak < bound * one_path, (measure, driver, peak / one_path)


def test_dense_ball_tilt_loop_copies_no_grid_time():
    # each step is tilt_table's own arrays, which build the covariances in
    # one (m, n, n) array: the loop holds the step it yielded and builds the
    # next one, about 2.4 grid times above theta's chunk, where a copy into
    # a block array of its own took 3.3
    spec, grid, m, n = parse_measure_id("ball:48"), make_geometric(), 128, 48
    one_time = m * n * n * 8
    chunk = max(c.stop - c.start for c in path_chunks(spec, grid.n_points, m)) * m * n * 8
    tracemalloc.start()
    try:
        for b, *_ in tilt_blocks(spec, grid, start_paths(spec, grid, path_keys(0, m), "direct"),
                                 "direct"):
            assert b.stop - b.start == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - chunk < 2.6 * one_time, (peak - chunk) / one_time


def test_sde_driver_peaks_below_a_separate_increment_array():
    # the sde driver draws its increments into theta and steps onto them: theta,
    # mean and cov, with no fourth (m, K, n) array of increments beside them
    grid = make_geometric()
    m, n = 512, 16
    one_path = m * grid.n_points * n * 8
    tracemalloc.start()
    try:
        simulate_ensemble(parse_measure_id("cube:16"), grid, m, seed=0, driver="sde")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.3 * one_path, peak / one_path


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count follows glibc's malloc")
def test_tilt_loop_does_not_refault_its_temporaries(tmp_path):
    # the tilt loop's temporaries are block-sized and the kernel's workspace
    # is reused, so neither driver faults pages back in at every grid time:
    # about 5,500 minor faults for the stored ensemble, where whole-row
    # temporaries took 82,000 under the sde driver (glibc 2.36, numpy 2.4).
    # simulate's fold reuses its scratch too and the tilt copies into no
    # block array, so it takes about 2,100, where tilt blocks of four grid
    # times took 3,600 and folding into fresh temporaries 12,100.  Both the
    # stored ensemble and simulate's streamed fold run the one driver.
    probe = ("import resource\n"
             "from sloclab.cli import main\n"
             "from sloclab.localization import make_geometric, simulate_ensemble\n"
             "from sloclab.measures import make_cube\n"
             "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
             "{run}\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    grid = "make_geometric(0.01, 100.0, 40)"
    runs = [(f"simulate_ensemble(make_cube(32), {grid}, 1024, 0, driver={driver!r})", 20_000)
            for driver in ("direct", "sde")]
    runs += [("main(['simulate', '--measure', 'cube:32', '--paths', '1024', "
              f"'--driver', {driver!r}, '--out', {str(tmp_path)!r}])", 5_000)
             for driver in ("direct", "sde")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    for run, bound in runs:
        proc = subprocess.run([sys.executable, "-c", probe.format(run=run)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < bound, run


@pytest.mark.parametrize("layout", ["none", "diagonal", "full"])
def test_outer_moments_match_per_path_outer_products(layout):
    rng = np.random.default_rng(3)
    m, k, n = 200, 5, 4
    u = rng.standard_normal((m, k, n)) + 0.5
    w = rng.standard_normal((m, k, n)) * 2.0
    cov = {"none": None, "diagonal": rng.random((m, k, n)),
           "full": rng.random((m, k, n, n))}[layout]
    per_path = np.einsum("mki,mkj->mkij", u, w)
    if cov is not None:
        per_path = per_path + (_full(cov) if cov.ndim == 3 else cov)
    mean, se = covariance.outer_mean_se(u, w, cov)
    assert np.allclose(mean, per_path.mean(axis=0), rtol=1e-12, atol=1e-14)
    assert np.allclose(se, jackknife_se(per_path), rtol=1e-10, atol=1e-14)


def test_diagonal_helpers_match_full_matrix_algebra():
    diag = np.random.default_rng(4).random((6, 5, 3))
    full = _full(diag)
    eig = np.linalg.eigvalsh(full)
    assert np.array_equal(covariance.dense(diag), full)
    assert covariance.dense(full) is full
    for cov in (diag, full):
        assert np.allclose(covariance.trace(cov), np.trace(full, axis1=-2, axis2=-1))
        assert np.allclose(covariance.dense(covariance.square(cov)), full @ full)
        assert np.allclose(covariance.frob_sq(cov), (full ** 2).sum(axis=(-2, -1)))
        lo, hi = covariance.eig_extremes(cov)
        assert np.allclose(lo, eig[..., 0]) and np.allclose(hi, eig[..., -1])
        assert np.allclose(covariance.dense(cov - covariance.identity(cov)), full - np.eye(3))
        scaled = cov * covariance.per_time(np.arange(1.0, 6.0), cov)
        assert np.allclose(covariance.dense(scaled), full * np.arange(1.0, 6.0)[:, None, None])
    # one grid time, as tilt_table returns it
    assert np.array_equal(covariance.dense_rows(diag[:, 2]), full[:, 2])
    rows = full[:, 2]
    assert covariance.dense_rows(rows) is rows


@pytest.mark.parametrize("helper", [covariance.trace, covariance.square, covariance.frob_sq,
                                    covariance.eig_extremes, covariance.identity,
                                    covariance.dense])
def test_helpers_reject_arrays_without_path_and_time_axes(helper):
    # a path reduction without keepdims has lost an axis and is no layout
    with pytest.raises(ValueError, match="covariance array"):
        helper(np.ones((5, 3)))
    with pytest.raises(ValueError, match="covariance per row"):
        covariance.dense_rows(np.ones((6, 5, 3, 3)))


def _blocked_reports(spec, ens, frame, delta):
    """Every check that reads the stored ensemble or its frame in blocks of grid times."""
    reports = {"orthogonality": check_orthogonality(ens),
               "spectral-bound": check_spectral_bound(ens),
               "gamma-properties": check_gamma_properties(frame),
               "xr-law": check_xr_law(frame, seed=0),
               "deficit-chain": deficit_chain_audit(delta, frame, xi=0.5),
               "deficit-lower-bound": deficit_lower_bound(gamma_spread(frame, xi=0.5))}
    if spec.dim == 1:
        reports["martingale"] = check_density_martingale(ens)
    return reports


@pytest.mark.parametrize("measure", ["cube:2", "ball:3", "product:exp,laplace,uniform",
                                     "product:exp"])
def test_block_budget_moves_no_report(measure, monkeypatch):
    # verdicts, statistics, tolerances and notes (with the worst index) are
    # the same whether one block holds the whole grid or one grid time; the
    # one-coordinate product reduces one number a path in its one-time blocks
    spec = parse_measure_id(measure)
    ens = simulate_ensemble(spec, make_geometric(0.01, 100.0, 40, include=(1.0,)), 256, seed=0)
    frame, delta = to_follmer(ens), epi_deficit(spec).delta
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1 << 40)
    assert ens.blocks() == [slice(0, ens.grid.n_points)]
    whole = _blocked_reports(spec, ens, frame, delta)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1)
    assert len(ens.blocks()) == ens.grid.n_points
    assert _blocked_reports(spec, ens, frame, delta) == whole
    assert not {"x", "v", "gamma"} & vars(frame).keys()


@pytest.mark.parametrize("measure", ["product:exp", "gaussian:1", "ball:1"])
def test_block_budget_moves_no_ensemble_stat(measure, monkeypatch):
    # a one-time block of a one-coordinate ensemble gives each path one
    # number, which numpy would add pairwise; every statistic is the one of
    # a single block of the whole grid.  Each budget simulates its own
    # ensemble, as `PathEnsemble.stats` is cached
    spec, grid = parse_measure_id(measure), make_geometric()
    runs = []
    for budget in (1 << 40, 1):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", budget)
        ens = simulate_ensemble(spec, grid, 1024, seed=0)
        assert len(ens.blocks()) == (1 if budget > 1 else grid.n_points)
        runs.append((ensemble_stats(ens), check_variance_decomposition(ens),
                     check_spectral_bound(ens), trace_square_ratio(ens)))
    (whole, *whole_reports), (split, *split_reports) = runs
    for field in dataclasses.fields(whole):
        assert np.array_equal(getattr(whole, field.name), getattr(split, field.name)), field.name
    assert split_reports == whole_reports


@pytest.mark.parametrize("measure, n_paths", [("product:exp,uniform,uniform", 1024),
                                              ("ball:8", 256)])
def test_blocked_checks_peak_within_a_few_blocks(measure, n_paths):
    # above the stored ensemble each check holds a few blocks of grid times
    # (256 KiB, BLOCK_BYTES) and a few per-path scalar curves (one number a
    # path and grid time); driver-equivalence one chunk of its theta and its
    # tilts.  Reading whole x, v or Gamma arrays, or storing the sde
    # ensemble, peaked at 3.4-33 MiB on ball:8 and 1.8-7.2 MiB on the
    # product (the deficit chain's 3.1 MiB there is mostly its scalar curves)
    spec = parse_measure_id(measure)
    grid = make_geometric(0.01, 100.0, 40, include=(1.0,))
    ens = simulate_ensemble(spec, grid, n_paths, seed=0)
    frame, delta = to_follmer(ens), epi_deficit(spec).delta
    big, scalars = 1 << 18, n_paths * grid.n_points * 8
    chunk = path_chunks(spec, 65, n_paths)[0]
    theta_chunk = n_paths * (chunk.stop - chunk.start) * spec.dim * 8
    runs = {"orthogonality": (lambda: check_orthogonality(ens), 6 * big),
            "spectral-bound": (lambda: check_spectral_bound(ens), 2 * scalars + 4 * big),
            "gamma-properties": (lambda: check_gamma_properties(frame), 2 * scalars + 12 * big),
            "xr-law": (lambda: check_xr_law(frame, seed=0), 6 * big),
            "deficit-chain": (lambda: deficit_chain_audit(delta, frame, xi=0.5),
                              8 * scalars + 6 * big),
            "driver-equivalence": (lambda: check_driver_equivalence(spec, 0, n_paths),
                                   theta_chunk + 12 * big)}
    for name, (run, bound) in runs.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak / big)
    assert not {"x", "v", "gamma"} & vars(frame).keys()
