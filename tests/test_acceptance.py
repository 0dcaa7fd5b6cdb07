"""End-to-end acceptance run: every gated identity at full desk scale.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure).  Scales are chosen so the whole module stays comfortably inside a
coffee break on a laptop; statistical gates run at 4 sigma with the path
counts stated in each test.
"""

import json
import math
import time

import numpy as np
import pytest

from sloclab import cli
from sloclab.follmer import check_gamma_properties, to_follmer
from sloclab.infotheory import (
    de_bruijn_check,
    deficit_chain_audit,
    deficit_lower_bound,
    epi_deficit,
    gamma_spread,
    kl_to_gaussian,
)
from sloclab.isoconst import (
    GAUSSIAN_L,
    check_projection_domination,
    isotropic_constant,
    l_bounds_sweep,
)
from sloclab.localization import (
    check_derivative_identity,
    check_driver_equivalence,
    check_orthogonality,
    check_spectral_bound,
    check_variance_decomposition,
    make_geometric,
    make_uniform,
    simulate_ensemble,
    trace_square_ratio,
)
from sloclab.measures import (
    DEFAULT_CATALOG,
    make_ball,
    make_cube,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from sloclab.tilt import factor_tilt_quadrature, tilt_table


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _gate_detail(rep) -> str:
    return f"stat={rep.statistic:.4g} tol={rep.tolerance:.4g}"


# ---------------------------------------------------------------------------
# Shared ensembles


@pytest.fixture(scope="module")
def cube8():
    return simulate_ensemble(make_cube(8), make_geometric(0.01, 100.0, 40),
                             4096, seed=0)


@pytest.fixture(scope="module")
def cube4():
    # anchors put r = 0.2, 0.5, 0.8 (t = 0.25, 1, 4) on the grid exactly
    grid = make_geometric(0.25, 4.0, 9, include=(0.5, 1.0, 2.0))
    ens = simulate_ensemble(make_cube(4), grid, 2048, seed=0)
    return ens, to_follmer(ens)


@pytest.fixture(scope="module")
def exp2():
    grid = make_geometric(0.25, 4.0, 9, include=(0.5, 1.0, 2.0))
    return simulate_ensemble(make_product("exp,exp"), grid, 2048, seed=0)


@pytest.fixture(scope="module")
def cube2_frame():
    grid = make_geometric(0.05, 20.0, 16, include=(1.0,))
    return to_follmer(simulate_ensemble(make_cube(2), grid, 2048, seed=0))


# ---------------------------------------------------------------------------
# The criteria


def test_c01_gaussian_closed_form_suite():
    start = time.monotonic()
    spec = make_gaussian(3)
    ens = simulate_ensemble(spec, make_geometric(0.05, 20.0, 16), 256, seed=0)
    t = ens.grid.points
    shrink = 1.0 / (1.0 + t)

    drift_dev = float(np.abs(ens.mean - ens.theta * shrink[None, :, None]).max())
    cov_dev = float(np.abs(ens.cov - np.ones(3) * shrink[None, :, None]).max())
    frame = to_follmer(ens)
    v_dev = float(np.abs(frame.v).max())
    gamma_dev = float(np.abs(frame.gamma - np.ones(3)).max())
    kl = kl_to_gaussian(spec).value
    delta = epi_deficit(spec).delta  # 0 up to its quadrature error
    l_val = isotropic_constant(spec).l_value

    th = np.array([0.3, -0.2])
    pair = make_product("gaussian,gaussian")
    closed_log_z, closed_mean, closed_var = tilt_table(pair, 1.5, th[None])
    quad_log_z, quad_mean, quad_var = zip(*(factor_tilt_quadrature(f, 1.5, x)
                                            for f, x in zip(pair.factors, th)))
    route_gap = max(abs(closed_log_z[0] - sum(quad_log_z)),
                    float(np.abs(closed_mean[0] - quad_mean).max()),
                    float(np.abs(closed_var[0] - quad_var).max()))

    elapsed = time.monotonic() - start
    ok = (drift_dev < 1e-12 and cov_dev < 1e-12 and v_dev < 1e-10
          and gamma_dev < 1e-10 and kl == 0.0
          and abs(delta.value) <= delta.stderr <= 1e-10
          and abs(l_val - GAUSSIAN_L) < 1e-12 and route_gap < 1e-8
          and elapsed < 10.0)
    _verdict("C01 gaussian closed-form suite", ok,
             f"drift_dev={drift_dev:.2g} cov_dev={cov_dev:.2g} v={v_dev:.2g} "
             f"gamma={gamma_dev:.2g} kl={kl} delta={delta.value:.2g}±{delta.stderr:.2g} "
             f"L_gap={abs(l_val - GAUSSIAN_L):.2g} routes={route_gap:.2g} "
             f"elapsed={elapsed:.1f}s")


def test_c02_variance_decomposition_at_scale(cube8):
    rep = check_variance_decomposition(cube8, sigma=4.0)
    _verdict("C02 variance decomposition cube:8 x4096", not rep.failed,
             _gate_detail(rep))


def test_c03_covariance_derivative_identity(cube8):
    rep = check_derivative_identity(cube8, sigma=4.0)
    ok = not rep.failed
    _verdict("C03 derivative identity cube:8 x4096", ok,
             _gate_detail(rep) + f" subs={[s.check_id for s in rep.sub]}")


def test_c04_pathwise_spectral_bound(cube8):
    rep = check_spectral_bound(cube8)
    ok = not rep.failed and "violations=0" in rep.notes
    _verdict("C04 spectral bound cube:8 x4096", ok, rep.notes)


def test_c05_orthogonality_two_families(cube4, exp2):
    ens, _ = cube4
    rep_cube = check_orthogonality(ens, sigma=4.0)
    rep_exp = check_orthogonality(exp2, sigma=4.0)
    ok = not rep_cube.failed and not rep_exp.failed
    _verdict("C05 orthogonality cube:4 and product:exp,exp", ok,
             f"cube {_gate_detail(rep_cube)}; exp {_gate_detail(rep_exp)}")


def test_c06_gamma_process_properties(cube4):
    _, frame = cube4
    assert {0.2, 0.5, 0.8} <= {round(float(r), 6) for r in frame.r}
    rep = check_gamma_properties(frame, sigma=4.0)
    bad = [s.check_id for s in rep.sub if s.failed]
    _verdict("C06 gamma properties cube:4", not rep.failed,
             f"subs_failed={bad or 'none'}")


def test_c07_de_bruijn_identity():
    grid = make_geometric(0.01, 20_000.0, 48)
    details = []
    ok = True
    for spec in (make_product("laplace"), make_cube(1)):
        ens = simulate_ensemble(spec, grid, 8192, seed=11)
        rep = de_bruijn_check(spec, to_follmer(ens), sigma=4.0)
        ok = ok and not rep.failed
        details.append(f"{spec.measure_id()} {_gate_detail(rep)}")
    kl_pin = abs(kl_to_gaussian(make_product('laplace')).value - 0.0723649)
    ok = ok and kl_pin < 5e-7
    _verdict("C07 de Bruijn identity", ok, "; ".join(details))


def test_c08_epi_deficit_bounds(cube2_frame):
    uni = epi_deficit(make_cube(1))
    gauss = epi_deficit(make_gaussian(2)).delta  # 0 up to its quadrature error
    ok = (abs(uni.delta.value - 0.15343) < 0.01
          and abs(gauss.value) <= gauss.stderr <= 1e-10)

    worst = ""
    for mid in DEFAULT_CATALOG:
        rep = epi_deficit(parse_measure_id(mid))
        if rep.bounds.failed:
            ok = False
            worst += f" {mid}!"
    low = deficit_lower_bound(gamma_spread(cube2_frame, xi=0.5))
    delta2 = epi_deficit(make_cube(2)).delta.value
    gap = delta2 + 4.0 * low.estimate.stderr - low.estimate.value
    ok = ok and low.estimate.value >= 0.0 and gap >= 0.0
    _verdict("C08 entropy power deficit", ok,
             f"uniform={uni.delta.value:.5f} gaussian={gauss.value:.2g}±{gauss.stderr:.2g} "
             f"catalog_bounds_ok={not worst}{worst} "
             f"lower={low.estimate.value:.4f} <= delta={delta2:.4f}")


def test_c09_isotropic_constant_pins():
    pins = (
        ("gaussian:2", 0.24197072451914337),
        ("cube:1", 1.0 / (2.0 * math.sqrt(3.0))),
        ("product:exp", math.exp(-1.0)),
    )
    gaps = {mid: abs(isotropic_constant(parse_measure_id(mid)).l_value - val)
            for mid, val in pins}
    rows, floor = l_bounds_sweep()
    ok = (all(g < 1e-6 for g in gaps.values()) and not floor.failed
          and all(not r.sandwich.failed and not r.lower_bound.failed for r in rows))
    _verdict("C09 isotropic constants", ok,
             f"pin_gaps={ {k: f'{v:.1e}' for k, v in gaps.items()} } "
             f"floor={floor.verdict} catalog={len(rows)}")


def test_c10_driver_equivalence():
    rep = check_driver_equivalence(make_cube(2), seed=5, n_paths=10_000, sigma=4.0)
    bad = [s.check_id for s in rep.sub if s.failed]
    _verdict("C10 driver equivalence cube:2 dt=1/64 x10000", not rep.failed,
             f"{rep.notes}; subs_failed={bad or 'none'}")


def test_c11_projection_domination():
    cases = (
        (make_gaussian(4), (0, 1), True),
        (make_cube(4), (0, 3), True),
        (make_ball(3), (0,), False),
    )
    ok = True
    details = []
    for spec, coords, wants_equality in cases:
        ens = simulate_ensemble(spec, make_uniform(1.0, 1), 1024, seed=2)
        rep = check_projection_domination(ens, coords, 1, seed=2, sigma=4.0)
        has_eq = any(s.check_id == "projection-equality" and not s.failed
                     for s in rep.sub)
        case_ok = not rep.failed and (has_eq == wants_equality)
        ok = ok and case_ok
        details.append(f"{spec.measure_id()}:{rep.verdict}"
                       f"{'=' if has_eq else '>'}")
    _verdict("C11 projection domination", ok, " ".join(details))


def test_c12_trace_square_ratio_catalog():
    grid = make_geometric(0.05, 4.0, 12)
    lines = []
    ok = True
    for mid in DEFAULT_CATALOG:
        spec = parse_measure_id(mid)
        ens = simulate_ensemble(spec, grid, 128, seed=1)
        rep = trace_square_ratio(ens)
        ok = ok and rep.verdict == "INFO" and np.isfinite(rep.stderr)
        if mid.startswith("gaussian:"):  # A_t = Id / (1 + t), largest at the first t > 0
            ok = ok and abs(rep.statistic - 1.0 / (1.0 + grid.points[1]) ** 2) < 1e-12
        lines.append(f"{mid}={rep.statistic:.3f}±{rep.stderr:.3f}")
    _verdict("C12 sup trace ratio (info only)", ok, " ".join(lines))


def test_c13_deficit_chain_audit(cube4):
    ens, frame = cube4
    rep = deficit_chain_audit(epi_deficit(make_cube(4)).delta, frame, xi=0.5, sigma=4.0)
    subs = {s.check_id: s for s in rep.sub}
    energy = subs["energy-constant"]
    ok = (not rep.failed
          and not subs["ibp-balance"].failed
          and not subs["chain-upper"].failed
          and not subs["chain-lower"].failed
          and energy.verdict == "INFO")
    _verdict("C13 deficit chain audit cube:4", ok,
             f"{_gate_detail(rep)}; energy_ratio={energy.statistic:.4f} (info)")


def test_c14_byte_identical_reruns(tmp_path, capsys):
    fast = ["--measure", "cube:2", "--paths", "64", "--grid-points", "12",
            "--t-min", "0.05", "--t-max", "4.0", "--seed", "9"]
    dirs = [tmp_path / name for name in ("a", "b")]
    for d in dirs:
        assert cli.main(["simulate", *fast, "--out", str(d)]) == 0
        assert cli.main(["verify", *fast, "--out", str(d),
                         "--checks", "variance-decomposition,fisher-bound"]) == 0
    capsys.readouterr()
    same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
               for f in ("stats.csv", "follmer.csv", "reports.json"))
    records = json.loads((dirs[0] / "reports.json").read_text())
    _verdict("C14 byte-identical reruns", same and len(records) >= 2,
             f"files=3 records={len(records)}")


@pytest.mark.parametrize("measure", ["cube:8", "ball:8"])
def test_c15_conditional_covariance_at_4096_paths(measure):
    # verify's registry entry on verify's ensemble, built first: the check's
    # own cost is its right side, all 1024 x 64 tilted points in one batch
    ctx = cli.RunContext(cli.build_config(cli._build_parser().parse_args(
        ["verify", "--measure", measure, "--paths", "4096", "--seed", "0"])))
    ctx.ensemble()
    entry = next(d for d in cli._REGISTRY if d.check_id == "conditional-covariance")
    start = time.monotonic()
    rep = entry.run(ctx)
    elapsed = time.monotonic() - start
    _verdict(f"C15 conditional covariance {measure}", not rep.failed and elapsed < 3.0,
             f"{_gate_detail(rep)} {rep.notes} elapsed={elapsed:.1f}s")
