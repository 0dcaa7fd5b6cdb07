"""Command surface: config precedence, validation messages, artifacts, exit codes."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import sloclab
from sloclab import localization
from sloclab.cli import (_CHECK_IDS, _REGISTRY, SETTINGS, RunContext, _build_parser,
                         build_config, main)
from sloclab.errors import ConfigError, DivergentTilt


def parse_cfg(argv):
    return build_config(_build_parser().parse_args(argv))


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Precedence and folding


def test_defaults():
    cfg = parse_cfg(["verify"])
    assert cfg.measure == "gaussian:2"
    assert cfg.n_paths == 1024
    assert cfg.tolerance_sigma == 4.0
    assert cfg.grid_kind == "geometric"
    assert cfg.checks == ()


def test_config_file_overrides_defaults(tmp_path):
    path = write_config(tmp_path, {
        "measure_id": "cube:3", "n_paths": 128,
        "grid": {"t_min": 0.05, "points": 12, "include": [1.0]},
        "output_dir": "somewhere",
    })
    cfg = parse_cfg(["verify", "--config", path])
    assert cfg.measure == "cube:3"
    assert cfg.n_paths == 128
    assert cfg.t_min == 0.05
    assert cfg.grid_points == 12
    assert cfg.include == (1.0,)
    assert cfg.out == "somewhere"
    assert cfg.t_max == 100.0  # untouched default


def test_env_overrides_config(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"n_paths": 128, "measure": "cube:2"})
    monkeypatch.setenv("SLOCLAB_PATHS", "256")
    monkeypatch.setenv("SLOCLAB_SIGMA", "5.5")
    cfg = parse_cfg(["verify", "--config", path])
    assert cfg.n_paths == 256
    assert cfg.tolerance_sigma == 5.5
    assert cfg.measure == "cube:2"


def test_flags_override_env(monkeypatch):
    monkeypatch.setenv("SLOCLAB_PATHS", "256")
    monkeypatch.setenv("SLOCLAB_MEASURE", "cube:2")
    cfg = parse_cfg(["verify", "--paths", "64", "--measure", "ball:3"])
    assert cfg.n_paths == 64
    assert cfg.measure == "ball:3"


def test_dim_folds_into_bare_family(tmp_path):
    path = write_config(tmp_path, {"measure": "cube", "dim": 5})
    cfg = parse_cfg(["verify", "--config", path])
    assert cfg.measure == "cube:5"


def test_dim_conflicts_with_qualified_id(tmp_path):
    path = write_config(tmp_path, {"measure": "cube:2", "dim": 5})
    with pytest.raises(ConfigError, match="dim conflicts"):
        parse_cfg(["verify", "--config", path])


# ---------------------------------------------------------------------------
# Config file diagnostics


def test_unknown_key_lists_valid_ones(tmp_path):
    path = write_config(tmp_path, {"pathz": 3})
    with pytest.raises(ConfigError, match=r"unknown key 'pathz'.*measure_id"):
        parse_cfg(["verify", "--config", path])


def test_unknown_grid_key(tmp_path):
    path = write_config(tmp_path, {"grid": {"step": 0.1}})
    with pytest.raises(ConfigError, match=r"grid\.step: unknown key"):
        parse_cfg(["verify", "--config", path])


def test_json_syntax_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "measure": cube\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2 column \d+"):
        parse_cfg(["verify", "--config", str(path)])


def test_type_mismatches_are_loud(tmp_path):
    with pytest.raises(ConfigError, match="expected integer"):
        parse_cfg(["verify", "--config", write_config(tmp_path, {"n_paths": "many"})])
    with pytest.raises(ConfigError, match="expected integer"):
        parse_cfg(["verify", "--config", write_config(tmp_path, {"seed": True})])
    with pytest.raises(ConfigError, match="expected number"):
        parse_cfg(["verify", "--config", write_config(tmp_path, {"tolerance_sigma": "x"})])
    with pytest.raises(ConfigError, match="expected list"):
        parse_cfg(["verify", "--config", write_config(tmp_path, {"checks": "martingale"})])
    with pytest.raises(ConfigError, match="top level"):
        parse_cfg(["verify", "--config", write_config(tmp_path, [1, 2])])


def test_bad_env_value(monkeypatch):
    monkeypatch.setenv("SLOCLAB_PATHS", "many")
    with pytest.raises(ConfigError, match="SLOCLAB_PATHS"):
        parse_cfg(["verify"])


# ---------------------------------------------------------------------------
# Invariant validation


@pytest.mark.parametrize("argv, msg", [
    (["verify", "--t-min", "0"], "t_min must be positive"),
    (["verify", "--t-min", "5", "--t-max", "2"], "t_max must exceed t_min"),
    (["verify", "--paths", "1"], "n_paths must be at least 2"),
    (["verify", "--grid-points", "5"], "at least 10 points"),
    (["verify", "--seed", "-1"], "unsigned 64-bit"),
    (["verify", "--seed", str(2 ** 64)], "unsigned 64-bit"),
    (["verify", "--sigma", "0"], "tolerance_sigma must be positive"),
    (["verify", "--workers", "0"], "workers must be at least 1"),
    (["verify", "--tilt-samples", "8"], "tilt_samples must be at least 16"),
    (["verify", "--measure", "torus:2"], "unknown measure family"),
    (["verify", "--measure", "cube:0"], "dimension must be >= 1"),
    (["verify", "--include", "-1.0"], "anchors must be positive"),
    (["verify", "--checks", "bogus"], "unknown check id 'bogus'"),
    (["verify", "--checks", ","], "--checks names no check id; leave it out"),
])
def test_invariant_messages(argv, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_cfg(argv)


@pytest.mark.parametrize("argv, msg", [
    pytest.param(["verify", "--measure", "cube:2", "--include", "nan"],
                 "anchors must be finite", id="include-nan"),
    pytest.param(["verify", "--sigma", "inf"],
                 "tolerance_sigma must be a finite number", id="sigma-inf"),
    pytest.param(["verify", "--sigma", "nan"],
                 "tolerance_sigma must be a finite number", id="sigma-nan"),
    pytest.param(["verify", "--t-min", "nan"], "t_min must be a finite number", id="t-min-nan"),
    pytest.param(["verify", "--t-max", "inf"], "t_max must be a finite number", id="t-max-inf"),
    pytest.param(["verify", "--grid-kind", "uniform", "--include", "0.5"],
                 "need a geometric grid", id="uniform-include"),
    pytest.param(["verify", "--grid-kind", "uniform", "--t-min", "3", "--t-max", "4"],
                 "t_min needs a geometric grid", id="uniform-t-min"),
    pytest.param(["verify", "--grid-kind", "uniform", "--t-max", "0"],
                 "t_max must be positive", id="uniform-t-max-zero"),
])
def test_silently_mishandled_flags_are_rejected(argv, msg, capsys):
    with pytest.raises(ConfigError, match=msg):
        parse_cfg(argv)
    assert main(argv) == 1
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("config_text, env, msg", [
    pytest.param('{"grid": {"include": [1.0, NaN]}}', None,
                 "anchors must be finite", id="config-include-nan"),
    pytest.param('{"grid": {"t_max": Infinity}}', None,
                 "t_max must be a finite number", id="config-t-max-inf"),
    pytest.param('{"tolerance_sigma": NaN}', None,
                 "tolerance_sigma must be a finite number", id="config-sigma-nan"),
    pytest.param('{"grid": {"kind": "uniform", "include": [0.5]}}', None,
                 "need a geometric grid", id="config-uniform-include"),
    pytest.param('{"grid": {"kind": "uniform", "t_min": 3.0, "t_max": 4.0}}', None,
                 "t_min needs a geometric grid", id="config-uniform-t-min"),
    pytest.param("{}", "inf", "tolerance_sigma must be a finite number", id="env-sigma-inf"),
    pytest.param('{"checks": []}', None, "config field checks names no check id",
                 id="config-checks-empty"),
    pytest.param('{"grid": {"kind": "log"}}', None,
                 "grid kind must be 'geometric' or 'uniform', not 'log'",
                 id="config-grid-kind-unknown"),
])
def test_mishandled_config_and_env_values_are_rejected(tmp_path, monkeypatch,
                                                        config_text, env, msg):
    path = tmp_path / "cfg.json"
    path.write_text(config_text, encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("SLOCLAB_SIGMA", env)
    with pytest.raises(ConfigError, match=msg):
        parse_cfg(["verify", "--config", str(path)])


def test_unknown_check_lists_registry():
    with pytest.raises(ConfigError, match="variance-decomposition"):
        parse_cfg(["verify", "--checks", "bogus"])


def test_driver_choices_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="invalid choice"):
        _build_parser().parse_args(["simulate", "--driver", "heun"])


def test_config_driver_validated(tmp_path):
    path = write_config(tmp_path, {"driver": "heun"})
    with pytest.raises(ConfigError, match="'direct' or 'sde'"):
        parse_cfg(["verify", "--config", path])


# ---------------------------------------------------------------------------
# The settings declaration

# one value per setting, valid on its own and unlike the default
SAMPLES = {
    "measure": "cube:3", "n_paths": 7, "seed": 5, "grid_kind": "uniform", "t_min": 0.5,
    "t_max": 50.0, "grid_points": 11, "include": (1.0, 2.0), "checks": ("martingale",),
    "out": "elsewhere", "tolerance_sigma": 3.0, "workers": 2, "tilt_samples": 32,
    "driver": "sde",
}


def _as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _json_keys(s):
    return [k for k in (s.key, s.alias) if k]


@pytest.mark.parametrize("name", list(SETTINGS))
def test_each_source_moves_only_its_field(name, tmp_path, monkeypatch):
    s, value = SETTINGS[name], SAMPLES[name]
    base = dataclasses.asdict(parse_cfg(["verify"]))
    # a uniform grid has no default t_min
    moved = {name, "t_min"} if name == "grid_kind" else {name}

    def assert_moves(cfg, source):
        got = dataclasses.asdict(cfg)
        assert got[name] == value, source
        assert {k for k in got if got[k] != base[k]} == moved, source

    for key in _json_keys(s):
        section, _, inner = key.rpartition(".")
        payload = list(value) if isinstance(value, tuple) else value
        config = {section: {inner: payload}} if section else {key: payload}
        assert_moves(parse_cfg(["verify", "--config", write_config(tmp_path, config)]), key)
    if s.env:
        monkeypatch.setenv(s.env, _as_text(value))
        assert_moves(parse_cfg(["verify"]), s.env)
        monkeypatch.delenv(s.env)
    assert_moves(parse_cfg([s.command or "verify", s.flag, _as_text(value)]), s.flag)


def test_flags_are_where_the_declaration_puts_them():
    parser = _build_parser()
    for name, s in SETTINGS.items():
        for command in ("simulate", "verify", "tilt-probe", "lk-table"):
            argv = [command, s.flag, _as_text(SAMPLES[name])]
            if command == "tilt-probe":
                argv += ["--t", "1", "--theta", "0"]
            if s.command in ("", command):
                assert getattr(parser.parse_args(argv), name) is not None
            else:
                with pytest.raises(ConfigError, match="unrecognized arguments"):
                    parser.parse_args(argv)


def _readme_settings_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| field | JSON key | variable | flag | default |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = [re.findall(r"`([^`]+)`", c) for c in cells[1:4]] + [cells[3]]
    return rows


def test_readme_settings_table_matches_declaration():
    rows = _readme_settings_rows()
    assert list(rows) == list(SETTINGS)
    for name, s in SETTINGS.items():
        keys, env, flag, flag_cell = rows[name]
        assert keys == _json_keys(s), name
        assert env == ([s.env] if s.env else []), name
        assert flag == [s.flag], name
        assert (s.command in flag_cell) if s.command else ("only" not in flag_cell), name


# ---------------------------------------------------------------------------
# Registry and run context


def test_registry_shape():
    assert len(_REGISTRY) == 18
    assert len(set(_CHECK_IDS)) == 18
    info = [d.check_id for d in _REGISTRY if d.kind == "info"]
    assert info == ["trace-ratio"]
    gated = [d for d in _REGISTRY if d.kind == "gate"]
    assert all(d.statement for d in gated)
    # every conditional check explains itself
    for d in _REGISTRY:
        always = d.applies(RunContext(parse_cfg(["verify", "--measure", "cube:8"])))
        if not always:
            assert d.why_not, d.check_id


def test_nearest_time_snaps_to_grid():
    ctx = RunContext(parse_cfg(["verify", "--include", "1.0"]))
    assert ctx.grid.points[ctx.nearest_index(1.0)] == 1.0
    assert ctx.nearest_index(0.0) == 1  # t = 0 is never chosen


def test_uniform_grid_kind():
    ctx = RunContext(parse_cfg(["verify", "--grid-kind", "uniform",
                                "--t-max", "2.0", "--grid-points", "10"]))
    assert ctx.cfg.t_min is None
    assert ctx.grid.points[0] == 0.0
    assert ctx.grid.points[-1] == 2.0
    # no default t_min stands in the way of a short uniform grid
    short = RunContext(parse_cfg(["verify", "--grid-kind", "uniform", "--t-max", "0.005"]))
    assert short.grid.points[-1] == 0.005
    assert RunContext(parse_cfg(["verify"])).cfg.t_min == 0.01


def test_config_t_min_meets_uniform_flag(tmp_path):
    # a t_min from --config is rejected once a flag makes the grid uniform
    path = tmp_path / "cfg.json"
    path.write_text('{"grid": {"t_min": 3.0}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="t_min needs a geometric grid"):
        parse_cfg(["verify", "--config", str(path), "--grid-kind", "uniform"])


# ---------------------------------------------------------------------------
# Exit codes


FAST = ["--paths", "64", "--grid-points", "12", "--t-min", "0.05", "--t-max", "4.0"]


def test_verify_passes_small_gaussian(capsys):
    code = main(["verify", "--measure", "gaussian:2", *FAST,
                 "--checks", "variance-decomposition,orthogonality,spectral-bound"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: 3 pass / 0 fail / 0 info" in out


def test_verify_few_tilt_samples_has_finite_tolerance(capsys):
    # --tilt-samples at its floor of 16 is accepted; the ball's tilt is exact
    code = main(["verify", "--measure", "ball:3", "--paths", "8", "--grid-points", "10",
                 "--t-min", "1", "--t-max", "4", "--tilt-samples", "16",
                 "--checks", "spectral-bound"])
    out = capsys.readouterr().out
    assert "tol=nan" not in out
    assert "[PASS] spectral-bound" in out
    assert code == 0


def test_verify_fails_with_absurd_sigma(capsys):
    code = main(["verify", "--measure", "cube:2", *FAST,
                 "--sigma", "0.001", "--checks", "variance-decomposition"])
    out = capsys.readouterr().out
    assert code == 2
    assert "/ 1 fail" in out


def test_verify_rejects_non_applicable_request(capsys):
    code = main(["verify", "--measure", "gaussian:2", *FAST, "--checks", "martingale"])
    err = capsys.readouterr().err
    assert code == 1
    assert "does not apply" in err
    assert "one-dimensional" in err


def test_verify_runs_deficit_chain_at_the_r_nearest_one_half(tmp_path, capsys):
    # the default grid admits the chain; its xi is the grid's r nearest 0.5
    code = main(["verify", "--measure", "cube:2", "--paths", "256",
                 "--checks", "deficit-chain", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 2)  # verdicts, not an error
    records = json.loads((tmp_path / "reports.json").read_text())
    assert [r["check_id"] for r in records] == [
        "deficit-chain", "variance-split-exact", "ibp-balance", "score-trace-bound",
        "clocked-gamma-monotone", "chain-upper", "chain-lower", "parity-split",
        "fisher-bound-at-xi", "energy-constant"]
    r = localization.make_geometric(0.01, 100.0, 40).r_points
    xi = float(r[np.argmin(np.abs(r - 0.5))])
    assert records[0]["notes"] == f"xi={xi}, n_paths=256"


def test_verify_projects_a_ball_onto_one_coordinate(capsys):
    code = main(["verify", "--measure", "ball:3", "--paths", "256",
                 "--checks", "projection-domination"])
    assert code in (0, 2)
    assert "subspace dim 1," in capsys.readouterr().out


@pytest.mark.parametrize("t_max", ["1", "1.2"])
def test_verify_skips_deficit_chain_on_a_short_grid(tmp_path, capsys, t_max):
    # xi is the grid's r nearest 0.5, and the chain needs 3 grid points from it:
    # a default run leaves the check out and still writes its reports
    short = ["--paths", "64", "--grid-points", "12", "--t-min", "0.05", "--t-max", t_max]
    code = main(["verify", "--measure", "cube:2", *short, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 2)  # verdicts, not an error
    ids = {r["check_id"] for r in json.loads((tmp_path / "reports.json").read_text())}
    assert "deficit-bounds" in ids and "deficit-chain" not in ids
    # asked for by name, it is rejected before any check runs
    code = main(["verify", "--measure", "cube:2", *short, "--checks", "deficit-chain"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: check 'deficit-chain' does not apply to cube:2: needs at "
                            "least 10 grid times, 3 of them from the r nearest 0.5\n")


def test_simulate_needs_out(capsys):
    code = main(["simulate", "--measure", "gaussian:2", *FAST])
    assert code == 1
    assert "output directory" in capsys.readouterr().err


def test_bad_flag_exits_one(capsys):
    code = main(["verify", "--paths", "notanint"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_list_checks_prints_registry(capsys):
    assert main(["list-checks"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18
    tags = {line.split()[1] for line in lines}
    assert tags == {"GATE", "INFO"}
    assert sum(1 for line in lines if " INFO " in line) == 1


# ---------------------------------------------------------------------------
# Artifacts


def test_simulate_artifacts_are_deterministic(tmp_path, capsys):
    argv = ["simulate", "--measure", "cube:1", *FAST, "--seed", "7"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert main(["simulate", "--measure", "cube:1", *FAST, "--seed", "8",
                 "--out", str(c)]) == 0
    capsys.readouterr()
    for name in ("stats.csv", "follmer.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "stats.csv").read_bytes() != (c / "stats.csv").read_bytes()
    header = (a / "stats.csv").read_text().splitlines()[0]
    assert header.startswith("t,r,trace_cov")


def test_simulate_that_fails_at_its_last_tilt_writes_nothing(tmp_path, capsys, monkeypatch):
    # simulate folds each grid time in as the driver tilts it, and makes its
    # output directory only once every grid time has been tilted
    t_last = localization.make_geometric().points[-1]
    tilt_table = localization.tilt_table

    def diverging(spec, t, thetas):
        if t == t_last:
            raise DivergentTilt(f"{spec.measure_id()} tilt at t={t:g} is not finite")
        return tilt_table(spec, t, thetas)
    monkeypatch.setattr(localization, "tilt_table", diverging)
    out = tmp_path / "out"
    assert main(["simulate", "--measure", "cube:4", "--paths", "64", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cube:4 tilt at t=100 is not finite\n"
    assert not out.exists()


def test_simulate_t_zero_row_is_exactly_isotropic(tmp_path, capsys):
    # A_0 = Id exactly, so the t = 0 row carries no rounding
    assert main(["simulate", "--measure", "cube:4", "--paths", "64", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, first = (line.split(",") for line in
                     (tmp_path / "stats.csv").read_text().splitlines()[:2])
    row = dict(zip(header, first))
    assert row["t"] == "0"
    assert (row["trace_cov"], row["trace_cov_sq_se"], row["decomp_dev"]) == ("4", "0", "0")


def test_verify_reports_json(tmp_path, capsys):
    out = tmp_path / "rep"
    argv = ["verify", "--measure", "gaussian:2", *FAST, "--out", str(out),
            "--checks", "variance-decomposition,fisher-bound"]
    assert main(argv) == 0
    first = (out / "reports.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "reports.json").read_bytes() == first
    records = json.loads(first)
    assert {r["check_id"] for r in records} >= {"variance-decomposition", "fisher-bound"}
    for r in records:
        assert set(r) == {"check_id", "verdict", "statistic", "stderr",
                          "tolerance", "notes"}
        assert r["verdict"] in ("PASS", "FAIL", "INFO")


def _probe_routes(out):
    """route -> its printed fields (log_z, mean, cov_diag, se_mean) as floats."""
    routes = {}
    for line in out.splitlines():
        route = re.match(r"route=(\w+) ", line).group(1)
        routes[route] = {key: np.array(val.strip("()").split(","), float)
                         for key, val in re.findall(r"(\w+)=(\([^)]*\)|\S+)", line)
                         if key != "route"}
    return routes


def _sample_agrees(routes, exact, k=5.0):
    # the sample mean sits within k standard errors of the exact mean
    sample = routes["sample"]
    assert "log_z" not in sample
    assert np.all(np.abs(sample["mean"] - routes[exact]["mean"]) <= k * sample["se_mean"])


def test_tilt_probe_routes_agree(capsys):
    # the Gaussian is a product of gaussian factors, so it has every route a product has
    for measure in ("product:exp,uniform", "gaussian:2"):
        code = main(["tilt-probe", "--measure", measure,
                     "--t", "1.5", "--theta", "0.3,-0.2", "--tilt-samples", "20000"])
        routes = _probe_routes(capsys.readouterr().out)
        assert code == 0
        assert list(routes) == ["analytic", "quadrature", "sample"]
        assert routes["analytic"]["log_z"] == pytest.approx(routes["quadrature"]["log_z"],
                                                            abs=1e-9)
        _sample_agrees(routes, "analytic")


def _probe_error(capfd, measure, t, theta) -> str:
    """stderr of a tilt-probe that must fail: exit 1, nothing printed, no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tilt-probe", "--measure", measure, "--t", t, "--theta", theta])
    captured = capfd.readouterr()
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert captured.out == ""
    return captured.err


def test_tilt_probe_t_zero_on_a_product(capfd):
    # localization tilts only at t > 0; the base state t = 0, theta = 0 has
    # moments but no quadrature or draws, so every t = 0 probe ends on one error
    assert _probe_error(capfd, "cube:2", "0", "0.3,0.1") == (
        "error: t must be > 0, or 0 at theta = 0\n")
    assert _probe_error(capfd, "cube:2", "0", "0,0") == "error: t must be > 0\n"


def test_tilt_probe_rejects_a_theta_of_the_wrong_length(capfd):
    assert _probe_error(capfd, "cube:2", "1", "0.3,0.1,0.2") == (
        "error: --theta needs 2 values for cube:2, got 3\n")
    assert _probe_error(capfd, "ball:3", "1", "0.3") == (
        "error: --theta needs 3 values for ball:3, got 1\n")


def test_tilt_probe_t_zero_unbounded_factor_prints_nothing(capfd):
    # exp's t = 0 tilt by theta >= 1 would diverge: it is rejected before any arithmetic
    assert _probe_error(capfd, "product:exp,uniform", "0", "2,0") == (
        "error: t must be > 0, or 0 at theta = 0\n")


def test_tilt_probe_rejects_a_tilt_that_is_not_finite(capfd):
    # the closed cube tilt underflows at t = 1e-300; it must not print -inf and NaN,
    # and the log 0 and 0/0 on the way to that row warn nowhere: the error prints alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tilt-probe", "--measure", "cube:2", "--t", "1e-300", "--theta", "1,1"])
    captured = capfd.readouterr()
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert captured.out == ""
    assert captured.err == "error: cube:2 tilt at t=1e-300 is not finite at |theta|=1.41421\n"


def test_tilt_probe_ball_notes_reference_route(capsys):
    code = main(["tilt-probe", "--measure", "ball:3", "--t", "1.0",
                 "--theta", "0.2,0.0,0.0", "--tilt-samples", "20000"])
    out = capsys.readouterr().out
    routes = _probe_routes(out)
    assert code == 0
    assert list(routes) == ["quadrature", "sample"]
    _sample_agrees(routes, "quadrature")
    assert "note:" not in out


def test_lk_table_written(tmp_path, capsys):
    code = main(["lk-table", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = (tmp_path / "lk_table.csv").read_text().splitlines()
    assert len(rows) == 10  # header plus the nine catalog measures
    assert rows[0] == "measure,dim,l_value,entropy,sandwich,floor"
    assert "l-lower-bound-sweep" in out


def test_lk_table_single_measure_to_stdout(capsys):
    code = main(["lk-table", "--measure", "cube:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("cube:2,2,")


@pytest.mark.parametrize("source", ["env", "config", "config-dim"])
def test_lk_table_honours_measure_from_env_and_config(source, tmp_path, monkeypatch, capsys):
    argv = ["lk-table"]
    if source == "env":
        monkeypatch.setenv("SLOCLAB_MEASURE", "cube:2")
    else:
        payload = {"measure_id": "cube:2"} if source == "config" else {"measure": "cube",
                                                                        "dim": 2}
        argv += ["--config", write_config(tmp_path, payload)]
    code = main(argv)
    rows = capsys.readouterr().out.splitlines()
    assert code == 0
    assert rows[0].startswith("measure,dim,l_value")
    assert rows[1].startswith("cube:2,2,")
    assert not rows[2].startswith(("gaussian:", "cube:", "ball:", "product:"))


def _declared_console_script(name):
    """The ``module:attr`` value that pyproject.toml declares for console script ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    return scripts[name]


def _assert_lists_registry(proc):
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 18


def test_console_script_runs(tmp_path):
    """Run the declared entry point through the launcher pip would generate for it.

    The launcher is a file named ``sloclab`` run by a fresh interpreter, and
    PYTHONPATH points it at the sloclab package the suite imported, so no
    install is needed and the child runs the code under test from any working
    directory. The bad-flag call shows that ``sys.exit(main())`` carries the
    CLI's exit code through the entry point.
    """
    ep = EntryPoint(name="sloclab", value=_declared_console_script("sloclab"),
                    group="console_scripts")
    assert callable(ep.load())
    launcher = tmp_path / "sloclab"
    launcher.write_text(
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    src = str(Path(sloclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, str(launcher), *args], env=env,
                              capture_output=True, text=True, timeout=120)

    _assert_lists_registry(run("list-checks"))
    bad = run("verify", "--paths", "notanint")
    assert bad.returncode == 1
    assert "error: argument --paths: invalid int value" in bad.stderr


@pytest.mark.skipif(shutil.which("sloclab") is None, reason="sloclab console script not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(["sloclab", "list-checks"], capture_output=True, text=True,
                          timeout=120)
    _assert_lists_registry(proc)
