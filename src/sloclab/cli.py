"""Experiment runner turning measure ids and time grids into verdicts.

Command surface::

    sloclab simulate   --measure cube:8 --paths 4096 --out runs/cube8
    sloclab verify     --measure cube:4 --checks gamma-properties,fisher-bound
    sloclab tilt-probe --measure product:exp,uniform --t 1.5 --theta 0.3,-0.2
    sloclab lk-table   --out tables
    sloclab list-checks

Configuration precedence is defaults < --config JSON < SLOCLAB_* environment
variables < explicit flags.  A run is fully determined by its effective
config: outputs carry 17-significant-digit reals, '.' decimals, and no
timestamps, so equal configs produce byte-identical artifacts.

Exit codes: 0 when every gated check passes (INFO verdicts never count),
2 when any gate fails, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import follmer, infotheory, isoconst, localization, streams, tilt
from .errors import ConfigError, SloclabError
from .localization import TimeGrid
from .measures import DEFAULT_CATALOG, coordinate_subspace, parse_measure_id
from .reports import LemmaReport


def _fmt(x) -> str:
    """17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in np.asarray(v, float).ravel())


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    measure: str = "gaussian:2"
    n_paths: int = 1024
    seed: int = 0
    grid_kind: str = "geometric"
    t_min: float | None = None    # geometric grids only; build_config fills the default
    t_max: float = 100.0
    grid_points: int = 40
    include: tuple = ()
    checks: tuple = ()
    out: str = ""
    tolerance_sigma: float = 4.0
    workers: int = 1
    tilt_samples: int = 1024
    driver: str = "direct"


GEOMETRIC_T_MIN = 0.01
_TOP_ALIASES = {"measure_id": "measure", "output_dir": "out"}
_TOP_KEYS = {"measure", "dim", "n_paths", "seed", "grid", "checks", "out",
             "tolerance_sigma", "workers", "tilt_samples", "driver"}
_GRID_KEYS = {"kind": "grid_kind", "t_min": "t_min", "t_max": "t_max",
              "points": "grid_points", "include": "include"}

_ENV_VARS = {
    "SLOCLAB_MEASURE": ("measure", str),
    "SLOCLAB_PATHS": ("n_paths", int),
    "SLOCLAB_SEED": ("seed", int),
    "SLOCLAB_OUT": ("out", str),
    "SLOCLAB_SIGMA": ("tolerance_sigma", float),
    "SLOCLAB_WORKERS": ("workers", int),
    "SLOCLAB_TILT_SAMPLES": ("tilt_samples", int),
}


def _want(field, value, kind):
    """Coerce a JSON config value, rejecting silent type surprises."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config field {field}: expected integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config field {field}: expected number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"config field {field}: expected string, got {value!r}")
        return value
    raise AssertionError(kind)


def _load_config(path: str) -> dict:
    """Parse a JSON config file into flat ExperimentConfig keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config {path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")

    out: dict = {}
    dim = None
    for key, value in raw.items():
        key = _TOP_ALIASES.get(key, key)
        if key not in _TOP_KEYS:
            raise ConfigError(
                f"config {path}: unknown key {key!r} "
                f"(valid: {', '.join(sorted(_TOP_KEYS | set(_TOP_ALIASES)))})")
        if key == "grid":
            if not isinstance(value, dict):
                raise ConfigError(f"config field grid: expected object, got {value!r}")
            for gk, gv in value.items():
                if gk not in _GRID_KEYS:
                    raise ConfigError(
                        f"config field grid.{gk}: unknown key "
                        f"(valid: {', '.join(sorted(_GRID_KEYS))})")
                if gk == "kind":
                    out["grid_kind"] = _want("grid.kind", gv, str)
                elif gk == "points":
                    out["grid_points"] = _want("grid.points", gv, int)
                elif gk == "include":
                    if not isinstance(gv, list):
                        raise ConfigError("config field grid.include: expected list")
                    out["include"] = tuple(
                        _want("grid.include[]", a, float) for a in gv)
                else:
                    out[_GRID_KEYS[gk]] = _want(f"grid.{gk}", gv, float)
        elif key == "checks":
            if not isinstance(value, list):
                raise ConfigError("config field checks: expected list of ids")
            out["checks"] = tuple(_want("checks[]", c, str) for c in value)
        elif key == "dim":
            dim = _want("dim", value, int)
        elif key in ("n_paths", "seed", "workers", "tilt_samples"):
            out[key] = _want(key, value, int)
        elif key == "tolerance_sigma":
            out[key] = _want(key, value, float)
        else:
            out[key] = _want(key, value, str)
    if dim is not None:
        out["_dim"] = dim
    return out


def _apply_env(values: dict) -> None:
    for var, (key, kind) in _ENV_VARS.items():
        raw = os.environ.get(var)
        if raw is None:
            continue
        if kind is str:
            values[key] = raw
            continue
        try:
            values[key] = kind(raw)
        except ValueError as e:
            raise ConfigError(f"{var}: {e}") from e


def _parse_float_list(field: str, text: str) -> tuple:
    try:
        return tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError as e:
        raise ConfigError(f"{field}: {e}") from e


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, environment, and flags, then validate."""
    base = ExperimentConfig()
    values = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    dim = None

    if getattr(args, "config", None):
        loaded = _load_config(args.config)
        dim = loaded.pop("_dim", None)
        values.update(loaded)
    _apply_env(values)

    flag_map = {
        "measure": "measure", "paths": "n_paths", "seed": "seed", "out": "out",
        "sigma": "tolerance_sigma", "workers": "workers",
        "tilt_samples": "tilt_samples", "driver": "driver",
        "grid_kind": "grid_kind", "t_min": "t_min", "t_max": "t_max",
        "grid_points": "grid_points",
    }
    for attr, key in flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            values[key] = val
    if getattr(args, "include", None) is not None:
        values["include"] = _parse_float_list("--include", args.include)
    if getattr(args, "checks", None) is not None:
        values["checks"] = tuple(
            s.strip() for s in args.checks.split(",") if s.strip())

    if dim is not None:
        if ":" in values["measure"]:
            raise ConfigError(
                f"dim conflicts with measure id {values['measure']!r}; "
                "give either a bare family plus dim, or family:dim")
        values["measure"] = f"{values['measure']}:{dim}"

    if values["t_min"] is None and values["grid_kind"] == "geometric":
        values["t_min"] = GEOMETRIC_T_MIN
    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    try:
        parse_measure_id(cfg.measure)
    except SloclabError as e:
        raise ConfigError(str(e)) from e
    if cfg.n_paths < 2:
        raise ConfigError("n_paths must be at least 2")
    for name in ("tolerance_sigma", "t_min", "t_max"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number")
    if not all(math.isfinite(a) for a in cfg.include):
        raise ConfigError("grid include anchors must be finite numbers")
    if cfg.grid_kind == "uniform":
        if cfg.t_min is not None:
            raise ConfigError("t_min needs a geometric grid; "
                              "a uniform grid runs from t = 0 to t_max")
        if cfg.t_max <= 0:
            raise ConfigError("t_max must be positive")
    elif cfg.t_min <= 0:
        raise ConfigError("t_min must be positive")
    elif cfg.t_max <= cfg.t_min:
        raise ConfigError("t_max must exceed t_min")
    if cfg.grid_points < 10:
        raise ConfigError("grid needs at least 10 points")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    if cfg.tolerance_sigma <= 0:
        raise ConfigError("tolerance_sigma must be positive")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.tilt_samples < 16:
        raise ConfigError("tilt_samples must be at least 16")
    if cfg.driver not in ("direct", "sde"):
        raise ConfigError(f"driver must be 'direct' or 'sde', not {cfg.driver!r}")
    if cfg.grid_kind not in ("geometric", "uniform"):
        raise ConfigError(f"grid kind must be 'geometric' or 'uniform', not {cfg.grid_kind!r}")
    if any(a <= 0 for a in cfg.include):
        raise ConfigError("grid include anchors must be positive times")
    if cfg.include and cfg.grid_kind == "uniform":
        raise ConfigError("grid include anchors need a geometric grid; "
                          "a uniform grid has no anchors")
    bad = [c for c in cfg.checks if c not in _CHECK_IDS]
    if bad:
        raise ConfigError(
            f"unknown check id {bad[0]!r}; valid ids: {', '.join(_CHECK_IDS)}")


# ---------------------------------------------------------------------------
# Shared run state


class RunContext:
    """Lazily built shared state; one ensemble serves every selected check."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = parse_measure_id(cfg.measure)
        self._grid = None
        self._ensemble = None
        self._frame = None

    @property
    def grid(self) -> TimeGrid:
        if self._grid is None:
            if self.cfg.grid_kind == "uniform":
                self._grid = localization.make_uniform(
                    self.cfg.t_max, self.cfg.grid_points)
            else:
                self._grid = localization.make_geometric(
                    self.cfg.t_min, self.cfg.t_max, self.cfg.grid_points,
                    include=self.cfg.include)
        return self._grid

    def ensemble(self):
        if self._ensemble is None:
            self._ensemble = localization.simulate_ensemble(
                self.spec, self.grid, self.cfg.n_paths, self.cfg.seed,
                driver=self.cfg.driver, tilt_samples=self.cfg.tilt_samples,
                workers=self.cfg.workers)
        return self._ensemble

    def frame(self):
        if self._frame is None:
            self._frame = follmer.to_follmer(self.ensemble())
        return self._frame

    def nearest_time(self, target: float) -> float:
        pts = self.grid.points[1:]
        return float(pts[int(np.argmin(np.abs(pts - target)))])


def _exact_drift(spec) -> bool:
    # every catalog family has an exact tilt; affine images would need
    # per-step rejection, too slow for path sweeps
    return spec.family in ("gaussian", "ball") or spec.factors is not None


def _fisher_quadrature(spec) -> bool:
    return spec.family == "gaussian" or spec.factors is not None


def _default_basis(spec):
    if spec.family == "ball":
        return coordinate_subspace(spec.dim, (0,))
    return coordinate_subspace(spec.dim, tuple(range((spec.dim + 1) // 2)))


# ---------------------------------------------------------------------------
# Check registry


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    kind: str          # "gate" or "info"
    statement: str
    applies: object    # RunContext -> bool
    run: object        # RunContext -> LemmaReport
    why_not: str = ""  # shown when an explicitly requested check cannot run


def _run_conditional_covariance(ctx: RunContext) -> LemmaReport:
    t = ctx.nearest_time(1.0)
    return tilt.conditional_covariance_identity_check(
        ctx.spec, t, ctx.cfg.seed, n_outer=min(ctx.cfg.n_paths, 1024),
        n_inner=64, sigma=ctx.cfg.tolerance_sigma, tilt_samples=ctx.cfg.tilt_samples)


def _run_deficit_chain(ctx: RunContext) -> LemmaReport:
    frame = ctx.frame()
    k = int(np.argmin(np.abs(frame.r - 0.5)))
    k = min(k, len(frame.r) - 2)
    return infotheory.deficit_chain_audit(
        ctx.spec, frame, xi=float(frame.r[k]), sigma=ctx.cfg.tolerance_sigma)


def _run_projection(ctx: RunContext) -> LemmaReport:
    return isoconst.check_projection_domination(
        ctx.spec, _default_basis(ctx.spec), ctx.nearest_time(1.0),
        n_paths=ctx.cfg.n_paths, seed=ctx.cfg.seed,
        sigma=ctx.cfg.tolerance_sigma, tilt_samples=ctx.cfg.tilt_samples,
        workers=ctx.cfg.workers)


_REGISTRY = (
    CheckDef(
        "variance-decomposition", "gate",
        "E A_t + E a_t (x) a_t = Id at every grid time",
        lambda ctx: True,
        lambda ctx: localization.check_variance_decomposition(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "derivative-identity", "gate",
        "d/dt E A_t = -E A_t^2, finite differences with a step-halving budget",
        lambda ctx: ctx.grid.n_points >= 5,
        lambda ctx: localization.check_derivative_identity(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma),
        why_not="needs at least 5 grid times"),
    CheckDef(
        "spectral-bound", "gate",
        "t lambda_max(A_t) <= 1 for every path and time",
        lambda ctx: True,
        lambda ctx: localization.check_spectral_bound(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "orthogonality", "gate",
        "E (a_t - theta_t / (1 + t)) (x) theta_t = 0",
        lambda ctx: True,
        lambda ctx: localization.check_orthogonality(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "monotone-trace", "gate",
        "t -> tr E A_t is non-increasing",
        lambda ctx: True,
        lambda ctx: localization.check_monotone_trace(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "martingale", "gate",
        "E p_(t, theta_t)(x) = rho(x) pointwise on a fixed x-grid",
        lambda ctx: ctx.spec.dim == 1,
        lambda ctx: localization.check_density_martingale(
            ctx.spec, ctx.grid, ctx.cfg.n_paths, ctx.cfg.seed,
            sigma=ctx.cfg.tolerance_sigma),
        why_not="needs a one-dimensional measure"),
    CheckDef(
        "driver-equivalence", "gate",
        "theta_t from the Euler scheme agrees in law with t X + W_t",
        lambda ctx: _exact_drift(ctx.spec),
        lambda ctx: localization.check_driver_equivalence(
            ctx.spec, ctx.cfg.seed, n_paths=ctx.cfg.n_paths,
            sigma=ctx.cfg.tolerance_sigma),
        why_not="needs exact drifts (Gaussian, coordinate product or ball)"),
    CheckDef(
        "conditional-covariance", "gate",
        "E A_t = E Cov(X | X + s^(1/2) Z) with s = 1/t",
        lambda ctx: True,
        _run_conditional_covariance),
    CheckDef(
        "gamma-properties", "gate",
        "Gamma_r: rescaling, score covariance, 0 <= E Gamma <= Id, "
        "derivative identities, r lambda_max(Gamma_r) <= 1",
        lambda ctx: True,
        lambda ctx: follmer.check_gamma_properties(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-bound", "gate",
        "E |v_r|^2 <= 4 n / (1 - r)^2",
        lambda ctx: True,
        lambda ctx: follmer.check_fisher_bound(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-monotone", "gate",
        "r -> E |v_r|^2 is non-decreasing",
        lambda ctx: True,
        lambda ctx: follmer.check_fisher_monotone(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-identity", "gate",
        "E |v_r|^2 = J(law(x_r) || N(0, r Id)) by direct quadrature",
        lambda ctx: _fisher_quadrature(ctx.spec),
        lambda ctx: follmer.check_fisher_identity(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma),
        why_not="quadrature route needs a Gaussian or coordinate product"),
    CheckDef(
        "xr-law", "gate",
        "x_r is distributed as r X + (r (1 - r))^(1/2) Z",
        lambda ctx: True,
        lambda ctx: follmer.check_xr_law(
            ctx.frame(), ctx.cfg.seed, sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "de-bruijn", "gate",
        "KL(mu || gamma) = 1/2 integral over r of E |v_r|^2",
        lambda ctx: ctx.grid.n_points >= 10,
        lambda ctx: infotheory.de_bruijn_check(
            ctx.spec, ctx.frame(), sigma=ctx.cfg.tolerance_sigma),
        why_not="needs at least 10 grid times"),
    CheckDef(
        "deficit-bounds", "gate",
        "0 <= delta_EPI(mu) <= 2 n",
        lambda ctx: True,
        lambda ctx: infotheory.epi_deficit(
            ctx.spec, sigma=ctx.cfg.tolerance_sigma).bounds),
    CheckDef(
        "deficit-chain", "gate",
        "delta_EPI >= (xi / 4) integral on (xi, 1) of "
        "E |Gamma_r - E Gamma_r|^2 / (1 - r), plus the supporting algebra",
        lambda ctx: ctx.grid.n_points >= 10,
        _run_deficit_chain,
        why_not="needs at least 10 grid times"),
    CheckDef(
        "trace-ratio", "info",
        "sup_t tr E A_t^2 / n; no universal constant is gated, value only",
        lambda ctx: True,
        lambda ctx: localization.trace_square_ratio(ctx.ensemble())),
    CheckDef(
        "projection-domination", "gate",
        "E A_t of a marginal dominates the projection of E A_t",
        lambda ctx: ctx.spec.dim >= 2,
        _run_projection,
        why_not="needs dimension at least 2"),
)

_CHECK_IDS = tuple(d.check_id for d in _REGISTRY)


# ---------------------------------------------------------------------------
# Subcommands


def _print_report(rep: LemmaReport, indent: int = 0) -> None:
    print("  " * indent + str(rep))
    for s in rep.sub:
        _print_report(s, indent + 1)


def _cmd_verify(cfg: ExperimentConfig) -> int:
    ctx = RunContext(cfg)
    if cfg.checks:
        chosen = [d for d in _REGISTRY if d.check_id in cfg.checks]
        for d in chosen:
            if not d.applies(ctx):
                raise ConfigError(
                    f"check {d.check_id!r} does not apply to {cfg.measure}: {d.why_not}")
    else:
        chosen = [d for d in _REGISTRY if d.applies(ctx)]

    reports = []
    for d in chosen:
        rep = d.run(ctx)
        reports.append(rep)
        _print_report(rep)

    n_fail = sum(1 for r in reports if r.failed)
    n_info = sum(1 for r in reports if r.verdict == "INFO")
    n_pass = len(reports) - n_fail - n_info
    print(f"verdict: {n_pass} pass / {n_fail} fail / {n_info} info "
          f"({len(reports)} checks, measure {cfg.measure}, seed {cfg.seed})")

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        records = [
            {"check_id": f.check_id, "verdict": f.verdict,
             "statistic": float(f.statistic), "stderr": float(f.stderr),
             "tolerance": float(f.tolerance), "notes": f.notes}
            for rep in reports for f in rep.flat()
        ]
        path = os.path.join(cfg.out, "reports.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 2 if n_fail else 0


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    if not cfg.out:
        raise ConfigError("simulate needs an output directory "
                          "(--out, config output_dir, or SLOCLAB_OUT)")
    ctx = RunContext(cfg)
    stats = ctx.ensemble().stats()
    frame = ctx.frame()
    os.makedirs(cfg.out, exist_ok=True)

    eye = np.eye(stats.dim)
    stats_path = os.path.join(cfg.out, "stats.csv")
    with open(stats_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "r", "trace_cov", "trace_cov_se", "trace_cov_sq",
                    "trace_cov_sq_se", "eig_min", "eig_max", "decomp_dev"])
        for k in range(len(stats.t)):
            dev = float(np.abs(stats.mean_decomp[k] - eye).max())
            w.writerow([_fmt(stats.t[k]), _fmt(stats.r[k]),
                        _fmt(stats.mean_tr_cov[k]), _fmt(stats.se_tr_cov[k]),
                        _fmt(stats.mean_tr_cov_sq[k]), _fmt(stats.se_tr_cov_sq[k]),
                        _fmt(stats.eig_min[k]), _fmt(stats.eig_max[k]),
                        _fmt(dev)])

    curve = follmer.fisher_energy(frame)
    mean_gamma = frame.gamma.mean(axis=0)
    mean_gamma = 0.5 * (mean_gamma + np.swapaxes(mean_gamma, -1, -2))
    geig = np.linalg.eigvalsh(mean_gamma)
    follmer_path = os.path.join(cfg.out, "follmer.csv")
    with open(follmer_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["r", "fisher", "fisher_se", "fisher_bound",
                    "gamma_eig_min", "gamma_eig_max"])
        for k in range(len(curve.r)):
            w.writerow([_fmt(curve.r[k]), _fmt(curve.value[k]),
                        _fmt(curve.stderr[k]), _fmt(curve.bound[k]),
                        _fmt(geig[k, 0]), _fmt(geig[k, -1])])

    print(f"wrote {stats_path} and {follmer_path} "
          f"({len(stats.t)} grid times, {cfg.n_paths} paths, measure {cfg.measure})")
    return 0


def _cmd_tilt_probe(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = parse_measure_id(cfg.measure)
    theta = np.asarray(_parse_float_list("--theta", args.theta), float)
    t = float(args.t)

    def show(route: str, state) -> None:
        cov = np.asarray(state.cov, float)
        off = cov - np.diag(np.diag(cov))
        line = (f"route={route} log_z={_fmt(state.log_z)} "
                f"mean=({_fmt_vec(state.mean)}) "
                f"cov_diag=({_fmt_vec(np.diag(cov))}) "
                f"max_offdiag={_fmt(np.abs(off).max() if spec.dim > 1 else 0.0)}")
        if state.se_mean is not None:
            line += f" se_mean=({_fmt_vec(state.se_mean)})"
        print(line)

    if spec.family == "ball":
        show("quadrature", tilt.tilt_moments(spec, t, theta))
    else:
        show("analytic", tilt.tilt_moments(spec, t, theta))
    if spec.factors is not None:
        show("quadrature", tilt.tilt_moments_quadrature(spec, t, theta))
    rng = streams.generator(cfg.seed, "tilt-probe")
    state = tilt.tilt_moments_rejection(spec, t, theta, rng, cfg.tilt_samples)
    show("rejection", state)
    return 0


def _cmd_lk_table(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    catalog = (cfg.measure,) if args.measure else DEFAULT_CATALOG
    rows, floor = isoconst.l_bounds_sweep(catalog)

    lines = [["measure", "dim", "l_value", "l_stderr", "entropy",
              "entropy_se", "det_cov_pow", "sandwich", "floor"]]
    for rep in rows:
        spec = parse_measure_id(rep.measure_id)
        lines.append([rep.measure_id, str(spec.dim),
                      _fmt(rep.l_value.value), _fmt(rep.l_value.stderr),
                      _fmt(rep.entropy.value), _fmt(rep.entropy.stderr),
                      _fmt(rep.det_cov_pow), rep.sandwich.verdict,
                      rep.lower_bound.verdict])

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "lk_table.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(lines)
        print(f"wrote {path} ({len(rows)} measures)")
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerows(lines)
    print(str(floor))

    bad = floor.failed or any(
        r.sandwich.failed or r.lower_bound.failed for r in rows)
    return 2 if bad else 0


def _cmd_list_checks() -> int:
    width = max(len(d.check_id) for d in _REGISTRY)
    for d in _REGISTRY:
        tag = "INFO" if d.kind == "info" else "GATE"
        print(f"{d.check_id:<{width}}  {tag}  {d.statement}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through ConfigError (exit code 1)."""

    def error(self, message):  # noqa: A003 - argparse contract
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file")
    common.add_argument("--measure", metavar="ID", help="measure id, e.g. cube:8")
    common.add_argument("--paths", type=int, metavar="N", help="ensemble size")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--sigma", type=float, metavar="S",
                        help="tolerance multiplier for stochastic gates")
    common.add_argument("--workers", type=int, metavar="W",
                        help="worker threads for rejection tilts; every catalog "
                             "measure has an exact tilt, so no CLI run uses them")
    common.add_argument("--tilt-samples", type=int, dest="tilt_samples",
                        metavar="N", help="samples per rejection tilt")
    common.add_argument("--grid-kind", dest="grid_kind",
                        choices=("geometric", "uniform"))
    common.add_argument("--grid-points", dest="grid_points", type=int, metavar="K")
    common.add_argument("--t-min", dest="t_min", type=float, metavar="T")
    common.add_argument("--t-max", dest="t_max", type=float, metavar="T")
    common.add_argument("--include", metavar="T1,T2,...",
                        help="extra grid times, comma separated")

    p = _Parser(prog="sloclab",
                description="stochastic localization laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="simulate an ensemble, write per-time CSV summaries") \
       .add_argument("--driver", choices=("direct", "sde"))
    sub.add_parser("verify", parents=[common],
                   help="run verification checks, write reports") \
       .add_argument("--checks", metavar="ID1,ID2,...",
                     help="subset of check ids (default: all that apply)")
    probe = sub.add_parser("tilt-probe", parents=[common],
                           help="print tilted moments along every route")
    probe.add_argument("--t", type=float, required=True, metavar="T")
    probe.add_argument("--theta", required=True, metavar="X1,X2,...")
    sub.add_parser("lk-table", parents=[common],
                   help="slicing constants across the measure catalog")
    sub.add_parser("list-checks", help="print the check registry")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list-checks":
            return _cmd_list_checks()
        cfg = build_config(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        if args.command == "tilt-probe":
            return _cmd_tilt_probe(cfg, args)
        if args.command == "lk-table":
            return _cmd_lk_table(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except SloclabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
