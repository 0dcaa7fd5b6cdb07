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
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import covariance, follmer, infotheory, isoconst, localization, streams, tilt
from .errors import ConfigError, SloclabError
from .localization import TimeGrid
from .measures import DEFAULT_CATALOG, parse_measure_id
from .numerics import path_mean
from .reports import LemmaReport


def _fmt(x) -> str:
    """17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in np.asarray(v, float).ravel())


def _write_csv(path: str | None, rows) -> None:
    """``rows``, lists of cells, as CSV with '\\n' line ends, to ``path`` or, if None, stdout."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class Setting:
    """Where one ExperimentConfig field is read: JSON key, SLOCLAB_* variable, flag."""

    kind: type                # int, float or str; for a list, the kind of its items
    key: str                  # JSON key; "grid.<k>" sits inside the grid object
    flag: str                 # its argparse dest is the field name
    command: tuple            # the subcommands that take the flag
    alias: str = ""           # a second JSON key
    env: str = ""             # SLOCLAB_* variable, if any
    choices: tuple = ()
    many: str = ""            # a list (JSON array, comma-separated text): its JSON type name
    if_empty: str = ""        # a list that may not be empty: the error's tail
    metavar: str | None = None
    help: str | None = None


def _setting(default, kind, key, flag, command, **where):
    return dataclasses.field(default=default,
                             metadata={"setting": Setting(kind, key, flag, command, **where)})


# the commands that simulate paths on a time grid
_PATHS = ("simulate", "verify")


@dataclass
class ExperimentConfig:
    measure: str = _setting("gaussian:2", str, "measure", "--measure",
                            (*_PATHS, "tilt-probe", "lk-table"), alias="measure_id",
                            env="SLOCLAB_MEASURE", metavar="ID", help="measure id, e.g. cube:8")
    n_paths: int = _setting(1024, int, "n_paths", "--paths", _PATHS, env="SLOCLAB_PATHS",
                            metavar="N", help="ensemble size")
    seed: int = _setting(0, int, "seed", "--seed", (*_PATHS, "tilt-probe"),
                         env="SLOCLAB_SEED", metavar="U64", help="master seed")
    grid_kind: str = _setting("geometric", str, "grid.kind", "--grid-kind", _PATHS,
                              choices=("geometric", "uniform"))
    # geometric grids only; build_config fills the default
    t_min: float | None = _setting(None, float, "grid.t_min", "--t-min", _PATHS, metavar="T")
    t_max: float = _setting(100.0, float, "grid.t_max", "--t-max", _PATHS, metavar="T")
    grid_points: int = _setting(40, int, "grid.points", "--grid-points", _PATHS, metavar="K")
    include: tuple = _setting((), float, "grid.include", "--include", _PATHS, many="list",
                              metavar="T1,T2,...", help="extra grid times, comma separated")
    checks: tuple = _setting(
        (), str, "checks", "--checks", ("verify",), many="list of ids",
        if_empty="names no check id; leave it out to run every check that applies",
        metavar="ID1,ID2,...", help="subset of check ids (default: all that apply)")
    out: str = _setting("", str, "out", "--out", (*_PATHS, "lk-table"), alias="output_dir",
                        env="SLOCLAB_OUT", metavar="DIR", help="output directory")
    tolerance_sigma: float = _setting(4.0, float, "tolerance_sigma", "--sigma", ("verify",),
                                      env="SLOCLAB_SIGMA", metavar="S",
                                      help="tolerance multiplier for stochastic gates")
    workers: int = _setting(1, int, "workers", "--workers", _PATHS, env="SLOCLAB_WORKERS",
                            metavar="W", help="accepted and validated, but has no effect: "
                                              "every tilt is exact and runs in one thread")
    tilt_samples: int = _setting(1024, int, "tilt_samples", "--tilt-samples",
                                 ("verify", "tilt-probe"), env="SLOCLAB_TILT_SAMPLES",
                                 metavar="N", help="exact draws on tilt-probe's sample route; "
                                                   "verify accepts it and draws none")
    driver: str = _setting("direct", str, "driver", "--driver", ("simulate",),
                           choices=("direct", "sde"))


SETTINGS = {f.name: f.metadata["setting"] for f in dataclasses.fields(ExperimentConfig)}
GEOMETRIC_T_MIN = 0.01


def _want(field, value, kind):
    """Coerce a JSON config value, rejecting silent type surprises."""
    name, types = {int: ("integer", int), float: ("number", (int, float)),
                   str: ("string", str)}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config field {field}: expected {name}, got {value!r}")
    return kind(value)


def _nonempty(source: str, s: Setting, items: tuple) -> tuple:
    if s.if_empty and not items:
        raise ConfigError(f"{source} {s.if_empty}")
    return items


def _json_value(s: Setting, value):
    if not s.many:
        return _want(s.key, value, s.kind)
    if not isinstance(value, list):
        raise ConfigError(f"config field {s.key}: expected {s.many}")
    return _nonempty(f"config field {s.key}", s,
                     tuple(_want(f"{s.key}[]", v, s.kind) for v in value))


def _from_text(source: str, text: str, kind, many=False):
    """Parse a SLOCLAB_* value, or comma-separated items; errors name the source."""
    try:
        if many:
            return tuple(kind(s.strip()) for s in text.split(",") if s.strip())
        return kind(text)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from e


def _load_config(path: str) -> dict:
    """Parse a JSON config file into ExperimentConfig fields, plus "_dim"."""
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

    keys = {k: name for name, s in SETTINGS.items() for k in (s.key, s.alias) if k}
    top = {k: name for k, name in keys.items() if "." not in k}
    grid = {k.removeprefix("grid."): name for k, name in keys.items() if k.startswith("grid.")}
    out: dict = {}
    for key, value in raw.items():
        if key == "dim":
            out["_dim"] = _want("dim", value, int)
        elif key == "grid":
            if not isinstance(value, dict):
                raise ConfigError(f"config field grid: expected object, got {value!r}")
            for gk, gv in value.items():
                if gk not in grid:
                    raise ConfigError(f"config field grid.{gk}: unknown key "
                                      f"(valid: {', '.join(sorted(grid))})")
                out[grid[gk]] = _json_value(SETTINGS[grid[gk]], gv)
        elif key in top:
            out[top[key]] = _json_value(SETTINGS[top[key]], value)
        else:
            raise ConfigError(f"config {path}: unknown key {key!r} "
                              f"(valid: {', '.join(sorted([*top, 'dim', 'grid']))})")
    return out


def _given(args: argparse.Namespace) -> dict:
    """The fields some source sets: config file, then environment, then flags."""
    values = _load_config(args.config) if getattr(args, "config", None) else {}
    for name, s in SETTINGS.items():
        if s.env and s.env in os.environ:
            values[name] = _from_text(s.env, os.environ[s.env], s.kind)
    for name, s in SETTINGS.items():
        val = getattr(args, name, None)
        if val is not None:
            values[name] = (_nonempty(s.flag, s, _from_text(s.flag, val, s.kind, many=True))
                            if s.many else val)
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, environment, and flags, then validate."""
    values = dataclasses.asdict(ExperimentConfig())
    given = _given(args)
    dim = given.pop("_dim", None)
    values.update(given)

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
    for name, s in SETTINGS.items():
        if s.choices and (value := getattr(cfg, name)) not in s.choices:
            raise ConfigError(f"{name.replace('_', ' ')} must be "
                              f"{' or '.join(map(repr, s.choices))}, not {value!r}")
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
    """Lazily built shared state; one ensemble serves every selected check,
    and one EPI deficit serves ``deficit-bounds`` and ``deficit-chain``.

    Only driver-equivalence and projection-domination's marginal side
    simulate paths of their own.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = parse_measure_id(cfg.measure)
        self._grid = None
        self._ensemble = None
        self._frame = None
        self._deficit = None

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
                driver=self.cfg.driver)
        return self._ensemble

    def frame(self):
        if self._frame is None:
            self._frame = follmer.to_follmer(self.ensemble())
        return self._frame

    def deficit(self):
        if self._deficit is None:
            self._deficit = infotheory.epi_deficit(self.spec, sigma=self.cfg.tolerance_sigma)
        return self._deficit

    def nearest_index(self, target: float) -> int:
        """Index of the grid time t > 0 nearest ``target``."""
        return 1 + int(np.argmin(np.abs(self.grid.points[1:] - target)))


def _default_basis(spec):
    if spec.family == "ball":
        return (0,)
    return tuple(range((spec.dim + 1) // 2))


# ---------------------------------------------------------------------------
# Check registry


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    kind: str                        # "gate" or "info"
    statement: str
    run: object                      # RunContext -> LemmaReport
    applies: object = lambda ctx: True  # RunContext -> bool
    why_not: str = ""                # shown when an explicitly requested check cannot run


def _chain_xi(r: np.ndarray) -> int:
    """Index of the deficit chain's xi: the grid's r nearest 0.5, short of the last."""
    return min(int(np.argmin(np.abs(r - 0.5))), len(r) - 2)


def _run_deficit_chain(ctx: RunContext) -> LemmaReport:
    frame = ctx.frame()
    xi = float(frame.r[_chain_xi(frame.r)])
    return infotheory.deficit_chain_audit(ctx.deficit().delta, frame, xi=xi,
                                          sigma=ctx.cfg.tolerance_sigma)


def _run_projection(ctx: RunContext) -> LemmaReport:
    return isoconst.check_projection_domination(
        ctx.ensemble(), _default_basis(ctx.spec), ctx.nearest_index(1.0),
        seed=ctx.cfg.seed, sigma=ctx.cfg.tolerance_sigma)


_REGISTRY = (
    CheckDef(
        "variance-decomposition", "gate",
        "E A_t + E a_t (x) a_t = Id at every grid time",
        lambda ctx: localization.check_variance_decomposition(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "derivative-identity", "gate",
        "d/dt E A_t = -E A_t^2, finite differences with a step-halving budget",
        lambda ctx: localization.check_derivative_identity(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "spectral-bound", "gate",
        "t lambda_max(A_t) <= 1 for every path and time",
        lambda ctx: localization.check_spectral_bound(ctx.ensemble())),
    CheckDef(
        "orthogonality", "gate",
        "E (a_t - theta_t / (1 + t)) (x) theta_t = 0",
        lambda ctx: localization.check_orthogonality(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "monotone-trace", "gate",
        "t -> tr E A_t is non-increasing",
        lambda ctx: localization.check_monotone_trace(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "martingale", "gate",
        "E p_(t, theta_t)(x) = rho(x) pointwise on a fixed x-grid",
        lambda ctx: localization.check_density_martingale(
            ctx.ensemble(), sigma=ctx.cfg.tolerance_sigma),
        applies=lambda ctx: ctx.spec.dim == 1,
        why_not="needs a one-dimensional measure"),
    CheckDef(
        "driver-equivalence", "gate",
        "theta_t from the Euler scheme agrees in law with t X + W_t",
        lambda ctx: localization.check_driver_equivalence(
            ctx.spec, ctx.cfg.seed, n_paths=ctx.cfg.n_paths,
            sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "conditional-covariance", "gate",
        "E A_t = E Cov(X | X + s^(1/2) Z) with s = 1/t",
        lambda ctx: tilt.conditional_covariance_identity_check(
            ctx.ensemble(), ctx.nearest_index(1.0), ctx.cfg.seed,
            sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "gamma-properties", "gate",
        "Gamma_r = (1 + t) A_t: score covariance, 0 <= E Gamma <= Id, "
        "derivative identities, r lambda_max(Gamma_r) <= 1",
        lambda ctx: follmer.check_gamma_properties(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-bound", "gate",
        "E |v_r|^2 <= 4 n / (1 - r)^2",
        lambda ctx: follmer.check_fisher_bound(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-monotone", "gate",
        "r -> E |v_r|^2 is non-decreasing",
        lambda ctx: follmer.check_fisher_monotone(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "fisher-identity", "gate",
        "E |v_r|^2 = J(law(x_r) || N(0, r Id)) by direct quadrature",
        lambda ctx: follmer.check_fisher_identity(
            ctx.frame(), sigma=ctx.cfg.tolerance_sigma),
        applies=lambda ctx: ctx.spec.factors is not None,
        why_not="quadrature route needs a coordinate product"),
    CheckDef(
        "xr-law", "gate",
        "x_r is distributed as r X + (r (1 - r))^(1/2) Z",
        lambda ctx: follmer.check_xr_law(
            ctx.frame(), ctx.cfg.seed, sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "de-bruijn", "gate",
        "KL(mu || gamma) = 1/2 integral over r of E |v_r|^2",
        lambda ctx: infotheory.de_bruijn_check(
            ctx.spec, ctx.frame(), sigma=ctx.cfg.tolerance_sigma)),
    CheckDef(
        "deficit-bounds", "gate",
        "0 <= delta_EPI(mu) <= 2 n",
        lambda ctx: ctx.deficit().bounds),
    CheckDef(
        "deficit-chain", "gate",
        "delta_EPI >= (xi / 4) integral on (xi, 1) of "
        "E |Gamma_r - E Gamma_r|^2 / (1 - r), plus the supporting algebra",
        _run_deficit_chain,
        applies=lambda ctx: ctx.grid.n_points >= _chain_xi(ctx.grid.r_points) + 3,
        why_not="needs 3 grid times from the r nearest 0.5"),
    CheckDef(
        "trace-ratio", "info",
        "sup_{t>0} E tr A_t^2 / n; no universal constant is gated, value only",
        lambda ctx: localization.trace_square_ratio(ctx.ensemble())),
    CheckDef(
        "projection-domination", "gate",
        "E A_t of a marginal dominates the projection of E A_t",
        _run_projection,
        applies=lambda ctx: ctx.spec.dim >= 2,
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
    spec, grid = ctx.spec, ctx.grid
    t, k_pts, m, n = grid.points, grid.n_points, cfg.n_paths, spec.dim
    # theta comes a chunk of grid times at a time and each grid time is
    # folded in as the driver tilts it, so no path array is held whole
    paths = localization.start_paths(spec, grid, localization.path_keys(cfg.seed, m), cfg.driver)
    fold = localization.StatsFold(grid, m, n)
    energy = np.empty((m, k_pts))
    geig_min, geig_max = np.empty(k_pts), np.empty(k_pts)
    for b, theta, mean, cov, _ in localization.tilt_blocks(spec, grid, paths, cfg.driver):
        fold.add(b, mean, cov)
        energy[:, b] = follmer.path_energy(theta, mean, t[b])
        # Gamma_r overwrites the step's own covariances, which nothing reads
        # after the fold, so it takes no array of its own.  A name bound to it
        # would keep them alive into the next step's fold: 5,200 minor faults
        # on cube:32 with 1024 paths, against 2,100
        lo, hi = covariance.eig_extremes(path_mean(follmer.gamma_r(cov, t[b], out=cov))[None])
        geig_min[b], geig_max[b] = lo[0], hi[0]
    stats = fold.stats()
    curve = follmer.energy_curve(energy, grid.r_points, n)
    os.makedirs(cfg.out, exist_ok=True)

    stats_path = os.path.join(cfg.out, "stats.csv")
    dev = np.abs(stats.mean_decomp - np.eye(n)).max(axis=(1, 2))
    _write_csv(stats_path, [
        ["t", "r", "trace_cov", "trace_cov_se", "trace_cov_sq", "trace_cov_sq_se",
         "eig_min", "eig_max", "decomp_dev"],
        *([_fmt(x) for x in row] for row in zip(
            stats.t, stats.r, stats.mean_tr_cov, stats.se_tr_cov, stats.mean_tr_cov_sq,
            stats.se_tr_cov_sq, stats.eig_min, stats.eig_max, dev))])
    follmer_path = os.path.join(cfg.out, "follmer.csv")
    _write_csv(follmer_path, [
        ["r", "fisher", "fisher_se", "fisher_bound", "gamma_eig_min", "gamma_eig_max"],
        *([_fmt(x) for x in row] for row in zip(
            curve.r, curve.value, curve.stderr, curve.bound, geig_min, geig_max))])

    print(f"wrote {stats_path} and {follmer_path} "
          f"({len(stats.t)} grid times, {cfg.n_paths} paths, measure {cfg.measure})")
    return 0


def _cmd_tilt_probe(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = parse_measure_id(cfg.measure)
    theta = np.asarray(_from_text("--theta", args.theta, float, many=True))
    t = float(args.t)
    if len(theta) != spec.dim:
        raise ConfigError(f"--theta needs {spec.dim} values for {cfg.measure}, got {len(theta)}")

    # every route runs before any prints, so a route that cannot run prints nothing
    log_z, mean, cov = tilt.tilt_table(spec, t, theta[None])
    states = [("analytic" if spec.factors is not None else "quadrature", log_z[0], mean[0],
               covariance.dense(cov[:, None])[0, 0])]
    if spec.factors is not None:
        log_z, mean, var = zip(*(tilt.factor_tilt_quadrature(f, t, th)
                                 for f, th in zip(spec.factors, theta)))
        states.append(("quadrature", sum(log_z), np.array(mean), np.diag(var)))
    routes = [(route, f"log_z={_fmt(lz)} ", m, c, "") for route, lz, m, c in states]
    # the sample route: moments of exact draws, with the standard error of their mean
    draws = tilt.tilt_sample_batch(spec, t, theta[None, :],
                                   streams.generator(cfg.seed, "tilt-probe"),
                                   cfg.tilt_samples)[0][0]
    se_mean = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    routes.append(("sample", "", draws.mean(axis=0), np.atleast_2d(np.cov(draws, rowvar=False)),
                   f" se_mean=({_fmt_vec(se_mean)})"))
    for route, log_z, mean, cov, tail in routes:
        off = cov - np.diag(np.diag(cov))
        print(f"route={route} {log_z}mean=({_fmt_vec(mean)}) "
              f"cov_diag=({_fmt_vec(np.diag(cov))}) "
              f"max_offdiag={_fmt(np.abs(off).max() if spec.dim > 1 else 0.0)}{tail}")
    return 0


def _cmd_lk_table(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    # the whole catalog unless a flag, SLOCLAB_MEASURE or the config names a measure
    catalog = (cfg.measure,) if {"measure", "_dim"} & _given(args).keys() else DEFAULT_CATALOG
    rows, floor = isoconst.l_bounds_sweep(catalog)

    lines = [["measure", "dim", "l_value", "entropy", "sandwich", "floor"]]
    for rep in rows:
        spec = parse_measure_id(rep.measure_id)
        lines.append([rep.measure_id, str(spec.dim), _fmt(rep.l_value), _fmt(rep.entropy),
                      rep.sandwich.verdict, rep.lower_bound.verdict])

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "lk_table.csv")
        _write_csv(path, lines)
        print(f"wrote {path} ({len(rows)} measures)")
    else:
        _write_csv(None, lines)
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
    p = _Parser(prog="sloclab",
                description="stochastic localization laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for command, text in (
            ("simulate", "simulate an ensemble, write per-time CSV summaries"),
            ("verify", "run verification checks, write reports"),
            ("tilt-probe", "print tilted moments along every route"),
            ("lk-table", "slicing constants across the measure catalog")):
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("--config", metavar="FILE", help="JSON config file")
        for name, s in SETTINGS.items():
            if command in s.command:
                cmd.add_argument(s.flag, dest=name, type=None if s.many else s.kind,
                                 choices=s.choices or None, metavar=s.metavar, help=s.help)
        if command == "tilt-probe":
            cmd.add_argument("--t", type=float, required=True, metavar="T")
            cmd.add_argument("--theta", required=True, metavar="X1,X2,...")
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
    except (SloclabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
