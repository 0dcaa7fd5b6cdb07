"""Benchmark of `sloclab verify` / `sloclab simulate`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; sloclab is imported from ./src.  A workload
is one or more CLI commands; each execution is one of them in a fresh
process (perfbench/child.py), with one BLAS thread, --workers 1, and no
SLOCLAB_* variables inherited.  A pass runs each command of the workload
once, back to back, at one program seed.

The program seeds of a run are derived from N (program_seeds).  --trace 0
runs one setup-only process, then one pass per program seed and the first
seed again, cycling while another pass still fits in S seconds, and reports
the medians over passes of the end-to-end metrics.  --trace 1 runs the
first program seed untraced and once more with spans around each layer
(spans.py), and reports the per-layer metrics.  Every execution's output is
checked, and executions of a command at the same program seed must write
byte-identical artifacts.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the result as JSON; environment and raw
numbers go to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
BLAS_THREADS = 1
WORKERS = 1
SETUP_ONLY_RUNS = 1
BUDGET_S = 170.0   # a run must exit within 180 s
OVERHEAD_LIMIT = 0.25  # |traced - untraced wall| as a share of the untraced wall
SPAN_COVER_TOL = 0.01  # |self-time sum - traced wall| as a share of the traced wall


class Workload(NamedTuple):
    commands: tuple      # CLI argument lists, run back to back, each in a fresh
                         # process; --seed, --workers and --out are added
    seeds: int           # program seeds per run; see program_seeds()
    largest: str         # the layer the traced run should find largest
    rows: int | None     # simulate: CSV rows (40 geometric points plus t = 0)


# Every check that applies to a 3-dimensional product except
# conditional-covariance, the one that uses rejection tilts.
_PRODUCT3_CLOSED_CHECKS = (
    "variance-decomposition,derivative-identity,spectral-bound,orthogonality,"
    "monotone-trace,driver-equivalence,gamma-properties,fisher-bound,"
    "fisher-monotone,fisher-identity,xr-law,de-bruijn,deficit-bounds,"
    "deficit-chain,trace-ratio,projection-domination")

# Every check that applies to ball:4 except deficit-bounds and deficit-chain,
# whose shared entropy estimate costs a fixed 3.5 s and no tilt, and
# conditional-covariance, which draws 1024 samples per tilt whatever
# --tilt-samples says, so that its rare low-acceptance tilts set the peak
# memory of about one execution in four (NOTES.md).
_BALL4_TILT_CHECKS = (
    "variance-decomposition,derivative-identity,spectral-bound,orthogonality,"
    "monotone-trace,gamma-properties,fisher-bound,fisher-monotone,xr-law,"
    "de-bruijn,trace-ratio,projection-domination")

_PRODUCT_EUU_CLOSED = [
    "verify", "--measure", "product:exp,uniform,uniform", "--paths", "1024",
    "--checks", _PRODUCT3_CLOSED_CHECKS]
_BALL4_HEALTHY = [
    "verify", "--measure", "ball:4", "--paths", "64", "--grid-points", "48",
    "--t-min", "2", "--t-max", "4", "--tilt-samples", "64",
    "--checks", _BALL4_TILT_CHECKS]

# NOTES.md says why each workload exists and why only two of them are in
# BENCHMARK.json.
WORKLOADS = {
    "simulate-cube32": Workload(
        (["simulate", "--measure", "cube:32", "--paths", "1024"],),
        3, "localization.ensemble_stats", 41),
    "verify-product-ball": Workload(
        (_PRODUCT_EUU_CLOSED, _BALL4_HEALTHY),
        4, "follmer.marginal_fisher_information", None),
    "verify-product-euu-closed": Workload(
        (_PRODUCT_EUU_CLOSED,), 2, "follmer.marginal_fisher_information", None),
    "verify-ball4-healthy": Workload((_BALL4_HEALTHY,), 4, "tilt.rejection", None),
    "verify-product3-closed": Workload(
        (["verify", "--measure", "product:exp,laplace,uniform", "--paths", "1024",
          "--checks", _PRODUCT3_CLOSED_CHECKS],),
        2, "follmer.marginal_fisher_information", None),
    "verify-product3": Workload(
        (["verify", "--measure", "product:exp,laplace,uniform", "--paths", "1024"],),
        3, "follmer.marginal_fisher_information", None),
    "verify-ball4": Workload(
        (["verify", "--measure", "ball:4", "--paths", "64", "--grid-points", "12",
          "--t-min", "0.05", "--t-max", "4", "--tilt-samples", "256"],),
        1, "tilt.rejection", None),
    "verify-cube8": Workload(
        (["verify", "--measure", "cube:8", "--paths", "4096"],),
        1, "tilt.rejection", None),
}


def program_seeds(seed: int, k: int) -> list:
    """The --seed values one run passes to the program: k*seed .. k*seed+k-1.

    A run takes medians over k program inputs; with k = 1 the program gets
    the benchmark seed itself.
    """
    return [k * seed + j for j in range(k)]


STATS_HEADER = ["t", "r", "trace_cov", "trace_cov_se", "trace_cov_sq",
                "trace_cov_sq_se", "eig_min", "eig_max", "decomp_dev"]
FOLLMER_HEADER = ["r", "fisher", "fisher_se", "fisher_bound",
                  "gamma_eig_min", "gamma_eig_max"]
REPORT_RE = re.compile(r"^( *)\[(PASS|FAIL|INFO)\] (\S+): stat=(\S+) tol=(\S+)")
SUMMARY_RE = re.compile(r"^verdict: (\d+) pass / (\d+) fail / (\d+) info \((\d+) checks")


class BenchError(Exception):
    """The benchmark itself cannot run; exit non-zero without a result."""


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_revision": revision, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas_threads_requested": BLAS_THREADS,
            "workers": WORKERS}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLOCLAB_")}
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# One execution


def execute(argv: list, mode: str, tag: str, wdir: str, deadline: float) -> dict:
    """Run child.py once; return its timeline, rusage, output and artifacts."""
    sidecar = os.path.join(wdir, f"{tag}.json")
    out_dir = os.path.join(wdir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), sidecar, mode, "--", *argv]
    with open(os.path.join(wdir, f"{tag}.stdout"), "w+b") as fo, \
            open(os.path.join(wdir, f"{tag}.stderr"), "w+b") as fe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env())
        timer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        stdout, stderr = fo.read().decode(), fe.read().decode()
    if t_exit >= deadline:
        raise BenchError(f"{tag}: killed at the {BUDGET_S:.0f} s budget")
    try:
        with open(sidecar, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"{tag}: exit {proc.returncode} without a sidecar ({e}); "
                         f"stderr: {stderr.strip()[-400:]}") from e
    if "setup_end" not in record:
        raise BenchError(f"{tag}: exit {proc.returncode} before the config was built; "
                         f"stderr: {stderr.strip()[-400:]}")
    artifacts = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                artifacts[name] = fh.read()
    return {
        "tag": tag, "mode": mode, "rc": proc.returncode, "record": record,
        "setup_s": record["setup_end"] - t_spawn,
        "wall_s": t_exit - record["setup_end"],
        "exit_s": t_exit - record["main_end"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout, "stderr": stderr, "artifacts": artifacts,
    }


# ---------------------------------------------------------------------------
# Correctness


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_verify(ex: dict, problems: list) -> int:
    """Check one verify execution; return its number of gated FAIL verdicts."""
    lines = ex["stdout"].splitlines()
    reports = [m for m in map(REPORT_RE.match, lines) if m]
    summary = [m for m in map(SUMMARY_RE.match, lines) if m]
    tag, rc = ex["tag"], ex["rc"]
    if rc == 1:
        if summary or "error:" not in ex["stderr"] or "crash" in ex["record"]:
            problems.append(f"{tag}: exit 1 must be a reported error with no verdict")
        if ex["artifacts"]:
            problems.append(f"{tag}: exit 1 but wrote {sorted(ex['artifacts'])}")
        return 0
    if len(summary) != 1:
        problems.append(f"{tag}: exit {rc} without exactly one verdict summary")
        return 0
    n_pass, n_fail, n_info, n_checks = map(int, summary[0].groups())
    top = [m for m in reports if not m.group(1)]
    verdicts = [m.group(2) for m in top]
    if (rc != (2 if n_fail else 0) or n_pass + n_fail + n_info != n_checks
            or len(top) != n_checks or verdicts.count("FAIL") != n_fail
            or verdicts.count("INFO") != n_info):
        problems.append(f"{tag}: exit {rc} disagrees with the printed summary "
                        f"{summary[0].group(0)!r} and {len(top)} verdict lines")
    # a non-finite statistic or tolerance must sit under a gated FAIL
    verdict_of_check = None
    for m in reports:
        if not m.group(1):
            verdict_of_check = m.group(2)
        if not (_finite(m.group(4)) and _finite(m.group(5))) and verdict_of_check != "FAIL":
            problems.append(f"{tag}: non-finite number in a {verdict_of_check} "
                            f"verdict: {m.group(0)}")
    try:
        records = json.loads(ex["artifacts"]["reports.json"])
    except (KeyError, ValueError) as e:
        problems.append(f"{tag}: reports.json missing or unreadable ({e})")
        return n_fail
    if [(r["check_id"], r["verdict"]) for r in records] != \
            [(m.group(3), m.group(2)) for m in reports]:
        problems.append(f"{tag}: reports.json does not list the printed verdicts")
    return n_fail


def check_simulate(ex: dict, rows: int, problems: list) -> None:
    tag = ex["tag"]
    if ex["rc"] != 0:
        problems.append(f"{tag}: simulate exited {ex['rc']}")
        return
    for name, header in (("stats.csv", STATS_HEADER), ("follmer.csv", FOLLMER_HEADER)):
        if name not in ex["artifacts"]:
            problems.append(f"{tag}: {name} not written")
            continue
        table = list(csv.reader(ex["artifacts"][name].decode().splitlines()))
        if table[:1] != [header]:
            problems.append(f"{tag}: {name} header is {table[:1]}")
        if len(table) - 1 != rows:
            problems.append(f"{tag}: {name} has {len(table) - 1} rows, expected {rows}")
        bad = [cell for row in table[1:] for cell in row if not _finite(cell)]
        if bad or any(len(row) != len(header) for row in table[1:]):
            problems.append(f"{tag}: {name} has malformed or non-finite cells {bad[:3]}")
    if f"({rows} grid times" not in ex["stdout"]:
        problems.append(f"{tag}: stdout does not report {rows} grid times")


def check_same_output(execs: list, problems: list) -> None:
    first = {}
    for ex in execs:
        ref = first.setdefault((ex["command"], ex["program_seed"]), ex)
        for key in ("rc", "stdout", "artifacts"):
            if ex[key] != ref[key]:
                problems.append(f"{ex['tag']}: {key} differs from {ref['tag']} "
                                "at the same seed")


# ---------------------------------------------------------------------------
# Metrics


def declared_units() -> tuple:
    """BENCHMARK.json's metric units: ({end-to-end name: unit}, {per-layer name: unit})."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        return tuple({m["name"]: m["unit"] for m in bench[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BenchError(f"run from the repository root: BENCHMARK.json unreadable ({e})") from e


def layer_metrics(untraced_wall: float, traced: list) -> dict:
    """Per-layer metrics of one traced pass: self times and counts summed over
    its commands' spans."""
    selft: dict = {}
    counts: dict = {}
    sp = []
    for ex in traced:
        sp += ex["record"]["spans"]
        ex_self, ex_counts = spans.self_times(ex["record"]["spans"])
        for name, v in ex_self.items():
            selft[name] = selft.get(name, 0.0) + v
        for name, c in ex_counts.items():
            total = counts.setdefault(name, {})
            for key, v in c.items():
                total[key] = total.get(key, 0) + v
    traced_wall = sum(ex["wall_s"] for ex in traced)
    exit_s = sum(ex["exit_s"] for ex in traced)
    rej = counts.get("tilt.rejection", {})
    proposed = rej.get("proposed", 0)
    ratios = [s["counts"]["accepted"] / s["counts"]["proposed"] for s in sp
              if s["name"] == "tilt.rejection" and s.get("counts", {}).get("proposed")]
    m = {name + ".s": selft.get(name, 0.0) for name in spans.SPANNED if name != spans.ROOT}
    m.update({
        "tilt.rejection.calls": rej.get("calls", 0),
        "tilt.rejection.proposals": proposed,
        "tilt.rejection.accept_ratio": rej.get("accepted", 0) / proposed if proposed else 0.0,
        "tilt.rejection.accept_ratio_min": min(ratios, default=0.0),
        "tilt.rejection.used_ratio": rej.get("returned", 0) / proposed if proposed else 0.0,
        "tilt.rejection.stalls": rej.get("stalls", 0),
        "tilt.closed.evals": counts.get("tilt.closed", {}).get("evals", 0),
        "tilt.quad.calls": counts.get("tilt.quad", {}).get("calls", 0),
        "localization.ensemble_stats.bytes_computed":
            counts.get("localization.ensemble_stats", {}).get("bytes_computed", 0),
        "follmer.to_follmer.bytes_computed":
            counts.get("follmer.to_follmer", {}).get("bytes_computed", 0),
        "cli.self_s": selft.get(spans.ROOT, 0.0),
        "cli.exit_s": exit_s,
        "trace.spans": len(sp),
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    m["trace.self_sum_s"] = sum(selft.values()) + exit_s
    return m


def show(metrics: dict, units: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value!r:>22}  {units.get(name, '-')}")


# ---------------------------------------------------------------------------


def run(args) -> dict:
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join("src", "sloclab", "cli.py")):
        raise BenchError("run from the repository root: src/sloclab/cli.py not found")
    units = declared_units()
    t_start = time.monotonic()
    deadline = t_start + BUDGET_S
    env = environment()
    if max(BLAS_THREADS, WORKERS) > env["nproc"]:
        raise BenchError(f"refusing {BLAS_THREADS} BLAS threads / {WORKERS} workers "
                         f"on {env['nproc']} cores")
    w = WORKLOADS[args.workload]
    wdir = os.path.join(WORK, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    out = os.path.relpath(os.path.join(wdir, "out"))

    def argv(cmd, program_seed):
        return [*cmd, "--seed", str(program_seed), "--workers", str(WORKERS),
                "--out", out]

    seeds = program_seeds(args.seed, w.seeds)
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          + "; then ".join(f"sloclab {' '.join(argv(cmd, 'S'))}" for cmd in w.commands)
          + f"; for S in {seeds}")

    setups = []
    if not args.trace:
        for i in range(SETUP_ONLY_RUNS):
            ex = execute(argv(w.commands[0], seeds[0]), "setup", f"setup{i}", wdir,
                         deadline)
            if ex["rc"] != 0:
                raise BenchError(f"setup-only process failed: {ex['stderr'][-400:]}")
            setups.append(ex["setup_s"])

    # A pass runs the workload's commands once each, back to back, at one
    # program seed.  --trace 0 runs a pass per program seed, then one at the
    # first seed again, which shows whether the artifacts repeat, then cycles
    # through the seeds while one more pass, at the median length so far,
    # still ends within S seconds of the start.  Every pass is timed: the
    # first process of a run is sometimes slower (up to 25% on
    # simulate-cube32, same input), which a median over three or more passes
    # absorbs.  --trace 1 runs the first seed untraced, twice for k > 1, and
    # then traced.  The k = 1 workloads run it untraced once: three of their
    # executions would not fit in BUDGET_S.
    k = len(seeds)
    if args.trace:
        plan = [(seeds[0], "run")] * (2 if k > 1 else 1) + [(seeds[0], "trace")]
    else:
        plan = [(s, "run") for s in seeds] + [(seeds[0], "run")]
    passes = []
    lengths = []
    while True:
        i = len(passes)
        program_seed, mode = plan[i] if i < len(plan) else (seeds[(i - k) % k], "run")
        t0 = time.monotonic()
        one_pass = []
        for c, cmd in enumerate(w.commands):
            ex = execute(argv(cmd, program_seed), mode,
                         f"exec{i}c{c}-{mode}-s{program_seed}", wdir, deadline)
            ex.update(program_seed=program_seed, command=c)
            one_pass.append(ex)
            print(f"  {ex['tag']}: exit {ex['rc']}, "
                  f"setup {ex['setup_s']:.3f} s, wall {ex['wall_s']:.3f} s, "
                  f"cpu {ex['cpu_s']:.3f} s, peak rss {ex['peak_rss_mb']:.1f} MiB")
        passes.append(one_pass)
        lengths.append(time.monotonic() - t0)
        now = time.monotonic()
        if len(passes) >= len(plan) and (
                args.trace or now - t_start + statistics.median(lengths) > args.seconds
                or now + 1.2 * lengths[-1] > deadline):
            break
    execs = [ex for one_pass in passes for ex in one_pass]

    env.update({key: execs[0]["record"]["env"][key]
                for key in ("python", "numpy", "scipy", "blas_threads")})
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise BenchError(f"BLAS reports {env['blas_threads']} threads on "
                         f"{env['nproc']} cores")
    print("env: " + json.dumps(env, sort_keys=True))

    problems: list[str] = []
    for ex in execs:
        if w.rows is None:
            ex["gates"] = check_verify(ex, problems)
        else:
            check_simulate(ex, w.rows, problems)
            ex["gates"] = 0
    check_same_output(execs, problems)
    failed_ops = sum(1 for ex in execs if ex["rc"] == 1)
    if problems:
        print("correctness: FAILED")
        for p in problems:
            print("  " + p)
    else:
        print(f"correctness: ok ({len(execs)} executions; exit codes agree with the "
              "verdicts, printed numbers finite or gated, artifacts byte-identical)")
    if failed_ops:
        first_error = next(ex for ex in execs if ex["rc"] == 1)["stderr"].strip()
        print(f"  {failed_ops} of {len(execs)} executions ended in an error: "
              + first_error.splitlines()[-1])
    outcome = {"gates_failed": max(sum(ex["gates"] for ex in p) for p in passes),
               "ops_failed_frac": failed_ops / len(execs)}

    def pass_wall(one_pass):
        return sum(ex["wall_s"] for ex in one_pass)

    trace_flags: list[str] = []
    if args.trace:
        # the untraced reference is the median of the untraced passes, which
        # all run the traced pass's program seed
        metrics = layer_metrics(statistics.median(map(pass_wall, passes[:-1])),
                                passes[-1])
        metrics.update(outcome)
        self_s = {name[:-2]: v for name, v in metrics.items() if name.endswith(".s")}
        self_s["cli"] = metrics["cli.self_s"]
        top = max(self_s, key=self_s.get)
        traced_wall = pass_wall(passes[-1])
        untraced_wall = metrics["trace.untraced_wall_s"]
        print(f"largest layer by self time: {top} ({self_s[top]:.3f} s); "
              f"predicted {w.largest}")
        print(f"self times sum to {metrics['trace.self_sum_s']:.3f} s; traced wall "
              f"{traced_wall:.3f} s; untraced wall {untraced_wall:.3f} s; tracing "
              f"overhead {metrics['trace.overhead_s']:+.3f} s")
        if top != w.largest:
            trace_flags.append(f"largest layer is {top}, predicted {w.largest}")
        if abs(metrics["trace.self_sum_s"] - traced_wall) > SPAN_COVER_TOL * traced_wall:
            trace_flags.append("the spans do not cover the traced wall time")
        if abs(metrics["trace.overhead_s"]) > OVERHEAD_LIMIT * untraced_wall:
            trace_flags.append(f"tracing overhead is beyond {OVERHEAD_LIMIT:.0%} of the "
                               "untraced wall, so self times need not add up to it")
        print("trace checks: " + ("FLAGGED: " + "; ".join(trace_flags) if trace_flags
                                  else "ok (largest layer as predicted; self times add "
                                  f"up to the untraced wall within {OVERHEAD_LIMIT:.0%})"))
    else:
        metrics = {
            "wall_s": statistics.median(map(pass_wall, passes)),
            "setup_s": statistics.median(setups + [ex["setup_s"] for ex in execs]),
            "cpu_s": statistics.median(sum(ex["cpu_s"] for ex in p) for p in passes),
            "peak_rss_mb": statistics.median(max(ex["peak_rss_mb"] for ex in p)
                                             for p in passes),
            **outcome,
        }
    listed = units[args.trace]
    missing = sorted(set(listed) - set(metrics))
    if missing:
        raise BenchError(f"BENCHMARK.json lists metrics this run does not make: {missing}")
    if args.trace:
        print("per layer (traced pass; times are self times):")
    else:
        print(f"end-to-end (medians of {len(passes)} passes; setup_s of "
              f"{len(setups) + len(execs)} processes):")
    show(metrics, {**units[1], **units[0]})
    return {"correct": not problems, "attempted": len(execs), "failed": failed_ops,
            "metrics": {name: metrics[name] for name in listed}, "units": listed,
            "trace_flags": trace_flags, "env": env, "problems": problems, "executions": [
                {k: ex[k] for k in ("tag", "command", "program_seed", "rc", "setup_s",
                                    "wall_s", "exit_s", "cpu_s", "peak_rss_mb")}
                for ex in execs],
            "setup_only_s": setups, **outcome}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
