"""Spans around sloclab's public functions, and their self-time totals.

A traced run wraps the public functions listed in LAYERS and CHECKS in every
sloclab module namespace that binds them (for example
``localization.product_tilt_table``, the name ``localization`` imported from
``tilt``), then calls ``sloclab.cli.main``.  Nothing under ``src/`` changes.

Each span is a dict with the run id, its own index, its parent's index (-1
for the root), the layer name, start and end times from ``time.monotonic``
and the counts read from the wrapped call's return value or raised error.
Spans stay in memory until the run ends; ``self_times`` turns them into
per-layer self time (duration minus the time its child spans cover) and
per-layer count totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

F8 = 8  # bytes per float64


def _rejection_counts(bound, out, err):
    # tilt_sample_batch returns (samples, proposed, accepted); `accepted`
    # includes surplus beyond `size`, so accepted/proposed is the acceptance
    # rate and size/proposed the share of proposals actually returned.
    if err is not None:
        stalled = type(err).__name__ == "RejectionStall"
        proposed = int(getattr(err, "proposals", 0))
        accepted = round(float(getattr(err, "acceptance", 0.0)) * proposed)
        return {"calls": 1, "proposed": proposed, "accepted": accepted,
                "returned": 0, "stalls": int(stalled)}
    _, proposed, accepted = out
    return {"calls": 1, "proposed": int(proposed), "accepted": int(accepted),
            "returned": int(bound.arguments["size"]), "stalls": 0}


def _closed_table_counts(bound, out, err):
    return {} if err is not None else {"evals": len(out[0])}


def _closed_single_counts(bound, out, err):
    return {} if err is not None else {"evals": 1}


def _quad_counts(bound, out, err):
    return {"calls": 1}


def _ensemble_shapes(ensemble):
    """(m, K, n) and the element count of one path-indexed covariance array."""
    if isinstance(ensemble, (list, tuple)):
        m = len(ensemble)
        k_pts, n = ensemble[0].mean.shape
        return m, k_pts, n, m * ensemble[0].cov.size
    m, k_pts, n = ensemble.mean.shape
    return m, k_pts, n, ensemble.cov.size


def _stats_bytes(bound, out, err):
    """Bytes of the dense temporaries ensemble_stats materializes, from shapes.

    Counts one array per full-size expression in the function as it reads at
    this revision: outer, decomp and cov_sq; the six temporaries of the
    three-point central difference plus the gap sum; and four full-size
    arrays (m*mean - x, the leave-one-out means, their deviation, its square)
    in each jackknife_se call on cov, outer, decomp and gap.  Per-path scalars
    (traces) and the (K, n, n) reductions are left out.  Computed, not
    measured: it ignores caches, allocator reuse and numpy's in-place reuse
    of temporaries.
    """
    m, k_pts, n, cov_elems = _ensemble_shapes(bound.arguments["ensemble"])
    outer = m * k_pts * n * n
    dense = outer + 2 * cov_elems          # outer, decomp, cov_sq
    jack = 4 * (cov_elems + outer + cov_elems)
    if k_pts >= 5:
        gap = cov_elems * (k_pts - 2) // k_pts
        dense += 7 * gap
        jack += 4 * gap
    return {"bytes_computed": F8 * (dense + jack)}


def _follmer_bytes(bound, out, err):
    """Bytes of the new arrays to_follmer returns, from their shapes.

    x, the mean*scale temporary, v, gamma and se_gamma are new; cov_t is the
    input covariance itself and costs nothing.  Computed, not measured.
    """
    if err is not None:
        return {}
    ens = bound.arguments["ensemble"]
    total = out.x.size + ens.mean.size + out.v.size + out.gamma.size
    if out.se_gamma is not None:
        total += out.se_gamma.size
    if out.cov_t is not ens.cov:
        total += out.cov_t.size
    return {"bytes_computed": F8 * total}


def _simulate_layer(bound):
    return "localization.simulate." + bound.arguments["driver"]


# (module, function, layer name or callable(bound arguments) -> name, counter)
LAYERS = (
    ("tilt", "tilt_sample_batch", "tilt.rejection", _rejection_counts),
    ("tilt", "product_tilt_table", "tilt.closed", _closed_table_counts),
    ("tilt", "gaussian_tilt", "tilt.closed", _closed_single_counts),
    ("tilt", "factor_tilt_quadrature", "tilt.quad", _quad_counts),
    ("localization", "simulate_ensemble", _simulate_layer, None),
    ("localization", "ensemble_stats", "localization.ensemble_stats", _stats_bytes),
    ("follmer", "to_follmer", "follmer.to_follmer", _follmer_bytes),
    ("follmer", "marginal_fisher_information",
     "follmer.marginal_fisher_information", None),
)

# check id -> (module, function) that its registry entry in cli.py calls
CHECKS = {
    "variance-decomposition": ("localization", "check_variance_decomposition"),
    "derivative-identity": ("localization", "check_derivative_identity"),
    "spectral-bound": ("localization", "check_spectral_bound"),
    "orthogonality": ("localization", "check_orthogonality"),
    "monotone-trace": ("localization", "check_monotone_trace"),
    "martingale": ("localization", "check_density_martingale"),
    "driver-equivalence": ("localization", "check_driver_equivalence"),
    "conditional-covariance": ("tilt", "conditional_covariance_identity_check"),
    "gamma-properties": ("follmer", "check_gamma_properties"),
    "fisher-bound": ("follmer", "check_fisher_bound"),
    "fisher-monotone": ("follmer", "check_fisher_monotone"),
    "fisher-identity": ("follmer", "check_fisher_identity"),
    "xr-law": ("follmer", "check_xr_law"),
    "de-bruijn": ("infotheory", "de_bruijn_check"),
    "deficit-bounds": ("infotheory", "epi_deficit"),
    "deficit-chain": ("infotheory", "deficit_chain_audit"),
    "trace-ratio": ("localization", "trace_square_ratio"),
    "projection-domination": ("isoconst", "check_projection_domination"),
}

ROOT = "cli"
SPANNED = ("tilt.rejection", "tilt.closed", "tilt.quad",
           "localization.simulate.direct", "localization.simulate.sde",
           "localization.ensemble_stats", "follmer.to_follmer",
           "follmer.marginal_fisher_information",
           *("check." + c for c in CHECKS), ROOT)


class Recorder:
    """In-memory span list for one run; single-threaded (workers=1)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"run": self.run_id, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else -1,
                "name": name, "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        if self._stack.pop() != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, layer, counter):
        sig = inspect.signature(fn)
        needs_args = callable(layer) or counter is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = self.begin(layer(bound) if callable(layer) else layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                if counter is not None:
                    span["counts"] = counter(bound, None, err)
                raise
            finally:
                self.end(span)
            if counter is not None:
                span["counts"] = counter(bound, out, None)
            return out

        return traced


def install(recorder: Recorder) -> int:
    """Wrap every LAYERS and CHECKS function in every sloclab namespace.

    Returns the number of bindings replaced.  Raises if a listed function is
    missing, so a renamed layer fails the run instead of reading as zero.
    """
    targets = [(mod, fn, layer, counter) for mod, fn, layer, counter in LAYERS]
    targets += [(mod, fn, "check." + cid, None) for cid, (mod, fn) in CHECKS.items()]
    modules = [m for name, m in list(sys.modules.items())
               if name == "sloclab" or name.startswith("sloclab.")]
    replaced = 0
    for mod_name, fn_name, layer, counter in targets:
        original = getattr(sys.modules["sloclab." + mod_name], fn_name)
        wrapper = recorder.wrap(original, layer, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced += 1
    return replaced


def self_times(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer self time and per-layer count totals of one run's spans."""
    selft: dict[str, float] = {}
    counts: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        selft[s["name"]] = selft.get(s["name"], 0.0) + dur
        if s["parent"] >= 0:
            parent = spans[s["parent"]]["name"]
            selft[parent] = selft.get(parent, 0.0) - dur
        if "counts" in s:
            total = counts.setdefault(s["name"], {})
            for key, val in s["counts"].items():
                total[key] = total.get(key, 0) + val
    return selft, counts
