"""The traced benchmark's bindings still name real sloclab functions.

``perfbench/spans.py`` wraps sloclab functions by module and name, and its
counters read call arguments by parameter name.  A rename in ``src/`` would
otherwise surface only when the traced benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (module, function) -> the parameter its counter or layer name reads
BOUND_PARAMETERS = {
    ("tilt", "tilt_sample_batch"): "size",
    ("localization", "simulate_ensemble"): "driver",
    ("localization", "ensemble_stats"): "ensemble",
    ("follmer", "to_follmer"): "ensemble",
}

# FrameEnsemble fields that the to_follmer byte counter reads
FRAME_FIELDS = {"x", "v", "gamma", "cov_t", "se_gamma"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    return ([(mod, fn) for mod, fn, _, _ in spans.LAYERS]
            + list(spans.CHECKS.values()))


def test_every_traced_function_resolves(spans):
    missing = []
    for mod, fn in _targets(spans):
        module = importlib.import_module("sloclab." + mod)
        if not callable(getattr(module, fn, None)):
            missing.append(f"{mod}.{fn}")
    assert not missing


def test_counted_parameters_exist(spans):
    counted = {(mod, fn) for mod, fn, layer, counter in spans.LAYERS
               if counter is not None or callable(layer)}
    assert set(BOUND_PARAMETERS) <= counted
    for (mod, fn), param in BOUND_PARAMETERS.items():
        func = getattr(importlib.import_module("sloclab." + mod), fn)
        assert param in inspect.signature(func).parameters, f"{mod}.{fn}({param}=)"


def test_frame_fields_read_by_counter():
    from sloclab.follmer import FrameEnsemble

    # the counter reads attributes: a dataclass field or a cached property
    names = {f.name for f in dataclasses.fields(FrameEnsemble)} | set(vars(FrameEnsemble))
    assert FRAME_FIELDS <= names
