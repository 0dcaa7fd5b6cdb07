"""Report containers: gate verdicts, including non-finite inputs, and the
headline of composite reports."""

import math

import numpy as np
import pytest

from sloclab import numerics
from sloclab.reports import (FAIL, PASS, composite_gate, derivative_gate, entrywise_gate,
                             gate, info)


def test_gate_finite_inputs():
    ok = gate("x", 0.5, 1.0, stderr=0.1, notes="n=4")
    assert ok.verdict == PASS
    assert str(ok) == "[PASS] x: stat=0.5 tol=1 n=4"
    bad = gate("x", 2.0, 1.0)
    assert bad.verdict == FAIL
    assert bad.notes == ""


@pytest.mark.parametrize("gap, tol, reason", [
    (math.nan, 1.0, "non-finite statistic"),
    (math.inf, 1.0, "non-finite statistic"),
    (0.5, math.nan, "non-finite tolerance"),
    (0.5, math.inf, "non-finite tolerance"),
    (-math.inf, -math.inf, "non-finite statistic, non-finite tolerance"),
], ids=["nan-stat", "inf-stat", "nan-tol", "inf-tol", "both"])
def test_gate_non_finite_fails_with_reason(gap, tol, reason):
    rep = gate("x", gap, tol)
    assert rep.verdict == FAIL
    assert rep.notes == reason
    assert gate("x", gap, tol, notes="t=1").notes == f"t=1, {reason}"


def test_composite_headlines_the_first_failing_part():
    ok = gate("a", 0.1, 1.0)
    tight = gate("b", 0.9, 1.0)
    bad_first = gate("c", -0.5, -1.0)
    bad_second = gate("d", 5.0, 1.0)
    rep = composite_gate("all", (ok, tight, bad_first, bad_second), notes="n=4")
    assert rep.verdict == FAIL
    assert (rep.statistic, rep.tolerance) == (-0.5, -1.0)
    assert rep.notes == "n=4"
    assert rep.sub == (ok, tight, bad_first, bad_second)


def test_composite_passes_on_the_tightest_part_and_skips_info():
    # a passing part with a tolerance below 0 (a KS part's negated level)
    # never headlines a PASS, however small its gap - tol
    rep = composite_gate("all", (gate("a", 0.1, 1.0), gate("b", -0.2, -0.25 + 0.1),
                                 info("i", 99.0)))
    assert rep.verdict == PASS
    assert (rep.statistic, rep.tolerance) == (0.1, 1.0)


def test_composite_ranks_parts_in_units_of_their_own_tolerance():
    # gap - tol would headline the small-scale part in both cases
    rep = composite_gate("all", (gate("fine", 0.005, 0.01), gate("coarse", 0.9, 1.0)))
    assert rep.verdict == PASS
    assert (rep.statistic, rep.tolerance) == (0.9, 1.0)
    rep = composite_gate("all", (gate("coarse", 2.0, 1.0), gate("fine", 0.03, 0.01)))
    assert rep.verdict == FAIL
    assert (rep.statistic, rep.tolerance) == (0.03, 0.01)


@pytest.mark.parametrize("parts", [
    ((0.1, 1.0), (2.0, 1.0)),
    ((-0.0057, -0.01), (0.0, 1e-9), (math.nan, 1.0)),
    ((0.5, math.nan), (0.2, 0.1)),
])
def test_composite_fail_line_never_shows_a_passing_comparison(parts):
    rep = composite_gate("all", [gate(f"p{i}", g, t) for i, (g, t) in enumerate(parts)])
    assert rep.verdict == FAIL
    assert not rep.statistic <= rep.tolerance


def test_entrywise_gate_names_a_non_finite_gap_first():
    gap = np.array([0.1, 5.0, 0.2, math.nan])
    tol = np.array([math.nan, 1.0, 1.0, 1.0])
    rep = entrywise_gate("e", gap, tol)
    assert rep.verdict == FAIL
    assert rep.notes == " worst at index (3,), non-finite statistic"
    rep = entrywise_gate("e", gap[:3], tol[:3])
    assert rep.notes == " worst at index (0,), non-finite tolerance"
    rep = entrywise_gate("e", gap[1:3], tol[1:3])
    assert rep.notes == " worst at index (0,)"


def test_entrywise_gate_names_the_entry_nearest_its_tolerance():
    # gap - tol would name the trivial first entry, which sits at its 1e-8 floor
    gap = np.array([1.1e-16, 0.5, 0.02])
    tol = np.array([1e-8, 1.0, 0.025])
    rep = entrywise_gate("e", gap, tol, se=np.array([0.0, 0.1, 0.005]))
    assert rep.verdict == PASS
    assert (rep.statistic, rep.tolerance, rep.stderr) == (0.02, 0.025, 0.005)
    assert rep.notes == " worst at index (2,)"


def test_entrywise_gate_ranks_a_failing_zero_tolerance_first():
    rep = entrywise_gate("e", np.array([[5.0, 1e-12], [0.0, -1.0]]),
                         np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert rep.verdict == FAIL
    assert rep.notes == " worst at index (0, 1)"
    rep = entrywise_gate("e", np.array([0.0, -1.0, 0.5]), np.array([0.0, 0.0, 1.0]))
    assert rep.verdict == PASS
    assert rep.notes == " worst at index (2,)"


def _curve(j, where):
    """y = x^2 on 4 paths and 3 columns, so dy/dx = 2x exactly at every interior node,
    and its right-hand side; ``where`` ("y" or "rhs") gains 1 at grid time j, column 2."""
    x = np.geomspace(0.1, 10.0, 10)
    y = np.tile(x * x, (4, 1))[:, :, None] * np.ones(3)
    rhs = np.tile(2.0 * x, (4, 1))[:, :, None] * np.ones(3)
    {"y": y, "rhs": rhs}[where][:, j, 2] += 1.0
    return x, y, rhs


def _gate(x, y, rhs):
    return derivative_gate("d", lambda s: y[:, s], x, lambda s: rhs[:, s], 4.0)


@pytest.mark.parametrize("j", [1, 4, 8])
def test_derivative_gate_names_the_grid_time_of_a_defect(j):
    # a defect in the right-hand side at grid time j must be reported at x[j]
    rep = _gate(*_curve(j, "rhs"))
    assert rep.failed
    assert rep.notes == f" worst at index ({j}, 2)"


@pytest.mark.parametrize("j", [3, 4, 6, 7])
@pytest.mark.parametrize("where", ["y", "rhs"])
def test_derivative_gate_blocks_keep_a_defect_on_a_block_boundary(j, where, monkeypatch):
    # blocks of three interior nodes, grid times 1-3, 4-6 and 7-8: a defect at
    # either side of a boundary, in y (read again as the next block's halo)
    # or in rhs, gives the one-block report field for field
    x, y, rhs = _curve(j, where)
    whole = _gate(x, y, rhs)
    assert whole.failed
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * y[:, 0].nbytes)
    assert numerics.time_blocks(8, y[:, 0].nbytes) == [slice(0, 3), slice(3, 6), slice(6, 8)]
    assert _gate(x, y, rhs) == whole
    if where == "rhs":
        assert whole.notes == f" worst at index ({j}, 2)"
