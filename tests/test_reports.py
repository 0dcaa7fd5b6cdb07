"""Report containers: gate verdicts, including non-finite inputs, and the
headline of composite reports."""

import math

import numpy as np
import pytest

from sloclab import numerics
from sloclab.reports import (FAIL, PASS, EntrywiseFold, _worst, composite_gate,
                             derivative_gate, entrywise_gate, gate, info)


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


def _worst_whole(gap, tol, failing):
    """The whole-array ranking that `_worst`'s chunks must reproduce: four
    full-size temporaries, the first index of the largest rank."""
    rank = 2 * ~np.isfinite(gap) + ~np.isfinite(tol)
    if rank.any():
        return int(np.argmax(rank))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(tol > 0.0, gap / tol, np.where(failing, np.inf, -np.inf))
    return int(np.argmax(np.where(failing | ~failing.any(), ratio, -np.inf)))


def _crafted_gaps():
    """(name, gap, tol) on 12 rows of 5: three rows a chunk at a 120-byte budget."""
    tol = np.full((12, 5), 2.0)
    tie = np.full((12, 5), 1.0)
    tie[2, 4] = tie[3, 0] = 1.5                      # equal ratios either side of a chunk boundary
    fail = tie.copy()
    fail[5, 1] = fail[8, 2] = fail[6, 0] = 4.0       # equal FAILs across chunks
    fail[11, 4] = 3.0
    nan_gap, inf_tol = tie.copy(), tol.copy()
    nan_gap[9, 1] = np.nan
    inf_tol[1, 3] = np.inf                           # a non-finite gap outranks it
    both_gap, both_tol = fail.copy(), inf_tol.copy()
    both_gap[10, 2], both_tol[10, 2] = np.inf, np.nan
    both_gap[4, 4] = -np.inf
    ks_tol = tol.copy()
    ks_tol[0, 0] = ks_tol[7, 3] = -0.01              # KS parts: tol <= 0
    ks_pass = tie.copy()
    ks_pass[0, 0] = ks_pass[7, 3] = -0.5
    ks_fail = ks_pass.copy()
    ks_fail[7, 3] = 0.5
    all_ks = np.full((12, 5), -0.01)
    return [("all-pass-ties", tie, tol), ("partial-fail-ties", fail, tol),
            ("nan-gap-over-inf-tol", nan_gap, inf_tol), ("inf-tol", tie, inf_tol),
            ("both-non-finite", both_gap, both_tol), ("ks-parts-pass", ks_pass, ks_tol),
            ("ks-part-fails", ks_fail, ks_tol), ("ks-parts-only", all_ks - 0.5, all_ks),
            ("zero-gaps", np.zeros((12, 5)), tol)]


CRAFTED = pytest.mark.parametrize("name, gap, tol", _crafted_gaps(),
                                  ids=[case[0] for case in _crafted_gaps()])


@CRAFTED
def test_worst_in_chunks_matches_the_whole_array_ranking(name, gap, tol, monkeypatch):
    whole = _worst_whole(gap, tol, gap > tol)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * 5 * 8)
    assert _worst(gap, tol)[1] == whole, name
    # the same with failing flags given, as composite_gate gives them
    flags = np.zeros(gap.shape, bool)
    flags[6:, 2] = True
    assert _worst(gap, tol, flags)[1] == _worst_whole(gap, tol, flags), name
    # and on a flat array, in chunks of 15
    assert _worst(gap.ravel(), tol.ravel())[1] == whole, name


@pytest.mark.parametrize("seed", range(20))
def test_worst_in_chunks_matches_on_random_ties_and_non_finite_entries(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    gap = rng.integers(0, 4, (9, 4, 3)).astype(float)
    tol = rng.integers(1, 3, (9, 4, 3)).astype(float)
    tol[rng.random(tol.shape) < 0.05] = -0.01
    for arr, value in ((gap, np.nan), (gap, np.inf), (tol, np.nan), (tol, np.inf)):
        if rng.random() < 0.3:
            arr[tuple(rng.integers(0, s) for s in arr.shape)] = value
    monkeypatch.setattr(numerics, "BLOCK_BYTES", int(rng.integers(1, 4)) * 12 * 8)
    assert _worst(gap, tol)[1] == _worst_whole(gap, tol, gap > tol)


@CRAFTED
def test_entrywise_fold_over_blocks_matches_the_whole_gap(name, gap, tol, monkeypatch):
    # blocks split axis 1, so block order is not whole-array order: path 1's
    # first grid time comes after path 0's last, and a tie goes to it only
    # if it is first in whole-array order
    gap, tol = gap.reshape(4, 3, 5), tol.reshape(4, 3, 5)
    se = np.arange(gap.size, dtype=float).reshape(gap.shape)
    whole = entrywise_gate("g", gap, tol, se, notes="n,", first_row=1)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 8)
    for blocks in ([slice(0, 1), slice(1, 3)], [slice(0, 2), slice(2, 3)],
                   [slice(k, k + 1) for k in range(3)]):
        for order in (blocks, blocks[::-1]):
            fold = EntrywiseFold()
            for b in order:
                fold.add(gap[:, b], tol[:, b], se[:, b], start=b.start)
            # repr, as a NaN statistic is not equal to itself
            assert repr(fold.report("g", "n,", first_row=1)) == repr(whole), (name, order)
