"""Report containers: gate verdicts, including non-finite inputs."""

import math

import pytest

from sloclab.reports import FAIL, PASS, gate


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
