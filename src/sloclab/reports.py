"""Report containers, and the gates every check builds its verdict with."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (KS_LEVEL, central_difference, familywise_level, fd_error_budget,
                       jackknife_se, ks_pvalues, time_blocks)

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"

# Rounding floors added to sigma * stderr, so that a statistic with stderr 0 is
# not held to exact equality; the covariance identities take the coarser one.
ROUNDING_FLOOR = 1e-9
COV_IDENTITY_FLOOR = 1e-8


@dataclass(frozen=True)
class EstimatorResult:
    """A scalar estimate with its Monte Carlo / quadrature error."""

    value: float
    stderr: float
    notes: str = ""


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verified identity or bound.

    ``statistic`` is the worst-case discrepancy (or the reported ratio for
    INFO checks), ``tolerance`` the acceptance threshold it was compared to.
    Composite checks carry their parts in ``sub``; a composite FAILs iff any
    gated part does.
    """

    check_id: str
    verdict: str
    statistic: float
    stderr: float
    tolerance: float
    notes: str
    sub: tuple["LemmaReport", ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INFO):
            raise ValueError(f"bad verdict {self.verdict!r}")

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL or any(s.failed for s in self.sub)

    def flat(self) -> list["LemmaReport"]:
        out = [self]
        for s in self.sub:
            out.extend(s.flat())
        return out

    def __str__(self):
        return (
            f"[{self.verdict}] {self.check_id}: stat={self.statistic:.4g} "
            f"tol={self.tolerance:.4g} {self.notes}".rstrip()
        )


def gate(check_id: str, gap: float, tolerance: float, stderr: float = 0.0,
         notes: str = "", sub: tuple = ()) -> LemmaReport:
    """PASS/FAIL report for ``gap <= tolerance``.

    A non-finite gap or tolerance FAILs, and ``notes`` says which.
    """
    verdict = PASS if gap <= tolerance else FAIL
    if any(s.verdict == FAIL for s in sub):
        verdict = FAIL
    for name, value in (("statistic", gap), ("tolerance", tolerance)):
        if not math.isfinite(value):
            verdict = FAIL
            notes = f"{notes}, non-finite {name}" if notes else f"non-finite {name}"
    return LemmaReport(check_id, verdict, float(gap), float(stderr),
                       float(tolerance), notes, tuple(sub))


def _worst(gap: np.ndarray, tol: np.ndarray, failing: np.ndarray) -> int:
    """Flat index of the comparison a report headlines: the largest ``gap / tol``.

    The ratio is a margin in units of its own tolerance.  One with tol <= 0
    (a KS part's negated level) ranks above every ratio when it FAILs and
    below every one when it PASSes, so a FAIL names a ``failing`` one.  A
    non-finite gap, then a non-finite tolerance, outranks everything.
    """
    rank = 2 * ~np.isfinite(gap) + ~np.isfinite(tol)
    if rank.any():
        return int(np.argmax(rank))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(tol > 0.0, gap / tol, np.where(failing, np.inf, -np.inf))
    return int(np.argmax(np.where(failing | ~failing.any(), ratio, -np.inf)))


def composite_gate(check_id: str, subs, notes: str = "") -> LemmaReport:
    """`gate` over sub-reports, headlined by the gated part `_worst` picks.

    Parts rank by ``statistic / tolerance``, whatever their units, so a FAIL
    shows the part that failed by the most and a PASS the one that came closest.
    """
    gated = [s for s in subs if s.verdict != INFO]
    head = gated[_worst(np.array([s.statistic for s in gated]),
                        np.array([s.tolerance for s in gated]),
                        np.array([s.failed for s in gated]))]
    return gate(check_id, head.statistic, head.tolerance, head.stderr, notes=notes,
                sub=tuple(subs))


def entrywise_gate(check_id: str, gap, tol, se=None, notes: str = "",
                   first_row: int = 0) -> LemmaReport:
    """`gate` at the entry `_worst` picks, the largest ``gap / tol``; ``notes`` gains its index.

    The index counts axis 0 from ``first_row``: a gap that starts at grid
    node 1 passes 1, so the index names the grid time.
    """
    gap = np.asarray(gap, float)
    tol = np.broadcast_to(np.asarray(tol, float), gap.shape)
    worst = np.unravel_index(_worst(gap, tol, gap > tol), gap.shape)
    stderr = 0.0 if se is None else float(np.broadcast_to(se, gap.shape)[worst])
    index = tuple(int(v) + (first_row if axis == 0 else 0) for axis, v in enumerate(worst))
    where = f" worst at index {index}"
    return gate(check_id, float(gap[worst]), float(tol[worst]), stderr=stderr,
                notes=notes + where)


def derivative_gate(check_id: str, y, x: np.ndarray, rhs, sigma: float) -> LemmaReport:
    """Entrywise gate for d/dx E y = E rhs at the interior grid nodes, in blocks of grid times.

    ``y`` and ``rhs`` take a slice of grid nodes and return the per-path
    arrays (m, len, ...) there, on the grid ``x`` (K,).  The interior nodes
    1 .. K - 2 are walked in the blocks of `time_blocks`, sized from the
    bytes of one node's y, and each block reads y with one more node on
    either side, so no (m, K, ...) array is built.  The statistic is |mean
    over paths of the central difference of y minus rhs|; the tolerance is
    sigma * (its standard error + the step-doubling budget of the mean curve
    E y, gathered from the blocks) + COV_IDENTITY_FLOOR.  Every number is
    per grid node and its paths are summed in order, so the blocks give the
    whole-array values bit for bit.  The reported index is (k, ...) for grid
    node x[k], 1 <= k <= K - 2.
    """
    first = y(slice(0, 1))
    _, _, *rest = first.shape
    k_pts = len(x)
    mean_y = np.empty([k_pts] + rest)
    mean = np.empty([k_pts - 2] + rest)
    se = np.empty_like(mean)
    for b in time_blocks(k_pts - 2, first.nbytes):
        halo = slice(b.start, b.stop + 2)
        y_b = y(halo)
        mean_y[halo] = y_b.mean(axis=0)
        gap = central_difference(y_b, x[halo]) - rhs(slice(b.start + 1, b.stop + 1))
        mean[b], se[b] = _path_mean_se(gap)
    budget = fd_error_budget(mean_y, x)
    return entrywise_gate(check_id, np.abs(mean),
                          sigma * (se + budget) + COV_IDENTITY_FLOOR, se, first_row=1)


def _path_mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over paths (axis 0) and its s / sqrt(m), each path added in order.

    numpy adds the paths in order when each holds two or more numbers, but
    pairwise when each holds one, as a one-node block of a scalar curve
    does; such a block is reduced beside a copy of itself, so that its bits
    are the whole curve's.
    """
    flat = values.reshape(len(values), -1)
    if flat.shape[1] == 1:
        flat = np.repeat(flat, 2, axis=1)
    width = values[0].size
    return (flat.mean(axis=0)[:width].reshape(values.shape[1:]),
            jackknife_se(flat)[:width].reshape(values.shape[1:]))


def ks_gate(check_id: str, a: np.ndarray, b: np.ndarray, where: str) -> LemmaReport:
    """Per-coordinate two-sample KS of ``a`` against ``b`` (m, n), gated on the smallest p-value.

    Its level is `familywise_level` of `KS_LEVEL`, so a healthy measure FAILs
    with probability `KS_LEVEL` whatever n is.  ``where`` places the minimum
    in the notes; its ``{j}`` becomes the minimum's coordinate.
    """
    pvals = ks_pvalues(a, b)
    j = int(np.argmin(pvals))
    level = familywise_level(KS_LEVEL, len(pvals))
    return gate(check_id, float(-pvals[j]), -level,
                notes=f"min p-value {pvals[j]:.4g} {where.format(j=j)}, "
                      f"level {level:.4g} ({KS_LEVEL} over {len(pvals)} coordinates)")


def info(check_id: str, statistic: float, stderr: float = 0.0, notes: str = "") -> LemmaReport:
    """Diagnostic report that never gates an exit code."""
    return LemmaReport(check_id, INFO, float(statistic), float(stderr), 0.0, notes)
