"""Report containers, and the gates every check builds its verdict with."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import (KS_LEVEL, central_difference, familywise_level, fd_error_budget,
                       ks_pvalues, path_mean, path_mean_se, time_blocks)

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


def _worst(gap: np.ndarray, tol: np.ndarray, failing: np.ndarray | None = None):
    """Rank and flat index of the comparison a report headlines: the largest ``gap / tol``.

    The ratio is a margin in units of its own tolerance.  One with tol <= 0
    (a KS part's negated level) ranks above every ratio when it FAILs and
    below every one when it PASSes, so a FAIL names a ``failing`` one;
    ``failing`` None means ``gap > tol``.  A non-finite gap, then a
    non-finite tolerance, outranks everything, and a tie goes to the first
    index.  The rank, a tuple, orders these across calls as they order
    entries within one.  ``tol`` may be a broadcast view; the arrays are
    ranked in chunks of rows along axis 0 of about `BLOCK_BYTES`, so no
    temporary is larger than a chunk.
    """
    if gap.ndim == 0:
        gap, tol = gap.reshape(1), tol.reshape(1)
    width = gap[0].size  # entries a row
    step = max(1, numerics.BLOCK_BYTES // (8 * width))
    best = None
    for start in range(0, len(gap), step):
        rows = slice(start, start + step)
        g, t = gap[rows], tol[rows]
        fail = g > t if failing is None else failing[rows]
        bad_g, bad_t = ~np.isfinite(g), ~np.isfinite(t)
        if bad_g.any() or bad_t.any():
            tier, i = next((tier, int(np.argmax(bad))) for tier, bad in
                           ((5, bad_g & bad_t), (4, bad_g), (3, bad_t)) if bad.any())
            rank = (tier, 0.0)
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = np.divide(g, t)
            unscaled = t <= 0.0
            ratio[unscaled] = -np.inf
            ratio[unscaled & fail] = np.inf
            if fail.any():
                ratio[~fail] = -np.inf
            i = int(np.argmax(ratio))
            rank = (int(fail.flat[i]), float(ratio.flat[i]))
        if best is None or rank > best[0]:
            best = (rank, start * width + i)
    return best


def composite_gate(check_id: str, subs, notes: str = "") -> LemmaReport:
    """`gate` over sub-reports, headlined by the gated part `_worst` picks.

    Parts rank by ``statistic / tolerance``, whatever their units, so a FAIL
    shows the part that failed by the most and a PASS the one that came closest.
    """
    gated = [s for s in subs if s.verdict != INFO]
    head = gated[_worst(np.array([s.statistic for s in gated]),
                        np.array([s.tolerance for s in gated]),
                        np.array([s.failed for s in gated]))[1]]
    return gate(check_id, head.statistic, head.tolerance, head.stderr, notes=notes,
                sub=tuple(subs))


class EntrywiseFold:
    """`entrywise_gate` over a gap given a block of grid times at a time.

    ``add`` takes the gap, tolerance and standard error of the grid times
    ``start`` .. on axis 1, as `entrywise_gate` takes them whole, and keeps
    only the entry `_worst` ranks first so far.  A tie goes to the first
    index in whole-array order, which is not block order: path 1's first
    grid time comes after path 0's last.  So ``report`` names the entry,
    and gives the numbers, that `entrywise_gate` gives on the whole gap.
    """

    def __init__(self):
        self._best = None

    def add(self, gap, tol, se=None, start: int = 0) -> None:
        gap = np.asarray(gap, float)
        tol = np.broadcast_to(np.asarray(tol, float), gap.shape)
        rank, flat = _worst(gap, tol)
        local = np.unravel_index(flat, gap.shape)
        index = tuple(int(v) + (start if axis == 1 else 0) for axis, v in enumerate(local))
        if self._best is not None:
            best_rank, best_index = self._best[:2]
            if rank < best_rank or (rank == best_rank and index > best_index):
                return
        stderr = 0.0 if se is None else float(np.broadcast_to(se, gap.shape)[local])
        self._best = (rank, index, float(gap[local]), float(tol[local]), stderr)

    def report(self, check_id: str, notes: str, first_row: int = 0) -> LemmaReport:
        """The gate at the worst entry; its index counts axis 0 from ``first_row``."""
        _, index, gap, tol, stderr = self._best
        index = tuple(v + (first_row if axis == 0 else 0) for axis, v in enumerate(index))
        return gate(check_id, gap, tol, stderr=stderr, notes=notes + f" worst at index {index}")


def entrywise_gate(check_id: str, gap, tol, se=None, notes: str = "",
                   first_row: int = 0) -> LemmaReport:
    """`gate` at the entry `_worst` picks, the largest ``gap / tol``; ``notes`` gains its index.

    The index counts axis 0 from ``first_row``: a gap that starts at grid
    node 1 passes 1, so the index names the grid time.
    """
    fold = EntrywiseFold()
    fold.add(gap, tol, se)
    return fold.report(check_id, notes, first_row)


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
        mean_y[halo] = path_mean(y_b)
        gap = central_difference(y_b, x[halo]) - rhs(slice(b.start + 1, b.stop + 1))
        mean[b], se[b] = path_mean_se(gap)
    budget = fd_error_budget(mean_y, x)
    return entrywise_gate(check_id, np.abs(mean),
                          sigma * (se + budget) + COV_IDENTITY_FLOOR, se, first_row=1)


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
