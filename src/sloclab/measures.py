"""Catalog of log-concave probability measures on R^n.

Every measure is described by its log density log rho(x) = -psi(x), with
psi convex (+inf outside the support).  Every catalog member is isotropic
by construction (barycenter 0, covariance identity), as the slicing problem
states its bodies; there is no whitening route, and no spec here carries
its moments:

* ``gaussian:n``   standard Gaussian, the product of n ``gaussian`` factors
* ``cube:n``       uniform on [-sqrt(3), sqrt(3)]^n, n ``uniform`` factors
* ``ball:n``       uniform on the centered ball of radius sqrt(n+2)
* ``product:a,b``  product of standardized 1D factors (tags below)

1D factor tags: ``gaussian``, ``uniform`` (half-width sqrt(3)), ``exp``
(centered exponential, density e^{-(x+1)} on [-1, inf)), ``laplace``
(scale 1/sqrt(2)), ``truncgauss`` (standard normal cut at |x| <= 1 and
rescaled to unit variance).  All have mean 0 and variance 1, and each is a
list of truncated-Gaussian ``pieces`` (see `Factor1D`); ``ballmarg``, the
ball's 1D marginal, is the one factor without them.  Marginals are taken by
coordinate index (`isoconst.marginal`), so there is no subspace type.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputValidationError, UnknownMeasureError
from .numerics import gamma_half_step, radial_tilt_moments, trunc_normal_moments, xlogy

_LOG_2PI = math.log(2.0 * math.pi)
_SUPPORT_TOL = 1e-12
SQRT3 = math.sqrt(3.0)

GAUSSIAN_ENTROPY_RATE = 0.5 * math.log(2.0 * math.pi * math.e)  # per dimension


# ---------------------------------------------------------------------------
# 1D factors


class Factor1D:
    """One-dimensional log-concave factor, density exp(-psi) on [lo, hi].

    A closed-form factor lists its density as ``pieces``, tuples
    (c, b, lo, hi, k) that each mean exp(k - c x^2/2 - b x) on [lo, hi] with
    c >= 0.  The density, the tilted mode and the tilt all follow from
    them, and so does `sum_law`, the law of a sum of two independent
    factors: X1 + X2 for the EPI deficit, and r X + sqrt(r (1 - r)) Z, with
    each summand's pieces rescaled, for the Fisher information.  A factor
    without pieces overrides the density and the tilt, and it has no
    deficit or Fisher route (`require_pieces`).
    """

    tag = ""
    lo = -np.inf
    hi = np.inf
    pieces: tuple = ()

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        out = np.full(x.shape, -np.inf)
        for c, b, lo, hi, k in self.pieces:
            inside = (x >= lo - _SUPPORT_TOL) & (x <= hi + _SUPPORT_TOL)
            out = np.where(inside, np.maximum(out, k - x * (0.5 * c * x + b)), out)
        return out

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw ``size`` points; a ``(rows, size)`` draw equals ``rows`` successive size-draws."""
        raise NotImplementedError

    def entropy(self) -> float:
        raise NotImplementedError

    def tilt_mode(self, t: float, theta: np.ndarray) -> np.ndarray:
        """Batched mode of the tilted density exp(theta x - t x^2/2) rho(x); NaN without pieces.

        Tilted at t > 0, each piece peaks at (theta - b)/(t + c) clipped to
        [lo, hi]; the mode is the best of those points.
        """
        theta = np.asarray(theta, float)
        if not self.pieces:
            return np.full(theta.shape, np.nan)
        modes = np.stack([np.clip((theta - b) / (t + c), lo, hi)
                          for c, b, lo, hi, _ in self.pieces])
        best = np.argmax(theta * modes - 0.5 * t * modes * modes + self.log_density(modes), 0)
        return np.take_along_axis(modes, best[None], axis=0)[0]

    def tilt_stats(self, t: float, theta: np.ndarray):
        """Batched (log Z, mean, var) of the tilted factor, t > 0.

        Tilted, a piece is N((theta - b)/tau, 1/tau) cut to [lo, hi] with
        tau = t + c, and log Z = k + log(2 pi/tau)/2 + (theta - b)^2/2tau + log
        of the cut mass.  Several pieces mix in proportion to their Z.
        """
        theta = np.asarray(theta, float)
        parts = []
        for c, b, lo, hi, k in self.pieces:
            tau = t + c
            shifted = theta - b
            log_mass, mean, var = trunc_normal_moments(shifted / tau, 1.0 / math.sqrt(tau),
                                                       lo, hi)
            parts.append((k + 0.5 * math.log(2.0 * math.pi / tau)
                          + shifted * shifted / (2.0 * tau) + log_mass, mean, var))
        if len(parts) == 1:
            return parts[0]
        log_zs, means, variances = (np.stack(column) for column in zip(*parts))
        log_z = np.logaddexp.reduce(log_zs, axis=0)
        weights = np.exp(log_zs - log_z)
        mean = (weights * means).sum(axis=0)
        return log_z, mean, (weights * (variances + (means - mean) ** 2)).sum(axis=0)


class GaussianFactor(Factor1D):
    tag = "gaussian"
    pieces = ((1.0, 0.0, -np.inf, np.inf, -0.5 * _LOG_2PI),)

    def sample(self, rng, size):
        return rng.standard_normal(size)

    def entropy(self):
        return GAUSSIAN_ENTROPY_RATE


class UniformFactor(Factor1D):
    """Uniform on [-sqrt(3), sqrt(3)]."""

    tag = "uniform"
    lo = -SQRT3
    hi = SQRT3
    pieces = ((0.0, 0.0, -SQRT3, SQRT3, -math.log(2.0 * SQRT3)),)

    def sample(self, rng, size):
        return rng.uniform(-SQRT3, SQRT3, size)

    def entropy(self):
        return math.log(2.0 * SQRT3)


class ExpFactor(Factor1D):
    """Centered standard exponential: density e^{-(x+1)} on [-1, inf)."""

    tag = "exp"
    lo = -1.0
    pieces = ((0.0, 1.0, -1.0, np.inf, -1.0),)

    def sample(self, rng, size):
        return rng.exponential(1.0, size) - 1.0

    def entropy(self):
        return 1.0


class LaplaceFactor(Factor1D):
    """Laplace with scale 1/sqrt(2) (unit variance): two exponential pieces glued at 0."""

    tag = "laplace"
    scale = 1.0 / math.sqrt(2.0)
    pieces = ((0.0, -1.0 / scale, -np.inf, 0.0, -math.log(2.0 * scale)),
              (0.0, 1.0 / scale, 0.0, np.inf, -math.log(2.0 * scale)))

    def sample(self, rng, size):
        return rng.laplace(0.0, self.scale, size)

    def entropy(self):
        return 1.0 + math.log(2.0 * self.scale)


class TruncGaussFactor(Factor1D):
    """Standard normal conditioned on [-1, 1], rescaled to unit variance."""

    tag = "truncgauss"
    cut = 1.0

    def __init__(self):
        cut = self.cut
        self.z_cut = math.erf(cut / math.sqrt(2.0))
        phi_c = math.exp(-0.5 * cut * cut) / math.sqrt(2.0 * math.pi)
        self.sigma = math.sqrt(1.0 - 2.0 * cut * phi_c / self.z_cut)
        self.lo = -cut / self.sigma
        self.hi = cut / self.sigma
        self.pieces = ((self.sigma**2, 0.0, self.lo, self.hi,
                        math.log(self.sigma) - math.log(self.z_cut) - 0.5 * _LOG_2PI),)

    def sample(self, rng, size):
        if isinstance(size, tuple):  # the rejection batches follow size, so draw row by row
            rows, size = size
            return np.stack([self.sample(rng, size) for _ in range(rows)])
        out = np.empty(size)
        filled = 0
        while filled < size:
            draw = rng.standard_normal(max(size - filled, 64) * 2)
            keep = draw[np.abs(draw) <= self.cut]
            take = min(len(keep), size - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out / self.sigma

    def entropy(self):
        base = 0.5 * self.sigma**2 + 0.5 * _LOG_2PI + math.log(self.z_cut)
        return base - math.log(self.sigma)


class BallMarginalFactor(Factor1D):
    """1D marginal of the isotropic ball in R^nu: density ~ (R^2 - y^2)^((nu-1)/2).

    Unit variance by construction (R = sqrt(nu + 2)).  Its tilt has no closed
    form; `tilt_stats` integrates it by `radial_tilt_moments`.
    """

    tag = "ballmarg"

    def __init__(self, ambient_dim: int):
        if ambient_dim < 1:
            raise InputValidationError("ambient_dim must be >= 1")
        self.ambient_dim = int(ambient_dim)
        self.radius = math.sqrt(ambient_dim + 2.0)
        self.exponent = 0.5 * (ambient_dim - 1.0)
        self.lo = -self.radius
        self.hi = self.radius
        # log B(1/2, e + 1) = log Gamma(1/2) - (log Gamma(e + 3/2) - log Gamma(e + 1))
        self._log_gap, self._psi_gap = gamma_half_step(self.exponent + 1.0)
        self._log_norm = ((2.0 * self.exponent + 1.0) * math.log(self.radius)
                          + 0.5 * math.log(math.pi) - self._log_gap)

    def log_density(self, x):
        x = np.asarray(x, float)
        gap = np.maximum(self.radius**2 - x * x, 0.0)
        return np.where(np.abs(x) <= self.radius + _SUPPORT_TOL,
                        xlogy(self.exponent, gap) - self._log_norm, -np.inf)

    def sample(self, rng, size):
        a = self.exponent + 1.0
        return self.radius * (2.0 * rng.beta(a, a, size) - 1.0)

    def entropy(self):
        # log norm - e E log(R^2 - y^2), with 1 - y^2/R^2 ~ Beta(e + 1, 1/2), so
        # E log(R^2 - y^2) = 2 log R + psi(e + 1) - psi(e + 3/2); the 2e log R
        # cancels against log norm's before rounding
        return (math.log(self.radius) + 0.5 * math.log(math.pi) - self._log_gap
                + self.exponent * self._psi_gap)

    def tilt_stats(self, t, theta):
        # weight exp(theta y - t y^2 / 2) (R^2 - y^2)^exponent, t > 0
        theta = np.asarray(theta, float)
        log_int, mean, var, _, _, _ = radial_tilt_moments(
            theta.ravel(), t, self.radius, lambda gap: xlogy(self.exponent, gap))
        return ((log_int - self._log_norm).reshape(theta.shape), mean.reshape(theta.shape),
                var.reshape(theta.shape))


def require_pieces(factors, route: str) -> None:
    """Raise InputValidationError naming the first factor without pieces."""
    for f in factors:
        if not f.pieces:
            raise InputValidationError(
                f"{route} needs truncated-Gaussian pieces; factor {f.tag!r} has none")


def sum_law(first, second):
    """y -> (log g(y), E[X1 | X1 + X2 = y]) elementwise, g the density of X1 + X2.

    X1 and X2 are independent with the piece lists ``first`` and ``second``
    (see `Factor1D`).  Each pair of pieces (p, q) adds the integral of
    exp(k_p + k_q - c_p x^2/2 - b_p x - c_q (y-x)^2/2 - b_q (y-x)) over
    [max(lo_p, y - hi_q), min(hi_p, y - lo_q)], at the y where that window
    is not empty.  In x the exponent is -C x^2/2 + L x + const with
    C = c_p + c_q and L = c_q y - b_p + b_q: a Gaussian window when C > 0,
    N(L/C, 1/C) cut to the interval, whose log mass and mean come from
    `trunc_normal_moments`; an exponential when C = 0, and the interval
    length when L = 0 as well.  The conditional mean mixes the pairs' means
    in proportion to their mass, so it is NaN where g = 0 and where a pair
    with C = 0 has mass (the EPI deficit, the one caller with such pairs,
    reads only log g).
    """
    pairs = [(p, q) for p in first for q in second]

    def law(y):
        y = np.asarray(y, float)
        flat = y.ravel()
        logs = np.full((len(pairs), flat.size), -np.inf)
        means = np.zeros_like(logs)  # a pair without mass adds 0, not NaN * 0
        for row, mean, (p, q) in zip(logs, means, pairs):
            (cp, bp, lop, hip, kp), (cq, bq, loq, hiq, kq) = p, q
            a, b = np.maximum(lop, flat - hiq), np.minimum(hip, flat - loq)
            some = a < b
            ys, a, b = flat[some], a[some], b[some]
            cc, lin = cp + cq, cq * ys - bp + bq
            const = kp + kq - ys * (0.5 * cq * ys + bq)
            if cc > 0.0:
                centre = lin / cc
                log_w, mean[some], _ = trunc_normal_moments(centre, 1.0 / math.sqrt(cc), a, b)
                row[some] = (const + 0.5 * lin * centre + 0.5 * math.log(2.0 * math.pi / cc)
                             + log_w)
                continue
            mean[some] = np.nan
            if bq != bp:  # C = 0, so c_q = 0 and L = b_q - b_p
                lin = bq - bp
                row[some] = (const + np.maximum(lin * a, lin * b)
                             + np.log(-np.expm1(-abs(lin) * (b - a))) - math.log(abs(lin)))
            else:
                row[some] = const + np.log(b - a)
        log_g = np.logaddexp.reduce(logs, axis=0)
        with np.errstate(invalid="ignore"):  # -inf - -inf where g = 0
            cond_mean = (np.exp(logs - log_g) * means).sum(axis=0)
        return log_g.reshape(y.shape), cond_mean.reshape(y.shape)

    return law


_FACTORY = {
    "gaussian": GaussianFactor,
    "uniform": UniformFactor,
    "exp": ExpFactor,
    "laplace": LaplaceFactor,
    "truncgauss": TruncGaussFactor,
}


def make_factor(tag: str) -> Factor1D:
    try:
        return _FACTORY[tag]()
    except KeyError:
        raise UnknownMeasureError(
            f"unknown factor tag {tag!r}; catalog: {sorted(_FACTORY)}") from None


# ---------------------------------------------------------------------------
# Measure specs


class MeasureSpec:
    """Base class: immutable description of an isotropic measure on R^n.

    Mean 0 and covariance Id hold by construction, so a spec stores neither.
    """

    family = ""
    dim = 0

    # factors is not None exactly when the measure is a coordinate product
    factors: tuple[Factor1D, ...] | None = None

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log rho(x) for points x of shape (..., dim); -inf outside the support."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def entropy(self) -> float:
        """Differential entropy, in closed form."""
        raise NotImplementedError

    def measure_id(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.measure_id()}>"


class ProductSpec(MeasureSpec):
    """Product of independent 1D factors; covers Gaussians, cubes and mixed products.

    ``laws``: the distinct factor laws in order of first appearance, each as
    (factor, its columns).  Equal ``pieces`` make one law; a factor without
    pieces (``ballmarg``) is its own.  Batched routes run once per law.
    ``runs``: the maximal runs of consecutive columns of one factor class and
    law, each as (factor, run length); `sample` draws each run in one call.
    """

    def __init__(self, factors, family: str = "product"):
        factors = tuple(factors)
        if not factors:
            raise InputValidationError("need at least one factor")
        self.factors = factors
        self.family = family
        self.dim = len(factors)
        laws = {}
        for j, f in enumerate(factors):
            laws.setdefault(f.pieces or f, (f, []))[1].append(j)
        self.laws = tuple((f, np.array(cols)) for f, cols in laws.values())
        runs = [list(run) for _, run in
                itertools.groupby(factors, lambda f: (type(f), f.pieces or f))]
        self.runs = tuple((run[0], len(run)) for run in runs)

    def log_density(self, x):
        x = np.asarray(x, float)
        if x.shape[-1] != self.dim:
            raise InputValidationError(f"points must have {self.dim} coordinates")
        total = np.zeros(x.shape[:-1])
        for j, f in enumerate(self.factors):
            total = total + f.log_density(x[..., j])
        return total

    def sample(self, rng, size):
        # column j's draws follow column j-1's, as if each factor drew in turn
        blocks = [f.sample(rng, (run, size)) for f, run in self.runs]
        return np.ascontiguousarray(np.concatenate(blocks).T)

    def entropy(self):
        return float(sum(f.entropy() for f in self.factors))

    def measure_id(self):
        if self.family != "product":
            return f"{self.family}:{self.dim}"
        return "product:" + ",".join(f.tag for f in self.factors)


class BallSpec(MeasureSpec):
    """Uniform on the centered euclidean ball of radius sqrt(n+2)."""

    family = "ball"

    def __init__(self, dim: int):
        if dim < 1:
            raise InputValidationError("dim must be >= 1")
        self.dim = int(dim)
        self.radius = math.sqrt(dim + 2.0)
        log_unit_vol = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
        self._log_vol = log_unit_vol + dim * math.log(self.radius)

    def log_density(self, x):
        x = np.asarray(x, float)
        rad2 = (x * x).sum(axis=-1)
        inside = rad2 <= self.radius**2 * (1.0 + _SUPPORT_TOL)
        return np.where(inside, -self._log_vol, -np.inf)

    def sample(self, rng, size):
        g = rng.standard_normal((size, self.dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size) ** (1.0 / self.dim)
        return g * r[:, None]

    def entropy(self):
        return float(self._log_vol)

    def measure_id(self):
        return f"ball:{self.dim}"


# ---------------------------------------------------------------------------
# Constructors, catalog, ids


def make_gaussian(dim: int) -> ProductSpec:
    """Standard Gaussian: the product of n ``gaussian`` factors."""
    return ProductSpec([GaussianFactor() for _ in range(dim)], family="gaussian")


def make_cube(dim: int) -> ProductSpec:
    """Isotropic cube: uniform on [-sqrt(3), sqrt(3)]^n."""
    return ProductSpec([UniformFactor() for _ in range(dim)], family="cube")


def make_ball(dim: int) -> BallSpec:
    return BallSpec(dim)


def make_product(tags) -> ProductSpec:
    if isinstance(tags, str):
        tags = [s.strip() for s in tags.split(",") if s.strip()]
    return ProductSpec([make_factor(tag) for tag in tags], family="product")


DEFAULT_CATALOG = (
    "gaussian:2",
    "gaussian:8",
    "cube:1",
    "cube:2",
    "cube:8",
    "ball:3",
    "ball:4",
    "product:exp,exp",
    "product:exp,laplace,uniform",
)


_BY_DIMENSION = {"gaussian": make_gaussian, "cube": make_cube, "ball": make_ball}


def parse_measure_id(measure_id: str) -> MeasureSpec:
    """Build a catalog spec from an id like 'cube:8' or 'product:exp,laplace'."""
    measure_id = measure_id.strip()
    if ":" not in measure_id:
        raise UnknownMeasureError(f"malformed measure id {measure_id!r}")
    family, _, arg = measure_id.partition(":")
    if family == "product":
        return make_product(arg)
    if family in _BY_DIMENSION:
        return _BY_DIMENSION[family](_positive_int(arg, measure_id))
    raise UnknownMeasureError(f"unknown measure family {family!r}")


def _positive_int(arg: str, measure_id: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise UnknownMeasureError(f"malformed measure id {measure_id!r}") from None
    if value < 1:
        raise UnknownMeasureError(f"dimension must be >= 1 in {measure_id!r}")
    return value

