"""Catalog of log-concave probability measures on R^n.

Every measure is described by its potential psi with density
rho(x) = exp(-psi(x)), psi convex (+inf outside the support).  The catalog
members are built isotropic (barycenter 0, covariance identity) unless a
constructor is explicitly told otherwise:

* ``gaussian:n``   standard Gaussian
* ``cube:n``       uniform on [-sqrt(3), sqrt(3)]^n
* ``ball:n``       uniform on the centered ball of radius sqrt(n+2)
* ``product:a,b``  product of standardized 1D factors (tags below)

1D factor tags: ``gaussian``, ``uniform`` (half-width sqrt(3)), ``exp``
(centered exponential, density e^{-(x+1)} on [-1, inf)), ``laplace``
(scale 1/sqrt(2)), ``truncgauss`` (standard normal cut at |x| <= 1 and
rescaled to unit variance).  All have mean 0 and variance 1.

Affine images T(x) = M x + b are first-class; `isotropize` uses them to
whiten any spec with known (or supplied) moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, exp1, gammaln, ndtr, xlogy

from .errors import InputValidationError, SingularCovariance, UnknownMeasureError
from .numerics import radial_tilt_moments, trunc_normal_moments

_LOG_2PI = math.log(2.0 * math.pi)
_SUPPORT_TOL = 1e-12
SQRT3 = math.sqrt(3.0)

GAUSSIAN_ENTROPY_RATE = 0.5 * math.log(2.0 * math.pi * math.e)  # per dimension


# ---------------------------------------------------------------------------
# 1D factors


class Factor1D:
    """One-dimensional log-concave factor, density exp(-psi) on [lo, hi]."""

    tag = ""
    lo = -np.inf
    hi = np.inf
    var = 1.0

    def log_density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def entropy(self) -> float:
        raise NotImplementedError

    def peak_log_density(self) -> float:
        """sup_x log rho(x); needed by the rejection sampler."""
        raise NotImplementedError

    def tilt_rates(self) -> tuple[float, float]:
        """Exponential decay rates of the density at -inf / +inf.

        The t = 0 tilt by exp(theta * x) has a finite partition function iff
        -left_rate < theta < right_rate.
        """
        return np.inf, np.inf

    def tilt_stats(self, t: float, theta: np.ndarray):
        """Batched (log Z, mean, var) of the tilted factor, t > 0."""
        raise NotImplementedError

    def sum_entropy(self) -> float | None:
        """Closed-form entropy of (X + X')/sqrt(2) when one exists."""
        return None

    def _inside(self, x):
        return (x >= self.lo - _SUPPORT_TOL) & (x <= self.hi + _SUPPORT_TOL)


class GaussianFactor(Factor1D):
    tag = "gaussian"

    def log_density(self, x):
        x = np.asarray(x, float)
        return -0.5 * x * x - 0.5 * _LOG_2PI

    def sample(self, rng, size):
        return rng.standard_normal(size)

    def entropy(self):
        return GAUSSIAN_ENTROPY_RATE

    def peak_log_density(self):
        return -0.5 * _LOG_2PI

    def tilt_stats(self, t, theta):
        theta = np.asarray(theta, float)
        tau = 1.0 + t
        log_z = -0.5 * math.log(tau) + theta * theta / (2.0 * tau)
        return log_z, theta / tau, np.full_like(theta, 1.0 / tau)

    def sum_entropy(self):
        return GAUSSIAN_ENTROPY_RATE  # Gaussian is stable under this convolution


class UniformFactor(Factor1D):
    """Uniform on [-w, w]; isotropic for w = sqrt(3)."""

    tag = "uniform"

    def __init__(self, half_width: float = SQRT3):
        if half_width <= 0:
            raise InputValidationError("half_width must be positive")
        self.half_width = float(half_width)
        self.lo = -self.half_width
        self.hi = self.half_width
        self.var = self.half_width**2 / 3.0

    def log_density(self, x):
        x = np.asarray(x, float)
        return np.where(self._inside(x), -math.log(2.0 * self.half_width), -np.inf)

    def sample(self, rng, size):
        return rng.uniform(-self.half_width, self.half_width, size)

    def entropy(self):
        return math.log(2.0 * self.half_width)

    def peak_log_density(self):
        return -math.log(2.0 * self.half_width)

    def tilt_stats(self, t, theta):
        theta = np.asarray(theta, float)
        s = 1.0 / math.sqrt(t)
        log_mass, mean, var = trunc_normal_moments(theta / t, s, self.lo, self.hi)
        log_z = (-math.log(2.0 * self.half_width) + 0.5 * math.log(2.0 * math.pi / t)
                 + theta * theta / (2.0 * t) + log_mass)
        return log_z, mean, var

    def sum_entropy(self):
        # (X + X')/sqrt(2) is triangular with half-width w*sqrt(2)
        return 0.5 + math.log(self.half_width * math.sqrt(2.0))


class ExpFactor(Factor1D):
    """Centered standard exponential: density e^{-(x+1)} on [-1, inf)."""

    tag = "exp"
    lo = -1.0

    def log_density(self, x):
        x = np.asarray(x, float)
        out = np.where(self._inside(x), -(x + 1.0), -np.inf)
        return out

    def sample(self, rng, size):
        return rng.exponential(1.0, size) - 1.0

    def entropy(self):
        return 1.0

    def peak_log_density(self):
        return 0.0

    def tilt_rates(self):
        return np.inf, 1.0

    def tilt_stats(self, t, theta):
        theta = np.asarray(theta, float)
        shifted = theta - 1.0
        s = 1.0 / math.sqrt(t)
        log_mass, mean, var = trunc_normal_moments(shifted / t, s, -1.0, np.inf)
        log_z = (-1.0 + 0.5 * math.log(2.0 * math.pi / t)
                 + shifted * shifted / (2.0 * t) + log_mass)
        return log_z, mean, var

    def sum_entropy(self):
        # X + X' is a shifted Gamma(2): entropy 1 + euler_gamma
        return 1.0 + np.euler_gamma - 0.5 * math.log(2.0)


class LaplaceFactor(Factor1D):
    """Laplace with scale 1/sqrt(2) (unit variance)."""

    tag = "laplace"
    scale = 1.0 / math.sqrt(2.0)

    def log_density(self, x):
        x = np.asarray(x, float)
        return -np.abs(x) / self.scale - math.log(2.0 * self.scale)

    def sample(self, rng, size):
        return rng.laplace(0.0, self.scale, size)

    def entropy(self):
        return 1.0 + math.log(2.0 * self.scale)

    def peak_log_density(self):
        return -math.log(2.0 * self.scale)

    def tilt_rates(self):
        rate = 1.0 / self.scale
        return rate, rate

    def tilt_stats(self, t, theta):
        # tilted density splits into two truncated normals glued at 0
        theta = np.asarray(theta, float)
        s = 1.0 / math.sqrt(t)
        rate = 1.0 / self.scale
        base = -math.log(2.0 * self.scale) + 0.5 * math.log(2.0 * math.pi / t)

        sh_r = theta - rate
        lm_r, mu_r, v_r = trunc_normal_moments(sh_r / t, s, 0.0, np.inf)
        log_z_r = base + sh_r * sh_r / (2.0 * t) + lm_r

        sh_l = theta + rate
        lm_l, mu_l, v_l = trunc_normal_moments(sh_l / t, s, -np.inf, 0.0)
        log_z_l = base + sh_l * sh_l / (2.0 * t) + lm_l

        log_z = np.logaddexp(log_z_r, log_z_l)
        w_r = np.exp(log_z_r - log_z)
        w_l = 1.0 - w_r
        mean = w_r * mu_r + w_l * mu_l
        m2 = w_r * (v_r + mu_r**2) + w_l * (v_l + mu_l**2)
        return log_z, mean, np.maximum(m2 - mean * mean, 0.0)

    def sum_entropy(self):
        # X + X' has density e^{-w} (1 + w) / (4b) at w = |z|/b; integrating
        # -g log g over w gives 1 + log(4b) - e E1(1) / 2
        return (1.0 + math.log(4.0 * self.scale) - 0.5 * math.e * exp1(1.0)
                - 0.5 * math.log(2.0))


class TruncGaussFactor(Factor1D):
    """Standard normal conditioned on [-c, c], rescaled to unit variance."""

    tag = "truncgauss"

    def __init__(self, cut: float = 1.0):
        if cut <= 0:
            raise InputValidationError("cut must be positive")
        self.cut = float(cut)
        self.z_cut = 2.0 * ndtr(cut) - 1.0
        phi_c = math.exp(-0.5 * cut * cut) / math.sqrt(2.0 * math.pi)
        self.sigma = math.sqrt(1.0 - 2.0 * cut * phi_c / self.z_cut)
        self.lo = -cut / self.sigma
        self.hi = cut / self.sigma

    def log_density(self, x):
        x = np.asarray(x, float)
        u = self.sigma * x
        out = np.where(
            self._inside(x),
            math.log(self.sigma) - 0.5 * u * u - 0.5 * _LOG_2PI - math.log(self.z_cut),
            -np.inf,
        )
        return out

    def sample(self, rng, size):
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

    def peak_log_density(self):
        return math.log(self.sigma) - 0.5 * _LOG_2PI - math.log(self.z_cut)

    def tilt_stats(self, t, theta):
        # Gaussian core folds into the tilt: effective precision t + sigma^2
        theta = np.asarray(theta, float)
        tau = t + self.sigma**2
        s = 1.0 / math.sqrt(tau)
        log_mass, mean, var = trunc_normal_moments(theta / tau, s, self.lo, self.hi)
        log_z = (math.log(self.sigma) - math.log(self.z_cut) - 0.5 * math.log(tau)
                 + theta * theta / (2.0 * tau) + log_mass)
        return log_z, mean, var


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
        self._log_norm = ((2.0 * self.exponent + 1.0) * math.log(self.radius)
                          + betaln(0.5, self.exponent + 1.0))

    def log_density(self, x):
        x = np.asarray(x, float)
        gap = np.maximum(self.radius**2 - x * x, 0.0)
        with np.errstate(divide="ignore"):
            out = np.where(self._inside(x) & (gap > 0.0),
                           self.exponent * np.log(np.maximum(gap, 1e-300)) - self._log_norm,
                           -np.inf)
        if self.exponent == 0.0:
            out = np.where(self._inside(x), -self._log_norm, -np.inf)
        return out

    def sample(self, rng, size):
        a = self.exponent + 1.0
        return self.radius * (2.0 * rng.beta(a, a, size) - 1.0)

    def entropy(self):
        val, _ = quad(lambda y: -np.exp(self.log_density(y)) * self.log_density(y),
                      self.lo, self.hi, epsabs=1e-12, epsrel=1e-12, limit=200)
        return float(val)

    def peak_log_density(self):
        return self.exponent * math.log(self.radius**2) - self._log_norm

    def tilt_stats(self, t, theta):
        # weight exp(theta y - t y^2 / 2) (R^2 - y^2)^exponent, any t >= 0
        theta = np.asarray(theta, float)
        log_int, mean, var, _, _ = radial_tilt_moments(
            theta.ravel(), t, self.radius, lambda gap: xlogy(self.exponent, gap))
        return ((log_int - self._log_norm).reshape(theta.shape), mean.reshape(theta.shape),
                var.reshape(theta.shape))


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
    """Base class: immutable description of a measure on R^n."""

    family = ""
    dim = 0

    # factors is not None exactly when the measure is a coordinate product
    factors: tuple[Factor1D, ...] | None = None

    def potential(self, x: np.ndarray) -> np.ndarray:
        """psi(x) = -log rho(x) for points x of shape (..., dim)."""
        raise NotImplementedError

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return -self.potential(x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def entropy(self) -> float:
        """Differential entropy, closed form (or 1D quadrature for factors)."""
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    def cov(self) -> np.ndarray:
        return np.eye(self.dim)

    def peak_log_density(self) -> float:
        raise NotImplementedError

    def measure_id(self) -> str:
        raise NotImplementedError

    @property
    def isotropic(self) -> bool:
        mu, sigma = self.mean(), self.cov()
        return (np.abs(mu).max(initial=0.0) < 1e-9
                and np.abs(sigma - np.eye(self.dim)).max() < 1e-9)

    def __repr__(self):
        return f"<{type(self).__name__} {self.measure_id()}>"


class GaussianSpec(MeasureSpec):
    family = "gaussian"

    def __init__(self, dim: int):
        if dim < 1:
            raise InputValidationError("dim must be >= 1")
        self.dim = int(dim)

    def potential(self, x):
        x = np.asarray(x, float)
        return 0.5 * (x * x).sum(axis=-1) + 0.5 * self.dim * _LOG_2PI

    def sample(self, rng, size):
        return rng.standard_normal((size, self.dim))

    def entropy(self):
        return self.dim * GAUSSIAN_ENTROPY_RATE

    def peak_log_density(self):
        return -0.5 * self.dim * _LOG_2PI

    def measure_id(self):
        return f"gaussian:{self.dim}"


class ProductSpec(MeasureSpec):
    """Product of independent 1D factors; covers cubes and mixed products."""

    def __init__(self, factors, family: str = "product"):
        factors = tuple(factors)
        if not factors:
            raise InputValidationError("need at least one factor")
        self.factors = factors
        self.family = family
        self.dim = len(factors)

    def potential(self, x):
        x = np.asarray(x, float)
        if x.shape[-1] != self.dim:
            raise InputValidationError(f"points must have {self.dim} coordinates")
        total = np.zeros(x.shape[:-1])
        for j, f in enumerate(self.factors):
            total = total - f.log_density(x[..., j])
        return total

    def sample(self, rng, size):
        cols = [f.sample(rng, size) for f in self.factors]
        return np.stack(cols, axis=-1)

    def entropy(self):
        return float(sum(f.entropy() for f in self.factors))

    def cov(self):
        return np.diag([f.var for f in self.factors])

    def peak_log_density(self):
        return float(sum(f.peak_log_density() for f in self.factors))

    def measure_id(self):
        if self.family == "cube":
            return f"cube:{self.dim}"
        return "product:" + ",".join(f.tag for f in self.factors)


class BallSpec(MeasureSpec):
    """Uniform on the centered euclidean ball of radius sqrt(n+2)."""

    family = "ball"

    def __init__(self, dim: int):
        if dim < 1:
            raise InputValidationError("dim must be >= 1")
        self.dim = int(dim)
        self.radius = math.sqrt(dim + 2.0)
        log_unit_vol = 0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim + 1.0)
        self._log_vol = log_unit_vol + dim * math.log(self.radius)

    def potential(self, x):
        x = np.asarray(x, float)
        rad2 = (x * x).sum(axis=-1)
        inside = rad2 <= self.radius**2 * (1.0 + _SUPPORT_TOL)
        return np.where(inside, self._log_vol, np.inf)

    def sample(self, rng, size):
        g = rng.standard_normal((size, self.dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size) ** (1.0 / self.dim)
        return g * r[:, None]

    def entropy(self):
        return float(self._log_vol)

    def peak_log_density(self):
        return -float(self._log_vol)

    def measure_id(self):
        return f"ball:{self.dim}"


class AffineImageSpec(MeasureSpec):
    """Pushforward of a base spec under T(x) = M x + b."""

    family = "affine"

    def __init__(self, base: MeasureSpec, mat: np.ndarray, shift: np.ndarray | None = None):
        mat = np.asarray(mat, float)
        if mat.shape != (base.dim, base.dim):
            raise InputValidationError("mat must be square of the base dimension")
        sign, logdet = np.linalg.slogdet(mat)
        if sign == 0 or not np.isfinite(logdet):
            raise InputValidationError("affine map must be invertible")
        self.base = base
        self.mat = mat
        self.shift = np.zeros(base.dim) if shift is None else np.asarray(shift, float)
        self.dim = base.dim
        self._log_abs_det = float(logdet)
        self._inv = np.linalg.inv(mat)

    def potential(self, x):
        x = np.asarray(x, float)
        pre = (x - self.shift) @ self._inv.T
        return self.base.potential(pre) + self._log_abs_det

    def sample(self, rng, size):
        return self.base.sample(rng, size) @ self.mat.T + self.shift

    def entropy(self):
        return self.base.entropy() + self._log_abs_det

    def mean(self):
        return self.shift + self.mat @ self.base.mean()

    def cov(self):
        return self.mat @ self.base.cov() @ self.mat.T

    def peak_log_density(self):
        return self.base.peak_log_density() - self._log_abs_det

    def measure_id(self):
        return f"affine({self.base.measure_id()})"


# ---------------------------------------------------------------------------
# Constructors, catalog, ids


def make_gaussian(dim: int) -> GaussianSpec:
    return GaussianSpec(dim)


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


def parse_measure_id(measure_id: str) -> MeasureSpec:
    """Build a catalog spec from an id like 'cube:8' or 'product:exp,laplace'."""
    measure_id = measure_id.strip()
    if ":" not in measure_id:
        raise UnknownMeasureError(f"malformed measure id {measure_id!r}")
    family, _, arg = measure_id.partition(":")
    if family == "gaussian":
        return make_gaussian(_positive_int(arg, measure_id))
    if family == "cube":
        return make_cube(_positive_int(arg, measure_id))
    if family == "ball":
        return make_ball(_positive_int(arg, measure_id))
    if family == "product":
        return make_product(arg)
    raise UnknownMeasureError(f"unknown measure family {family!r}")


def _positive_int(arg: str, measure_id: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise UnknownMeasureError(f"malformed measure id {measure_id!r}") from None
    if value < 1:
        raise UnknownMeasureError(f"dimension must be >= 1 in {measure_id!r}")
    return value


# ---------------------------------------------------------------------------
# Isotropization and subspaces


def isotropize(spec: MeasureSpec, mean: np.ndarray | None = None,
               cov: np.ndarray | None = None) -> MeasureSpec:
    """Whiten a spec: x -> cov^{-1/2} (x - mean).

    Uses the measure's analytic moments unless explicit ones are supplied.
    Already-isotropic specs are returned unchanged (the map is the identity).
    Raises SingularCovariance when the covariance is not positive definite.
    """
    mu = spec.mean() if mean is None else np.asarray(mean, float)
    sigma = spec.cov() if cov is None else np.asarray(cov, float)
    if mu.shape != (spec.dim,) or sigma.shape != (spec.dim, spec.dim):
        raise InputValidationError("moment shapes do not match the measure dimension")
    if (mean is None and cov is None
            and np.abs(mu).max(initial=0.0) < 1e-12
            and np.abs(sigma - np.eye(spec.dim)).max() < 1e-12):
        return spec
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if w.min() <= 0.0:
        raise SingularCovariance(float(w.min()))
    root_inv = (v / np.sqrt(w)) @ v.T
    return AffineImageSpec(spec, root_inv, -root_inv @ mu)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis (columns) of a k-dim subspace of R^n."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, float)
        if cols.ndim != 2 or cols.shape[0] < cols.shape[1]:
            raise InputValidationError("columns must be an (n, k) matrix with k <= n")
        gram = cols.T @ cols
        if np.abs(gram - np.eye(cols.shape[1])).max() > 1e-12:
            raise InputValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "columns", cols)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def is_coordinate(self) -> bool:
        cols = self.columns
        return bool((np.abs(cols * (1.0 - cols)) < 1e-14).all()
                    and (np.abs(cols).sum(axis=0) == 1.0).all())

    def coordinate_indices(self) -> list[int]:
        if not self.is_coordinate:
            raise InputValidationError("not a coordinate subspace")
        return [int(np.argmax(np.abs(self.columns[:, j]))) for j in range(self.dim)]


def coordinate_subspace(ambient_dim: int, indices) -> SubspaceBasis:
    indices = list(indices)
    cols = np.zeros((ambient_dim, len(indices)))
    for j, i in enumerate(indices):
        cols[i, j] = 1.0
    return SubspaceBasis(cols)
