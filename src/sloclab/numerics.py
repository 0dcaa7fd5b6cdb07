"""Shared numerical kernels: the special functions the lab needs, truncated-
normal moments (the one Gaussian window), the radial Gauss-Legendre rule
for ball tilts, adaptive Gauss-Kronrod quadrature, standard errors of
ensemble means, the exact two-sample Kolmogorov-Smirnov p-value,
non-uniform finite differences, the trapezoid's step-halving budget, and
the blocks of grid times that per-path arrays are reduced in.

Every special function is numpy or ``math``: ``erfcx`` on [0, inf], the
chi-square CDF ``gamma_p``, the incomplete beta ``beta_inc`` of the ball's
lens, ``xlogy`` and the half-step log-gamma and digamma differences
``gamma_half_step``.  Against mpmath, ``erfcx`` is within 1e-15 relative
on [0, 1e10], ``gamma_p`` within 2e-13 for a up to 128.5 and ``beta_inc``
within 1e-13 for the lens exponents of n <= 64.

The truncated-normal kernel is the one code that evaluates a Gaussian
window Phi(beta) - Phi(alpha): the closed-form tilts, the Fisher identity's
convolution and the EPI deficit's sum density all call it.  Both ends go
through ``erfcx``, no exponent is ever positive, and a mask picks the
regime, so one formula serves every window.  On [z, inf), [z, z + 1] and
their reflections for z from 5 to 300, the log mass and the mean agree with
a quadrature free of cancellation to 1e-13 relative, and the variance,
whose rounding grows as z^4 eps, to 1.5e-6 at z = 300.

The kernel walks its windows in blocks of `WINDOW_BLOCK` (8,192), each
computed in place in one workspace that the module allocates once, so a
call of any size makes no temporary and the results are its only new
arrays.  Callers with larger batches feed it blocks of that budget too
(`tilt.product_tilt_table` goes by rows), so no tilt builds a temporary of
its batch's size.  A window's numbers do not depend on the block it falls
in, nor on the batch.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

trapezoid = getattr(np, "trapezoid", None) or np.trapz

U_CUT = 40.0   # unbounded factor supports end here; their densities are below e^-40

# log(erfcx(x) / t) as a polynomial in y = 2t - 1 with t = 2 / (2 + x), highest
# degree first: the degree-27 truncation of its Chebyshev series on [-1, 1]
# (x from inf to 0), computed with mpmath at 96 Chebyshev nodes and 60 digits,
# then expanded in monomials.  The substitution is Numerical Recipes' (3rd ed.,
# section 6.2); its largest monomial coefficient is 0.67, so Horner loses nothing.
_ERFCX_POLY = (
    -1.8902306008944537e-09, 4.06088214696972e-09, 1.1172352263623759e-08,
    -3.9171820510271855e-08, 1.4448658046252676e-09, 1.5334345920908177e-07,
    -2.495832761719667e-07, -1.6849800720653297e-07, 1.2500276612569754e-06,
    -1.27231190486887e-06, -2.947986876998259e-06, 8.562623420121286e-06,
    1.3772664134464417e-07, -3.0187884551394243e-05, 3.17451797494374e-05,
    7.14010141275703e-05, -0.0001743029472030762, -9.37350311709817e-05,
    0.000673678795580235, -0.00014624686337800336, -0.002345812500482853,
    0.001758933557799016, 0.008824938557060623, -0.009872689366389959,
    -0.0468956102311753, 0.04734330684190443, 0.6726432239776567,
    -0.6717940840566923,
)


def erfcx(x):
    """exp(x^2) erfc(x) for x >= 0 (inf gives 0), within 1e-15 relative."""
    x = np.array(x, float)
    return _erfcx_into(x, np.empty_like(x), np.empty_like(x))[()]


def _erfcx_into(x, y, p):
    """erfcx(x) into ``p``, with ``x`` overwritten by t and ``y`` by 2t - 1: no new array."""
    x += 2.0
    np.divide(2.0, x, out=x)
    np.multiply(x, 2.0, out=y)
    y -= 1.0
    p.fill(_ERFCX_POLY[0])
    for c in _ERFCX_POLY[1:]:
        p *= y
        p += c
    np.exp(p, out=p)
    p *= x
    return p


def gamma_p(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = P(chi2_{2a} <= 2x), a in N/2.

    Below x = a + 1 it is the power series e^-x x^a / Gamma(a + 1) times
    sum_j x^j / ((a + 1)...(a + j)), cut where the geometric bound on the
    rest at the largest x is below eps/2 of the leading 1.  Above, it is
    1 - Q with Q's finite sum
    e^-x x^(a-1) / Gamma(a) (1 + (a-1)/x (1 + (a-2)/x (...))), whose innermost
    term for half-integer a is sqrt(pi x) erfcx(sqrt x), the erfc(sqrt x)
    term scaled by the leading one.  P(a, 0) = 0, P(a, inf) = 1, and a
    negative x gives NaN.
    """
    if 2.0 * a != int(2.0 * a) or a <= 0.0:
        raise ValueError(f"need a positive multiple of 1/2, got {a}")
    x = np.asarray(x, float)
    out = np.empty_like(x)
    low = x < a + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x[low]
        top = float(xs.max(initial=0.0))
        count, bound = 0, 1.0  # bound: the last term at x = top
        while bound * top > 0.5 * _EPS * (a + count + 1.0 - top):
            count += 1
            bound *= top / (a + count)
        term, total = np.ones_like(xs), np.ones_like(xs)
        for j in range(1, count + 1):
            term *= xs
            term /= a + j
            total += term
        out[low] = total * np.exp(a * np.log(xs) - xs - math.lgamma(a + 1.0))
        xs = np.minimum(x[~low], 1e300)
        inv = 1.0 / xs
        whole = int(a)
        acc = (np.sqrt(np.pi * xs) * erfcx(np.sqrt(xs)) if a != whole
               else np.zeros_like(xs))
        for j in range(whole, 0, -1):
            acc *= inv
            acc *= a - j
            acc += 1.0
        out[~low] = 1.0 - acc * np.exp((a - 1.0) * np.log(xs) - xs - math.lgamma(a))
    return out


def beta_inc(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1].

    The continued fraction of Numerical Recipes (3rd ed., section 6.4) by
    the modified Lentz method, on x itself below x = (a + 1)/(a + b + 2) and
    on 1 - x with a and b swapped above it (I_x(a, b) = 1 - I_{1-x}(b, a)),
    where it converges fastest; iterated until every element's last factor
    is within eps of 1.
    """
    x = np.asarray(x, float)
    swap = x > (a + 1.0) / (a + b + 2.0)
    p, q = np.where(swap, b, a), np.where(swap, a, b)
    z = np.where(swap, 1.0 - x, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        front = np.exp(p * np.log(z) + q * np.log1p(-z) + math.lgamma(a + b)
                       - math.lgamma(a) - math.lgamma(b)) / p

    def lentz(d, c, num):
        d = 1.0 + num * d
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + num / c
        return d, np.where(np.abs(c) < _TINY, _TINY, c)

    d, c = lentz(1.0, np.inf, -(p + q) * z / (p + 1.0))
    frac, step, m = d, 0.0, 0
    while (np.abs(step - 1.0) > _EPS).any():  # a NaN element counts as converged
        m += 1
        if m > 10_000:  # with the swap, about sqrt(max(a, b)) steps suffice
            raise ArithmeticError(f"I_x({a}, {b}) did not converge")
        d, c = lentz(d, c, m * (q - m) * z / ((p + 2 * m - 1.0) * (p + 2 * m)))
        frac = frac * d * c
        d, c = lentz(d, c, -(p + m) * (p + q + m) * z / ((p + 2 * m) * (p + 2 * m + 1.0)))
        step = d * c
        frac = frac * step
    out = front * frac
    return np.where(swap, 1.0 - out, out)


def xlogy(x, y):
    """x log y, with 0 wherever x = 0 (so 0 log 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(x, 0.0), 0.0, x * np.log(y))


# B_2k / (2k (2k - 1)), k = 1..6: the coefficients of Stirling's series
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)


def gamma_half_step(a: float) -> tuple[float, float]:
    """(log Gamma(a + 1/2) - log Gamma(a), psi(a + 1/2) - psi(a)) for a > 0.

    Gamma(x + 1) = x Gamma(x) shifts a to at least 20, and Stirling's series
    at a + 1/2 and at a is differenced term by term there, so the large
    parts of the two log-gammas never cancel: both results are accurate to
    a few eps of their own size.
    """
    log_step = dig = 0.0
    while a < 20.0:
        log_step -= math.log1p(0.5 / a)
        dig += 0.5 / (a * (a + 0.5))
        a += 1.0
    b = a + 0.5
    log_step += a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5
    dig += math.log1p(0.5 / a) + 0.5 / a - 0.5 / b
    for k, c in enumerate(_STIRLING, 1):
        log_step += c * (b ** (1 - 2 * k) - a ** (1 - 2 * k))
        dig -= c * (2 * k - 1) * (b ** (-2 * k) - a ** (-2 * k))
    return log_step, dig


# Bytes of stored per-path arrays that one block of grid times covers
# (`time_blocks`): `ensemble_stats` and the derivative gates walk a stored
# ensemble's arrays in such blocks.  `simulate` folds one grid time at a time
# as the driver tilts it and reads no block size.
BLOCK_BYTES = 1 << 20
# Windows that one block of `trunc_normal_moments` covers.  Its workspace,
# twelve floats and two flags a window (784 KiB), is allocated once, here,
# and every call reuses it; calls never overlap, as the lab runs in one
# thread.  On cube:128 with 4096 rows one grid time's tilt takes 50 ms in
# blocks of 8,192 windows, 57 ms in blocks of 4,096 and 130 ms in one pass
# over the whole batch (numpy 2.4, x86-64).  Blocks of 16,384 are no
# faster, and their 128 KiB arrays reach glibc's default mmap threshold, so
# the tilt's few block-sized temporaries would be mapped and faulted in
# afresh at every block.
WINDOW_BLOCK = 1 << 13
_WORK = np.empty(12 * WINDOW_BLOCK)
_FLAGS = np.empty(2 * WINDOW_BLOCK, bool)


def trunc_normal_moments(m, s, lo, hi):
    """Moments of N(m, s^2) conditioned on [lo, hi].

    Broadcasts over all arguments; lo/hi may be -inf/+inf.  Returns
    ``(log_mass, mean, var)`` where log_mass is the log-probability that an
    unconditioned draw lands in [lo, hi].  A window in the lower tail is
    reflected, so that in standard units it is (u, v) with v >= 0.  Writing
    e(z) = exp(-z^2/2) erfcx(|z|/sqrt 2), which is 2 Phi(-|z|), the mass is
    1 - e(u)/2 - e(v)/2 when the window straddles 0 (u <= 0), and
    (e(u) - e(v))/2 when it is an upper tail (u > 0), where both Gaussian
    factors are taken relative to exp(-u^2/2) so that no exponent is
    positive.  Scalars in give numpy scalars out.

    The windows are walked flat, in blocks of `WINDOW_BLOCK`, each computed
    in the module's one workspace: the three results are the only new
    arrays, and an argument that is not a scalar is copied only when it
    broadcasts or is not contiguous.  Every window goes through the same
    operations whichever block it falls in, so the results do not depend on
    the batch.
    """
    args = [np.asarray(a, float) for a in (m, s, lo, hi)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    flat = [a.reshape(()) if a.size == 1 else np.broadcast_to(a, shape).reshape(-1)
            for a in args]
    out = [np.empty(shape) for _ in range(3)]
    log_mass, mean, var = (a.reshape(-1) for a in out)
    for start in range(0, log_mass.size, WINDOW_BLOCK):
        b = slice(start, start + WINDOW_BLOCK)
        _window_block(*(a if a.ndim == 0 else a[b] for a in flat), log_mass[b], mean[b], var[b])
    return tuple(a[()] for a in out)


def _window_block(m, s, lo, hi, log_mass, mean, var):
    """`trunc_normal_moments` of one block of windows into its results, in `_WORK`.

    Each step is the whole-array formula's, in its order, written in place.
    """
    k = len(log_mass)
    pair, z, g, e, q = (_WORK[i * k:(i + 2) * k].reshape(2, k) for i in range(0, 10, 2))
    sign, pivot = _WORK[10 * k:11 * k], _WORK[11 * k:12 * k]
    flags = _FLAGS[:2 * k].reshape(2, k)
    tail, straddle = flags
    # the ends in standard units; sign = 1 - 2 (beta < 0) reflects a lower tail
    alpha, beta = pair
    np.subtract(lo, m, out=alpha)
    alpha /= s
    np.subtract(hi, m, out=beta)
    beta /= s
    np.less(beta, 0.0, out=sign)
    sign *= -2.0
    sign += 1.0
    alpha *= sign
    beta *= sign
    u, v = z  # both ends in one call of each kernel
    np.minimum(alpha, beta, out=u)
    np.maximum(alpha, beta, out=v)
    # pivot = u^2/2 in a tail (u > 0), else 0
    np.greater(u, 0.0, out=tail)
    np.logical_not(tail, out=straddle)
    np.multiply(u, 0.5, out=pivot)
    pivot *= u
    np.copyto(pivot, 0.0, where=straddle)
    # g = exp(pivot - z^2/2), the Gaussian factors over the pivot's: 1 at a
    # tail's u, 0 at an infinite end; then e = g erfcx(|z|/sqrt 2)
    np.multiply(z, 0.5, out=g)
    g *= z
    np.subtract(pivot, g, out=g)
    np.exp(g, out=g)
    np.abs(z, out=e)
    e /= _SQRT2
    e_uv = _erfcx_into(e, pair, q)
    e_uv *= g
    e_u, e_v = e_uv
    # mass: (e_u - e_v)/2 in a tail, else max(1 - (e_u + e_v)/2, 1e-300)
    mass, scale = e
    np.subtract(e_u, e_v, out=mass)
    mass *= 0.5
    np.add(e_u, e_v, out=scale)
    scale *= 0.5
    np.subtract(1.0, scale, out=scale)
    np.maximum(scale, 1e-300, out=scale)
    np.copyto(mass, scale, where=straddle)
    # z g, 0 where g = 0 (z g is NaN at z = +-inf)
    with np.errstate(invalid="ignore"):
        z *= g
    np.greater(g, 0.0, out=flags)
    np.logical_not(flags, out=flags)
    np.copyto(z, 0.0, where=flags)
    zg_u, zg_v = z
    # r1 = sign (g_u - g_v)/scale and r2 = (zg_u - zg_v)/scale, scale = sqrt(2 pi) mass
    np.multiply(mass, _SQRT_2PI, out=scale)
    r1, r2 = pair
    np.subtract(g[0], g[1], out=r1)
    r1 *= sign
    r1 /= scale
    np.subtract(zg_u, zg_v, out=r2)
    r2 /= scale
    # mean = m + s r1, var = max(s^2 (1 + r2 - r1^2), 0), log mass = log(mass) - pivot
    np.multiply(r1, s, out=mean)
    mean += m
    r2 += 1.0
    r1 *= r1
    r2 -= r1
    np.multiply(s, s, out=var)
    var *= r2
    np.maximum(var, 0.0, out=var)
    np.log(mass, out=log_mass)
    log_mass -= pivot


# The 64-point Gauss-Legendre rule on [-1, 1], numpy's ``leggauss(64)`` bit for
# bit (a test checks it), held as a table so that no run imports
# ``numpy.polynomial`` (0.8 MiB and a few ms at import).  The rule is symmetric
# to the bit, so half of it is kept: the positive nodes, ascending, and their
# weights.
_GL_HALF_X = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL_HALF_W = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554,
    0.028339672614259535, 0.02637746971505491, 0.0243527025687112, 0.02227017380838297,
    0.020134823153530088, 0.017951715775697284, 0.01572603047602503,
    0.01346304789671786, 0.011168139460131028, 0.008846759826363397,
    0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)
_GL_X = np.concatenate([-np.array(_GL_HALF_X[::-1]), _GL_HALF_X])
_GL_W = np.concatenate([_GL_HALF_W[::-1], _GL_HALF_W])
_SCAN = np.linspace(0.0, 1.0, 33)
_WINDOW_DROP = 40.0  # e^-40 ~ 4e-18: the log-weight drop that ends the window


def radial_tilt_moments(s, t: float, radius: float, log_h):
    """Moments of u on [-R, R] under the weight exp(s u - t u^2/2) h(R^2 - u^2).

    ``s`` has shape (m,), one weight per row; ``log_h`` maps R^2 - u^2 to
    log h and must make the weight log-concave in u, so that the window
    {log weight >= max - 40} is one interval.  Three 33-point scans, each
    inside the last one's bracket, locate it, and one 64-point Gauss-Legendre
    rule integrates over it in phi with u = R cos(phi), which keeps every
    integrand analytic at u = +-R.  Moments are taken about the scan mode so
    that small variances do not cancel.

    Returns (log_int, mean, var, gap, log_h, prob): log of the weight's
    integral over u, the mean and variance of u, and R^2 - u^2, log h and
    the probability of each node, all three (m, 64), for further moments.
    """
    s = np.asarray(s, float)[:, None]
    rows = np.arange(s.shape[0])
    lo = np.full(s.shape[0], -radius)
    hi = np.full(s.shape[0], radius)
    for _ in range(3):
        u = lo[:, None] + (hi - lo)[:, None] * _SCAN
        lw = s * u - 0.5 * t * u * u + log_h((radius - u) * (radius + u))
        best = lw.argmax(axis=1)
        above = lw >= lw[rows, best][:, None] - _WINDOW_DROP
        first = np.maximum(above.argmax(axis=1) - 1, 0)
        last = np.minimum(len(_SCAN) - above[:, ::-1].argmax(axis=1), len(_SCAN) - 1)
        lo, hi, centre = u[rows, first], u[rows, last], u[rows, best]

    phi_lo = np.arccos(np.clip(hi / radius, -1.0, 1.0))
    phi_hi = np.arccos(np.clip(lo / radius, -1.0, 1.0))
    half = 0.5 * (phi_hi - phi_lo)
    phi = (phi_lo + half)[:, None] + half[:, None] * _GL_X
    u = radius * np.cos(phi)
    sin = np.sin(phi)
    gap = (radius * sin) ** 2
    log_h_nodes = log_h(gap)
    log_f = s * u - 0.5 * t * u * u + log_h_nodes + np.log(radius * sin)
    top = log_f.max(axis=1)
    f = np.exp(log_f - top[:, None]) * _GL_W * half[:, None]
    total = f.sum(axis=1)
    prob = f / total[:, None]
    d = u - centre[:, None]
    d1 = (prob * d).sum(axis=1)
    var = (prob * d * d).sum(axis=1) - d1 * d1
    return top + np.log(total), centre + d1, np.maximum(var, 0.0), gap, log_h_nodes, prob


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the Kronrod nodes in (0, 1]
# from the outside in, then the centre; their weights; and the 10-point
# Gauss weights, which sit at every second Kronrod node
_XK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077208745815581, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_X21 = np.concatenate([-_XK, _XK[-2::-1]])
_WK21 = np.concatenate([_WK, _WK[-2::-1]])
_WG21 = np.concatenate([_WG, _WG[-2::-1]])
_EPS50 = 50.0 * _EPS


def _gk21(f, a, b):
    """qk21 on every interval [a_i, b_i] at once: (integrals, errors, floors).

    The error estimate is QUADPACK's: resasc min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps times the integral of |f|, the rounding floor that
    halving an interval cannot lower.
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    x = centre[:, None] + half[:, None] * _X21
    fx = np.asarray(f(x.ravel()), float).reshape(x.shape)
    resk = fx @ _WK21
    gap = np.abs(resk - fx @ _WG21) * half
    resabs = (np.abs(fx) @ _WK21) * half
    resasc = (np.abs(fx - 0.5 * resk[:, None]) @ _WK21) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * gap / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (gap != 0.0), scaled, gap)
    floor = np.where(resabs > _TINY / _EPS50, _EPS50 * resabs, 0.0)
    return resk * half, np.maximum(floor, err), floor


def _to_finite(f, lo: float, hi: float):
    """(g, u_of_x, u_lo, u_hi): the integral of f over [lo, hi] as g's over [u_lo, u_hi].

    A half-line maps by x = lo + u / (1 - u) (or x = hi + u / (1 + u)), the
    whole line by x = u / (1 - u^2); g carries the Jacobian.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return f, lambda x: x, lo, hi
    if math.isfinite(lo):
        return (lambda u: f(lo + u / (1.0 - u)) / (1.0 - u) ** 2,
                lambda x: (x - lo) / (1.0 + x - lo), 0.0, 1.0)
    if math.isfinite(hi):
        return (lambda u: f(hi + u / (1.0 + u)) / (1.0 + u) ** 2,
                lambda x: (x - hi) / (1.0 + hi - x), -1.0, 0.0)
    return (lambda u: f(u / (1.0 - u * u)) * (1.0 + u * u) / (1.0 - u * u) ** 2,
            lambda x: 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x)), -1.0, 1.0)


def quad(f, lo: float, hi: float, points=(), epsabs: float = 1e-12,
         epsrel: float = 1e-11, limit: int = 200) -> tuple[float, float]:
    """Integral of ``f`` over [lo, hi] by adaptive 21-point Gauss-Kronrod: (value, err).

    ``f`` maps an array of nodes to an array of values.  Bisection starts
    from [lo, *points, hi], and each round halves the intervals with the
    largest error estimates above their rounding floors, until the rest sum
    below half the tolerance max(epsabs, epsrel |value|); all of a round's
    new nodes go to ``f`` in one call.  Infinite ends are mapped onto finite
    ones (`_to_finite`).  It stops when the summed error estimate meets the
    tolerance; otherwise, once ``limit`` intervals are in use or no interval
    above its floor can be halved in floating point, ``err`` is returned as
    it stands, above the tolerance.  A non-finite value of ``f`` makes both
    results non-finite.  The default tolerance serves the Fisher identity
    and the EPI deficits; the tilt oracle passes a tighter one.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    g, u_of_x, u_lo, u_hi = _to_finite(f, lo, hi)
    inner = np.array([p for p in points if lo < p < hi], float)
    edges = np.unique(np.concatenate([[u_lo, u_hi], u_of_x(inner)]))
    a, b = edges[:-1], edges[1:]
    value, err, floor = _gk21(g, a, b)
    while True:
        total, total_err = float(value.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol or not math.isfinite(total + total_err) or len(a) >= limit:
            return total, total_err
        # halve the largest errors above their floors, until what is left
        # sums below half the tolerance; a midpoint that rounds onto an end
        # leaves its interval whole
        order = np.argsort(err)[::-1]
        order = order[err[order] > floor[order]]
        count = int(np.searchsorted(np.cumsum(err[order]), total_err - 0.5 * tol)) + 1
        split = order[:min(count, limit - len(a))]
        mid = 0.5 * (a[split] + b[split])
        halves = (a[split] < mid) & (mid < b[split])
        split, mid = split[halves], mid[halves]
        if not len(split):
            return total, total_err
        keep = np.ones(len(a), bool)
        keep[split] = False
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        parts = _gk21(g, new_a, new_b)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        value, err, floor = (np.concatenate([old[keep], new])
                             for old, new in zip((value, err, floor), parts))


def jackknife_se(values: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Standard error of the mean over axis 0, the draws: s / sqrt(m).

    For a plain mean of i.i.d. draws this equals the leave-one-out jackknife
    error exactly; callers pass per-draw values of whatever they average.
    Zero for fewer than two draws.  Each step is ``std(axis=0, ddof=1)``'s
    own, so the result is its bits.  ``work``, a C-contiguous array of the
    C-contiguous ``values``' shape, receives the squared deviations, which
    are otherwise a new array; it may be ``values`` itself, which is then
    overwritten.
    """
    values = np.asarray(values, float)
    m = len(values)
    if m < 2:
        return np.zeros_like(values.mean(axis=0))
    mean = np.add.reduce(values, axis=0, keepdims=True)
    mean /= m
    dev = np.subtract(values, mean, out=work)
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=0) / (m - 1)) / np.sqrt(m)


# Family-wise level of `reports.ks_gate`, the min-p KS sub-gates.
KS_LEVEL = 0.01


def familywise_level(level: float, n: int) -> float:
    """Level 1 - (1 - level)^(1/n) at which to test the smallest of n p-values.

    The smallest of n independent uniform p-values falls below it with
    probability exactly ``level`` (Sidak), so a min-p gate over n
    coordinates keeps its family-wise level instead of failing a healthy
    measure with probability 1 - (1 - level)^n.  It is within level^2 of
    Bonferroni's level / n, and ``level`` = 1 stays 1.
    """
    return 1.0 - (1.0 - level) ** (1.0 / n)


def ks_pvalues(a, b) -> np.ndarray:
    """Two-sided two-sample Kolmogorov-Smirnov p-value of each column.

    ``a`` and ``b`` are (m, n) samples of equal size m; returns the n
    p-values P(D_{m,m} >= D) under the exact null at every m.  D comes from
    the right-continuous ECDFs of the sorted columns, so ties are handled,
    and the null tail is Hodges' alternating sum in Horner form, clipped to
    [0, 1].  The usual ``ks_2samp`` takes this exact route only for
    m <= 10000, and where the sum rounds above 1 (D <= 2/m, whose exact tail
    is 1 to double precision) leaves it for an asymptotic formula; here it
    stays exact.  A column with a NaN in either sample gets NaN.
    """
    a = np.sort(np.asarray(a, float), axis=0)
    b = np.sort(np.asarray(b, float), axis=0)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"need two (m, n) samples of one shape, got {a.shape} and {b.shape}")
    m = a.shape[0]
    out = np.full(a.shape[1], np.nan)
    for j in range(a.shape[1]):
        x, y = a[:, j], b[:, j]
        if np.isnan(x[-1]) or np.isnan(y[-1]):  # sorting puts NaN last
            continue
        pooled = np.concatenate([x, y])
        h = int(np.abs(np.searchsorted(x, pooled, "right")
                       - np.searchsorted(y, pooled, "right")).max())  # D = h / m
        p = 0.0
        for k in range(m // h, -1, -1) if h else ():
            term = 1.0
            for i in range(h):
                term = (m - k * h - i) * term / (m + k * h + i + 1)
            p = term * (1.0 - p)
        out[j] = np.clip(2.0 * p, 0.0, 1.0) if h else 1.0
    return out


def trapezoid_budget(curve: np.ndarray, x: np.ndarray) -> float:
    """Step-halving error estimate of ``trapezoid(curve, x)``.

    The coarse rule keeps every other node and the last one; the trapezoid
    error is second order, so the fine rule's error is about a third of the
    difference of the two.
    """
    coarse = sorted(set(range(0, len(x), 2)) | {len(x) - 1})
    return abs(float(trapezoid(curve, x)) - float(trapezoid(curve[coarse], x[coarse]))) / 3.0


def time_blocks(k_pts: int, time_bytes: int) -> list[slice]:
    """Slices of ``k_pts`` consecutive grid times, each about `BLOCK_BYTES` of arrays.

    ``time_bytes`` is the size of one grid time's per-path array, such as
    its covariances, (m, n) or (m, n, n); a block holds at least one grid
    time.
    """
    step = max(1, BLOCK_BYTES // time_bytes)
    return [slice(k, min(k + step, k_pts)) for k in range(0, k_pts, step)]


def _stencil(y: np.ndarray, x: np.ndarray, stride: int) -> np.ndarray:
    """Three-point derivative along axis 1 from nodes i - stride, i, i + stride."""
    h1 = x[stride:-stride] - x[:-2 * stride]
    h2 = x[2 * stride:] - x[stride:-stride]
    pad = (slice(None),) + (None,) * (y.ndim - 2)
    h1p, h2p = h1[pad], h2[pad]
    num = (h1p**2 * y[:, 2 * stride:] + (h2p**2 - h1p**2) * y[:, stride:-stride]
           - h2p**2 * y[:, :-2 * stride])
    return num / (h1p * h2p * (h1p + h2p))


def central_difference(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point derivative of each path's y(x) at the interior nodes of a non-uniform grid.

    ``y`` is per path, (m, K, ...) on the grid ``x`` (K,), and the result
    (m, K - 2, ...).  Exact for quadratics; leading error f'''(x) h1 h2 / 6.
    """
    return _stencil(np.asarray(y, float), np.asarray(x, float), 1)


def fd_error_budget(mean_y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Discretization error estimate for `central_difference` at interior nodes, along axis 0.

    Step-doubling Richardson: the stride-2 stencil shares the leading
    f''' h1 h2 / 6 error with a larger h1 h2, so the difference of the two
    derivatives calibrates the constant.  Nodes 1 and K - 2 have no stride-2
    stencil and copy their neighbour's estimate.  Non-finite data stay
    non-finite, so a gate that reads the budget FAILs on them.
    """
    x = np.asarray(x, float)
    if len(x) < 5:
        raise ValueError("need at least 5 grid points for an error budget")
    y = np.asarray(mean_y, float)[None]  # one curve (K, ...), the stencil's grid on axis 1
    pad = (slice(None),) + (None,) * (y.ndim - 2)
    prod_fine = ((x[1:-1] - x[:-2]) * (x[2:] - x[1:-1]))[1:-1]    # nodes 2 .. K-3
    prod_coarse = (x[2:-2] - x[:-4]) * (x[4:] - x[2:-2])
    scale = prod_fine / np.maximum(prod_coarse - prod_fine, 1e-300)
    budget = np.abs(_stencil(y, x, 1)[0, 1:-1] - _stencil(y, x, 2)[0]) * scale[pad]
    return np.concatenate([budget[:1], budget, budget[-1:]])
