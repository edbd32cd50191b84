"""Complex-order K-Bessel values, the real-place Gamma factor, the amplifier
bump weight, and Fourier-tail truncation cutoffs.

K-Bessel values come from float64 quadrature along one of two contours for

    K_nu(x) = 1/2 int exp(-x cosh w + nu w) dw,      w = u + i theta.

Saddle contour: nu = it on the unitary axis, x < |t| and |t| >= _SADDLE_FLOOR.
With s = sqrt(t^2 - x^2) the integrand has its saddle at S = u0 + i pi/2,
sinh u0 = s / x, where its modulus is exp(-pi |t| / 2).  By the mirror
symmetry w -> -conj(w), K is the real part of the integral down the
vertical ray to S, where exp(pi |t| / 2) |integrand| = exp(-|t| (d - sin d))
at S + i d, and then out along the ray S + rho, rho = r exp(-i pi/6), where
the integrand is exp(-pi |t| / 2) times its phase at S times
exp(-i [s (cosh rho - 1) + |t| (sinh rho - rho)]).  Each piece gets a
64-point Gauss-Legendre rule and ends where its factor at s = 0 falls to
exp(-_SADDLE_LOG); a positive s only adds decay.  So the nodes and every
factor that does not involve s depend on |t| alone: one table per |t| serves
a whole row, and a value costs 128 nodes at any height.  Only the real part
is kept, so the sum is real too: with node exponents a_k + i b_k and weights
exp(l_k + i g_k), and phi = |t| u0 - s the integrand's argument at S,

    exp(pi |t| / 2) K = sum_k exp(s a_k + l_k) cos(s b_k + g_k + phi),

one exp and one tan per node (a_k = 0 on the vertical ray).  The cosine of
each argument theta = s b_k + g_k + phi is taken as 2 / (1 + u^2) - 1 with
u = tan(theta / 2), within 3.3e-16 of cos theta: numpy's float64 cos has no
vectorized loop and its tan has one (12.6 against 1.7 ns an element on an
AVX-512 Xeon, numpy 2.4).  phi is reduced mod 2 pi first, so that adding
it costs the nodes' arguments no digits, then halved, as b and g are in the
table: halving is exact, so theta / 2 keeps the bits of theta.  The scale
exp(-pi |t| / 2) is applied once at the end.  The floor is the height at
which the ray reaches its length just where it crosses the real axis;
lower, it runs on into the lower half of the strip |Im w| < pi / 2, where
its phase turns faster than 64 nodes resolve (Gil, Segura and Temme, ACM
TOMS 30, 2004; N. M. Temme, Asymptotic Methods for Integrals, 2015).

Line contour: every other value, that is Re nu != 0, |t| below the floor,
or x >= |t|.  The integral runs along the horizontal line Im w = theta, at
the height of the saddle, sinh w = nu / x, held a little below pi/2 where
the integrand stops decaying.  On that line the integrand never exceeds the
answer by more than a small factor, so no digits cancel, and the plain
trapezoid rule converges geometrically: with a strip of half-width d on
each side of the line, the error is about exp(-2 pi d / h) times the
integrand's growth on the strip's edge (Trefethen and Weideman, SIAM Rev.
56, 2014; the contour follows Gil, Segura and Temme, J. Comput. Phys. 175,
2002).  That growth is about b d^2 / 2, b the curvature of the log-modulus
at its peak on the line, so for the error target exp(-L), L = _LOG_TOL, the
step h = 2 pi d / (L + b d^2 / 2) is largest at d = sqrt(2 L / b).  d is
that, or 0.995 of the room to Im w = +-pi/2 if that is less, and the tighter
of the two sides sets h.  Past the turning point a value takes about 20
nodes; below it the step shrinks like 1 / |t|.  On the axis the integrand
is conjugate-symmetric about u = 0, so u >= 0 is summed, in real arithmetic,
with np.cos: the tangent form's four more ufunc calls cost more than they
save on the short rows of a few values that most line passes are.

A row is evaluated whole, one vectorized block of at most about _BLOCK
nodes at a time on either contour, so one call carries its fixed set-up once
for the whole row while its temporaries stay bounded.  An axis row is filled
from both contours into one float buffer and made complex once.  Every value
has its own node set and its own sum, so its bits do not depend on the rest
of the row or its block.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath  # noqa: F401  loaded with the package: perfbench/worker.py reads its version
import numpy as np

__all__ = [
    "BumpWeight",
    "NumericEnvelopeError",
    "NumericsError",
    "PoleError",
    "bessel_k_row",
    "log_gamma_r",
    "whittaker_tail_cutoff",
]


# ---------------------------------------------------------------------------
# error types
# ---------------------------------------------------------------------------

class NumericsError(RuntimeError):
    """A numeric routine could not meet its contract."""


class PoleError(NumericsError):
    """Evaluation requested at, or indistinguishably close to, a pole."""


class NumericEnvelopeError(NumericsError):
    """Request falls outside the supported parameter envelope."""


# ---------------------------------------------------------------------------
# K-Bessel
# ---------------------------------------------------------------------------

# guaranteed envelope of bessel_k_row
_X_MIN = 1e-6
_X_MAX = 705.0          # beyond this K underflows double precision entirely
_IM_MAX = 200.0
_RE_MAX = 10.0

_LOG_TOL = 16.0 * math.log(10.0)   # quadrature and truncation error below e^-37 of the peak
_CAP = 1.0                         # theta stays _CAP/|t| below pi/2: the peak overshoots by e at most
_BLOCK = 1 << 12                   # nodes per vectorized block, in whole node sets
_SIDE = np.array([1.0, -1.0])      # the strip's edge above the line, then below it
# the passes' scalar operands as 0-d arrays: numpy converts a Python float
# operand anew on every ufunc call, which costs as much as a short row's work
_ZERO, _HALF, _ONE, _TWO, _FOUR, _FIVE, _ROOM, _LOG, _TWO_LOG, _HALF_PI, _TWO_PI = map(np.array, (
    0.0, 0.5, 1.0, 2.0, 4.0, 5.0, 0.995, _LOG_TOL, 2.0 * _LOG_TOL, 0.5 * math.pi, 2.0 * math.pi))


def _line_peak(sigma: float, t: float, x, theta):
    """Peak of log|exp(-x cosh w + nu w)| along Im w = theta, that is of
    -a cosh u + sigma u - t theta, a = x cos(theta), at sinh u = sigma / a:
    the peak, its position u, a and the curvature b there."""
    a = x * np.cos(theta)
    if sigma == 0.0:        # hypot(a, 0) is a and arcsinh(0 / a) is 0, exactly
        return -a - t * theta, 0.0, a, a
    b = np.hypot(a, sigma)
    u = np.arcsinh(sigma / a)
    return sigma * u - b - t * theta, u, a, b


# The 64-point Gauss-Legendre rule on [-1, 1]: the positive roots of P_64 and
# their weights 2 / ((1 - x^2) P_64'(x)^2), correctly rounded from 50-digit
# Newton steps; the rule is symmetric about 0.
_GL_NODES = np.array("""
    0.024350292663424433 0.07299312178779904 0.12146281929612056 0.16964442042399283
    0.21742364374000708 0.2646871622087674 0.31132287199021097 0.3572201583376681
    0.4022701579639916 0.4463660172534641 0.48940314570705296 0.5312794640198946
    0.571895646202634 0.6111553551723933 0.6489654712546573 0.6852363130542333
    0.7198818501716109 0.7528199072605319 0.7839723589433414 0.8132653151227975
    0.8406292962525803 0.8659993981540928 0.8893154459951141 0.9105221370785028
    0.9295691721319396 0.9464113748584028 0.9610087996520538 0.973326827789911
    0.983336253884626 0.9910133714767443 0.9963401167719553 0.9993050417357722
""".split(), dtype=float)
_GL_WEIGHTS = np.array("""
    0.048690957009139724 0.04857546744150343 0.048344762234802954 0.04799938859645831
    0.04754016571483031 0.04696818281621002 0.046284796581314416 0.04549162792741814
    0.044590558163756566 0.04358372452932345 0.04247351512365359 0.04126256324262353
    0.03995374113272034 0.038550153178615626 0.03705512854024005 0.035472213256882386
    0.033805161837141606 0.03205792835485155 0.030234657072402478 0.028339672614259483
    0.02637746971505466 0.024352702568710874 0.022270173808383253 0.02013482315353021
    0.017951715775697343 0.015726030476024718 0.013463047896718643 0.011168139460131128
    0.008846759826363947 0.006504457968978363 0.004147033260562468 0.001783280721696433
""".split(), dtype=float)
_GL_X = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
_GL_W = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])
_SADDLE_LOG = _LOG_TOL + 3.0          # each saddle piece ends where its s = 0 factor is e^-L
_RAY = cmath.exp(-1j * math.pi / 6)   # direction of the descent ray from the saddle
_TAU_LO = 2.4492935982947064e-16      # 2 pi - math.tau: the part of 2 pi a double drops


def _ray_decay(r: float) -> float:
    """-log|exp(-i t (sinh rho - rho))| / t at rho = r _RAY: the s = 0 decay
    along the ray, increasing for r <= pi, where the ray meets the real axis."""
    rho = r * _RAY
    return -(cmath.sinh(rho) - rho).imag


def _bisect(f, hi: float) -> float:
    """The root of f on [0, hi] for f increasing, by bisection to the last bit."""
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


_SADDLE_FLOOR = _SADDLE_LOG / _ray_decay(math.pi)    # about 6.58


@lru_cache(maxsize=256)
def _saddle_table(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The saddle contour at height t as four real arrays (b/2, g/2, a, l):
    node k has exponent a_k + i b_k and weight exp(l_k + i g_k), so that K is
    exp(-pi t / 2) sum_k exp(s a_k + l_k) cos(s b_k + g_k + phase), phase =
    t u0 - s the integrand's argument at the saddle (see the module
    docstring).  b and g are stored halved, exactly, for the half-angle
    tangent that stands for the cosine."""
    # vertical ray S + i d: modulus exp(-t (d - sin d)), phase s (1 - cos d), so a = 0
    down = _bisect(lambda d: t * (d - math.sin(d)) - _SADDLE_LOG, _SADDLE_LOG / t + 1.0)
    d = 0.5 * down * (1.0 + _GL_X)
    # descent ray S + rho: exp(-i [s (cosh rho - 1) + t (sinh rho - rho)])
    along = _bisect(lambda r: t * _ray_decay(r) - _SADDLE_LOG, math.pi)
    rho = 0.5 * along * _RAY * (1.0 + _GL_X)
    ray = -2j * np.sinh(0.5 * rho) ** 2
    bend = np.sinh(rho) - rho
    b = np.concatenate([2.0 * np.sin(0.5 * d) ** 2, ray.imag]) * 0.5
    g = np.concatenate([np.full(d.size, -0.5 * math.pi), -math.pi / 6.0 - t * bend.real]) * 0.5
    a = np.concatenate([np.zeros(d.size), ray.real])
    l = np.concatenate([np.log(0.5 * down * _GL_W) - t * (d - np.sin(d)),
                        np.log(0.5 * along * _GL_W) + t * bend.imag])
    for table in (b, g, a, l):
        table.flags.writeable = False      # shared through the cache
    return b, g, a, l


def bessel_k_row(order: complex, xs) -> np.ndarray:
    """K_order(x) for every x in the sequence ``xs``, as a complex array.

    Supported envelope: 1e-6 <= x <= 705, |Re nu| <= 10, |Im nu| <= 200.
    There the error stays below 1e-12 of |K|, or of the size exp(-pi |t| / 2)
    of its oscillation where x < |t|.  This is the one place the inputs are
    checked.  Input that is not a valid K-Bessel argument at all, a
    non-finite order or argument or an x <= 0, raises ValueError.  A valid
    input outside the envelope raises NumericEnvelopeError ("unsupported
    regime") instead of silently degrading.  Element i equals
    bessel_k_row(order, [xs[i]])[0] bit for bit: each value has its own node
    set, whatever else is in the row.  On the unitary axis x < |t| with
    |t| >= _SADDLE_FLOOR takes the saddle contour and every other value the
    line contour, both summed in real arithmetic into one float row that is
    made complex once (see the module docstring); the rows at nu and -nu are
    equal byte for byte there.
    """
    nu = complex(order)
    xs = np.asarray(xs, dtype=float).ravel()
    lo, hi = (np.minimum.reduce(xs), np.maximum.reduce(xs)) if xs.size else (_X_MIN, _X_MIN)
    if not (cmath.isfinite(nu) and math.isfinite(lo) and math.isfinite(hi)):   # a nan carries into both
        raise ValueError("order and arguments must be finite")
    if lo < _X_MIN or hi > _X_MAX:
        if lo <= 0.0:
            raise ValueError(f"arguments must be positive, got {lo}")
        raise NumericEnvelopeError(f"unsupported regime: argument outside [{_X_MIN}, {_X_MAX}]")
    if abs(nu.imag) > _IM_MAX or abs(nu.real) > _RE_MAX:
        raise NumericEnvelopeError(f"unsupported regime: order {nu} outside |Re| <= {_RE_MAX}, |Im| <= {_IM_MAX}")

    # K is even in nu and conjugation-equivariant, so fold into the first quadrant
    sigma, t = abs(nu.real), abs(nu.imag)
    if sigma != 0.0 or t < _SADDLE_FLOOR or lo >= t:
        out = _line_pass(sigma, t, xs)
    elif hi < t:        # every x below the turning point
        out = _saddle_pass(t, xs)
    else:               # both routes fill one float row
        below = xs < t
        out = np.empty(xs.shape)
        out[below] = _saddle_pass(t, xs[below])
        out[~below] = _line_pass(sigma, t, xs[~below])
    # K is real on both axes, so conjugate only off them; an axis row turns complex here
    return out.conj() if nu.real * nu.imag < 0.0 else np.asarray(out, dtype=complex)


def _saddle_pass(t: float, xs: np.ndarray) -> np.ndarray:
    """K_{it}(x) along the saddle contour for arguments x < t, in blocks of
    _BLOCK // 128 arguments, each one (arguments x nodes) array per quantity.
    Each node's cosine comes from the tangent of half its argument
    (_cos_from_half), which s b_k / 2 + g_k / 2 + phase / 2 is bit for bit."""
    b, g, a, l = _saddle_table(t)
    s = np.sqrt((t - xs) * (t + xs))
    phase = t * np.arcsinh(s / xs) - s      # u0 = arcsinh(s / x) keeps its digits as x -> t
    # reduce the phase (up to 4e3 at x = 1e-6) mod 2 pi before it joins each
    # node's argument, which would otherwise be rounded to its ulp: fmod by
    # math.tau is exact, and turns * _TAU_LO adds back what math.tau drops
    turns, phase = np.divmod(phase, math.tau)
    phase -= turns * _TAU_LO
    phase *= _HALF      # halving is exact, so each node's sum below is its argument / 2
    # both rays share each array: slicing off the vertical ray, where a = 0,
    # costs more fixed set-up in a small block than it saves in a large one
    out = np.empty(xs.shape)
    step = _BLOCK // b.size
    for lo in range(0, xs.size, step):
        s_blk = s[lo:lo + step]
        arg = np.multiply.outer(s_blk, b)
        arg += g
        arg += phase[lo:lo + step, None]
        terms = np.multiply.outer(s_blk, a)
        terms += l
        np.exp(terms, out=terms)
        terms *= _cos_from_half(arg)
        out[lo:lo + step] = terms.sum(axis=1)
    return math.exp(-0.5 * math.pi * t) * out


def _cos_from_half(half: np.ndarray) -> np.ndarray:
    """cos(2 h) for every h in the float array ``half``, computed in place
    as 2 / (1 + u^2) - 1 with u = tan h: within 3.3e-16 of cos(2 h), exactly
    1 at h = 0 and within an ulp of -1 at odd multiples of pi / 2.  np.tan's
    bits do not depend on an element's place in the array, so neither do
    these."""
    np.tan(half, out=half)
    np.square(half, out=half)
    half += _ONE
    np.divide(_TWO, half, out=half)
    half -= _ONE
    return half


def _line_pass(sigma: float, t: float, xs: np.ndarray) -> np.ndarray:
    """K_{sigma + it}(x) along the line contour for every argument x, sigma,
    t >= 0, in blocks of about _BLOCK nodes: a float row on the axis."""
    cap = 0.5 * math.pi - min(_CAP / t, 0.5 * math.pi) if t > 0 else 0.5 * math.pi
    theta = np.arcsin(np.minimum(t / xs, _ONE)) if sigma == 0.0 else np.arcsinh(complex(sigma, t) / xs).imag
    theta = np.minimum(theta, cap)
    peak, u_peak, a, b = _line_peak(sigma, t, xs, theta)

    # Trapezoid step: an edge of the strip at distance d costs about exp(-2 pi d / h)
    # times the integral of |integrand| along it, whose log is the edge's peak plus a
    # width term; both edges of every value share one (n, 2) array, the tighter sets h.
    d = np.subtract(_HALF_PI, _SIDE * theta[:, None])
    np.minimum(np.multiply(d, _ROOM, out=d), np.sqrt(_TWO_LOG / b)[:, None], out=d)
    edge, _, _, width = _line_peak(sigma, t, xs[:, None], theta[:, None] + _SIDE * d)
    edge -= peak[:, None]
    edge = np.maximum(edge, _ZERO, out=edge) + np.log(_FIVE + _FOUR * np.log1p(np.reciprocal(width)))
    np.divide(np.multiply(d, _TWO_PI, out=d), np.add(edge, _LOG, out=edge), out=d)
    h = np.minimum(d[:, 0], d[:, 1])

    # Truncation: |integrand| falls e^-37 below its peak within arccosh(1 + L / b)
    # on the right; on the left, off the axis, the sigma u term slows the fall,
    # so take the tighter of a cosh bound and a linear one.
    count = np.add(np.ceil(np.arccosh(_ONE + _LOG / b) / h), _ONE).astype(np.int64)
    if sigma > 0.0:
        with np.errstate(divide="ignore"):
            left = np.minimum(np.arccosh(1.0 + _LOG_TOL / (b - sigma)),
                              1.0 + (_LOG_TOL + math.log1p(1.0 / sigma)) / sigma)
        n_lo = np.ceil(left / h).astype(np.int64)
        count += n_lo

    x_sin = xs * np.sin(theta)
    scale = h * (np.exp(peak) if sigma == 0.0 else 0.5 * np.exp(peak + 1j * sigma * theta))
    out = np.empty(xs.shape, dtype=scale.dtype)
    first = np.add.accumulate(count)
    cuts = [0, xs.size]
    if xs.size and first[-1] > _BLOCK:
        cuts[1:1] = (np.flatnonzero(np.diff(first // _BLOCK)) + 1).tolist()
    first -= count
    for lo, hi in zip(cuts, cuts[1:]):
        starts = first[lo:hi] - first[lo:lo + 1]
        owner = np.arange(lo, hi).repeat(count[lo:hi])
        u = np.arange(owner.size) - starts.repeat(count[lo:hi])
        if sigma == 0.0:    # the term at u = 0 is exactly 1: h e^peak (S - 1/2) is 1/2 h e^peak (2 S - 1)
            u = u * h[owner]
            terms = np.exp(np.subtract(_ONE, np.cosh(u)) * a[owner])
            terms *= np.cos(t * u - x_sin[owner] * np.sinh(u))
            np.multiply(np.add.reduceat(terms, starts) - _HALF, scale[lo:hi], out=out[lo:hi])
        else:
            u = u_peak[owner] + (u - n_lo[owner]) * h[owner]
            mag = np.exp(sigma * u - a[owner] * np.cosh(u) - (peak + t * theta)[owner])
            phase = t * u - x_sin[owner] * np.sinh(u)
            re = np.add.reduceat(mag * np.cos(phase), starts)
            im = np.add.reduceat(mag * np.sin(phase), starts)
            out[lo:hi] = scale[lo:hi] * (re + 1j * im)
    return out


# ---------------------------------------------------------------------------
# the real-place Gamma factor
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-10

# B_{2j} / (2j)! for j = 1..25: the Euler-Maclaurin weights of the Hurwitz
# zeta tail in lfunctions and, times (2j - 2)!, the Stirling coefficients below
BERNOULLI_OVER_FACTORIAL = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40,
)

# Stirling's series for log Gamma(z) at Re z >= 10: the ninth term is below
# 2e-18, so eight carry a double-precision answer.
_STIRLING_FLOOR = 10.0
_STIRLING = tuple(b * math.factorial(2 * j - 2) for j, b in enumerate(BERNOULLI_OVER_FACTORIAL[:8], 1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), in float64, as mpmath.loggamma gives it.

    Re z is raised to at least 10 by the recurrence log Gamma(z) =
    log Gamma(z + n) - sum_{k<n} log(z + k).  With the principal log in every
    term that holds on the whole plane cut along the negative axis, so the
    imaginary part comes out on mpmath's branch, not reduced mod 2 pi.  On the
    cut itself a signed zero -0.0 is read as +0.0, since mpmath has none.
    """
    z = complex(z.real, z.imag + 0.0)
    n = max(0, math.ceil(_STIRLING_FLOOR - z.real))
    shift = sum(cmath.log(z + k) for k in range(n))
    w = z + n
    inv2 = 1.0 / (w * w)
    series = 0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series / w - shift


def log_gamma_r(s: complex) -> complex:
    """log Gamma_R(s) = log Gamma(s/2) - (s/2) log pi, safe far up a vertical line.

    The imaginary part is the continuous one of the principal log-gamma branch
    (mpmath.loggamma's), not reduced mod 2 pi.  The poles s = 0, -2, -4, ...
    are rejected with a distance-to-pole diagnostic, after a non-finite s.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    pole = complex(-2 * max(0, round(-s.real / 2.0)), 0.0)
    dist = abs(s - pole)
    if dist < _POLE_TOL:
        raise PoleError(f"real-place gamma factor pole at {pole}: input is {dist:.3e} away")
    return _log_gamma(s / 2) - (s / 2) * math.log(math.pi)


# ---------------------------------------------------------------------------
# the amplifier bump weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpWeight:
    """The fixed smooth weight supported on (1,2) and the integral of it.

    w(r) = exp(-1/((r-1)(2-r))) inside the support, zero outside; all
    derivatives vanish at the endpoints.  mellin_at_one, the Mellin transform
    int w(r) r^{s-1} dr at s = 1 (the plain integral of w), is set on
    construction, from one trapezoid sum per process.
    """

    mellin_at_one: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mellin_at_one", _bump_integral())

    def __call__(self, r):
        """w(r) for a float or elementwise for an array, by one numpy expression."""
        r = np.asarray(r, dtype=np.float64)
        outside = (r <= 1.0) | (r >= 2.0)
        u = np.where(outside, 1.5, r)
        w = np.where(outside, 0.0, np.exp(-1.0 / ((u - 1.0) * (2.0 - u))))
        return w if w.ndim else float(w)


@lru_cache(maxsize=1)
def _bump_integral() -> float:
    """int_1^2 w(r) dr by the trapezoid rule with step 1/256.

    w is flat to all orders at both ends, so the rule converges faster than
    any power of the step, and the end nodes, where w and all its
    derivatives vanish, add nothing; at 255 nodes it equals a 30-digit
    quadrature rounded to double.
    """
    r = 1.0 + np.arange(1, 256) / 256.0
    return float(np.sum(np.exp(-1.0 / ((r - 1.0) * (2.0 - r)))) / 256.0)


# ---------------------------------------------------------------------------
# truncation cutoffs
# ---------------------------------------------------------------------------

def whittaker_tail_cutoff(t: float, y: float, eps: float, sigma: float = 0.0) -> int:
    """The least m >= 1 with sum_{n > m} sqrt(3n) n^|sigma| e^{pi |t| / 2}
    |K_{sigma + it}(2 pi n y)| < eps, where sqrt(3n) n^|sigma| bounds |lambda(n)|.

    For x > |t|, the integral for K (DLMF 10.32.9) on Im w = arcsin(|t| / x),
    with cosh u >= 1 + u^2 / 2, gives e^{pi |t| / 2} |K_{sigma + it}(x)| <=
    sqrt(pi / 2r) exp(|t| arccos(|t| / x) - r + sigma^2 / 2r), r^2 = x^2 - t^2,
    whose exponent has slope below -r / x.  So past the first mode with x > |t|
    the terms fall by rho = (1 + 1/n)^{1/2 + |sigma|} e^{-2 pi y r / x} per
    mode or more, and the tail is at most the first over 1 - rho.  That bound
    falls with m, so the search gallops from a first guess, then bisects.
    |t| > 200 or |sigma| > 10, past the K-Bessel order envelope, is refused
    before the search (NumericEnvelopeError).
    """
    if not (0 < y < math.inf and 0 < eps < math.inf):
        raise ValueError(f"y and eps must be positive and finite, got y = {y}, eps = {eps}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if abs(t) > _IM_MAX:
        raise NumericEnvelopeError(f"t = {t} outside the K-Bessel order bound |t| <= {_IM_MAX:g}")
    if abs(sigma) > _RE_MAX:
        raise NumericEnvelopeError(f"sigma = {sigma} outside the K-Bessel order envelope "
                                   f"|sigma| <= {_RE_MAX:g}")
    t, power, half_s2 = abs(float(t)), 0.5 + abs(sigma), 0.5 * sigma * sigma
    two_pi_y, log_eps = 2.0 * math.pi * y, math.log(eps)

    def fits(m: int) -> bool:
        n = m + 1                  # the first dropped mode
        x = two_pi_y * n
        r = math.sqrt((x - t) * (x + t)) if x > t else 0.0
        log_rho = power * math.log1p(1.0 / n) - two_pi_y * r / x
        return log_rho < 0.0 and (power * math.log(n) + t * math.acos(t / x) - r + half_s2 / r
                                  + 0.5 * math.log(1.5 * math.pi / r) - math.log(-math.expm1(log_rho))) < log_eps

    # first guess: one Newton step on t arccos(t / x) - r = log eps from its
    # upper bound pi t / 2 - log eps, since x - r <= t arcsin(t / x)
    x = max(0.5 * math.pi * t - log_eps, t + 1.0)
    r = math.sqrt((x - t) * (x + t))
    x += (t * math.acos(t / x) - r - log_eps) * x / r
    lo = max(1, math.floor(t / two_pi_y)) - 1     # every mode past lo + 1 has x > |t|
    hi, step = max(lo + 1, math.ceil(x / two_pi_y) - 1), 1
    if fits(hi):           # gallop down to a bracket (lo, hi], fits(lo) false
        while hi - step > lo and fits(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    else:                  # or up
        while not fits(hi + step):
            hi, step = hi + step, 2 * step
        lo, hi = hi, hi + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


_WINDOW = np.arange(1.0, 14.0)     # a row's candidates m + 1, from m = max(lo + 1, guess - 6) on


def _tail_cutoffs(t: float, ys, eps: float, scale: float, sigma: float = 0.0) -> list[int]:
    """whittaker_tail_cutoff(t, y, eps / (2 scale sqrt(y)), sigma) at each y of a
    column, t and sigma as the caller checked them; a y and eps that leave no
    finite, normal budget are refused (a subnormal one's modes lie past the K
    envelope).  One row is the scalar search itself.  More take the bound at each
    row's _WINDOW of candidates in one numpy pass: a row's M is the first that
    fits after one that fails or is lo, unless either is within 1e-9 of the
    budget or of rho = 1, or none fits: then the scalar search."""
    budgets = [eps / (2.0 * max(scale * (math.sqrt(y) if y > 0 else math.nan), 1e-300)) for y in ys]
    for y, budget in zip(ys, budgets):
        if not sys.float_info.min <= budget < math.inf:
            raise ValueError(f"y = {y} and eps = {eps} leave this series no tail budget: "
                             f"eps / (2 |P(s)| e^(-pi |t| / 2) sqrt(y)) is {budget}")
    if len(ys) == 1:
        return [whittaker_tail_cutoff(t, ys[0], budgets[0], sigma)]
    t, power, half_s2 = abs(float(t)), 0.5 + abs(sigma), 0.5 * sigma * sigma
    two_pi_y, log_eps = 2.0 * math.pi * np.asarray(ys, dtype=float)[:, None], np.log(budgets)[:, None]
    x = np.maximum(0.5 * math.pi * t - log_eps, t + 1.0)       # the scalar search's first guess
    r = np.sqrt((x - t) * (x + t))
    x += (t * np.arccos(t / x) - r - log_eps) * x / r
    first = np.maximum(np.floor(t / two_pi_y), 1.0)            # lo + 1
    n = np.maximum(first, np.ceil(x / two_pi_y) - 7.0) + _WINDOW     # each candidate's first dropped mode
    x = two_pi_y * n
    with np.errstate(invalid="ignore", divide="ignore"):       # rho >= 1: a nan or inf gap, no fit
        r = np.sqrt((x - t) * (x + t))
        log_rho = power * np.log1p(1.0 / n) - two_pi_y * r / x
        gap = (power * np.log(n) + t * np.arccos(t / x) - r + half_s2 / r + 0.5 * np.log(1.5 * math.pi / r)
               - np.log(-np.expm1(log_rho)) - log_eps)
    fits, near = gap < 0.0, np.fmin(np.abs(gap), np.abs(log_rho)) <= 1e-9   # where math's bits may differ
    rows, k = np.arange(len(n)), fits.argmax(axis=1)
    sure = fits[rows, k] & ~near[rows, k] & np.where(k > 0, ~near[rows, k - 1], n[:, 0] == first[:, 0] + 1.0)
    cutoffs = (n[rows, k] - 1.0).astype(np.int64).tolist()
    for i in np.flatnonzero(~sure).tolist():
        cutoffs[i] = whittaker_tail_cutoff(t, ys[i], budgets[i], sigma)
    return cutoffs
