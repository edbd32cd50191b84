"""Amplifier prime sums over arithmetic progressions and the divisor-sum
factorization checks behind them.

The sum runs over primes p = 1 mod q in a dyadic window [L, 2L] with the
smooth bump weight, each prime contributing

    w(p/L) log(p) eta_{chi1, chi2, i r1}(p) * conj(eta_{chi1, chi2, i r2}(p)).

The second factor is the honest unitary conjugate, so on the diagonal
r1 = r2 every summand is w log(p) |eta(p)|^2 and the sum is nonnegative;
expanding the product of the two two-term factors gives exactly the four
prime coefficients of the quadruple-L numerator that factorization_check
verifies.  The progression p = 1 mod q realizes the narrow ray class
restriction over the rationals, with class number phi(q).

Character values come from each character's value table (see characters):
amplifier_sum indexes the numpy tables with whole blocks of primes and
weights each block with one array call of the bump weight, while the
divisor factors at single primes read the list copies of the same tables, as
Python scalars.  b_xi and factorization_check read what (xi, cfg) fixes
from one _PrimeContext, built on the first call for xi and kept on the
config, keyed by xi: the value lists and moduli of chi1, chi2, xi and the
four twisted characters (built once per (xi, chi1, chi2)), the phase
multipliers 1j r1, -1j r2, 1j (r1 - r2) and 1j (r1 + r2), and q times the
level.  xi is checked when its context is built: TypeError if it is not a
character, ValueError if its modulus is not q.  Each prime then validates
p, takes log p once and builds both prime factors from their two terms,
a = 1 and a = p, with the bits of generalized_divisor_sum, whose every
lambda(n), though read from a per-series table filled by blocks, is its own
ordered divisor sum: the scalar loop that _prime_lambda writes out at a
prime.  The prime test reads the sieve table of eisenstein where it
covers p (up to the largest lambda block built, at most 2^12) and
_divisors past it; p above 2 _L_MAX, the top of any window, is refused
before that trial division.

Each conjugate pair of phases p^{i r}, p^{-i r} costs one exponential.  For
z = (+-0.0, y), as every twist i r times log p is, cmath.exp and numpy's
complex exp both return exp(+-0.0) = 1 times cos y and sin y, and cos is even
and sin odd, so exp(-z) == conj(exp(z)) in every bit, signed zeros included:
amplifier_sum, factorization_check and _prime_lambda take the second phase
of a pair as the conjugate of the first.

Primes come from sieve_interval, a segmented sieve over the odd numbers
only.  amplifier_sum sieves [L, 2L] in sieve windows of 2 _SEGMENT integers,
the reach of one odd-only segment of _SEGMENT entries, and reduces each
window's primes in blocks, the primes of one span [lo + k _SPAN,
lo + (k + 1) _SPAN) with lo = ceil(L), so that its arithmetic holds one
block's primes at a time (_SPAN = 2^16: about 4,700 primes at L = 1e6, of a
window's 70,000).  _SEGMENT is a multiple of _SPAN, so the blocks depend on
L alone, and math.fsum combines their sums exactly
rounded: the sieve layout does not set the bits of the result.  A window's
primes come from _window_primes, a read-only cache of the last four
windows, so sums at one L for several q or twists sieve once; it holds at
most 3.2 MB (0.56 MB a window at L = 1e6, 0.8 MB at 1e9).  Each block is
filtered to p = 1 mod q prime to the level after the split, so a sum never
copies a whole window; sieve_interval itself keeps nothing.  The window
start L is capped at _L_MAX = 1e9: one sum there sieves 1e9 integers, about
9 s on one 2.1 GHz Xeon core, and AmplifierConfig rejects a larger L before
any sieve starts, as it does twists |r1|, |r2| > 1e3.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from eisenkit.characters import DirichletCharacter, _checked_int, _factorize, conjugate, multiply, value_table
from eisenkit.eisenstein import _divisors, _sieve_slot
from eisenkit.lfunctions import _IM_WINDOW
from eisenkit.special_functions import BumpWeight

__all__ = [
    "AmplifierConfig",
    "AsymptoticRow",
    "amplifier_sum",
    "asymptotic_report",
    "b_xi",
    "factorization_check",
    "sieve_interval",
]

_SEGMENT = 1 << 20     # entries of an odd-only sieve segment, a multiple of _SPAN
_SPAN = 1 << 16        # reduction block of amplifier_sum
_L_MAX = 1e9    # ceiling on the window start L: [L, 2L] holds L integers to sieve


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplifierConfig:
    q: int                      # progression modulus, coprime to the level
    L: float                    # window start; primes run over [L, 2L]
    r1: float                   # spectral twist of the left divisor factor
    r2: float                   # spectral twist of the conjugated factor
    chi1: DirichletCharacter
    chi2: DirichletCharacter
    level: int = field(init=False, repr=False, compare=False)     # chi1.modulus * chi2.modulus
    # xi -> its _PrimeContext, filled by b_xi and factorization_check
    _contexts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    weight: ClassVar[BumpWeight] = BumpWeight()    # the one window, shared by every config

    def __post_init__(self):
        for name in ("chi1", "chi2"):
            if not isinstance(getattr(self, name), DirichletCharacter):
                raise TypeError(f"{name} must be a DirichletCharacter, got {getattr(self, name)!r}")
        for name in ("L", "r1", "r2"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise TypeError(f"{name} must be a real number, got {getattr(self, name)!r}")
        object.__setattr__(self, "level", self.chi1.modulus * self.chi2.modulus)
        q = _checked_int("q", self.q)
        if not all(math.isfinite(v) for v in (self.L, self.r1, self.r2)):
            raise ValueError(f"L, r1 and r2 must be finite, got {self.L}, {self.r1}, {self.r2}")
        # the twists stay in the L-value window's |Im s| <= 1e3, where the
        # factorization holds to 1e-10; past it the phases p^{i r} lose digits
        if max(abs(self.r1), abs(self.r2)) > _IM_WINDOW:
            raise ValueError(f"twists r1 = {self.r1} and r2 = {self.r2} outside "
                             f"[-{_IM_WINDOW:g}, {_IM_WINDOW:g}]")
        # above 2 L_MAX no prime p = 1 mod q lies in any window [L, 2L]
        if not 0 < q <= 2 * _L_MAX:
            raise ValueError(f"progression modulus must be in [1, {2 * _L_MAX:g}], got {q}")
        if math.gcd(q, self.level) != 1:
            raise ValueError(f"progression modulus {q} must be coprime "
                             f"to the level {self.level}")
        if self.L < 10:
            raise ValueError(f"window start L = {self.L} below the supported floor 10")
        if self.L > _L_MAX:
            raise ValueError(f"window start L = {self.L} above the supported ceiling {_L_MAX:g}")


# ---------------------------------------------------------------------------
# divisor factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _twists(xi: DirichletCharacter, chi1: DirichletCharacter, chi2: DirichletCharacter):
    """xi conj(chi1), xi conj(chi2), xi conj(chi2 conj(chi1)) and xi conj(chi1 conj(chi2))."""
    return (multiply(xi, conjugate(chi1)), multiply(xi, conjugate(chi2)),
            multiply(xi, conjugate(multiply(chi2, conjugate(chi1)))),
            multiply(xi, conjugate(multiply(chi1, conjugate(chi2)))))


class _PrimeContext:
    """What b_xi and factorization_check read at every prime for one (xi, cfg):
    the value lists and moduli of chi1, chi2, xi and the four twists, the
    phase multipliers 1j r1, -1j r2, 1j (r1 - r2) and 1j (r1 + r2), and q
    times the level.  Built once per xi on first use and kept in the
    config's _contexts, so a later prime hashes xi alone."""

    __slots__ = ("v1", "q1", "v2", "q2", "w1", "m1", "w2", "m2", "vx", "qx", "vu", "qu",
                 "vd", "qd", "s_left", "s_right", "s_diff", "s_total", "q_level")

    def __init__(self, xi: DirichletCharacter, cfg: AmplifierConfig):
        twist1, twist2, up, down = _twists(xi, cfg.chi1, cfg.chi2)
        self.v1, self.q1 = cfg.chi1._values, cfg.chi1.modulus
        self.v2, self.q2 = cfg.chi2._values, cfg.chi2.modulus
        self.w1, self.m1 = twist1._values, twist1.modulus
        self.w2, self.m2 = twist2._values, twist2.modulus
        self.vx, self.qx = xi._values, xi.modulus
        self.vu, self.qu = up._values, up.modulus
        self.vd, self.qd = down._values, down.modulus
        # the expressions the phases were always built from, so s log p keeps its bits
        self.s_left, self.s_right = 1j * cfg.r1, -1j * cfg.r2
        self.s_diff, self.s_total = 1j * (cfg.r1 - cfg.r2), 1j * (cfg.r1 + cfg.r2)
        self.q_level = cfg.q * cfg.level


def _context(xi: DirichletCharacter, cfg: AmplifierConfig) -> _PrimeContext:
    """The _PrimeContext of (xi, cfg), built and stored; _b_xi_at calls it
    when cfg has none for xi.  xi must be a character mod cfg.q."""
    if not isinstance(xi, DirichletCharacter):
        raise TypeError(f"xi must be a DirichletCharacter, got {xi!r}")
    if xi.modulus != cfg.q:
        raise ValueError(f"xi must be a character mod q = {cfg.q}, got {xi!r}")
    ctx = cfg._contexts[xi] = _PrimeContext(xi, cfg)
    return ctx


def _prime_lambda(v1, q1: int, v2, q2: int, s: complex, p: int, logp: float) -> complex:
    """generalized_divisor_sum(chi1, chi2, s, p) at a prime p, bit for bit,
    from the value lists v1 = chi1._values and v2 = chi2._values and the
    moduli q1, q2: its two terms a = 1 and a = p, in the divisor order, each
    skipped when a character value is 0.

    When zp = s log p has a real part of +-0.0, as b_xi's s = +-i r always
    gives, p^{-s} is the conjugate of p^s, exact in every bit (see the module
    docstring); off that axis it takes its own exponential.
    """
    zp = s * logp
    e = cmath.exp(zp)
    total = 0j
    c1, c2 = v1[1 % q1], v2[p % q2]
    if c1 and c2:      # a complex value is false exactly when it is 0
        total += c1 * c2 * (e.conjugate() if zp.real == 0.0 else cmath.exp(-zp))
    c1, c2 = v1[p % q1], v2[1 % q2]
    if c1 and c2:
        total += c1 * c2 * e
    return total


def _b_xi_at(p: int, xi: DirichletCharacter,
             cfg: AmplifierConfig) -> tuple[complex, int, float, _PrimeContext]:
    """b_xi at p with the integer p, log(p) and the _PrimeContext it used.

    Reads the context kept on cfg for xi, or builds it (_context).  Then
    validates p (an integer prime, at most 2 _L_MAX, the top of any window,
    prime to q and the level), takes log(p) once and builds both prime
    factors from their two terms (_prime_lambda).  The prime test reads the
    sieve table of eisenstein where it covers p, and _divisors past it.
    """
    try:
        ctx = cfg._contexts[xi]
    except (KeyError, TypeError):     # not built yet, or xi is unhashable, so no character
        ctx = _context(xi, cfg)
    try:
        n = operator.index(p)
    except TypeError:
        n = 0
    # trial division of p costs about 2 ms at the ceiling, minutes near 1e18
    if n > 2 * _L_MAX:
        raise ValueError(f"p = {p} above the amplifier's prime ceiling {2 * _L_MAX:g}")
    prime = _sieve_slot[0][4]       # one byte per n, 1 at the primes
    if not (prime[n] if 0 <= n < len(prime) else _divisors(n) == (1, n)):
        raise ValueError(f"p = {p!r} must be a prime")
    p = n
    if ctx.q_level % p == 0:
        raise ValueError(f"p = {p} must avoid the progression modulus and the level")
    logp = math.log(p)
    left = _prime_lambda(ctx.v1, ctx.q1, ctx.v2, ctx.q2, ctx.s_left, p, logp)
    right = _prime_lambda(ctx.w1, ctx.m1, ctx.w2, ctx.m2, ctx.s_right, p, logp)
    return logp * left * right, p, logp, ctx


def b_xi(p: int, xi: DirichletCharacter, cfg: AmplifierConfig) -> complex:
    """log(p) times the product of the two twisted divisor factors at the prime p."""
    return _b_xi_at(p, xi, cfg)[0]


def factorization_check(p: int, xi: DirichletCharacter, cfg: AmplifierConfig) -> float:
    """Defect of the quadruple-L factorization at the prime coefficient p.

    The left side is b_xi; the right side expands the same coefficient from
    the four twisted L-functions in the factorization's numerator by direct
    character algebra.  At squarefree coefficients the denominator and the
    bounded correction factor contribute nothing, so the defect is zero in
    exact arithmetic.

    p^{-i(r1 -+ r2)} is taken as the conjugate of p^{i(r1 -+ r2)}, exact in
    every bit (see the module docstring): two exponentials per check, not
    four.
    """
    left, p, logp, ctx = _b_xi_at(p, xi, cfg)
    e_diff = cmath.exp(ctx.s_diff * logp)
    e_total = cmath.exp(ctx.s_total * logp)
    xi_p = ctx.vx[p % ctx.qx]
    four_terms = (xi_p * e_diff + xi_p * e_diff.conjugate()
                  + ctx.vu[p % ctx.qu] * e_total + ctx.vd[p % ctx.qd] * e_total.conjugate())
    return abs(left - logp * four_terms)


# ---------------------------------------------------------------------------
# prime windows
# ---------------------------------------------------------------------------

def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], by a segmented sieve over the odd numbers only.

    2 is added by hand.  Each segment is one boolean array with an entry per
    odd number, so its _SEGMENT entries cover 2 * _SEGMENT integers.  The odd
    base primes up to sqrt(hi) are a Python list, so crossing off does plain
    integer arithmetic.  lo and hi are integers, hi at most 2 _L_MAX, the
    top of any amplifier window.
    """
    lo, hi = _checked_int("lo", lo), _checked_int("hi", hi)
    if hi > 2 * _L_MAX:
        raise ValueError(f"hi = {hi} above the sieve ceiling {2 * _L_MAX:g}")
    if hi < lo or hi < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    for p in range(3, math.isqrt(root) + 1, 2):
        if base[p]:
            base[p * p :: 2 * p] = False
    base_primes = (2 * np.flatnonzero(base[3::2]) + 3).tolist()

    chunks = [np.array([2], dtype=np.int64)] if lo <= 2 else []
    for start in range(max(lo, 3) | 1, hi + 1, 2 * _SEGMENT):
        stop = min(start + 2 * _SEGMENT, hi + 1)
        seg = np.ones((stop - start + 1) // 2, dtype=bool)   # seg[i] stands for start + 2 i
        for p in base_primes:
            first = max(p * p, (start + p - 1) // p * p)
            if not first & 1:
                first += p
            if first < stop:
                seg[(first - start) // 2 :: p] = False
        primes = np.flatnonzero(seg)
        primes *= 2
        primes += start
        chunks.append(primes)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@lru_cache(maxsize=4)
def _window_primes(start: int, stop: int) -> np.ndarray:
    """sieve_interval(start, stop), read-only, for the last four sieve windows
    of amplifier_sum, so that sums at one L but different q, r1 or r2 sieve
    once.  A window holds about 2 _SEGMENT / log(stop) primes of 8 bytes:
    0.56 MB at L = 1e6, 0.8 MB at L = 1e9, so at most 3.2 MB for all four."""
    primes = sieve_interval(start, stop)
    primes.flags.writeable = False
    return primes


# ---------------------------------------------------------------------------
# the amplifier sum
# ---------------------------------------------------------------------------

def amplifier_sum(cfg: AmplifierConfig) -> complex:
    """A_L(r1, r2): the weighted eta-product sum over p = 1 mod q in [L, 2L].

    [L, 2L] is sieved in windows of 2 _SEGMENT integers, one odd-only
    segment each (so [1e6, 2e6] is one window), and each window's primes
    are reduced in blocks, one per span of _SPAN integers counted from
    ceil(L).  math.fsum combines the block sums exactly rounded, so the
    value is stable under any partitioning of the sieve work.  Each twist
    takes one exponential per block: p^{-i r} is the exact conjugate of
    p^{i r} (see the module docstring).
    """
    lo = math.ceil(cfg.L)
    hi = math.floor(2 * cfg.L)
    t1 = value_table(cfg.chi1)
    t2 = value_table(cfg.chi2)
    q1 = cfg.chi1.modulus
    q2 = cfg.chi2.modulus
    level = cfg.level

    seg_re: list[float] = []
    seg_im: list[float] = []
    for start in range(lo, hi + 1, 2 * _SEGMENT):
        stop = min(start + 2 * _SEGMENT - 1, hi)
        primes = _window_primes(start, stop)
        cuts = np.searchsorted(primes, np.arange(start + _SPAN, stop + 1, _SPAN))
        for block in np.split(primes, cuts):
            block = block[(block % cfg.q == 1 % cfg.q) & (level % block != 0)]
            if block.size == 0:
                continue
            p = block.astype(np.float64)
            logp = np.log(p)
            w = cfg.weight(p / cfg.L)
            c1 = t1[block % q1]
            c2 = t2[block % q2]
            e1 = np.exp(1j * cfg.r1 * logp)
            left = c1 * e1 + c2 * np.conj(e1)
            if cfg.r1 == cfg.r2:
                right = np.conj(left)
            else:
                e2 = np.exp(1j * cfg.r2 * logp)
                right = np.conj(c1 * e2 + c2 * np.conj(e2))
            vals = w * logp * left * right
            seg_re.append(float(np.sum(vals.real)))
            seg_im.append(float(np.sum(vals.imag)))
    return complex(math.fsum(seg_re), math.fsum(seg_im))


@dataclass(frozen=True)
class AsymptoticRow:
    L: float
    amplifier_value: complex
    ratio: float    # Re(A_L) * phi(q) / (2 w~(1) L)


def asymptotic_report(cfgs) -> list[AsymptoticRow]:
    """Ratio table across a sequence of window lengths.

    On the diagonal r1 = r2 with generic twists the ratio tends to one as L
    grows.  With both twists zero and principal characters the divisor factors
    degenerate to the constant 2, every summand carries |eta|^2 = 4 instead of
    the generic mean 2, and the ratio tends to two; that boundary case is
    worth keeping visible when reading trends.
    """
    rows = []
    for cfg in cfgs:
        value = amplifier_sum(cfg)
        phi_q = math.prod((p - 1) * p ** (e - 1) for p, e in _factorize(cfg.q))
        scale = phi_q / (2.0 * cfg.weight.mellin_at_one * cfg.L)
        rows.append(AsymptoticRow(cfg.L, value, value.real * scale))
    return rows
