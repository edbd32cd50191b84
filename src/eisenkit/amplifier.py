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

Character values come from each character's value table (see characters),
or its phases past 2^14, through characters._values_at: amplifier_sum reads
whole blocks of primes that way and weights each block with one array call
of the bump weight.  b_xi and factorization_check read what (xi, cfg) fixes
from one _PrimeContext, built on the first call for xi and kept on the
config, keyed by xi: chi1, chi2, xi and the four twisted characters (kept
per xi by _twists while xi lives), the phase multipliers 1j r1, -1j r2,
1j (r1 - r2) and 1j (r1 + r2), q times the level, and the prime table.  The
constructor checks xi: TypeError if it is not a character, ValueError if
its modulus is not q.

The prime table holds b_xi and the factorization defect at every prime
p <= _PRIME_MAX = 4096 as two lists in the slot order of the prime index,
built once per process by the first context from its own
sieve_interval(2, 4096): those primes, math.log of each and a dict from
each to its slot.  The amplifier shares no table with eisenstein.  The
constructor fills it with one call of the vectorized kernel _prime_kernel,
None at the primes dividing q times the level; a call at a prime it serves
is then two reads.
p is read through operator.index, so a numpy integer reads the table as the
int does.  The table lives on the context, so it dies with its config.
Every other p (past the ceiling, not an integer, not prime, or dividing q
times the level) takes the scalar path, with its checks and messages:
refuse p above 2 _L_MAX, the top of any window, before any trial division,
test it as prime by the trial division characters._factorize, take log p
once and build both prime factors from their two terms, a = 1 and a = p,
with the bits of generalized_divisor_sum, whose every lambda(n), though
read from a per-series table filled by blocks, is its own ordered divisor
sum: the scalar loop that _prime_lambda writes out at a prime.  The kernel
gives the scalar path's bits, as eisenstein's lambda kernel does: each
complex product is written out in float64 with one rounding per operation
(_mul), the +-0.0 terms of a complex times a float included; the phases are
numpy's complex exp at (+-0.0, y), equal to cmath.exp there (below); abs is
np.hypot; character values come through _values_at, so twists past 2^14
work.

The kernel's phases p^s at the four multipliers depend on (r1, r2) alone,
so every context of one twist pair shares them: one read-only array of
their real and imaginary parts over the prime index, 36 KB at the 4096
ceiling, from _phase_rows.  They live in _phase_cache, one process-wide LRU
keyed on the bytes of the four multipliers, so a twist of -0.0 never reads
the rows of 0.0, and holding no character.  It keeps at most _PHASE_BYTES
= 1 MiB, 29 twist pairs: the 20 of the acceptance sweep and the 12 of the
benchmark's each build their rows once.  The kernel also skips the
products by chi(1) = 1 that the scalar path takes, which leave every bit
as it was (see _prime_kernel).

Each conjugate pair of phases p^{i r}, p^{-i r} costs one exponential.  For
z = (+-0.0, y), as every twist i r times log p is, cmath.exp and numpy's
complex exp both return exp(+-0.0) = 1 times cos y and sin y, and cos is even
and sin odd, so exp(-z) == conj(exp(z)) in every bit, signed zeros included:
amplifier_sum, factorization_check, _prime_lambda and _prime_kernel take
the second phase of a pair as the conjugate of the first.

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
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from eisenkit.characters import DirichletCharacter, _checked_int, _factorize, _values_at, conjugate, multiply
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
_PRIME_MAX = 1 << 12    # the prime table ceiling
_PHASE_BYTES = 1 << 20  # bound on _phase_cache: 29 twist pairs of 36 KB at the 4096 ceiling
_phase_cache = OrderedDict()    # bytes of the four multipliers -> their read-only phase rows
# the defect's phase rows p^{i(r1 - r2)}, its conjugate, p^{i(r1 + r2)} and its conjugate
_DEFECT_ROWS, _DEFECT_SIGNS = np.array([2, 2, 3, 3]), np.array([[1.0], [-1.0], [1.0], [-1.0]])
_last_twists = weakref.WeakKeyDictionary()    # xi -> ((chi1, chi2), twists) of its last _twists


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

def _twists(xi: DirichletCharacter, chi1: DirichletCharacter, chi2: DirichletCharacter):
    """xi conj(chi1), xi conj(chi2), xi conj(chi2 conj(chi1)) and xi conj(chi1 conj(chi2)), the
    last kept while xi lives, unless one is xi itself (chi1 or chi2 mod 1): that entry would never drop."""
    pair, twists = _last_twists.get(xi, (None, None))
    if pair != (chi1, chi2):
        conj1, conj2 = conjugate(chi1), conjugate(chi2)
        twists = (multiply(xi, conj1), multiply(xi, conj2),
                  multiply(xi, multiply(chi1, conj2)), multiply(xi, multiply(chi2, conj1)))
        if xi not in twists:
            _last_twists[xi] = (chi1, chi2), twists
    return twists


class _PrimeContext:
    """What b_xi and factorization_check read at every prime for one (xi, cfg):
    chi1, chi2, xi and the four twists, the phase multipliers 1j r1, -1j r2,
    1j (r1 - r2) and 1j (r1 + r2), q times the level, and the prime table,
    the lists b and defect in the slot order of the prime index, whose dict
    from each prime to its slot is kept as slot.  Built once per xi on first
    use and kept in the config's _contexts, so a later prime hashes xi alone.
    xi must be a character mod cfg.q."""

    __slots__ = ("chi1", "chi2", "xi", "twists", "s_left", "s_right", "s_diff", "s_total",
                 "q_level", "slot", "b", "defect")

    def __init__(self, xi: DirichletCharacter, cfg: AmplifierConfig):
        if not isinstance(xi, DirichletCharacter):
            raise TypeError(f"xi must be a DirichletCharacter, got {xi!r}")
        if xi.modulus != cfg.q:
            raise ValueError(f"xi must be a character mod q = {cfg.q}, got {xi!r}")
        self.chi1, self.chi2, self.xi = cfg.chi1, cfg.chi2, xi
        self.twists = _twists(xi, cfg.chi1, cfg.chi2)
        # the expressions the phases were always built from, so s log p keeps its bits
        self.s_left, self.s_right = 1j * cfg.r1, -1j * cfg.r2
        self.s_diff, self.s_total = 1j * (cfg.r1 - cfg.r2), 1j * (cfg.r1 + cfg.r2)
        self.q_level = cfg.q * cfg.level
        # b_xi and the defect at every prime of the index, None at the primes
        # dividing q times the level and at slot -1, read at every n the index
        # lacks: such a call takes the scalar path
        p, logp, self.slot = _prime_index()
        self.b, self.defect = (values.tolist() + [None] for values in _prime_kernel(self, p, logp))
        try:
            ramified = np.flatnonzero(np.remainder(self.q_level, p) == 0).tolist()
        except OverflowError:       # q times the level past int64
            ramified = [i for i, n in enumerate(p.tolist()) if self.q_level % n == 0]
        for i in ramified:
            self.b[i] = self.defect[i] = None


@lru_cache(maxsize=1)
def _prime_index() -> tuple:
    """The primes p <= _PRIME_MAX, their logs (math.log) and a dict from
    each to its slot, from one sieve_interval call; built by the first context."""
    p = sieve_interval(2, _PRIME_MAX)
    primes = p.tolist()
    return p, np.fromiter(map(math.log, primes), dtype=float, count=len(p)), dict(zip(primes, range(len(p))))


def _mul(ar, ai, br, bi):
    """The parts of (ar + i ai)(br + i bi), rounded as Python's complex
    multiply rounds them, one rounding per operation; a float x is (x, 0.0)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _phase_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of p^s at every prime of the index, one
    row per multiplier of s (s_left, s_right, s_diff, s_total): s log p as
    Python multiplies a complex by a float, its real part +-0.0, then numpy's
    complex exp.  Read-only, and kept in _phase_cache under the bytes of s,
    so that every context of one twist pair reads one set of rows.  Each
    step is one dict operation: threads that race on the cache rebuild a
    row or evict one early, and never read a wrong one."""
    key = s.tobytes()
    rows = _phase_cache.pop(key, None)
    if rows is None:
        logp = _prime_index()[1]
        e = np.empty((len(s), len(logp)), dtype=complex)
        e.real, e.imag = _mul(s.real[:, None], s.imag[:, None], logp, 0.0)
        np.exp(e, out=e)
        rows = np.array([e.real, e.imag])
        rows.flags.writeable = False
    _phase_cache[key] = rows        # the most recently used last
    while len(_phase_cache) * rows.nbytes > _PHASE_BYTES:
        _phase_cache.popitem(last=False)
    return rows[0], rows[1]


def _prime_kernel(ctx: _PrimeContext, p: np.ndarray, logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b_xi and the factorization defect at each of the primes p of the
    index, given log p, by the operations of the scalar path (_b_xi_at and
    factorization_check's four terms) in its order, so with its bits (see
    the module docstring).  A term with a zero character value is kept as
    c e = +-0.0, which leaves a sum started at +0.0 unchanged, as skipping
    it does.

    The scalar path multiplies each term of a prime factor by a character
    value at 1, chi(1) = e(0) = (1.0, 0.0); the kernel skips that product,
    which returns the other factor c in every bit.  The parts of a unit's
    value e(m / D) are never +-0.0 but at e(0) = (1.0, 0.0), and a
    non-unit's value is (0.0, 0.0), so no part of c is -0.0, and where a
    part is +0.0 the other part is 1.0 or 0.0: then 1.0 c_re - 0.0 c_im and
    0.0 c_re + 1.0 c_im are c_re and c_im, their zeros +0.0 included."""
    twist1, twist2, up, down = ctx.twists
    er, ei = _phase_rows(np.array([ctx.s_left, ctx.s_right, ctx.s_diff, ctx.s_total]))

    # the two prime factors in rows, chi1 x chi2 at s_left and twist1 x
    # twist2 at s_right: 0j + c2(p) conj(p^s) + c1(p) p^s
    c1_p = np.array([_values_at(ctx.chi1, p), _values_at(twist1, p)])
    c2_p = np.array([_values_at(ctx.chi2, p), _values_at(twist2, p)])
    ar, ai = _mul(c2_p.real, c2_p.imag, er[:2], -ei[:2])
    br, bi = _mul(c1_p.real, c1_p.imag, er[:2], ei[:2])
    fr, fi = 0.0 + ar + br, 0.0 + ai + bi
    b = np.empty(len(p), dtype=complex)
    b.real, b.imag = _mul(*_mul(logp, 0.0, fr[0], fi[0]), fr[1], fi[1])

    # xi(p) p^{i(r1 - r2)} + xi(p) conj(...) + up(p) p^{i(r1 + r2)} + down(p) conj(...)
    c = np.array([_values_at(ctx.xi, p)] * 2 + [_values_at(up, p), _values_at(down, p)])
    tr, ti = _mul(c.real, c.imag, er.take(_DEFECT_ROWS, axis=0), ei.take(_DEFECT_ROWS, axis=0) * _DEFECT_SIGNS)
    gr, gi = _mul(logp, 0.0, tr[0] + tr[1] + tr[2] + tr[3], ti[0] + ti[1] + ti[2] + ti[3])
    return b, np.hypot(b.real - gr, b.imag - gi)


def _prime_lambda(chi1: DirichletCharacter, chi2: DirichletCharacter, s: complex,
                  p: int, logp: float) -> complex:
    """generalized_divisor_sum(chi1, chi2, s, p) at a prime p, bit for bit,
    from the characters' value lists: its two terms a = 1 and a = p, in the
    divisor order, each skipped when a character value is 0.

    When zp = s log p has a real part of +-0.0, as b_xi's s = +-i r always
    gives, p^{-s} is the conjugate of p^s, exact in every bit (see the module
    docstring); off that axis it takes its own exponential.
    """
    zp = s * logp
    e = cmath.exp(zp)
    total = 0j
    v1, q1, v2, q2 = chi1._values, chi1.modulus, chi2._values, chi2.modulus
    c1, c2 = v1[1 % q1], v2[p % q2]
    if c1 and c2:      # a complex value is false exactly when it is 0
        total += c1 * c2 * (e.conjugate() if zp.real == 0.0 else cmath.exp(-zp))
    c1, c2 = v1[p % q1], v2[1 % q2]
    if c1 and c2:
        total += c1 * c2 * e
    return total


def _b_xi_at(p: int, n: int, ctx: _PrimeContext) -> tuple[complex, float]:
    """b_xi at p and log(p) by the scalar path, that of every p the prime
    table lacks, with n = _index(p).  Validates p (an integer prime, at most
    2 _L_MAX, the top of any window, prime to q and the level), every message
    naming p as given, takes log(p) once and builds both prime factors from
    their two terms (_prime_lambda).
    """
    # trial division of p costs about 2 ms at the ceiling, minutes near 1e18
    if n > 2 * _L_MAX:
        raise ValueError(f"p = {p} above the amplifier's prime ceiling {2 * _L_MAX:g}")
    if _factorize(n) != ((n, 1),):
        raise ValueError(f"p = {p!r} must be a prime")
    if ctx.q_level % n == 0:
        raise ValueError(f"p = {p} must avoid the progression modulus and the level")
    logp = math.log(n)
    left = _prime_lambda(ctx.chi1, ctx.chi2, ctx.s_left, n, logp)
    right = _prime_lambda(ctx.twists[0], ctx.twists[1], ctx.s_right, n, logp)
    return logp * left * right, logp


def _index(p) -> int:
    """p as an int, numpy integers included, or 0, not prime, if p is no integer."""
    try:
        return operator.index(p)
    except TypeError:
        return 0


def b_xi(p: int, xi: DirichletCharacter, cfg: AmplifierConfig) -> complex:
    """log(p) times the product of the two twisted divisor factors at the prime p."""
    try:
        ctx = cfg._contexts[xi]
    except (KeyError, TypeError):     # not built yet, or xi is unhashable, so no character
        ctx = cfg._contexts[xi] = _PrimeContext(xi, cfg)
    n = p if type(p) is int else _index(p)
    value = ctx.b[ctx.slot.get(n, -1)]
    if value is not None:
        return value
    return _b_xi_at(p, n, ctx)[0]


def factorization_check(p: int, xi: DirichletCharacter, cfg: AmplifierConfig) -> float:
    """Defect of the quadruple-L factorization at the prime coefficient p.

    The left side is b_xi; the right side expands the same coefficient from
    the four twisted L-functions in the factorization's numerator by direct
    character algebra.  At squarefree coefficients the denominator and the
    bounded correction factor contribute nothing, so the defect is zero in
    exact arithmetic.

    p^{-i(r1 -+ r2)} is taken as the conjugate of p^{i(r1 -+ r2)}, exact in
    every bit (see the module docstring): two exponentials per check, not
    four.  A p in the prime table is one read of it.
    """
    try:
        ctx = cfg._contexts[xi]
    except (KeyError, TypeError):
        ctx = cfg._contexts[xi] = _PrimeContext(xi, cfg)
    n = p if type(p) is int else _index(p)
    defect = ctx.defect[ctx.slot.get(n, -1)]
    if defect is not None:
        return defect
    left, logp = _b_xi_at(p, n, ctx)
    e_diff = cmath.exp(ctx.s_diff * logp)
    e_total = cmath.exp(ctx.s_total * logp)
    _, _, up, down = ctx.twists
    xi_p = xi._values[n % cfg.q]
    four_terms = (xi_p * e_diff + xi_p * e_diff.conjugate() + up._values[n % up.modulus] * e_total
                  + down._values[n % down.modulus] * e_total.conjugate())
    return abs(left - logp * four_terms)


# ---------------------------------------------------------------------------
# prime windows
# ---------------------------------------------------------------------------

def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], by a segmented sieve over the odd numbers only.

    2 is added by hand.  Each segment is one boolean array with an entry per
    odd number, so its _SEGMENT entries cover 2 * _SEGMENT integers.  The odd
    base primes up to sqrt(hi) come from sieve_interval itself, as a Python
    list, so crossing off does plain integer arithmetic.  lo and hi are
    integers, hi at most 2 _L_MAX, the top of any amplifier window.
    """
    lo, hi = _checked_int("lo", lo), _checked_int("hi", hi)
    if hi > 2 * _L_MAX:
        raise ValueError(f"hi = {hi} above the sieve ceiling {2 * _L_MAX:g}")
    if hi < lo or hi < 2:
        return np.empty(0, dtype=np.int64)
    base_primes = sieve_interval(3, math.isqrt(hi)).tolist()

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

    seg_re: list[float] = []
    seg_im: list[float] = []
    for start in range(lo, hi + 1, 2 * _SEGMENT):
        stop = min(start + 2 * _SEGMENT - 1, hi)
        primes = _window_primes(start, stop)
        cuts = np.searchsorted(primes, np.arange(start + _SPAN, stop + 1, _SPAN))
        for block in np.split(primes, cuts):
            block = block[(block % cfg.q == 1 % cfg.q) & (cfg.level % block != 0)]
            if block.size == 0:
                continue
            p = block.astype(np.float64)
            logp = np.log(p)
            w = cfg.weight(p / cfg.L)
            c1 = _values_at(cfg.chi1, block)
            c2 = _values_at(cfg.chi2, block)
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
