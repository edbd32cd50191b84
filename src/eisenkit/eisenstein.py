"""Newform Eisenstein series attached to a pair of primitive Dirichlet
characters: scattering constants, Fourier coefficients, and the truncated
evaluator at the cusp-infinity chart.

Conventions.  The series is parametrized on the unitary axis s = sigma + i t
with sigma = 0 in production use; off the axis |sigma| <= 10, the K-Bessel
order envelope every evaluation of the series needs, and a larger |sigma| is
refused on construction (NumericEnvelopeError).  With chi1 mod q1 and chi2
mod q2 and psi the primitive character inducing chi1 * conj(chi2), the
expansion implemented here is

    E(s; x, y) = [q1 = 1] y^{1/2+s}
               + c(s) [q2 = 1] y^{1/2-s}
               + P(s) sqrt(y) sum_{n >= 1} lambda_s(n) K_s(2 pi n y) 2 cos(2 pi n x)

with the Hecke eigenvalues lambda_s(n) = generalized_divisor_sum(chi1, chi2,
s, n) and P(s) = b_r(s) / L(2s+1, psi) * 2 / Gamma_R(2s + 1 + a), where a is
the parity exponent of psi and b_r collects the ramified local normalizations.
At level one this reduces to the classical real-analytic Eisenstein series
with constant term y^{1/2+s} + c(s) y^{1/2-s}, which the modular-invariance
test checks end to end.

The scattering constant is assembled as c(s) = c_r(s) Lambda(2s, psi) /
Lambda(2s+1, psi); the functional-equation residual then exercises the
Dirichlet functional equation (Gauss sum against the completed-L ratio)
against the evaluator's independent path through L(2s+1), the Gamma factor,
the Bessel values, and the coefficients.

evaluate, the residual and supnorm.scan compute F through one core,
_fourier_grid, over any grid of x and y and one series or a series and its dual.

Per-series state lives on the EisensteinParams instance, computed on first
use: the quotient character psi; L(2s+1, psi) and the local normalization
b_p(s) at each p | level, which coefficient_prefactor and
scattering_constant both read; P(s); c(s); and the dual series, whose dual
is the instance itself, so the dual's c(-s) reads the same b_p(s).  A
computation that raises leaves nothing behind, so the next call raises
again.  Equal params objects do not share this state; a caller that reuses
one object per series pays for it once.  What it is built from is shared
per character value, one object per value: value tables and Gauss sums are
kept on the live characters, and local epsilon factors in characters' memo,
so a second object for an equal series recomputes only the per-series state
above and the derived characters, microseconds each.

lambda has one table per series value (chi1, chi2, s), kept for the last
_LAMBDA_SERIES values: equal series share it, and so do s and s with its
zero parts' signs flipped, which give the same lambda.  One function,
_lambda_table, returns and grows it; the Fourier rows call it once per
series, and generalized_divisor_sum once per n.  Its first block is [1, M], M the least
power of two, at least 16, that covers the n asked for; later blocks (M, 2M]
double it, up to n = 2^12, and one vectorized kernel fills each block.  Each
lambda(n) is its own sum over _divisors(n), in that order, with the bits of
the scalar loop, so no value depends on the block or table that holds it.
Past 2^12, and in a block with an exponential that is not finite (only for
|Re s| above about 85), the scalar loop sums n alone; its _divisors expands
the memoized characters._factorize.  Such a block is marked on its series,
and the table keeps the blocks before it and never grows through it, so
the kernel does not run it again.  The block
layouts, shared by every series, come from one sieve table of least primes,
exponents, cofactors and logs, which only the lambda tables grow: to the
largest block's top and never past 2^12, by array passes in _divisors order,
with log a read from its math.log(a) entries.  The kernel reads character
values through characters._values_at.

evaluate and the FE residual check the height |t| <= 200, the K-Bessel
order bound, before any L-value, truncation or Bessel work, through the
same _check_height that supnorm.scan calls.  They refuse by name an x, y or
eps that is a bool, no real number or too large for a float, as
EisensteinParams refuses t_shift and sigma and scan t0 and its y-grid.
They sum at x reduced mod 1 by math.fmod, which is exact and leaves |x| < 1
as it is: E is 1-periodic in x, and an unreduced x carries its rounding into
every 2 pi n x, a gap of about 1e-3 at x near 2^40.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from eisenkit.characters import (
    DirichletCharacter,
    _conductor_exponent as _cond_exp,   # v_p of the conductor of chi
    _factorize,
    _values_at,
    conductor,
    conjugate,
    gauss_sum,
    local_component,
    local_epsilon,
    multiply,
    prime_to_p_part,
    primitive_part,
)
from eisenkit.lfunctions import _Q_WINDOW, _lambda_ratio, dirichlet_l, parity_exponent
from eisenkit.special_functions import (
    NumericEnvelopeError,
    PoleError,
    _IM_MAX,
    _RE_MAX,
    _check_complex,
    _check_real,
    _tail_cutoffs,
    bessel_k_row,
    log_gamma_r,
)

__all__ = [
    "ConstantTermData",
    "EisensteinParams",
    "coefficient_prefactor",
    "evaluate",
    "evaluate_truncated",
    "functional_equation_residual",
    "generalized_divisor_sum",
    "scattering_constant",
]

# Two conventions the defining references leave open were frozen by
# calibrating the functional-equation residual matrix: the divisor-sum
# coefficients take the exponent +s, not -s (generalized_divisor_sum), and the
# local epsilon factors are consumed with the conjugated character, the
# epsilon of conj(chi2) in _b_local.  Do not flip either without re-running
# that suite.


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EisensteinParams:
    """A newform Eisenstein series datum (chi1, chi2, s = sigma + i t)."""

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    t_shift: float
    sigma: float = 0.0          # off-axis diagnostics only, |sigma| <= 10; acceptance runs keep 0
    level: int = field(init=False, compare=False)
    l_modulus: int = field(init=False, compare=False)

    def __post_init__(self):
        _check_real("t_shift", self.t_shift)
        _check_real("sigma", self.sigma)
        if not (math.isfinite(self.t_shift) and math.isfinite(self.sigma)):
            raise ValueError(f"s must be finite, got sigma = {self.sigma}, t = {self.t_shift}")
        for chi in (self.chi1, self.chi2):
            if conductor(chi) != chi.modulus:
                raise ValueError(f"characters must be primitive; {chi} has conductor {conductor(chi)}")
        if abs(self.sigma) > _RE_MAX:     # every K_s(2 pi n y) of the series needs |Re s| <= 10
            raise NumericEnvelopeError(f"sigma = {self.sigma} outside the K-Bessel order "
                                       f"envelope |sigma| <= {_RE_MAX:g}")
        object.__setattr__(self, "level", self.chi1.modulus * self.chi2.modulus)
        object.__setattr__(self, "l_modulus", self.quotient_character.modulus)
        if self.l_modulus > _Q_WINDOW:    # refused before psi's value table is built
            raise NumericEnvelopeError(f"quotient character modulus {self.l_modulus} outside "
                                       f"the supported L-value window {_Q_WINDOW}")

    @cached_property
    def quotient_character(self) -> DirichletCharacter:
        """The primitive character inducing chi1 * conj(chi2)."""
        return primitive_part(multiply(self.chi1, conjugate(self.chi2)))

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t_shift)

    def dual(self) -> "EisensteinParams":
        """Swapped characters at the reflected point; E(s) = c(s) * dual E(-s)."""
        return self._dual

    @cached_property
    def _dual(self) -> "EisensteinParams":
        dual = EisensteinParams(self.chi2, self.chi1, -self.t_shift, -self.sigma)
        object.__setattr__(dual, "_dual", self)     # so the dual's c(-s) reads this series' state
        return dual

    @cached_property
    def _l_one_line(self) -> complex:
        """L(2s+1, psi), read by coefficient_prefactor and scattering_constant."""
        return dirichlet_l(2 * self.s + 1, self.quotient_character)

    @cached_property
    def _b_locals(self) -> dict[int, complex]:
        """_b_local at each p | level, p increasing: read by
        coefficient_prefactor, and by scattering_constant for the series and
        its dual."""
        return {p: _b_local(self, p) for p, _ in _factorize(self.level)}

    @cached_property
    def _outer_scale(self) -> complex:
        """P(s) = b_r(s) / L(2s+1, psi) * 2 / Gamma_R(2s + 1 + a)."""
        return coefficient_prefactor(self) * _archimedean_constant(self)

    @cached_property
    def _scattering(self) -> complex:
        """c(s)."""
        return scattering_constant(self).scattering


@dataclass(frozen=True)
class ConstantTermData:
    scattering: complex             # c(s)
    local_factors: dict             # prime -> local piece of c_r(s)
    ramified_product: complex       # c_r(s)


# ---------------------------------------------------------------------------
# local data helpers
# ---------------------------------------------------------------------------

def _chi_at_uniformizer(chi: DirichletCharacter, p: int, k: int) -> complex:
    """The p-component of chi at the k-th uniformizer power.

    Under the classical dictionary the p-part of chi at p itself is read off
    the complementary component: chi_p(p^k) = (prime-to-p part of chi)(p)^k.
    """
    if k == 0:
        return 1.0 + 0j
    w = prime_to_p_part(chi, p).evaluate(p)
    return w**k


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

_LAMBDA_FIRST = 16          # the least first block of a lambda table: lambda(1..16)
_LAMBDA_MAX = 1 << 12       # the table ceiling; lambda(n) past it is computed per call
_LAMBDA_SERIES = 64         # series whose lambda tables are kept


def _divisors(n: int) -> list[int]:
    """The divisors of n, expanded from _factorize(n); [1] for every n <= 1.

    For n = p1^e1 ... pr^er, p1 < ... < pr, the list is p1^k1 ... pr^kr
    with the least prime's exponent varying slowest, then the next prime's,
    and so on.  That order is a contract: generalized_divisor_sum adds its
    terms in it, so it sets the bits of lambda(n).  The list is its own
    mirror: _divisors(n)[k - 1 - i] is n / _divisors(n)[i], k the divisor
    count.
    """
    divs = [1]
    for p, e in reversed(_factorize(n)):
        divs = [p ** k * d for k in range(e + 1) for d in divs]
    return divs


# The sieve table (spf, exp, rest, logs) at index n: n = spf^exp rest with
# spf the least prime of n and rest prime to it (1, 0, 1 at n = 1), and
# logs holds math.log(n).  It starts at n <= 3.
_sieve_slot = [(np.array([0, 1, 2, 3]), np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]),
                np.array([-math.inf, 0.0, math.log(2), math.log(3)]))]


def _sieve_to(top: int) -> tuple:
    """The sieve table grown to cover n <= top, in steps [a, b] with b < 2a.
    spf(n) is the least prime q up to sqrt(b) < a, one with spf(q) = q, that
    divides n, or n; and m = n / spf(n) < a shares its least prime exactly
    when spf(n)^2 | n, so exp and rest extend the table's entries at m.
    Only _block_layout grows it, to a block's top, so it never passes
    _LAMBDA_MAX; one assignment publishes each step."""
    table = _sieve_slot[0]
    while len(table[0]) <= top:
        spf, exp, rest, logs = table
        a = len(spf)
        n = np.arange(a, min(2 * a, top + 1))
        p = n.copy()
        for q in range(math.isqrt(n[-1]), 1, -1):     # the least prime is written last
            if spf[q] == q:
                p[-a % q::q] = q
        m = n // p
        same = spf[m] == p
        table = (np.concatenate((spf, p)), np.concatenate((exp, np.where(same, exp[m] + 1, 1))),
                 np.concatenate((rest, np.where(same, rest[m], m))),
                 np.concatenate((logs, np.fromiter(map(math.log, range(a, a + len(n))), count=len(n),
                                                   dtype=float))))
        _sieve_slot[0] = table
    return table


@lru_cache(maxsize=2 * (_LAMBDA_MAX // _LAMBDA_FIRST).bit_length())
def _block_layout(lo: int, top: int):
    """The divisor terms of lambda(n) for n in (lo, top], one table block: a
    first block (0, 2^k] or a doubling (2^k, 2^(k+1)], so at most two per
    power of two.  Built from the sieve table, logs included.

    Returns (divs, logs, mirror, counts), n after n in _divisors order: each
    divisor a, math.log(a), the position of the same n's divisor n / a
    (k - 1 - i for a at index i), and each n's divisor count k.

    n = p1^e1 ... pr^er, p1 < ... < pr, lists its divisors p1^k1 ... pr^kr
    in _divisors order when the digits (k1, ..., kr), of radices ej + 1,
    count up with kr fastest.  The levels n, rest(n), ... of the sieve
    table give each pj and ej, and one pass over the block's positions per
    distinct prime, greatest first, splits off its digit.
    """
    spf, exp, rest, logs = _sieve_to(top)
    x = np.arange(lo + 1, top + 1)
    levels, counts = [], np.ones(len(x), dtype=np.intp)
    while x.max() > 1:
        radix = exp[x] + 1
        levels.append((spf[x], radix))
        counts *= radix
        x = rest[x]
    ends = np.cumsum(counts)
    at = np.arange(ends[-1])
    index = at - np.repeat(ends - counts, counts)      # each divisor's index within its n
    divs = np.ones(ends[-1], dtype=np.intp)
    for p, radix in reversed(levels):
        index, k = np.divmod(index, np.repeat(radix, counts))
        divs *= np.repeat(p, counts) ** k
    mirror = np.repeat(2 * ends - counts - 1, counts) - at
    return divs, logs[divs], mirror, counts


def _lambda_kernel(chi1: DirichletCharacter, chi2: DirichletCharacter, s: complex,
                   layout) -> np.ndarray:
    """lambda(n) for each n of a _block_layout: each its own sum, in
    _divisors order, with the bits of the scalar loop _lambda_loop.

    Every complex product is written out in float64, one rounding per
    operation as Python's complex arithmetic does, since numpy's complex
    multiply may fuse or reorder them; s * log(a) is (sigma log a - t 0.0,
    sigma 0.0 + t log a), as Python multiplies a complex by a float.  A
    term the loop skips (a zero character value) is kept as c1 c2 e =
    +-0.0, which leaves a sum started at +0.0 unchanged: the sum is never
    -0.0, and x + -0.0 is x.  That holds while every exponential of the
    block is finite, so a block whose exponentials do not sum to a finite
    value raises OverflowError, and its caller sums each n by the loop.
    Within the series envelope no block does: |Re(s log a - s log(n/a))|
    <= 10 log 4096, about 83.
    """
    divs, logs, mirror, counts = layout
    sigma, t = s.real, s.imag
    c = _values_at(chi1, divs)
    c2 = _values_at(chi2, divs[mirror])
    cr = c.real * c2.real
    cr -= c.imag * c2.imag
    ci = c.real * c2.imag
    ci += c.imag * c2.real
    del c, c2
    w = np.empty(len(divs), dtype=complex)        # s log a
    with np.errstate(all="ignore"):
        np.multiply(logs, sigma, out=w.real)
        w.real -= t * 0.0
        np.multiply(logs, t, out=w.imag)
        w.imag += sigma * 0.0
        e = w - w[mirror]
        np.exp(e, out=e)
        if not cmath.isfinite(e.sum()):       # some exponential, or their sum, overflows
            raise OverflowError("math range error")
        terms = w                              # c1 c2 e, over s log a
        np.multiply(cr, e.real, out=terms.real)
        terms.real -= ci * e.imag
        np.multiply(cr, e.imag, out=terms.imag)
        terms.imag += ci * e.real
    out = np.zeros(len(counts), dtype=complex)
    # np.add.at adds in index order, so each n's terms in turn, from +0.0
    np.add.at(out, np.repeat(np.arange(len(counts)), counts), terms)
    return out


def _lambda_loop(chi1: DirichletCharacter, chi2: DirichletCharacter, s: complex, n: int) -> complex:
    """lambda(n) by the scalar loop over _divisors(n), terms with a zero
    character value skipped: the bits every table entry has, and the sum of
    each n past the table or in a block that overflows.  A term that is
    kept and overflows raises OverflowError from cmath.exp."""
    v1, q1, v2, q2 = chi1._values, chi1.modulus, chi2._values, chi2.modulus
    total = 0j
    for a in _divisors(n):
        c1, c2 = v1[a % q1], v2[n // a % q2]
        if c1 and c2:       # a complex value is false exactly when it is 0
            total += c1 * c2 * cmath.exp(s * math.log(a) - s * math.log(n // a))
    return total


@lru_cache(maxsize=_LAMBDA_SERIES)
def _lambda_slot(chi1: DirichletCharacter, chi2: DirichletCharacter, s: complex) -> list:
    """The series' entry [table, overflowed]: the table lambda(1..M), M a
    power of two from _LAMBDA_FIRST to _LAMBDA_MAX, and the block (lo, top)
    whose kernel last overflowed, or None.  s and s with its zero parts'
    signs flipped are one key: no lambda depends on those signs."""
    return [np.zeros(0, dtype=complex), None]


def _lambda_table(chi1: DirichletCharacter, chi2: DirichletCharacter, s: complex, n: int) -> np.ndarray:
    """The stored lambda(1..M), M >= n, of the series value (chi1, chi2, s),
    read-only: the one function that grows a table.  It grows the table in
    _lambda_slot to the least power of two that covers n, at least
    _LAMBDA_FIRST: an empty table by one block, a stored one by doubling
    blocks.  n <= _LAMBDA_MAX and s is a finite complex.  A block that
    overflows raises OverflowError: the blocks before it are kept, and the
    block is marked on the slot, so that a later call that would build it
    again raises without running the kernel (a block's values depend on
    the series and (lo, top) alone)."""
    slot = _lambda_slot(chi1, chi2, s)
    table = slot[0]
    if len(table) < n:
        blocks, top = [table], len(table)
        while top < n:
            # the first block covers n, later ones double the table
            lo, top = top, 2 * top if top else max(_LAMBDA_FIRST, 1 << (n - 1).bit_length())
            if slot[1] == (lo, top):
                break
            try:
                blocks.append(_lambda_kernel(chi1, chi2, s, _block_layout(lo, top)))
            except OverflowError:
                slot[1] = (lo, top)
                break
        if len(blocks) > 1:
            table = np.concatenate(blocks)
            table.flags.writeable = False
            # one assignment publishes the longer table: a thread sharing the
            # series sees the old table or the new one, never a half-grown one
            slot[0] = table
        if len(table) < n:
            raise OverflowError("math range error")
    return table


def generalized_divisor_sum(chi1: DirichletCharacter, chi2: DirichletCharacter,
                            s: complex, n: int) -> complex:
    """sum over ab = n of chi1(a) a^s chi2(b) b^{-s}, with primitive values.

    lambda(n) is its own ordered sum over _divisors(n), the scalar loop
    _lambda_loop, whatever table or block computes it.  For n <= 2^12 it
    is read through _lambda_table from the one table kept per series value
    (chi1, chi2, s), which equal series share.  Past 2^12, and for an n whose
    block overflows (only |Re s| above about 85), _lambda_loop sums n alone
    and nothing is kept but the mark that the block overflowed, so its
    kernel runs once per series.  A finite s of any numeric type gives the
    bits of complex(s); a non-finite s raises ValueError before any table is
    built, an s too large for a float ValueError naming s, and a kept term
    that overflows raises OverflowError, as the loop's cmath.exp does.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if type(s) is not complex and not isinstance(s, numbers.Number):
        raise TypeError(f"s must be a number, got {s!r}")
    z = s if type(s) is complex else _check_complex("s", s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must be finite, got {s!r}")
    s = z
    if n <= _LAMBDA_MAX:
        try:
            return _lambda_table(chi1, chi2, s, n).item(n - 1)
        except OverflowError:     # the block overflows: sum n alone
            pass
    return _lambda_loop(chi1, chi2, s, n)


# ---------------------------------------------------------------------------
# ramified normalizations
# ---------------------------------------------------------------------------

def _b_local(params: EisensteinParams, p: int) -> complex:
    """The local piece of the Whittaker normalization b_r(s) at p | level."""
    s = params.s
    psi = params.quotient_character
    a2 = _cond_exp(params.chi2, p)
    out = p ** (-a2 / 2.0) * _chi_at_uniformizer(params.chi1, p, a2)
    out *= local_epsilon(conjugate(params.chi2), p)
    if params.l_modulus % p != 0:
        psi_p = psi.evaluate(p)
        out /= 1.0 - psi_p * cmath.exp(-(2 * s + 1) * math.log(p))
    return out


def coefficient_prefactor(params: EisensteinParams) -> complex:
    """Global prefactor of the Whittaker expansion: b_r(s) / L(2s+1, psi)."""
    return math.prod(params._b_locals.values(), start=1.0 + 0j) / params._l_one_line


# ---------------------------------------------------------------------------
# constant term
# ---------------------------------------------------------------------------

def scattering_constant(params: EisensteinParams) -> ConstantTermData:
    """The constant-term datum: c(s) and its local pieces.

    c(s) = c_r(s) * Lambda(2s, psi) / Lambda(2s+1, psi), with the ramified
    product c_r(s) = [b_r(s) / dual b_r(-s)] * eps(psi)^{-1} * l^{2s} spread
    over local factors whose product reproduces it exactly.  Which constant
    terms survive is _constant_terms' rule: the y^{1/2+s} side only when chi1
    has conductor one, the y^{1/2-s} side only when chi2 does.
    """
    s = params.s
    psi = params.quotient_character
    ell = psi.modulus
    if ell == 1 and abs(s) < 1e-12:
        raise PoleError("scattering pole: principal quotient character at s = 0")

    dual_b = params.dual()._b_locals
    local_factors: dict[int, complex] = {}
    for p, b in params._b_locals.items():
        factor = b / dual_b[p]
        if ell % p == 0:
            e = _cond_exp(psi, p)
            psi_p = primitive_part(local_component(psi, p))
            cofactor = psi_p.evaluate(ell // p**e)
            factor *= p ** (2 * s * e + e / 2.0) / (cofactor * gauss_sum(psi_p))
        local_factors[p] = factor

    a = parity_exponent(psi)
    if ell > 1:
        # the global i^a of the root number, folded into the smallest ramified prime
        smallest = min(p for p in local_factors if ell % p == 0)
        local_factors[smallest] *= 1j**a

    ramified = math.prod((local_factors[p] for p in sorted(local_factors)), start=1.0 + 0j)

    c_value = ramified * _lambda_ratio(s, psi, params._l_one_line)
    return ConstantTermData(scattering=c_value, local_factors=local_factors,
                            ramified_product=ramified)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# the expansion floor: evaluate and the FE residual take y >= _Y_FLOOR, a scan's y-grid starts there
_Y_FLOOR = 0.3
# log of the smallest normal double: a Gamma factor below it has lost its digits
_LOG_TINY = math.log(sys.float_info.min)


def _check_height(t0: float) -> None:
    """Refuse a height t0 = Im s that is not finite or lies past the K-Bessel
    order bound: every evaluation of the series needs K values of order s, so
    evaluate, the FE residual and scan check it before any other work."""
    _check_real("t0", t0)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if abs(t0) > _IM_MAX:
        raise NumericEnvelopeError(f"t0 = {t0:g} outside the K-Bessel order bound |t0| <= {_IM_MAX:g}")


def _archimedean_constant(params: EisensteinParams) -> complex:
    """The real-place Whittaker normalization 2 / Gamma_R(2s + 1 + a).

    The parity exponent of psi rides along in the Gamma argument so that odd
    quotient characters get the odd real-place factor; without it the
    functional equation would force a non-elementary Gamma ratio into c(s).
    """
    a = parity_exponent(params.quotient_character)
    log_gamma = log_gamma_r(2 * params.s + 1 + a)
    if log_gamma.real < _LOG_TINY:
        raise NumericEnvelopeError(
            f"unsupported regime: Gamma_R(2s + 1 + a) = exp({log_gamma.real:.1f}) underflows "
            f"double precision at s = {params.s}")
    return 2.0 / cmath.exp(log_gamma)


def _truncation(params: EisensteinParams, ys, eps: float) -> list[int]:
    """The number of modes that keeps the dropped tail of F below eps at each y of
    ys: that tail is at most 2 |P(s)| sqrt(y) sum_{n > m} |lambda(n) K_s(2 pi n y)|."""
    _check_real("eps", eps)
    scale = abs(params._outer_scale) * math.exp(-0.5 * math.pi * abs(params.t_shift))
    return _tail_cutoffs(params.t_shift, ys, eps, scale, params.sigma)


def _fourier_grid(series, xs, ys, eps: float) -> list[tuple[np.ndarray, list[int]]]:
    """Per series, F(s; x, y) truncated below eps, one row per y and one
    column per x, and its mode count at each y.

    The series may differ only in the sign of s, as a series and its dual
    do: bessel_k_row computes K_s and K_-s as equal floats, so one call gives
    every row, each as long as the longest truncation at its y.  A series'
    cutoffs come from one column search (_tail_cutoffs), the K arguments from
    one product (2 pi n)[k] y with each row's bits, and 2 cos(2 pi n x) from
    one table.  Each x is reduced along n by numpy's fixed-order pairwise sum
    (no BLAS, whose blocking may follow the thread count).  Every K value has
    its own node set, so none depends on which other x or y share the call.
    A series' lambda values come from one _lambda_table read, far below the
    table ceiling: K values at y >= _Y_FLOOR reach x <= 705 by mode 374.
    """
    modes = [_truncation(p, ys, eps) for p in series]
    widths = [max(row) for row in zip(*modes)]
    tables = [_lambda_table(p.chi1, p.chi2, p.s, max(row)) for p, row in zip(series, modes)]
    n = np.arange(1, max(widths) + 1)
    args = 2.0 * math.pi * n
    if len(ys) > 1:     # row i's (2 pi n) y_i, n <= w_i, by one product
        ends = np.cumsum(widths)
        args = args[np.arange(ends[-1]) - np.repeat(ends - widths, widths)] * np.repeat(ys, widths)
    bessel = bessel_k_row(series[0].s, args if len(ys) > 1 else args * ys[0])
    cosines = 2.0 * np.cos(2.0 * math.pi * np.multiply.outer(np.asarray(xs, dtype=float), n))
    out = []
    for p, row_modes, lam in zip(series, modes, tables):
        values = np.empty((len(ys), len(xs)), dtype=complex)
        start = 0
        for row, y, m, w in zip(values, ys, row_modes, widths):
            weights = lam[:m] * bessel[start:start + m]
            row[:] = p._outer_scale * math.sqrt(y) * (cosines[:, :m] * weights).sum(axis=-1)
            start += w
        out.append((values, row_modes))
    return out


def _check_point(params: EisensteinParams, x: float, y: float) -> float:
    """The checks of evaluate and the FE residual: the height, x and y real
    numbers and finite, then the floor.  Returns x mod 1, the x they sum at."""
    _check_height(params.t_shift)
    _check_real("x", x)
    _check_real("y", y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"x and y must be finite, got {x} and {y}")
    if y < _Y_FLOOR:
        raise ValueError(f"y = {y} below the expansion floor {_Y_FLOOR}")
    return math.fmod(x, 1.0)


def evaluate_truncated(params: EisensteinParams, x: float, y: float, eps: float) -> complex:
    """F(s; x, y): the series with both constant terms removed, for y >= _Y_FLOOR."""
    x = _check_point(params, x, y)
    (values, _), = _fourier_grid((params,), [x], [y], eps)
    return complex(values[0, 0])


def evaluate(params: EisensteinParams, x: float, y: float, eps: float) -> complex:
    """E(s; x, y) on the cusp-infinity chart, truncation error below eps."""
    return evaluate_truncated(params, x, y, eps) + _constant_terms(params, y)


def _constant_terms(params: EisensteinParams, y: float) -> complex:
    s = params.s
    out = 0j
    if params.chi1.modulus == 1:
        out += cmath.exp((0.5 + s) * math.log(y))
    if params.chi2.modulus == 1:
        out += params._scattering * cmath.exp((0.5 - s) * math.log(y))
    return out


def functional_equation_residual(params: EisensteinParams, x: float, y: float,
                                 eps: float = 1e-8) -> float:
    """Normalized defect of E(s, z) = c(s) * dual E(-s, z) at one point.

    Both sides are evaluate's sums, with its expansion floor, from one
    _fourier_grid call: one Bessel row and one cosine table serve both, so
    the residual equals the one from two separate evaluate calls bit for bit
    and isolates the arithmetic constants rather than quadrature noise.
    """
    x = _check_point(params, x, y)
    dual = params.dual()
    (here, _), (there, _) = _fourier_grid((params, dual), [x], [y], eps)
    e_here = complex(here[0, 0]) + _constant_terms(params, y)
    e_dual = complex(there[0, 0]) + _constant_terms(dual, y)
    return abs(e_here - params._scattering * e_dual) / (1.0 + abs(e_here) + abs(e_dual))
