"""Newform Eisenstein series attached to a pair of primitive Dirichlet
characters: scattering constants, Fourier coefficients, and the truncated
evaluator at the cusp-infinity chart.

Conventions.  The series is parametrized on the unitary axis s = sigma + i t
with sigma = 0 in production use.  With chi1 mod q1 and chi2 mod q2 and
psi the primitive character inducing chi1 * conj(chi2), the expansion
implemented here is

    E(s; x, y) = [q1 = 1] y^{1/2+s}
               + c(s) [q2 = 1] y^{1/2-s}
               + P(s) sqrt(y) sum_{n >= 1} lambda_s(n) K_s(2 pi n y) 2 cos(2 pi n x)

with P(s) = b_r(s) / L(2s+1, psi) * 2 / Gamma_R(2s + 1 + a), where a is the
parity exponent of psi and b_r collects the ramified local normalizations.
At level one this reduces to the classical real-analytic Eisenstein series
with constant term y^{1/2+s} + c(s) y^{1/2-s}, which the modular-invariance
test checks end to end.

The scattering constant is assembled as c(s) = c_r(s) Lambda(2s, psi) /
Lambda(2s+1, psi); the functional-equation residual then exercises the
Dirichlet functional equation (Gauss sum against the completed-L ratio)
against the evaluator's independent path through L(2s+1), the Gamma factor,
the Bessel values, and the coefficients.

Per-series state lives on the EisensteinParams instance, computed on first
use: L(2s+1, psi), which coefficient_prefactor and scattering_constant both
read; P(s); c(s); the dual series; and the table lambda(1..m), grown only
when a call needs more modes.  A computation that raises leaves nothing
behind, so the next call raises again.  Equal params objects do not share
this state; a caller that reuses one object per series pays for it once.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from eisenkit.characters import (
    DirichletCharacter,
    _conductor_exponent as _cond_exp,   # v_p of the conductor of chi
    _factorize,
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
    bessel_k_row,
    log_gamma_r,
    whittaker_tail_cutoff,
)

__all__ = [
    "ConstantTermData",
    "EisensteinParams",
    "coefficient_prefactor",
    "evaluate",
    "evaluate_truncated",
    "fourier_coefficient",
    "functional_equation_residual",
    "generalized_divisor_sum",
    "scattering_constant",
]

# Two conventions the defining references leave open were frozen by
# calibrating the functional-equation residual matrix: the divisor-sum
# coefficients take the exponent +s, not -s (fourier_coefficient), and the
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
    sigma: float = 0.0          # off-axis diagnostics only; acceptance runs keep 0
    level: int = field(init=False, compare=False)
    l_modulus: int = field(init=False, compare=False)
    _lam: np.ndarray = field(init=False, compare=False, repr=False)   # see _coefficients

    def __post_init__(self):
        if not (math.isfinite(self.t_shift) and math.isfinite(self.sigma)):
            raise ValueError(f"s must be finite, got sigma = {self.sigma}, t = {self.t_shift}")
        for chi in (self.chi1, self.chi2):
            if conductor(chi) != chi.modulus:
                raise ValueError(f"characters must be primitive; {chi} has conductor {conductor(chi)}")
        object.__setattr__(self, "level", self.chi1.modulus * self.chi2.modulus)
        object.__setattr__(self, "l_modulus", self.quotient_character.modulus)
        if self.l_modulus > _Q_WINDOW:    # refused before psi's value table is built
            raise NumericEnvelopeError(f"quotient character modulus {self.l_modulus} outside "
                                       f"the supported L-value window {_Q_WINDOW}")
        object.__setattr__(self, "_lam", np.zeros(0, dtype=complex))

    @property
    def quotient_character(self) -> DirichletCharacter:
        """The primitive character inducing chi1 * conj(chi2)."""
        return _quotient_character(self.chi1, self.chi2)

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t_shift)

    def dual(self) -> "EisensteinParams":
        """Swapped characters at the reflected point; E(s) = c(s) * dual E(-s)."""
        return self._dual

    @cached_property
    def _dual(self) -> "EisensteinParams":
        return EisensteinParams(self.chi2, self.chi1, -self.t_shift, -self.sigma)

    @cached_property
    def _l_one_line(self) -> complex:
        """L(2s+1, psi), read by coefficient_prefactor and scattering_constant."""
        return dirichlet_l(2 * self.s + 1, self.quotient_character)

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

@lru_cache(maxsize=256)
def _quotient_character(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    return primitive_part(multiply(chi1, conjugate(chi2)))


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

@lru_cache(maxsize=1 << 14)
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, from its factorization, once per n."""
    divs = [1]
    for p, e in _factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return tuple(divs)


def generalized_divisor_sum(chi1: DirichletCharacter, chi2: DirichletCharacter,
                            s: complex, n: int) -> complex:
    """sum over ab = n of chi1(a) a^s chi2(b) b^{-s}, with primitive values.

    Divisors come from the factorization of n, so prime powers cost their
    handful of divisors rather than a sqrt(n) scan.  The character values are
    list-backed: they are read from each character's list copy of its value
    table (the list chi.evaluate reads), as Python complex numbers with the
    table's bits.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    v1, q1 = chi1._values, chi1.modulus
    v2, q2 = chi2._values, chi2.modulus
    total = 0j
    for a in _divisors(n):
        c1 = v1[a % q1]
        if c1 == 0:
            continue
        b = n // a
        c2 = v2[b % q2]
        if c2 == 0:
            continue
        total += c1 * c2 * cmath.exp(s * math.log(a) - s * math.log(b))
    return total


def fourier_coefficient(params: EisensteinParams, n: int) -> complex:
    """lambda(n), the n-th Hecke eigenvalue of the series."""
    return generalized_divisor_sum(params.chi1, params.chi2, params.s, n)


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


def _b_ramified(params: EisensteinParams) -> complex:
    out = 1.0 + 0j
    for p, _ in _factorize(params.level):
        out *= _b_local(params, p)
    return out


def coefficient_prefactor(params: EisensteinParams) -> complex:
    """Global prefactor of the Whittaker expansion: b_r(s) / L(2s+1, psi)."""
    return _b_ramified(params) / params._l_one_line


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

    dual = params.dual()
    local_factors: dict[int, complex] = {}
    for p, _ in _factorize(params.level):
        factor = _b_local(params, p) / _b_local(dual, p)
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

    ramified = 1.0 + 0j
    for p in sorted(local_factors):
        ramified *= local_factors[p]

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


def _truncation(params: EisensteinParams, y: float, eps: float) -> int:
    """The number of modes that keeps the dropped tail of F at height y below eps."""
    # the tail is at most 2 |P(s)| sqrt(y) sum_{n > m} |lambda(n) K_s(2 pi n y)|
    # and whittaker_tail_cutoff bounds the sum times e^{pi |t| / 2}.  A y or an
    # eps that is not positive and finite leaves no usable budget, nor does a
    # subnormal one (its modes lie past the Bessel envelope): one check for all.
    scale = abs(params._outer_scale) * math.exp(-0.5 * math.pi * abs(params.t_shift))
    budget = eps / (2.0 * max(scale * (math.sqrt(y) if y > 0 else math.nan), 1e-300))
    if not sys.float_info.min <= budget < math.inf:
        raise ValueError(f"y = {y} and eps = {eps} leave this series no tail budget: "
                         f"eps / (2 |P(s)| e^(-pi |t| / 2) sqrt(y)) is {budget}")
    return whittaker_tail_cutoff(params.t_shift, y, budget, params.sigma)


def _coefficients(params: EisensteinParams, m: int) -> np.ndarray:
    """lambda(1), ..., lambda(m): a read-only view of the series' table, which
    grows only when m exceeds it.  Each lambda(n) is computed on its own, so
    the table holds the same bits whatever order it grew in."""
    table = params._lam
    if len(table) < m:
        grown = [fourier_coefficient(params, n) for n in range(len(table) + 1, m + 1)]
        table = np.concatenate([table, np.array(grown, dtype=complex)])
        table.flags.writeable = False
        # one assignment publishes the longer table: a thread sharing the
        # series sees the old table or the new one, never a half-grown one
        object.__setattr__(params, "_lam", table)
    return table[:m]


def _bessel_rows(s: complex, ys, modes) -> list[np.ndarray]:
    """K_s(2 pi n y) for n = 1..m, for each height y and its mode count m,
    from one bessel_k_row call; every value has its own node set, so a row
    is the same whichever rows share the call."""
    n = np.arange(1, max(modes) + 1)
    values = bessel_k_row(s, np.concatenate([2.0 * math.pi * n[:m] * y for y, m in zip(ys, modes)]))
    ends = np.cumsum(modes)
    return [values[end - m:end] for end, m in zip(ends, modes)]


def _cosine_table(xs, m: int) -> np.ndarray:
    """2 cos(2 pi n x), one row per x in xs and one column per n = 1..m."""
    n = np.arange(1, m + 1)
    return 2.0 * np.cos(2.0 * math.pi * np.multiply.outer(np.asarray(xs, dtype=float), n))


def _fourier_row(params: EisensteinParams, lam: np.ndarray, bessel: np.ndarray,
                 cosines: np.ndarray, y: float) -> np.ndarray:
    """F(s; x, y) for every x of a cosine table with columns n = 1..len(lam),
    given bessel[n - 1] = K_s(2 pi n y).

    The one Fourier-sum core: a scan passes the first columns of one table
    per chunk, a single point a one-x table.  Each x is reduced along n by
    numpy's fixed-order pairwise sum (no BLAS, whose blocking may follow the
    thread count), so a value does not depend on which other x share the table.
    """
    weights = lam * bessel
    return params._outer_scale * math.sqrt(y) * (cosines * weights).sum(axis=-1)


def _series_value(params: EisensteinParams, y: float, m: int, bessel: np.ndarray,
                  cosines: np.ndarray) -> complex:
    """F(s; x, y) from its first m modes, given K_s(2 pi n y) and the one-x
    cosine table, each for n >= 1 up to at least m."""
    return complex(_fourier_row(params, _coefficients(params, m), bessel[:m],
                                cosines[:, :m], y)[0])


def evaluate_truncated(params: EisensteinParams, x: float, y: float, eps: float) -> complex:
    """F(s; x, y): the series with both constant terms removed, for y >= _Y_FLOOR."""
    if y < _Y_FLOOR:
        raise ValueError(f"y = {y} below the expansion floor {_Y_FLOOR}")
    m = _truncation(params, y, eps)
    bessel, = _bessel_rows(params.s, [y], [m])
    return _series_value(params, y, m, bessel, _cosine_table([x], m))


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

    Both sides are evaluate's sums, with its expansion floor, and share one
    Bessel row, K_s(2 pi n y), and one cosine table, 2 cos(2 pi n x), each up
    to the longer of their two truncations.
    That is exact, not an approximation: K is even in its order and
    bessel_k_row computes K_s and K_-s as equal floats (on the unitary axis
    equal byte for byte, zero imaginary parts included), so the residual equals
    the one from two separate evaluate calls bit for bit and isolates the
    arithmetic constants rather than quadrature noise.
    """
    if y < _Y_FLOOR:
        raise ValueError(f"y = {y} below the expansion floor {_Y_FLOOR}")
    dual = params.dual()
    m, m_dual = _truncation(params, y, eps), _truncation(dual, y, eps)
    bessel, = _bessel_rows(params.s, [y], [max(m, m_dual)])
    cosines = _cosine_table([x], max(m, m_dual))
    e_here = _series_value(params, y, m, bessel, cosines) + _constant_terms(params, y)
    e_dual = _series_value(dual, y, m_dual, bessel, cosines) + _constant_terms(dual, y)
    return abs(e_here - params._scattering * e_dual) / (1.0 + abs(e_here) + abs(e_dual))
