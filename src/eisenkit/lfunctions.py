"""Dirichlet L-functions on vertical lines, plain and completed.

Values come from the Hurwitz-zeta decomposition

    L(s, chi) = q^{-s} sum_{a mod q} chi(a) zeta(s, a/q)

evaluated in arbitrary precision, which covers every strip this package
touches without an approximate functional equation.  The completed form
Lambda(s, chi) = (q/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi) and the ratio
Lambda(2s, chi)/Lambda(2s+1, chi) are assembled in log space so Gamma decay
high up the line cannot underflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath

from eisenkit.characters import DirichletCharacter, conductor
from eisenkit.special_functions import NumericEnvelopeError, NumericsError, PoleError

__all__ = [
    "LValueRequest",
    "LineZeroError",
    "completed_lambda",
    "dirichlet_l",
    "lambda_ratio",
    "parity_exponent",
]

_IM_WINDOW = 1e3      # supported |Im s|
_Q_WINDOW = 10**4     # supported modulus


class LineZeroError(NumericsError):
    """|L| vanished where the 1-line lower bound forbids it; numerics bug."""


@dataclass(frozen=True)
class LValueRequest:
    s: complex
    character: DirichletCharacter
    completed: bool = False

    def __post_init__(self):
        if not cmath.isfinite(complex(self.s)):
            raise ValueError(f"s must be finite, got {self.s}")
        if abs(complex(self.s).imag) > _IM_WINDOW:
            raise NumericEnvelopeError(f"|Im s| = {abs(complex(self.s).imag)} outside the supported window {_IM_WINDOW}")
        if self.character.modulus > _Q_WINDOW:
            raise NumericEnvelopeError(f"modulus {self.character.modulus} outside the supported window {_Q_WINDOW}")
        if self.completed and conductor(self.character) != self.character.modulus:
            raise ValueError("completed values require a primitive character")


def parity_exponent(chi: DirichletCharacter) -> int:
    """0 for even characters, 1 for odd: the shift in the Gamma completion."""
    return 0 if chi.parity == 1 else 1


def _working_dps(s: complex) -> int:
    return 30 if abs(s.imag) <= 200 else 45


def _l_value(s: complex, chi: DirichletCharacter) -> mpmath.mpc:
    """L(s, chi) at the current mpmath precision via Hurwitz zeta."""
    q = chi.modulus
    if q == 1:
        return mpmath.zeta(s)
    at_pole = abs(complex(s) - 1) < 1e-14
    total = mpmath.mpc(0)
    for a in range(1, q + 1):
        m = chi.int_phase(a)
        if m is None:
            continue
        root = mpmath.expjpi(2 * mpmath.mpf(m) / chi.phase_denominator)
        if at_pole:
            # the Hurwitz poles at s=1 cancel across a non-principal character
            # sum, leaving zeta(s, x) - 1/(s-1) -> -digamma(x)
            total += root * (-mpmath.digamma(mpmath.mpf(a) / q))
        else:
            total += root * mpmath.zeta(s, mpmath.mpf(a) / q)
    return total * mpmath.power(q, -s)


def dirichlet_l(req: LValueRequest) -> complex:
    """L(s, chi); rejects the pole of the principal-character case."""
    if req.completed:
        raise ValueError("use completed_lambda for completed requests")
    s = complex(req.s)
    if req.character.is_principal and abs(s - 1) < 1e-8:
        raise PoleError(f"principal-character L has a pole at s=1; input is {abs(s - 1):.2e} away")
    with mpmath.workdps(_working_dps(s)):
        return complex(_l_value(s, req.character))


def _log_lambda(s: complex, chi: DirichletCharacter) -> complex:
    """log Lambda(s, chi), all factors combined at high precision."""
    a = parity_exponent(chi)
    q = chi.modulus
    if chi.is_principal and (abs(s) < 1e-8 or abs(s - 1) < 1e-8):
        raise PoleError(f"completed zeta has poles at 0 and 1; input {s} is within 1e-8 of one")
    half = (s + a) / 2
    # Gamma((s+a)/2) poles at nonpositive integers; for non-principal chi these
    # are cancelled by trivial zeros of L, but the product form used here
    # cannot evaluate through them
    n = round(-half.real)
    if n >= 0 and abs(half + n) < 1e-8:
        raise PoleError(f"Gamma completion pole: (s+{a})/2 = {half} is within 1e-8 of {-n}")
    with mpmath.workdps(_working_dps(s)):
        lval = _l_value(s, chi)
        if abs(lval) < 1e-300:
            raise LineZeroError(f"L({s}, chi mod {q}) vanished; cannot take logs")
        out = half * mpmath.log(mpmath.mpf(q) / mpmath.pi) + mpmath.loggamma(half) + mpmath.log(lval)
        return complex(out)


def completed_lambda(req: LValueRequest) -> complex:
    """Lambda(s, chi) = (q/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi)."""
    if not req.completed:
        raise ValueError("completed_lambda requires completed=true")
    return cmath.exp(_log_lambda(complex(req.s), req.character))


def lambda_ratio(s: complex, chi: DirichletCharacter) -> complex:
    """Lambda(2s, chi) / Lambda(2s+1, chi) for primitive chi, via log space.

    On the unitary axis Re s = 0 this ratio has modulus exactly one (the
    completed functional equation plus Schwarz reflection), which the test
    suite uses as a cross-check.  A tiny |L(2s+1, chi)| is reported as a
    numerics bug: L has a classical lower bound on the 1-line.
    """
    s = complex(s)
    if conductor(chi) != chi.modulus:
        raise ValueError("lambda_ratio requires a primitive character")
    if abs(s.imag) > 500:
        raise NumericEnvelopeError(f"|Im s| = {abs(s.imag)} outside the supported window 500")
    with mpmath.workdps(_working_dps(2 * s)):
        on_line = _l_value(2 * s + 1, chi)
    if abs(on_line) < 1e-12:
        raise LineZeroError(
            f"near zero of L on the 1-line at 2s+1 = {2 * s + 1}: |L| = {abs(on_line):.2e}; "
            "this regime is classically excluded, so the input or the numerics are wrong")
    return cmath.exp(_log_lambda(2 * s, chi) - _log_lambda(2 * s + 1, chi))
