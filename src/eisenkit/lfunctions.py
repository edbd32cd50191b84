"""Dirichlet L-functions on vertical lines, plain and completed.

Values come from the Hurwitz-zeta decomposition

    L(s, chi) = q^{-s} sum_{a mod q} chi(a) zeta(s, a/q),

in float64 throughout.  Each zeta(s, a/q) is summed directly over its first
M terms, and the rest, zeta(s, w) at w = a/q + M, is the Euler-Maclaurin tail

    w^{1-s}/(s-1) + w^{-s}/2 + sum_{j<=P} B_{2j}/(2j)! (s)_{2j-1} w^{-s-2j+1}

with M = ceil(|s|/pi) + 20 and P = 25; the sum over j is one product of
the P powers of 1/w^2 with the P weights, for every w at once.  For
w >= |s|/pi + 20 the terms of the tail fall at least geometrically, by about
|s + 2j|^2 / (2 pi w)^2 per step, so the P-th is below double precision
(error bounds: F. Johansson, arXiv:1309.2877).  The direct sum over the
units a and k < M is the Dirichlet series up to n = qM; its terms are
summed in chunks of bounded size, so the envelope corner (q near 1e4,
|Im s| = 1e3, several million terms) runs in flat memory.  q = 1 gives zeta
itself.  For a non-principal character the pole terms 1/(s-1) cancel over
a, so each is taken as (w^{1-s} - 1)/(s-1), which stays exact through s = 1
and equals -log w there.

The error floor is the phase t log n of each term, held to double precision:
about 1e-16 |t| log n.  The supported envelope is q <= 1e4, |Im s| <= 1e3
and -1/2 <= Re s <= 1e3.  Left of Re s = -1/2 the terms n^{-s} outgrow the
value they sum to, and digits cancel: at Re s = -1 and q = 1000 only about
nine are left.  The envelope is checked in one place, the sum itself,
dirichlet_l, which every completed value is built on: a non-finite s
raises ValueError, and a point or modulus outside it NumericEnvelopeError.
So the Lambda ratio's window, |Im s| <= 500, is the same check at 2s.

The completed form Lambda(s, chi) = q^{(s+a)/2} Gamma_R(s + a) L(s, chi),
Gamma_R(s) = pi^{-s/2} Gamma(s/2), and the ratio Lambda(2s, chi)/Lambda(2s+1,
chi) are assembled in log space, with the float64 log_gamma_r, so Gamma decay
high up the line cannot underflow.  A completed value too large for a double,
as at s = 700 for chi mod 4, raises NumericEnvelopeError.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from eisenkit.characters import DirichletCharacter, _values_at, conductor
from eisenkit.special_functions import (
    BERNOULLI_OVER_FACTORIAL,
    NumericEnvelopeError,
    NumericsError,
    PoleError,
    _check_complex,
    log_gamma_r,
)

__all__ = [
    "LineZeroError",
    "completed_lambda",
    "dirichlet_l",
    "parity_exponent",
]

_IM_WINDOW = 1e3      # supported |Im s|
_Q_WINDOW = 10**4     # supported modulus
_RE_WINDOW = (-0.5, 1e3)   # supported Re s

_CHUNK = 1 << 16      # Dirichlet-series terms per vectorized pass
_BERNOULLI = np.array(BERNOULLI_OVER_FACTORIAL)    # B_{2j}/(2j)!, j = 1..P
_P = len(_BERNOULLI)
# log of the largest double: a completed value above it cannot be returned
_LOG_HUGE = math.log(sys.float_info.max)


class LineZeroError(NumericsError):
    """|L| vanished where the 1-line lower bound forbids it; numerics bug."""


def parity_exponent(chi: DirichletCharacter) -> int:
    """0 for even characters, 1 for odd: the shift in the Gamma completion."""
    return 0 if chi.parity == 1 else 1


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) by Hurwitz-Euler-Maclaurin in float64, inside the envelope
    (see the module docstring); rejects the pole of the principal-character
    case."""
    s = _check_complex("s", s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if abs(s.imag) > _IM_WINDOW:
        raise NumericEnvelopeError(f"|Im s| = {abs(s.imag)} outside the supported window {_IM_WINDOW}")
    if not _RE_WINDOW[0] <= s.real <= _RE_WINDOW[1]:
        raise NumericEnvelopeError(f"Re s = {s.real} outside the supported window {list(_RE_WINDOW)}")
    if chi.modulus > _Q_WINDOW:
        raise NumericEnvelopeError(f"modulus {chi.modulus} outside the supported window {_Q_WINDOW}")
    if chi.is_principal and abs(s - 1) < 1e-8:
        raise PoleError(f"principal-character L has a pole at s=1; input is {abs(s - 1):.2e} away")
    q = chi.modulus
    m = math.ceil(abs(s) / math.pi) + 20
    residues = np.arange(1, q + 1)
    values = _values_at(chi, residues)
    units = values != 0
    a, values = residues[units], values[units]

    # chi(n) n^{-s} for n = a + kq, k < m, a few rows of k per pass
    head = np.zeros(a.size, dtype=complex)
    rows = max(1, _CHUNK // a.size)
    for k0 in range(0, m, rows):
        n = a + q * np.arange(k0, min(k0 + rows, m))[:, None]
        head += np.exp(-s * np.log(n)).sum(axis=0)

    # the Euler-Maclaurin tail of zeta(s, w), w = a/q + m, without q^{-s}
    w = a / q + m
    log_w = np.log(w)
    w_s = np.exp(-s * log_w)
    rising = np.cumprod([s] + [(s + 2 * j - 1) * (s + 2 * j)      # (s)_{2j-1}
                               for j in range(1, _P)])
    # sum_j B_{2j}/(2j)! (s)_{2j-1} w^{-2(j-1)}, as one product of every
    # power of 1/w^2 with the weights
    bernoulli = np.power.outer(1.0 / (w * w), np.arange(_P)) @ (_BERNOULLI * rising)
    z = (1 - s) * log_w
    pole = -log_w if s == 1 else -log_w * np.expm1(z) / z     # (w^{1-s} - 1)/(s - 1)
    tail = w_s * (0.5 + bernoulli / w) + pole
    total = head @ values + q ** -s * (tail @ values)
    if chi.is_principal:
        total += q ** -s * a.size / (s - 1)
    return complex(total)


def _log_lambda(s: complex, chi: DirichletCharacter, lval: complex) -> complex:
    """log Lambda(s, chi) from lval = L(s, chi)."""
    a = parity_exponent(chi)
    q = chi.modulus
    half = (s + a) / 2
    # every caller ran dirichlet_l at s, which refuses Re s < -1/2, so of the
    # poles of Gamma((s+a)/2) only s = 0 for even chi is left: completed zeta's,
    # or one that L's trivial zero cancels but this product form cannot pass
    if a == 0 and abs(half) < 1e-8:
        raise PoleError(f"Gamma completion pole: (s+{a})/2 = {half} is within 1e-8 of 0")
    if abs(lval) < 1e-300:
        raise LineZeroError(f"L({s}, chi mod {q}) vanished; cannot take logs")
    return half * math.log(q) + log_gamma_r(s + a) + cmath.log(lval)


def completed_lambda(s: complex, chi: DirichletCharacter) -> complex:
    """Lambda(s, chi) = (q/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi), for primitive chi."""
    if conductor(chi) != chi.modulus:
        raise ValueError("completed_lambda requires a primitive character")
    s = complex(s)
    log_value = _log_lambda(s, chi, dirichlet_l(s, chi))
    if log_value.real > _LOG_HUGE:
        raise NumericEnvelopeError(
            f"unsupported regime: Lambda(s, chi) = exp({log_value.real:.1f}) overflows "
            f"double precision at s = {s}")
    return cmath.exp(log_value)


def _lambda_ratio(s: complex, chi: DirichletCharacter, on_line: complex) -> complex:
    """Lambda(2s, chi) / Lambda(2s+1, chi) for primitive chi, via log space,
    given on_line = L(2s+1, chi), which the caller has already computed.

    On the unitary axis Re s = 0 this ratio has modulus exactly one (the
    completed functional equation plus Schwarz reflection), which the test
    suite uses as a cross-check.  A tiny |L(2s+1, chi)| is reported as a
    numerics bug: L has a classical lower bound on the 1-line.
    """
    if abs(on_line) < 1e-12:
        raise LineZeroError(
            f"near zero of L on the 1-line at 2s+1 = {2 * s + 1}: |L| = {abs(on_line):.2e}; "
            "this regime is classically excluded, so the input or the numerics are wrong")
    return cmath.exp(_log_lambda(2 * s, chi, dirichlet_l(2 * s, chi))
                     - _log_lambda(2 * s + 1, chi, on_line))
