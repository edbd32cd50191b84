"""Bessel backend, the real-place Gamma factor, and the smooth amplifier weight."""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import eisenkit.special_functions as special_functions
from eisenkit.characters import build_character
from eisenkit.eisenstein import EisensteinParams, _coefficients, _truncation
from oracles import (
    bessel_draws,
    bessel_k_mp,
    bessel_quadrature,
    bump_mellin_quadrature,
    decay,
    envelope_grid,
    line_sum_complex,
    saddle_sum_complex,
)
from eisenkit.special_functions import (
    BERNOULLI_OVER_FACTORIAL,
    BumpWeight,
    NumericEnvelopeError,
    PoleError,
    bessel_k_row,
    log_gamma_r,
    whittaker_tail_cutoff,
)

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------------
# K-Bessel
# ------------------------------------------------------------------

def test_half_integer_closed_form():
    for x in (0.01, 0.5, 2.3, 40.0, 300.0):
        got = bessel_k_row(0.5, [x])[0]
        ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(got.real - ref) <= 1e-13 * ref
        assert got.imag == 0.0


def test_order_sign_symmetry():
    """K_nu = K_-nu exactly: the functional-equation residual computes one
    row at s and uses it for the dual side at -s too, which gives the residual
    of two separate evaluations only because the two rows are equal value for
    value."""
    xs = np.geomspace(0.05, 300.0, 50)
    for nu in (0.3 + 4j, 1.5 - 20j, 2j, -7.5j, 3 + 150j):
        assert np.array_equal(bessel_k_row(nu, xs), bessel_k_row(-nu, xs))
    # K is real on the unitary axis, so there the rows agree byte for byte,
    # the signs of their zero imaginary parts included
    for nu in (2j, -7.5j, 61j, 199j):
        assert bessel_k_row(nu, xs).tobytes() == bessel_k_row(-nu, xs).tobytes()


def _fixture(name: str, schema: str) -> list:
    """The entries of a frozen reference table in tests/data (scripts/make_bessel_oracle.py)."""
    with open(DATA / name) as fh:
        fixture = json.load(fh)
    assert fixture["schema"] == schema
    return fixture["entries"]


def test_quadrature_spot_checks():
    """Thirty seeded draws against the cosh-integral oracle, frozen in
    tests/data/bessel_spot_oracle.json."""
    entries = _fixture("bessel_spot_oracle.json", "eisenkit-bessel-oracle-v1")
    assert [(t, x) for t, x, _ in entries] == bessel_draws(1105, 30)
    for t, x, ref in entries:
        got = bessel_k_row(complex(0.0, t), [x])[0]
        assert abs(got.real - ref) <= 1e-10 * max(abs(ref), 1e-300)


def test_exponential_regime_envelope_constant():
    """K_it(x) sqrt(x) e^x stays under one modest constant past the turning point."""
    worst = 0.0
    for t in (0.0, 5.0, 20.0, 50.0):
        x0 = 1.0 + math.pi * t / 2.0
        for k in range(10):
            x = x0 * (1.0 + 0.5 * k)
            if x > 700.0:
                break
            val = abs(bessel_k_row(complex(0.0, t), [x])[0])
            worst = max(worst, val * math.sqrt(x) * math.exp(x))
    assert worst <= 10.0


def test_oscillatory_decay_scale():
    """On the transition x ~ t the value carries the e^{-pi t / 2} scale."""
    for t in (10.0, 30.0, 50.0):
        val = abs(bessel_k_row(complex(0.0, t), [t / 2])[0])
        assert val < math.exp(-0.3 * t)
        assert val > math.exp(-3.0 * t)


def test_gauss_legendre_table_is_pinned():
    """The saddle contour's 64-point rule: each literal node is a root of P_64
    correctly rounded, and each weight 2 / ((1 - x^2) P_64'(x)^2) at it, by
    Newton steps in 50 digits from the literal."""
    with mpmath.workdps(50):
        for node, weight in zip(special_functions._GL_NODES, special_functions._GL_WEIGHTS):
            z = mpmath.mpf(node)
            for _ in range(4):
                p = mpmath.legendre(64, z)
                dp = 64 * (z * p - mpmath.legendre(63, z)) / (z * z - 1)
                z -= p / dp
            assert float(z) == node
            assert float(2 / ((1 - z * z) * dp * dp)) == weight


def test_envelope_rejections():
    for order, x in ((0.0, 1e-9), (0.0, 800.0), (250j, 1.0), (12.0, 1.0), (300j, 1.0),
                     (2e4j, 1.0)):
        with pytest.raises(NumericEnvelopeError):
            bessel_k_row(order, [x])


# Values below the normal range (about 2.2e-308) carry the absolute
# resolution of the subnormal grid; a few of its steps are allowed on top.
_SUBNORMAL_SLACK = 2.0 ** -1070


def test_row_against_mpmath_over_the_envelope():
    """|got - ref| <= 1e-12 max(|ref|, e^-decay) everywhere in the envelope.

    The references are mpmath's besselk at every point of the envelope grid,
    frozen in tests/data/bessel_envelope.json.  K_{it}(x) oscillates through
    zeros for x < |t|, so the error is measured against the size of the
    oscillation, not against the value itself.
    """
    frozen = iter(_fixture("bessel_envelope.json", "eisenkit-bessel-envelope-v1"))
    worst = 0.0
    for order, xs in envelope_grid():
        row = bessel_k_row(order, xs)
        for x, got in zip(xs, row):
            re_nu, im_nu, x_ref, re_k, im_k = next(frozen)
            assert (complex(re_nu, im_nu), x_ref) == (order, x)
            ref = complex(re_k, im_k)
            scale = max(abs(ref), math.exp(-decay(order.imag, x)))
            err = abs(got - ref) / (1e-12 * scale + _SUBNORMAL_SLACK)
            worst = max(worst, err)
            assert err <= 1.0, (order, x, got, ref)
    assert next(frozen, None) is None
    assert worst > 0.0


def test_frozen_bessel_references_match_live_oracles():
    """A few frozen points, recomputed live, so that drift between an oracle
    and its fixture is caught: on the envelope grid, t = 0, the unitary axis
    below, at and past the turning point up to |t| = 200, and orders off the
    axis; two of the quadrature spot checks."""
    envelope = _fixture("bessel_envelope.json", "eisenkit-bessel-envelope-v1")
    for k in (9, 65, 134, 165, 225, 235, 274, 290):
        re_nu, im_nu, x, re_k, im_k = envelope[k]
        ref = complex(re_k, im_k)
        scale = max(abs(ref), math.exp(-decay(im_nu, x)))
        assert abs(bessel_k_mp(complex(re_nu, im_nu), x) - ref) <= 1e-15 * scale + _SUBNORMAL_SLACK
    spots = _fixture("bessel_spot_oracle.json", "eisenkit-bessel-oracle-v1")
    for k in (5, 22):
        t, x, ref = spots[k]
        assert abs(bessel_quadrature(t, x) - ref) <= 1e-15 * abs(ref)


def _fe_rows(seed: int) -> list[tuple[complex, np.ndarray]]:
    """Rows shaped like the functional-equation residual's: orders +-5i and
    +-10i, and 1 to 7 arguments 2 pi n y, n = 1, 2, ..., y in [0.5, 3], so
    that rows at t = 10 straddle the turning point x = t."""
    rng = random.Random(seed)
    return [(order, 2.0 * math.pi * rng.uniform(0.5, 3.0) * np.arange(1, length + 1))
            for order in (5j, -5j, 10j, -10j) for length in range(1, 8) for _ in range(2)]


def test_row_matches_scalar_bit_for_bit():
    """A row element does not depend on the rest of the row, and on the
    axis the rows at it and -it are equal byte for byte."""
    rng = random.Random(77)
    rows = []
    for order in (61j, -140j + 0.0, 199j, 2.5 - 30j, -7.0 + 150j, 0.5):
        # x = 1e-6 at |t| = 150 has tens of thousands of nodes, so the row
        # spans several evaluation blocks
        rows.append((order, [1e-6, 3e-6] + [10.0 ** rng.uniform(-6.0, 2.8) for _ in range(40)]))
    fe_rows = _fe_rows(32)
    assert any(min(xs) < 10.0 <= max(xs) for order, xs in fe_rows if abs(order) == 10.0)
    for order, xs in rows + fe_rows:
        row = bessel_k_row(order, xs)
        row_rev = bessel_k_row(order, xs[::-1])[::-1]
        singles = np.array([bessel_k_row(order, [x])[0] for x in xs])
        assert row.tobytes() == row_rev.tobytes() == singles.tobytes(), order
        if order.real == 0.0:
            assert row.tobytes() == bessel_k_row(-order, xs).tobytes(), order


def test_row_bits_do_not_depend_on_block_layout():
    """Rows that span several blocks on both contours, shifted by 0, 1, 7 and
    33 other arguments in front, so that every block boundary moves: each
    element equals its scalar call bit for bit.  On the axis the row holds
    150 saddle values (five blocks of 32) and 1000 line values (about five
    blocks of 4096 nodes); off it, 300 line values with tens of blocks.  The
    functional-equation residual's short rows get the same treatment."""
    rng = np.random.default_rng(2501)
    others = 10.0 ** rng.uniform(-6.0, 2.8, 33)
    rows = []
    for order in (61j, 199j, 2.5 + 40j, 10.0 - 150j):
        t = abs(order.imag)
        if order.real == 0.0:
            xs = np.concatenate([np.geomspace(1e-3, t, 150, endpoint=False), np.geomspace(t, 700.0, 1000)])
        else:
            xs = np.geomspace(1e-3, 700.0, 300)
        rows.append((order, rng.permutation(xs)))
    for order, xs in rows + _fe_rows(2502):
        singles = np.array([bessel_k_row(order, [x])[0] for x in xs])
        for shift in (0, 1, 7, 33):
            row = bessel_k_row(order, np.concatenate([others[:shift], xs]))[shift:]
            assert row.tobytes() == singles.tobytes(), (order, shift)


def test_row_below_the_turning_point_takes_the_saddle_route_alone(monkeypatch):
    """An axis row whose every x lies below the turning point x = |t| runs no
    line pass, not even on an empty array, and its bytes equal the same
    values taken from a row that straddles |t|, at nu and -nu."""
    cases = ((10j, [6.0]), (-10j, [6.0, 1e-6, 9.999]), (61j, [60.5, 3.0, 0.25]),
             (199j, list(np.geomspace(1e-6, 198.0, 40))))
    straddling = [bessel_k_row(order, xs + [abs(order.imag), 700.0])[:len(xs)] for order, xs in cases]

    def forbidden(*args):
        raise AssertionError("a line pass ran")

    monkeypatch.setattr(special_functions, "_line_pass", forbidden)
    for (order, xs), want in zip(cases, straddling):
        assert bessel_k_row(order, xs).tobytes() == want.tobytes(), order


def test_saddle_pass_matches_the_complex_form():
    """The real-arithmetic saddle sum equals the complex-form sum on the same
    nodes, to 45 float64 ulps (1e-14) of the scale exp(-pi t / 2), at the ends
    and the middle of the contour's range and at seeded draws."""
    tol = 45 * np.finfo(np.float64).eps
    rng = random.Random(2021)
    for t in (6.6, 10.0, 20.0, 61.0, 160.0, 199.0):
        xs = [1e-6, 1e-3 * t, t / 2, t * (1 - 1e-9)] + [10.0 ** rng.uniform(-6.0, math.log10(t)) for _ in range(60)]
        got = special_functions._saddle_pass(t, np.array(xs))
        gap = np.abs(got - saddle_sum_complex(t, xs)).max()
        assert gap <= tol * math.exp(-0.5 * math.pi * t), (t, gap)


def test_saddle_cosine_from_the_half_angle_tangent():
    """The saddle pass's node cosine, cos(2 h) = 2 / (1 + tan(h)^2) - 1:
    within 4.5e-16 of math.cos at 1e5 seeded draws with |theta| <= 1000,
    exactly 1.0 at theta = 0, finite and within one ulp of -1 at odd
    multiples of pi, and an array's bytes equal those of its elements taken
    one at a time, at every offset and in a strided block."""
    cos_from_half = special_functions._cos_from_half
    theta = np.random.default_rng(3401).uniform(-1000.0, 1000.0, 100_000)
    got = cos_from_half(0.5 * theta)
    assert np.abs(got - [math.cos(v) for v in theta]).max() <= 4.5e-16
    assert cos_from_half(np.zeros(5)).tolist() == [1.0] * 5
    odd = cos_from_half(0.5 * math.pi * (2.0 * np.arange(-500, 500) + 1.0))
    assert np.isfinite(odd).all() and np.abs(odd + 1.0).max() <= np.spacing(1.0)
    half = 0.5 * theta[:4096]
    singles = np.array([cos_from_half(np.array([h]))[0] for h in half])
    assert got[:4096].tobytes() == singles.tobytes()
    for offset in range(17):
        assert cos_from_half(half[offset:].copy()).tobytes() == singles[offset:].tobytes(), offset
    block = half.reshape(32, 128)[:, 5:]
    assert cos_from_half(block.copy()).tobytes() == singles.reshape(32, 128)[:, 5:].tobytes()


def test_line_pass_matches_the_complex_form():
    """On the unitary axis the real-arithmetic line sum equals the
    complex-form sum it replaced, on the same contour, to 1e-14 of
    max(|K|, exp(-pi t / 2)), for x across the envelope on both sides of the
    turning point, at the ends and at seeded draws."""
    rng = random.Random(2032)
    for t in (0.5, 2.0, 5.0, 6.5, 10.0, 61.0, 199.0):
        xs = [1e-6, 1e-3, 0.5 * t, t * (1 - 1e-9), t, t * (1 + 1e-9), min(2.0 * t, 705.0), 705.0]
        xs = np.array(xs + [10.0 ** rng.uniform(-6.0, math.log10(705.0)) for _ in range(40)])
        got = special_functions._line_pass(0.0, t, xs)
        assert got.dtype == np.float64
        ref = line_sum_complex(t, xs)
        gap = (np.abs(got - ref) / np.maximum(np.abs(ref), math.exp(-0.5 * math.pi * t))).max()
        assert gap <= 1e-14, (t, gap)


def test_row_rejects_inputs_outside_the_envelope():
    """Valid arguments outside the envelope are a numerics error; non-finite
    input and x <= 0 are no K-Bessel argument at all."""
    for order, xs in ((0.0, [1.0, 1e-9]), (0.0, [2.0, 800.0]), (250j, [1.0]),
                      (-12.0, [1.0])):
        with pytest.raises(NumericEnvelopeError):
            bessel_k_row(order, xs)
    for order, xs in ((complex(math.nan, 1.0), [1.0]), (complex(0.0, math.inf), [1.0]),
                      (1j, [math.nan]), (3j, [1.0, math.inf]), (0.0, [0.0]),
                      (1j, [0.0]), (1j, [-1.0]), (1j, [2.0, -1.0])):
        with pytest.raises(ValueError):
            bessel_k_row(order, xs)
    assert bessel_k_row(3j, []).shape == (0,)


# ------------------------------------------------------------------
# the real-place Gamma factor
# ------------------------------------------------------------------

def test_log_gamma_against_mpmath_on_its_branch():
    """log Gamma_R against mpmath.loggamma, imaginary parts compared as they
    are (not mod 2 pi), up the line to |Im z| = 2e3 and left of the origin,
    where the recurrence crosses the branch cut's neighbourhood.  At s = 2z
    the log-gamma inside runs at z itself."""
    heights = (0.0, 1e-9, 0.3, 2.5, 17.0, 140.0, 999.0, 2e3)
    worst = 0.0
    with mpmath.workdps(40):
        for re in (-7.3, 0.25, 1.0, 3.5):
            for t in heights + tuple(-h for h in heights[1:]):
                z = complex(re, t)
                for s in (z, 2 * z):
                    half = mpmath.mpc(s.real, s.imag) / 2
                    ref = complex(mpmath.loggamma(half) - half * mpmath.log(mpmath.pi))
                    got = log_gamma_r(s)
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    assert worst <= 1e-14


def test_bernoulli_table_is_pinned():
    assert len(BERNOULLI_OVER_FACTORIAL) == 25
    with mpmath.workdps(40):
        for j, value in enumerate(BERNOULLI_OVER_FACTORIAL, 1):
            assert value == float(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j))


def test_log_gamma_r_poles():
    """Gamma(s/2) has its poles at s = 0, -2, -4, ...; the odd integers between
    them are ordinary points."""
    for s in (0.0, -2.0, complex(-6.0, 1e-11)):
        with pytest.raises(PoleError, match="real-place gamma factor pole at"):
            log_gamma_r(s)
    assert math.isfinite(abs(log_gamma_r(-3.0)))


def test_log_gamma_r_refuses_a_non_finite_s():
    """s = nan raised "cannot convert float NaN to integer" from the pole
    test, and s = inf an OverflowError: both are refused by name first."""
    for s in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.5, math.inf)):
        with pytest.raises(ValueError, match=f"^s must be finite, got {re.escape(str(complex(s)))}$"):
            log_gamma_r(s)


def test_beta_integral_identity():
    """Gamma_R(2s)/Gamma_R(2s+1) equals the (1+x^2)^(-s-1/2) line integral."""
    s = 1.25
    lhs = (cmath.exp(log_gamma_r(2 * s)) / cmath.exp(log_gamma_r(2 * s + 1))).real
    ref, _ = quad(lambda x: (1.0 + x * x) ** (-s - 0.5), -math.inf, math.inf, limit=200)
    assert abs(lhs - ref) <= 1e-10 * ref


# ------------------------------------------------------------------
# the smooth window and the tail cutoff
# ------------------------------------------------------------------

def test_bump_weight_support():
    w = BumpWeight()
    assert w(0.99) == 0.0
    assert w(2.01) == 0.0
    assert w(1.5) > 0.0
    assert w(1.0) == 0.0 and w(2.0) == 0.0


def test_bump_weight_on_arrays():
    """One array call equals the scalar calls bit for bit, and stays within
    2 ulp of the math.exp formula."""
    w = BumpWeight()
    r = np.concatenate([np.linspace(0.5, 2.5, 20001), [1.0, 2.0, np.nextafter(1.0, 2.0),
                                                     np.nextafter(2.0, 1.0)]])
    values = w(r)
    assert np.array_equal(values, [w(v) for v in r])
    outside = (r <= 1.0) | (r >= 2.0)
    assert np.all(values[outside] == 0.0) and np.all(values[~outside] >= 0.0)
    grid = np.linspace(1.0, 2.0, 200001)[1:-1]
    ref = np.array([math.exp(-1.0 / ((v - 1.0) * (2.0 - v))) for v in grid])
    assert np.all(np.abs(w(grid) - ref) <= 2 * np.spacing(ref))


def test_bump_mellin_against_quadrature():
    """mellin_at_one, the Mellin transform of w at s = 1, against quadrature."""
    ref = bump_mellin_quadrature(1.0)
    assert ref.imag == 0.0
    assert abs(BumpWeight().mellin_at_one - ref.real) <= 1e-10 * abs(ref)


def test_bump_integral_is_pinned_and_needs_no_quadrature(monkeypatch):
    """The integral of w is the correctly rounded value of a 30-digit
    quadrature, and constructing the weight runs no mpmath quadrature."""
    def forbidden(*args, **kwargs):
        raise AssertionError("mpmath quadrature in BumpWeight construction")

    monkeypatch.setattr(mpmath, "quad", forbidden)
    special_functions._bump_integral.cache_clear()
    assert BumpWeight().mellin_at_one == 0.0070298584066096565


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(t=st.floats(0.0, 100.0), y=st.floats(0.3, 50.0),
       eps=st.floats(1e-12, 1e-4))
def test_tail_cutoff_is_positive_and_monotone_in_eps(t, y, eps):
    m = whittaker_tail_cutoff(t, y, eps)
    assert m >= 1
    assert whittaker_tail_cutoff(t, y, eps * 1e-3) >= m


def test_tail_cutoff_actually_bounds_the_tail():
    """The true dropped tail 2 |P(s)| sqrt(y) sum_{n > m} |lambda(n) K_s(2 pi n y)|,
    summed from rows extended past each truncation m up to x = 705, stays
    below eps over pairs, heights, y and sigma, off the unitary axis too."""
    eps = 1e-8
    for a, b in (((1, 0), (1, 0)), ((3, 1), (4, 1)), ((1, 0), (4, 1))):
        chi1, chi2 = build_character(*a), build_character(*b)
        for sigma in (0.0, 0.5, 2.0, 9.0):
            for t in (0.5, 5.0, 10.0, 20.0, 61.0):
                params = EisensteinParams(chi1, chi2, t, sigma)
                ys = (0.3, 0.8, 1.7, 3.0)
                for y, m in zip(ys, _truncation(params, ys, eps)):
                    last = math.floor(705.0 / (2 * math.pi * y))
                    n = np.arange(m + 1, last + 1)
                    lam = _coefficients(params, max(m, last))[m:]
                    k = bessel_k_row(params.s, 2 * math.pi * y * n)
                    tail = 2 * abs(params._outer_scale) * math.sqrt(y) * np.abs(lam * k).sum()
                    assert tail < eps, (a, b, sigma, t, y, m, tail)
    # no bound exists for a non-finite height or budget
    for y_bad, eps_bad in ((0.7, math.nan), (0.7, math.inf), (math.nan, eps), (math.inf, eps)):
        with pytest.raises(ValueError):
            whittaker_tail_cutoff(8.0, y_bad, eps_bad)


def test_tail_cutoff_refuses_a_non_finite_t_or_sigma():
    """A non-finite t or sigma is refused by name before the search, which
    otherwise failed on int(nan) or galloped through about 1,000 doublings
    to an OverflowError."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^t must be finite, got {bad}$"):
            whittaker_tail_cutoff(bad, 0.7, 1e-8)
        with pytest.raises(ValueError, match=f"^sigma must be finite, got {bad}$"):
            whittaker_tail_cutoff(8.0, 0.7, 1e-8, bad)
    assert whittaker_tail_cutoff(-8.0, 0.7, 1e-8, -0.5) == whittaker_tail_cutoff(8.0, 0.7, 1e-8, 0.5)


def test_tail_cutoff_refuses_orders_past_the_envelope():
    """|t| > 200 or |sigma| > 10 is refused by value before the search,
    which failed there on int(nan) (t = 1e155), in math.log (sigma = 1e200)
    or returned a mode count of 152 digits (sigma = 1e150); the edges pass."""
    for t in (1e155, -200.5, 200.00000000000003):
        with pytest.raises(NumericEnvelopeError, match=f"^t = {re.escape(str(t))} outside the "
                                                       r"K-Bessel order bound \|t\| <= 200$"):
            whittaker_tail_cutoff(t, 0.7, 1e-8)
    for sigma in (1e200, 1e150, -10.5):
        with pytest.raises(NumericEnvelopeError, match=f"^sigma = {re.escape(str(sigma))} outside "
                                                       r"the K-Bessel order envelope \|sigma\| <= 10$"):
            whittaker_tail_cutoff(8.0, 0.7, 1e-8, sigma)
    assert whittaker_tail_cutoff(200.0, 0.7, 1e-8) == whittaker_tail_cutoff(-200.0, 0.7, 1e-8) == 55
    assert whittaker_tail_cutoff(8.0, 0.7, 1e-8, 10.0) == whittaker_tail_cutoff(-8.0, 0.7, 1e-8, -10.0) == 12
    assert whittaker_tail_cutoff(200.0, 0.7, 1e-8, -10.0) == 70


def test_tail_cutoff_bounds_its_own_majorant():
    """The documented majorant sum_{n > m} sqrt(3n) n^|sigma| e^{pi |t| / 2}
    |K_{sigma + it}(2 pi n y)|, summed up to x = 705, stays below eps.  The
    true tail sits far below it, since |lambda(n)| is far below sqrt(3n), so
    only this sum notices a bound too small by a constant factor."""
    for sigma in (0.0, 0.5, 2.0):
        for t in (0.5, 5.0, 10.0, 20.0, 61.0, 150.0):
            for y in (0.3, 0.8, 1.7, 3.0, 10.0):
                n = np.arange(1, math.floor(705.0 / (2 * math.pi * y)) + 1)
                k = np.abs(bessel_k_row(complex(sigma, t), 2 * math.pi * y * n))
                terms = np.sqrt(3.0 * n) * n ** sigma * math.exp(0.5 * math.pi * t) * k
                for eps in (1e-4, 1e-8, 1e-12):
                    m = whittaker_tail_cutoff(t, y, eps, sigma)
                    assert terms[m:].sum() < eps, (sigma, t, y, eps, m, terms[m:].sum())


def test_column_cutoffs_equal_the_scalar_search_row_by_row(monkeypatch):
    """_tail_cutoffs, one numpy window per column with the scalar search for
    the rows it does not settle, gives whittaker_tail_cutoff's M on every
    row: three pairs, heights 0.5 to 199, sigma up to 9, three eps, and
    columns of one row, two rows and 37 rows up to y = 50, each row at the
    budget _truncation gives it.  Most rows are settled by the window, and
    some (sigma = 9, where the first guess is far off) by the scalar search,
    so both paths are held to the reference."""
    scalar = []

    def counted(*args):
        scalar.append(args)
        return whittaker_tail_cutoff(*args)

    monkeypatch.setattr(special_functions, "whittaker_tail_cutoff", counted)
    columns = ([0.7], [0.5, 3.0], np.geomspace(0.3, 50.0, 37).tolist())
    rows = searched = 0
    for a, b in (((1, 0), (1, 0)), ((3, 1), (4, 1)), ((1, 0), (4, 1))):
        chi1, chi2 = build_character(*a), build_character(*b)
        for sigma in (0.0, 0.5, 2.0, 9.0):
            for t in (0.5, 5.0, 20.0, 61.0, 120.0, 199.0):
                params = EisensteinParams(chi1, chi2, t, sigma)
                scale = abs(params._outer_scale) * math.exp(-0.5 * math.pi * t)
                for eps in (1e-4, 1e-8, 1e-12):
                    for ys in columns:
                        budgets = [eps / (2.0 * max(scale * math.sqrt(y), 1e-300)) for y in ys]
                        want = [whittaker_tail_cutoff(t, y, budget, sigma) for y, budget in zip(ys, budgets)]
                        assert _truncation(params, ys, eps) == want
                        del scalar[:]
                        assert special_functions._tail_cutoffs(t, ys, eps, scale, sigma) == want, \
                            (a, b, sigma, t, eps, ys)
                        if len(ys) > 1:
                            rows += len(ys)
                            searched += len(scalar)
    assert 0 < searched < rows // 10, (searched, rows)
