"""Coefficients, scattering data, and the series itself on the cusp chart."""

from __future__ import annotations

import cmath
import math
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eisenkit
from oracles import (
    brute_divisor_sum,
    divisor_layout,
    divisor_sum_loop,
    divisors_by_product,
    local_constant,
)
from eisenkit.characters import build_character, conjugate, multiply
from eisenkit.eisenstein import (
    EisensteinParams,
    _coefficients,
    _constant_terms,
    _divisors,
    _lambda_kernel,
    _lambda_loop,
    _lambda_slot,
    evaluate,
    evaluate_truncated,
    functional_equation_residual,
    generalized_divisor_sum,
    scattering_constant,
)
from eisenkit.lfunctions import dirichlet_l
from eisenkit.special_functions import NumericEnvelopeError

CHI1 = build_character(1, 0)
CHI3 = build_character(3, 1)
CHI4 = build_character(4, 1)
CHI5 = build_character(5, 1)
CHI5P = build_character(5, 3)
CHI7 = build_character(7, 1)


# ------------------------------------------------------------------
# divisor-sum coefficients
# ------------------------------------------------------------------

def test_coefficient_at_one_and_at_primes():
    s = 0.3 + 5j
    assert generalized_divisor_sum(CHI3, CHI4, s, 1) == 1.0 + 0j
    for p in (2, 5, 7, 11):
        expect = (CHI3.evaluate(p) * cmath.exp(s * math.log(p))
                  + CHI4.evaluate(p) * cmath.exp(-s * math.log(p)))
        got = generalized_divisor_sum(CHI3, CHI4, s, p)
        assert abs(got - expect) < 1e-13 * max(1.0, abs(expect))


def test_coefficient_exponent_orientation():
    """chi1 rides the positive s-power; the frozen pin keeps the sign honest."""
    val = generalized_divisor_sum(CHI1, build_character(3, 0), 1.0, 2)
    assert abs(val - 2.5) < 1e-14     # 2^1 + 2^-1, both characters trivial


def test_brute_force_divisor_sum_small_n():
    """Every divisor by trial, character values from the generator-walk oracle."""
    s = 0.2 - 3j
    # 10 to 1000 share the factor 5 with the modulus; 25 to 961 are prime powers
    for n in (12, 36, 60, 97, 360, 10, 50, 250, 1000, 25, 125, 128, 243, 343, 961):
        brute = brute_divisor_sum(CHI5, CHI5P, s, n)
        assert abs(generalized_divisor_sum(CHI5, CHI5P, s, n) - brute) < 1e-12


def test_divisor_lists_in_the_summation_order():
    """_divisors, expanded from _factorize, equals the product of the
    prime-power lists, least prime outermost (the order lambda(n) is summed
    in): every n <= 5000, then seeded n up to 2e9 with 2^30, 3^19 and the
    product of the twin primes 44651 and 44657; n <= 1 gives [1].  Each
    list is its own mirror, _divisors(n)[k - 1 - i] = n / _divisors(n)[i]
    for k divisors: the lambda kernel reads n / a at the mirror position of
    a."""
    rng = random.Random(2701)
    big = [rng.randrange(5001, 2 * 10 ** 9) for _ in range(60)]
    big += [rng.randrange(1, 2 * 10 ** 5) * rng.choice((6, 30, 210, 2 ** 10, 3 ** 6))
            for _ in range(60)]
    for n in list(range(1, 5001)) + big + [2 ** 30, 3 ** 19, 44651 * 44657, 2 ** 64, 997 ** 6]:
        d = _divisors(n)
        assert d == list(divisors_by_product(n)), n
        assert all(a * b == n for a, b in zip(d, reversed(d))), n
    assert [_divisors(n) for n in (-7, 0, 1)] == [[1]] * 3


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300))
def test_coefficients_are_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    s = 7j
    lam = lambda k: generalized_divisor_sum(CHI3, CHI4, s, k)
    assert abs(lam(m * n) - lam(m) * lam(n)) < 1e-12


def test_coefficient_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        generalized_divisor_sum(CHI3, CHI4, 1j, 0)
    for n in (4.0, 2.5):
        with pytest.raises(TypeError, match=f"got {n}"):
            generalized_divisor_sum(CHI3, CHI4, 1j, n)
    assert generalized_divisor_sum(CHI3, CHI4, 1j, np.int64(12)) == generalized_divisor_sum(CHI3, CHI4, 1j, 12)


# the benchmark's Hecke parameter sets; characters mod 7 and 9, whose value
# products round (those mod 1, 3, 4 and 5 multiply exactly); a twist past the
# 2^14 ceiling on value tables, whose values come from its phases; and
# heights with signed zeros, int and float s among them, and off the axis
_HECKE_PAIRS = [(build_character(*a), build_character(*b)) for a, b in (
    ((1, 0), (1, 0)), ((1, 0), (4, 1)), ((3, 1), (4, 1)), ((5, 1), (5, 3)), ((4, 1), (3, 1)))]
_ROUNDING_PAIR = (CHI7, build_character(9, 1))
_WIDE = multiply(build_character(16381, 5), conjugate(CHI3))
_HEIGHTS = (4.2j, complex(0.0, -0.0), complex(-0.0, 6.5), complex(0.5, -0.0),
            complex(-0.0, -0.0), 2, -0.5, 0.5 + 7.1j, -10 + 200j)
_PAST_THE_TABLE = (4097, 9170, 2 ** 64, 997 ** 6, 44651 * 44657)


def _same_bits(got, want):
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))


def test_divisor_sum_is_the_scalar_loop_bit_for_bit():
    """generalized_divisor_sum equals the scalar divisor loop by == and repr:
    every n <= 4096 through the tables at the benchmark's five parameter sets,
    a sample of n at each further height, for characters mod 7 and 9 and at
    the twist mod 49143, block edges included, and n past the table ceiling
    through the one-n path."""
    assert _WIDE.modulus == 49143
    _lambda_slot.cache_clear()
    rng = random.Random(2801)
    sample = sorted(set(range(1, 65)) | {2 ** k + d for k in range(4, 12) for d in (0, 1)}
                    | {4096} | {rng.randrange(65, 4097) for _ in range(150)})
    calls = [(chi1, chi2, 3.7j, n) for chi1, chi2 in _HECKE_PAIRS for n in range(1, 4097)]
    calls += [(chi1, chi2, s, n) for chi1, chi2 in _HECKE_PAIRS + [_ROUNDING_PAIR]
              for s in _HEIGHTS for n in sample + list(_PAST_THE_TABLE)]
    calls += [(chi1, chi2, s, n) for chi1, chi2 in ((_WIDE, CHI4), (CHI5, _WIDE), (_WIDE, CHI7))
              for s in (12.5j, complex(-0.0, -12.5), 0.5 + 7.1j)
              for n in [n for n in sample if n <= 512] + list(_PAST_THE_TABLE)]
    _same_bits([generalized_divisor_sum(*call) for call in calls],
               [divisor_sum_loop(*call) for call in calls])


def test_lambda_bits_do_not_depend_on_the_table():
    """A table grown n by n, one grown by a single call at n = 4000, the
    kernel on a one-n layout, the scalar loop of the one-n path, and
    _coefficients, which reads the same table, all give the same bits for
    every n <= 4096."""
    rng = random.Random(2802)
    for chi1, chi2, sigma, t in ((CHI3, CHI4, 0.0, 5.7), (CHI5, CHI5P, 0.5, -0.0),
                                 (CHI1, CHI4, -1.5, 3.3)):
        s = complex(sigma, t)
        _lambda_slot.cache_clear()
        one_by_one = [generalized_divisor_sum(chi1, chi2, s, n) for n in range(1, 4097)]
        _lambda_slot.cache_clear()
        generalized_divisor_sum(chi1, chi2, s, 4000)
        at_once = [generalized_divisor_sum(chi1, chi2, s, n) for n in range(1, 4097)]
        _same_bits(at_once, one_by_one)
        sample = sorted({1, 16, 17, 64, 65, 2048, 2049, 4096} | {rng.randrange(1, 4097) for _ in range(200)})
        _same_bits([_lambda_kernel(chi1, chi2, s, divisor_layout((n,))).item(0) for n in sample],
                   [one_by_one[n - 1] for n in sample])
        _same_bits([_lambda_loop(chi1, chi2, s, n) for n in sample], [one_by_one[n - 1] for n in sample])
        table = _coefficients(EisensteinParams(chi1, chi2, t, sigma), 4096)
        assert table.tobytes() == np.array(one_by_one).tobytes()


def test_lambda_key_ignores_the_signs_of_zero_parts():
    """s = sigma + 0.0j and sigma - 0.0j (and -0.0 + 0.0j and so on on the
    axis), and a t = 0 series with chi1 = chi2 on the axis and its dual,
    at s = -0.0 - 0.0j, share one _lambda_slot; every lambda read from a
    table that another of these s built has the scalar loop's bits at the
    s that reads it."""
    rng = random.Random(3101)
    sample = sorted(set(range(1, 65)) | {4096} | {rng.randrange(65, 4097) for _ in range(100)})
    for chi1, chi2 in _HECKE_PAIRS + [_ROUNDING_PAIR]:
        for sigma in (0.0, 0.5, -1.5):
            heights = [complex(sigma * a, b) for a in ((1.0, -1.0) if sigma == 0.0 else (1.0,))
                       for b in (0.0, -0.0)]
            _lambda_slot.cache_clear()
            generalized_divisor_sum(chi1, chi2, heights[-1], 4096)
            assert all(_lambda_slot(chi1, chi2, s) is _lambda_slot(chi1, chi2, heights[0]) for s in heights)
            for s in heights:
                _same_bits([generalized_divisor_sum(chi1, chi2, s, n) for n in sample],
                           [divisor_sum_loop(chi1, chi2, s, n) for n in sample])
    for chi in (CHI1, CHI5, CHI7):
        series = EisensteinParams(chi, chi, 0.0)
        dual = series.dual()
        assert repr(dual.s) == "(-0-0j)" and dual._lambda is series._lambda
        for p in (series, dual):
            assert _coefficients(p, 512).tobytes() == np.array(
                [divisor_sum_loop(chi, chi, p.s, n) for n in range(1, 513)]).tobytes()


def _cold_tables(monkeypatch):
    """Start the sieve table (at n <= 3, as the module does) and the block
    layouts over; monkeypatch restores the table."""
    from eisenkit import eisenstein

    monkeypatch.setattr(eisenstein, "_sieve_slot", [tuple(part[:4] for part in eisenstein._sieve_slot[0])])
    eisenstein._block_layout.cache_clear()


def test_block_layouts_are_the_divisor_layouts(monkeypatch):
    """Every table block up to 2^12, a first block (0, 2^k] or a doubling
    (2^k, 2^(k+1)], built from the sieve table equals the oracle's
    divisor_layout over divisors_by_product byte for byte (divisors, logs,
    mirror, counts), with logs equal to math.log of each divisor: built from
    cold tables in ascending order, and from cold tables by one call at 2^12
    first."""
    from eisenkit.eisenstein import _block_layout

    ascending = sorted([(0, 1 << k) for k in range(4, 13)] + [(1 << k, 2 << k) for k in range(4, 12)],
                       key=lambda block: block[::-1])
    for order in (ascending, sorted(ascending, key=lambda block: block != (0, 1 << 12))):
        _cold_tables(monkeypatch)
        for lo, top in order:
            got, want = _block_layout(lo, top), divisor_layout(range(lo + 1, top + 1))
            assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want], (lo, top)
            divs, logs = got[:2]
            assert logs.tobytes() == np.array([math.log(a) for a in divs.tolist()]).tobytes(), (lo, top)


def test_sieve_table_stops_at_the_lambda_ceiling(monkeypatch):
    """The sieve table grows block by block with the lambda tables, to the
    least power of two at least 16 that covers n, and never past
    _LAMBDA_MAX: an n past it takes the one-n path, the scalar loop over
    _divisors, which expands the trial division _factorize."""
    from eisenkit import eisenstein

    _cold_tables(monkeypatch)
    _lambda_slot.cache_clear()
    sizes = []
    for n in (1, 17, 100, 4096, 4097, 9170, 2 ** 64, 10 ** 4):
        generalized_divisor_sum(CHI3, CHI4, 2.5j, n)
        sizes.append(len(eisenstein._sieve_slot[0][0]) - 1)
    assert sizes == [16, 32, 128] + [eisenstein._LAMBDA_MAX] * 5
    assert all(len(part) == eisenstein._LAMBDA_MAX + 1 for part in eisenstein._sieve_slot[0])


def test_divisor_sum_refuses_a_non_finite_s(monkeypatch):
    """A non-finite s is refused by name before any table is built or keyed;
    a string is not parsed as a number."""
    from eisenkit import eisenstein

    monkeypatch.setattr(eisenstein, "_lambda_kernel", None)     # any kernel call fails
    before = _lambda_slot.cache_info()
    for s in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0),
              complex(0.0, -math.inf)):
        for n in (1, 12, 5000):
            with pytest.raises(ValueError, match=f"^s must be finite, got {re.escape(repr(s))}$"):
                generalized_divisor_sum(CHI3, CHI4, s, n)
    with pytest.raises(TypeError, match="^s must be a number, got '1\\+2j'$"):
        generalized_divisor_sum(CHI3, CHI4, "1+2j", 3)
    after = _lambda_slot.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def test_divisor_sum_overflows_where_the_loop_does():
    """Far off the axis a term's exponential can overflow.  Where the loop
    raises OverflowError so does generalized_divisor_sum; where the loop
    skips the overflowing term (a zero character value), the sum is the
    loop's, though other n of its table block overflow."""
    for chi1, chi2, n in ((CHI1, CHI1, 10), (CHI4, CHI1, 64), (CHI4, CHI1, 63), (CHI1, CHI1, 40)):
        _lambda_slot.cache_clear()
        try:
            want = divisor_sum_loop(chi1, chi2, 200.0, n)
        except OverflowError:
            with pytest.raises(OverflowError):
                generalized_divisor_sum(chi1, chi2, 200.0, n)
        else:
            _same_bits([generalized_divisor_sum(chi1, chi2, 200.0, n)], [want])


# ------------------------------------------------------------------
# scattering data
# ------------------------------------------------------------------

def test_scattering_is_unitary_on_the_axis():
    for chi1, chi2 in ((CHI1, CHI1), (CHI1, CHI4), (CHI3, CHI4), (CHI5, CHI5P)):
        for t0 in (2.0, 5.0, 11.0):
            c = scattering_constant(EisensteinParams(chi1, chi2, t0)).scattering
            expect = math.sqrt(chi1.modulus / chi2.modulus)
            assert abs(abs(c) - expect) < 1e-10


def test_scattering_inverts_under_the_dual():
    for chi1, chi2 in ((CHI1, CHI4), (CHI3, CHI4), (CHI5, CHI5P)):
        here = scattering_constant(EisensteinParams(chi1, chi2, 5.0)).scattering
        dual = scattering_constant(EisensteinParams(chi2, chi1, -5.0)).scattering
        assert abs(here * dual - 1.0) < 1e-10


def test_ramified_product_collects_the_local_factors():
    data = scattering_constant(EisensteinParams(CHI3, CHI4, 5.0))
    assert set(data.local_factors) == {2, 3}
    prod = 1.0 + 0j
    for val in data.local_factors.values():
        prod *= val
    assert abs(prod - data.ramified_product) < 1e-12


# the benchmark's functional-equation pairs (q, index), each at t0 = 5 and 10
_FE_PAIRS = (((1, 0), (1, 0)), ((1, 0), (4, 1)), ((3, 1), (4, 1)), ((5, 1), (5, 3)))
_FE_HEIGHTS = (5.0, 10.0)

_COLD_CONSTANTS = """
import sys
sys.path.insert(0, sys.argv[1])
from eisenkit.characters import build_character
from eisenkit.eisenstein import EisensteinParams, scattering_constant
from eisenkit.lfunctions import dirichlet_l
a, b, t0 = eval(sys.argv[2])
p = EisensteinParams(build_character(*a), build_character(*b), t0)
data = scattering_constant(p)
print(repr([p._outer_scale, data.scattering, data.ramified_product, data.local_factors,
            p._l_one_line, dirichlet_l(2 * p.s, p.quotient_character)]))
"""


def _constants(params):
    data = scattering_constant(params)
    return [params._outer_scale, data.scattering, data.ramified_product, data.local_factors,
            params._l_one_line, dirichlet_l(2 * params.s, params.quotient_character)]


def test_series_constants_do_not_depend_on_warm_caches():
    """P(s), c(s), the ramified product, the local factors and both L-values
    of a fresh series equal, bit for bit, those a process computes for that
    series alone, after every other pair, height and dual has filled the
    shared character caches."""
    src = str(Path(eisenkit.__file__).resolve().parent.parent)
    cases = [(a, b, t0) for a, b in _FE_PAIRS for t0 in _FE_HEIGHTS]
    cold = [subprocess.run([sys.executable, "-c", _COLD_CONSTANTS, src, repr(case)],
                           capture_output=True, text=True, check=True).stdout for case in cases]
    for a, b, t0 in reversed(cases):     # warm every cache first, in another order
        params = EisensteinParams(build_character(*a), build_character(*b), t0)
        for side in (params.dual(), params):
            _constants(side)
    for case, out in zip(cases, cold):
        a, b, t0 = case
        fresh = EisensteinParams(build_character(*a), build_character(*b), t0)
        assert _constants(fresh) == eval(out), case


def test_local_constant_unramified_is_an_euler_ratio():
    params = EisensteinParams(CHI1, CHI1, 5.0)
    s = params.s
    for p in (2, 3, 7):
        expect = ((1.0 - p ** (-2 * s - 1)) / (1.0 - p ** (-2 * s)))
        assert abs(local_constant(params, p) - expect) < 1e-12


def test_local_constant_doubly_ramified_magnitude():
    params = EisensteinParams(CHI5, CHI5P, 5.0)
    assert abs(abs(local_constant(params, 5)) - 5 ** -0.5) < 1e-12


def test_dual_is_built_once_per_series():
    for chi1, chi2, t0, sigma in ((CHI1, CHI4, 5.0, 0.0), (CHI3, CHI4, 10.0, 0.1)):
        params = EisensteinParams(chi1, chi2, t0, sigma)
        dual = params.dual()
        assert dual is params.dual()
        assert dual.dual() is params
        assert (dual.chi1, dual.chi2, dual.t_shift, dual.sigma) == (chi2, chi1, -t0, -sigma)
        assert (dual.level, dual.l_modulus) == (params.level, params.l_modulus)
        assert dual == EisensteinParams(chi2, chi1, -t0, -sigma)


def test_constant_term_sections_swap_under_dual():
    """The y^{1/2+s} term survives only when chi1 has conductor one, the
    y^{1/2-s} term only when chi2 does, and the dual series swaps the two:
    E's constant term is c(s) times the dual's, at every height."""
    for chi1, chi2 in ((CHI3, CHI4), (CHI1, CHI4), (CHI4, CHI1), (CHI1, CHI1)):
        params = EisensteinParams(chi1, chi2, 5.0)
        c = scattering_constant(params).scattering
        for y in (0.6, 1.3, 2.9):
            here, there = _constant_terms(params, y), _constant_terms(params.dual(), y)
            plus = cmath.exp((0.5 + params.s) * math.log(y))
            minus = c * cmath.exp((0.5 - params.s) * math.log(y))
            expect = (plus if chi1.modulus == 1 else 0) + (minus if chi2.modulus == 1 else 0)
            assert abs(here - expect) < 1e-14
            assert abs(here - c * there) < 1e-12 * (1.0 + abs(here))


# ------------------------------------------------------------------
# the series on the cusp chart
# ------------------------------------------------------------------

def test_functional_equation_spot_checks():
    for chi1, chi2, t0 in ((CHI1, CHI1, 5.0), (CHI3, CHI4, 10.0)):
        params = EisensteinParams(chi1, chi2, t0)
        for x, y in ((0.0, 1.0), (0.37, 0.62), (-0.41, 2.8)):
            assert functional_equation_residual(params, x, y, eps=1e-8) < 1e-6


def test_functional_equation_residual_shares_one_bessel_row(monkeypatch):
    """One Bessel row serves both sides, and the residual is bit for bit the
    one from two separate evaluate calls."""
    from eisenkit import eisenstein

    calls = []
    real = eisenstein.bessel_k_row

    def counted(order, xs):
        calls.append(order)
        return real(order, xs)

    monkeypatch.setattr(eisenstein, "bessel_k_row", counted)
    # (CHI3, CHI3) and (CHI5, CHI5): the quotient character is principal, so
    # b_r takes the Euler factor at the prime dividing the level
    pairs = ((CHI3, CHI4), (CHI5, CHI5P), (CHI1, CHI4), (CHI3, CHI3), (CHI5, CHI5))
    for (chi1, chi2), t0 in zip(pairs, (10.0, 5.0, 7.5, 5.0, 5.0)):
        params = EisensteinParams(chi1, chi2, t0)
        c = scattering_constant(params).scattering
        for x, y in ((0.0, 1.0), (0.37, 0.62), (-0.41, 2.8)):
            del calls[:]
            r = functional_equation_residual(params, x, y, eps=1e-8)
            assert len(calls) == 1
            e = evaluate(params, x, y, 1e-8)
            e_star = evaluate(params.dual(), x, y, 1e-8)
            assert r == abs(e - c * e_star) / (1.0 + abs(e) + abs(e_star))
            assert r < 1e-12


def test_level_one_translation_invariance():
    params = EisensteinParams(CHI1, CHI1, 5.0)
    for x, y in ((0.13, 0.9), (0.48, 1.7)):
        a = evaluate(params, x, y, eps=1e-10)
        b = evaluate(params, x - 1.0, y, eps=1e-10)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_level_one_inversion_invariance():
    """E(-1/z) = E(z) at full level, checked where both points clear the floor."""
    params = EisensteinParams(CHI1, CHI1, 5.0)
    for x, y in ((0.4, 0.95), (-0.3, 1.1)):
        norm = x * x + y * y
        a = evaluate(params, x, y, eps=1e-10)
        b = evaluate(params, -x / norm, y / norm, eps=1e-10)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_truncated_series_omits_the_constant_term():
    params = EisensteinParams(CHI1, CHI4, 5.0)
    data = scattering_constant(params)
    y = 1.3
    full = evaluate(params, 0.22, y, eps=1e-10)
    bare = evaluate_truncated(params, 0.22, y, eps=1e-10)
    s = params.s
    constant = (y ** (0.5 + s)                      # chi1 principal: leading term
                + data.scattering * 0.0)            # chi2 ramified: no dual term
    assert abs(full - bare - constant) < 1e-12 * max(1.0, abs(full))


def test_high_in_the_cusp_the_constant_term_dominates():
    params = EisensteinParams(CHI1, CHI1, 7.0)
    y = 40.0
    bare = abs(evaluate_truncated(params, 0.11, y, eps=1e-12))
    assert bare < 1e-8


def test_floor_is_enforced():
    params = EisensteinParams(CHI1, CHI1, 5.0)
    with pytest.raises(ValueError):
        evaluate(params, 0.0, 0.25, eps=1e-8)
    with pytest.raises(ValueError):
        evaluate_truncated(params, 0.0, 0.29, eps=1e-8)
    for y, eps in ((0.6, math.nan), (0.6, math.inf), (math.nan, 1e-8), (math.inf, 1e-8)):
        with pytest.raises(ValueError):
            evaluate_truncated(params, 0.1, y, eps=eps)


def test_residual_below_the_floor_is_rejected_before_any_truncation(monkeypatch):
    """The FE residual keeps evaluate's floor: its modes grow like 1/y, so
    y = 1e-4 used to cost seconds."""
    from eisenkit import eisenstein

    def forbidden(*args):
        raise AssertionError("a truncation was computed below the floor")

    monkeypatch.setattr(eisenstein, "_truncation", forbidden)
    params = EisensteinParams(CHI1, CHI1, 5.0)
    for y in (0.29, 1e-4, -1.0):
        with pytest.raises(ValueError, match="below the expansion floor 0.3"):
            functional_equation_residual(params, 0.1, y)


def test_a_non_finite_point_is_refused_by_name_before_any_truncation(monkeypatch):
    """x = nan used to give E = nan+nanj, and x = inf nan with a RuntimeWarning;
    y = nan was refused only as having no tail budget.  evaluate and the
    residual now refuse a non-finite x or y by name, before any work."""
    from eisenkit import eisenstein

    def forbidden(*args):
        raise AssertionError("a truncation was computed at a non-finite point")

    monkeypatch.setattr(eisenstein, "_truncation", forbidden)
    params = EisensteinParams(CHI3, CHI4, 5.0)
    points = [(x, 0.6) for x in (math.nan, math.inf, -math.inf)]
    points += [(0.1, y) for y in (math.nan, math.inf, -math.inf)] + [(math.nan, math.inf)]
    for fn in (evaluate, functional_equation_residual):
        for x, y in points:
            with pytest.raises(ValueError, match=f"^x and y must be finite, got {x} and {y}$"):
                fn(params, x, y, 1e-8)


def test_a_bool_str_or_none_point_is_refused_by_name_before_any_truncation(monkeypatch):
    """x = True used to run as x = 1, and "0.1" or None raised a bare
    TypeError that named neither x nor y.  evaluate and the residual refuse
    each by name, in the form eps is refused in, before the finiteness check
    and any work; ints and numpy floats are still taken, at their values."""
    from eisenkit import eisenstein

    def forbidden(*args):
        raise AssertionError("a truncation was computed at a refused point")

    params = EisensteinParams(CHI3, CHI4, 5.0)
    with monkeypatch.context() as patch:
        patch.setattr(eisenstein, "_truncation", forbidden)
        for fn in (evaluate, functional_equation_residual):
            for bad in (True, "0.1", None):
                for name, x, y in (("x", bad, 0.6), ("x", bad, math.nan), ("y", 0.1, bad)):
                    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(bad))}$"):
                        fn(params, x, y, 1e-8)
    for fn in (evaluate, functional_equation_residual):
        assert fn(params, 0, 1, 1e-8) == fn(params, 0.0, 1.0, 1e-8)
        assert fn(params, np.float64(0.1), np.float32(0.75), 1e-8) == fn(params, 0.1, 0.75, 1e-8)


def test_evaluate_and_the_residual_are_periodic_in_x():
    """E is 1-periodic in x, and both entry points sum at x mod 1 (math.fmod,
    exact): at x0 + k and x0 - k, exact in binary, each agrees with its value
    at x0 within eps, for k up to 2^48 at x0 = 0.3125 and up to 2^52 - 1, the
    largest k with x0 + k exact, at x0 = 0.5.  Unreduced, the rounding of
    2 pi n x gave gaps of 1.3e-9 at k = 2^20 and 1.0e-3 at k = 2^40 (level 1,
    t0 = 20, y = 0.6, eps = 1e-12).  x = 1e300, an integer, sums at x = 0."""
    eps = 1e-12
    for params in (EisensteinParams(CHI1, CHI1, 20.0), EisensteinParams(CHI3, CHI4, 10.0)):
        for fn in (evaluate, functional_equation_residual):
            for x0, ks in ((0.3125, [1, 2 ** 10, 2 ** 20, 2 ** 30, 2 ** 40, 2 ** 48]),
                           (0.5, [1, 2 ** 10, 2 ** 20, 2 ** 30, 2 ** 40, 2 ** 52 - 1])):
                here = fn(params, x0, 0.6, eps)
                for k in ks + [-k for k in ks]:
                    assert (x0 + k) - k == x0
                    assert abs(fn(params, x0 + k, 0.6, eps) - here) <= eps, (params, fn, x0, k)
            assert fn(params, 1e300, 0.6, eps) == fn(params, 0.0, 0.6, eps)


def test_quotient_modulus_past_the_l_window_is_refused_before_any_table(monkeypatch):
    """chi1 mod 993 = 3 * 331 and chi2 mod 1011 = 3 * 337 share their 3-part,
    so psi lives mod 331 * 337 = 111547, past the L-value window 1e4: the
    series is refused on construction, before psi's value table is built."""
    from eisenkit import characters

    def forbidden(*args):
        raise AssertionError("a character value table was built")

    monkeypatch.setattr(characters, "_value_rows", forbidden)
    chi1, chi2 = build_character(993, 331), build_character(1011, 337)
    for a, b in ((chi1, chi2), (chi2, chi1)):
        with pytest.raises(NumericEnvelopeError, match="modulus 111547 outside"):
            EisensteinParams(a, b, 5.0)


def test_truncation_rejections_quote_the_callers_eps():
    params = EisensteinParams(CHI1, CHI1, 12.0)
    for eps in (-1.0, math.nan, 1e-320):
        with pytest.raises(ValueError, match=re.escape(f"eps = {eps}")):
            evaluate_truncated(params, 0.1, 0.6, eps=eps)


def test_a_non_numeric_or_boolean_eps_is_refused_before_any_l_value(monkeypatch):
    """eps = True used to run as eps = 1, and "1e-8" or None raised a bare
    TypeError from the budget's arithmetic after L(2s+1, psi) was computed:
    scan, evaluate and the residual refuse each by name first."""
    from eisenkit import eisenstein
    from eisenkit.supnorm import scan

    def forbidden(*args):
        raise AssertionError("an L-value was computed")

    monkeypatch.setattr(eisenstein, "dirichlet_l", forbidden)
    for eps in (True, False, "1e-8", None, 1e-8j):
        message = f"^eps must be a real number, got {re.escape(repr(eps))}$"
        for call in (lambda p: scan(p, 10.0, x_steps=2, y_grid=(0.5, 0.9), eps=eps),
                     lambda p: evaluate(p, 0.1, 0.6, eps=eps),
                     lambda p: functional_equation_residual(p, 0.1, 0.6, eps=eps)):
            with pytest.raises(ValueError, match=message):
                call(EisensteinParams(CHI3, CHI4, 10.0))


def test_non_finite_spectral_point_is_rejected():
    for t0, sigma in ((math.nan, 0.0), (math.inf, 0.0), (5.0, math.nan)):
        with pytest.raises(ValueError):
            EisensteinParams(CHI1, CHI1, t0, sigma)


def test_sigma_past_the_bessel_order_envelope_is_refused():
    """Every K_s(2 pi n y) of the series needs |sigma| <= 10: at the edge the
    series evaluates, past it construction raises, before any L-value or
    Euler factor overflows."""
    params = EisensteinParams(CHI3, CHI3, 1.0, 10.0)
    assert cmath.isfinite(evaluate(params, 0.1, 1.0, eps=1e-8))
    assert cmath.isfinite(scattering_constant(params).scattering)
    for sigma in (10.5, -10.5, 400.0):
        with pytest.raises(NumericEnvelopeError, match=f"sigma = {sigma} outside"):
            EisensteinParams(CHI3, CHI3, 1.0, sigma)


# ------------------------------------------------------------------
# per-series state: L(2s+1, psi), P(s), c(s), the lambda table
# ------------------------------------------------------------------

_POINTS = ((0.1, 2.5), (0.37, 0.4), (-0.2, 1.1), (0.45, 0.7))


def _values(params, points):
    """evaluate and the FE residual at each point, in the given order."""
    return {(x, y): (evaluate(params, x, y, 1e-8), functional_equation_residual(params, x, y))
            for x, y in points}


def test_coefficient_table_matches_the_brute_divisor_sum():
    for chi1, chi2, t0 in ((CHI5, CHI5P, 5.0), (CHI3, CHI4, 10.0), (CHI1, CHI4, 7.5)):
        params = EisensteinParams(chi1, chi2, t0)
        for side in (params, params.dual()):
            _coefficients(side, 12)
            table = _coefficients(side, 40)          # grown from 12 to 40
            assert len(table) == 40 and not table.flags.writeable
            for n, lam in enumerate(table, start=1):
                assert abs(lam - brute_divisor_sum(side.chi1, side.chi2, side.s, n)) < 1e-12


def test_table_growth_order_does_not_change_bits():
    """Tables grown small to large, large to small, or fresh per call give
    the same evaluate and residual bits.  Equal series share one lambda
    table, so each variant starts from an empty memo and grows its own."""
    def cold(points):
        _lambda_slot.cache_clear()
        return _values(EisensteinParams(chi1, chi2, t0), points)

    for chi1, chi2, t0 in ((CHI1, CHI1, 5.0), (CHI3, CHI4, 10.0), (CHI5, CHI5P, 7.5)):
        by_height = sorted(_POINTS, key=lambda p: p[1])
        fresh = {point: cold([point])[point] for point in _POINTS}
        growing = cold(by_height[::-1])
        shrinking = cold(by_height)
        assert growing == fresh and shrinking == fresh


def test_one_residual_on_a_fresh_series_computes_each_l_value_once(monkeypatch):
    """L(2s+1) for each side, L(2s) for c(s), and for the dual's c(-s) only
    where the dual keeps its y^{1/2-s} term; nothing on a second call.  From
    cold caches, each distinct character builds one value table, each series
    one _b_local per prime, and each distinct argument one Gauss sum and one
    local epsilon, however many equal character objects the series make.
    Cold means no character holds its table, value list or Gauss sum, and
    local_epsilon's memo is empty; Gauss sums are counted where they are
    computed, in the _gauss property."""
    from eisenkit import characters, eisenstein, lfunctions

    for chi in list(characters._INTERNED.values()):
        for name in ("_table", "_values", "_gauss"):
            chi.__dict__.pop(name, None)
    local_epsilon = characters.local_epsilon
    local_epsilon.cache_clear()
    calls = []
    tables, b_locals, gauss_sums = [], [], []
    arguments = {"gauss_sum": [], "local_epsilon": []}

    def counted(s, chi):
        calls.append((s, chi))
        return real_l(s, chi)

    def rows(q, D, weights):
        tables.append((q, tuple(weights.tolist())))
        return real_rows(q, D, weights)

    def b_local(params, p):
        b_locals.append((params, p))
        return real_b(params, p)

    def recorded(name, f):
        def wrapper(*args):
            arguments[name].append(args)
            return f(*args)
        return wrapper

    def gauss(chi):
        gauss_sums.append(chi)
        return real_gauss(chi)

    real_l, real_rows, real_b = lfunctions.dirichlet_l, characters._value_rows, eisenstein._b_local
    gauss_property = characters.DirichletCharacter.__dict__["_gauss"]
    real_gauss = gauss_property.func
    monkeypatch.setattr(gauss_property, "func", gauss)
    monkeypatch.setattr(eisenstein, "dirichlet_l", counted)
    monkeypatch.setattr(lfunctions, "dirichlet_l", counted)
    monkeypatch.setattr(characters, "_value_rows", rows)
    monkeypatch.setattr(eisenstein, "_b_local", b_local)
    for name in arguments:
        wrapper = recorded(name, getattr(characters, name))
        monkeypatch.setattr(characters, name, wrapper)
        monkeypatch.setattr(eisenstein, name, wrapper)
    for chi1, chi2, expected in ((CHI3, CHI4, 3), (CHI1, CHI4, 4), (CHI1, CHI1, 4), (CHI5, CHI5P, 3)):
        params = EisensteinParams(chi1, chi2, 5.0)
        del calls[:]
        functional_equation_residual(params, 0.37, 0.62)
        assert len(calls) == expected
        assert len(set(calls)) == expected
        functional_equation_residual(params, -0.41, 2.8)
        assert len(calls) == expected
    # the last pair's quotient and its dual's are one character, 5:2
    assert tables and len(tables) == len(set(tables))
    assert b_locals and len(b_locals) == len(set(b_locals))
    assert arguments["gauss_sum"] and len(gauss_sums) == len(set(arguments["gauss_sum"]))
    assert {(chi,) for chi in gauss_sums} == set(arguments["gauss_sum"])
    assert arguments["local_epsilon"]
    assert local_epsilon.cache_info().misses == len(set(arguments["local_epsilon"]))


@pytest.mark.parametrize("t0, message", [
    (480.0, "underflows double precision"),        # after L(2s+1) succeeded
    (600.0, "outside the supported window"),       # L(2s+1) itself
])
def test_a_failed_set_up_is_raised_again(t0, message):
    """P(s) fails past t = 450 and is not stored, so it fails again; evaluate
    and the FE residual refuse such a height before they reach it."""
    params = EisensteinParams(CHI1, CHI1, t0)
    for _ in range(2):
        with pytest.raises(NumericEnvelopeError, match=message):
            params._outer_scale
        with pytest.raises(NumericEnvelopeError, match=f"^t0 = {t0:g} outside the K-Bessel order bound"):
            evaluate(params, 0.0, 1.0, 1e-8)
        with pytest.raises(NumericEnvelopeError, match=f"^t0 = {t0:g} outside the K-Bessel order bound"):
            functional_equation_residual(params, 0.0, 1.0)


def test_threads_sharing_a_fresh_series_agree():
    """Threads growing one fresh series' state at once, switching often, get
    the values a single thread gets."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chi1, chi2, t0 in ((CHI1, CHI4, 5.0), (CHI3, CHI4, 10.0)):
            expected = _values(EisensteinParams(chi1, chi2, t0), _POINTS)
            _lambda_slot.cache_clear()     # so that the threads grow the lambda tables
            shared = EisensteinParams(chi1, chi2, t0)
            start = threading.Barrier(4)
            results = [None] * 4

            def work(k):
                start.wait()
                results[k] = _values(shared, _POINTS[k:] + _POINTS[:k])

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(switch)
