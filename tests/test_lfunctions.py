"""Dirichlet L-values against series, Euler products, and classical constants."""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

import mpmath
import pytest

from oracles import direct_dirichlet_sum, euler_product_l, leibniz_pi_over_four
from eisenkit import lfunctions
from eisenkit.characters import build_character
from eisenkit.eisenstein import EisensteinParams, functional_equation_residual, scattering_constant
from eisenkit.lfunctions import _lambda_ratio, completed_lambda, dirichlet_l, parity_exponent
from eisenkit.special_functions import NumericEnvelopeError, PoleError, log_gamma_r

DATA = Path(__file__).parent / "data"

CHI3 = build_character(3, 1)
CHI4 = build_character(4, 1)
CHI5 = build_character(5, 1)


def lambda_ratio(s, chi):
    """Lambda(2s, chi) / Lambda(2s+1, chi), from the L-value on the 1-line."""
    return _lambda_ratio(s, chi, dirichlet_l(2 * s + 1, chi))


def test_against_direct_series_in_the_absolute_range():
    for chi in (CHI3, CHI4, CHI5):
        for s in (2.0 + 0j, 2.0 + 0.3j, 3.5 - 1.0j, 40.0 + 7.0j):
            got = dirichlet_l(s, chi)
            ref = direct_dirichlet_sum(s, chi, 200000)
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_against_euler_product():
    got = dirichlet_l(2.5, CHI4)
    ref = euler_product_l(2.5, CHI4, 10 ** 6)
    assert abs(got - ref) <= 1e-8 * abs(ref)


def test_leibniz_value_at_one():
    """L(1, chi mod 4) = pi/4, reached here by series acceleration."""
    got = dirichlet_l(1.0, CHI4)
    ref = leibniz_pi_over_four(16, 64)
    assert abs(got.real - ref) < 1e-12
    assert abs(got.imag) < 1e-14
    assert abs(ref - math.pi / 4) < 1e-15


def test_riemann_zeta_at_two():
    principal = build_character(1, 0)
    got = dirichlet_l(2.0, principal)
    assert abs(got.real - math.pi ** 2 / 6) < 1e-12


def test_principal_pole_is_reported():
    principal = build_character(1, 0)
    with pytest.raises(PoleError):
        dirichlet_l(1.0, principal)


def test_parity_exponent():
    assert parity_exponent(build_character(1, 0)) == 0
    assert parity_exponent(CHI4) == 1
    assert parity_exponent(CHI3) == 1
    assert parity_exponent(build_character(5, 2)) == 0


def test_lambda_ratio_is_unitary_on_the_axis():
    for chi in (CHI3, CHI4, CHI5):
        for t in (0.5, 5.0, 17.0):
            ratio = lambda_ratio(1j * t, chi)
            assert abs(abs(ratio) - 1.0) < 1e-10


def test_lambda_ratio_rejects_imprimitive_and_far_heights():
    imprimitive = build_character(9, 3)
    with pytest.raises(ValueError):
        completed_lambda(2.0, imprimitive)
    with pytest.raises(NumericEnvelopeError):
        lambda_ratio(600j, CHI4)
    # the window |Im s| <= 500 is the L-value's |Im 2s| <= 1e3, edge included
    assert abs(abs(lambda_ratio(500j, CHI4)) - 1.0) < 1e-10
    with pytest.raises(NumericEnvelopeError):
        lambda_ratio(500.001j, CHI4)


def test_modulus_window_holds_on_every_path():
    """q > 1e4 is outside the envelope whichever function reaches the
    L-value: the Lambda ratio and the scattering constant included."""
    chi = build_character(10007, 1)
    with pytest.raises(NumericEnvelopeError):
        dirichlet_l(2.0, chi)
    with pytest.raises(NumericEnvelopeError):
        lambda_ratio(2j, chi)
    with pytest.raises(NumericEnvelopeError):
        scattering_constant(EisensteinParams(chi, build_character(1, 0), 2.0))


@pytest.mark.parametrize("chi", [build_character(1, 0), build_character(5, 2)])
def test_completed_lambda_at_zero_for_even_characters_is_a_pole(chi):
    """s = 0 is a pole of Gamma(s/2): of completed zeta for chi = 1, and one
    that L's trivial zero cancels for other even chi, which the product form
    cannot evaluate through."""
    assert parity_exponent(chi) == 0
    for s in (0.0, 1e-9j):
        with pytest.raises(PoleError):
            completed_lambda(s, chi)


def test_non_finite_point_is_rejected():
    for s in (math.nan, complex(1.0, math.inf), complex(math.nan, 2.0)):
        with pytest.raises(ValueError):
            dirichlet_l(s, CHI4)


def test_completed_lambda_functional_equation():
    """Lambda(1 - s, conj chi) = conj(eps) Lambda(s, chi), eps = G(chi)/(i^a sqrt q)."""
    from eisenkit.characters import conjugate, gauss_sum

    for chi in (CHI3, CHI4, CHI5):
        q = chi.modulus
        a = parity_exponent(chi)
        eps = gauss_sum(chi) / ((1j ** a) * math.sqrt(q))
        for s in (0.3 + 2j, 0.5 + 5j):
            lhs = completed_lambda(1 - s, conjugate(chi))
            rhs = completed_lambda(s, chi)
            assert abs(lhs - eps.conjugate() * rhs) <= 1e-10 * abs(rhs)


def test_completed_lambda_is_finite_or_an_envelope_error():
    """Far right in the envelope Lambda(s, chi) outgrows double precision: there
    it is a NumericEnvelopeError, everywhere else a finite value, never an
    OverflowError."""
    rng = random.Random(700)
    outcomes = set()
    for _ in range(200):
        chi = rng.choice((build_character(1, 0), CHI3, CHI4))
        s = complex(rng.uniform(-0.5, 1e3), rng.uniform(-1e3, 1e3))
        try:
            value = completed_lambda(s, chi)
        except NumericEnvelopeError as exc:
            assert "overflows double precision" in str(exc), (s, chi.modulus)
            outcomes.add("envelope")
        else:
            assert cmath.isfinite(value), (s, chi.modulus)
            outcomes.add("finite")
    assert outcomes == {"envelope", "finite"}


def test_against_the_frozen_hurwitz_oracle_over_the_envelope():
    """Every point of tests/data/l_oracle.json (scripts/make_l_oracle.py):
    q up to 9973, Re s in [-1/2, 2], |Im s| up to 1e3, mpmath at 30+ digits.
    The tolerance was fixed before the fixture was first compared."""
    with open(DATA / "l_oracle.json") as fh:
        fixture = json.load(fh)
    assert fixture["schema"] == "eisenkit-l-oracle-v1"
    worst = 0.0
    for q, index, re_s, im_s, re_l, im_l in fixture["entries"]:
        ref = complex(re_l, im_l)
        got = dirichlet_l(complex(re_s, im_s), build_character(q, index))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"


def test_rejects_real_parts_outside_the_envelope():
    for s in (-0.6 + 3j, -2.0, 1000.5):
        with pytest.raises(NumericEnvelopeError):
            dirichlet_l(s, CHI4)
    with pytest.raises(NumericEnvelopeError):
        lambda_ratio(-0.3 + 1j, CHI4)


def test_l_function_path_calls_no_mpmath(monkeypatch):
    """L-values, completed values, the Lambda ratio, Gamma factors and the FE
    residual all run in float64: mpmath's special functions are never reached."""
    assert not hasattr(lfunctions, "mpmath")

    def forbidden(*args, **kwargs):
        raise AssertionError("mpmath called on the L-function path")

    for name in ("zeta", "loggamma", "digamma", "workdps"):
        monkeypatch.setattr(mpmath, name, forbidden)
    dirichlet_l(0.5 + 3.1j, CHI5)
    dirichlet_l(1.0, CHI3)
    dirichlet_l(2.0 + 0.7j, build_character(1, 0))
    completed_lambda(0.3 + 2.9j, CHI4)
    lambda_ratio(4.3j, CHI5)
    log_gamma_r(1.0 + 8.6j)
    params = EisensteinParams(CHI3, CHI4, 3.7)
    functional_equation_residual(params, 0.13, 1.1, eps=1e-8)
