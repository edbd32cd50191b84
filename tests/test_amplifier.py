"""Prime sums in progressions and the divisor-factor algebra they rest on."""

from __future__ import annotations

import cmath
import gc
import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _prime_powers,
    naive_amplifier_sum,
    two_exponential_b_xi,
    two_exponential_factorization_check,
    weighted_prime_log_sum,
)
from eisenkit import amplifier
from eisenkit.amplifier import (
    _SEGMENT,
    _SPAN,
    AmplifierConfig,
    amplifier_sum,
    asymptotic_report,
    b_xi,
    factorization_check,
    sieve_interval,
)
from eisenkit.eisenstein import generalized_divisor_sum
from eisenkit.characters import DirichletCharacter, build_character, character_group, conjugate, multiply

CHI1 = build_character(1, 0)
CHI3 = build_character(3, 1)
CHI4 = build_character(4, 1)
CHI5 = build_character(5, 1)


def _served(ctx) -> list[list[int]]:
    """The primes at which each list of a context's prime table holds a value, not None."""
    return [[p for p, i in ctx.slot.items() if values[i] is not None] for values in (ctx.b, ctx.defect)]


def test_config_validation():
    with pytest.raises(ValueError):
        AmplifierConfig(q=3, L=100.0, r1=1.0, r2=1.0, chi1=CHI3, chi2=CHI4)
    with pytest.raises(ValueError):
        AmplifierConfig(q=1, L=5.0, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI1)
    for q in (0, -3):
        with pytest.raises(ValueError):
            AmplifierConfig(q=q, L=100.0, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI1)
    for bad in ({"L": math.nan}, {"L": math.inf}, {"r1": math.nan}, {"r2": -math.inf}):
        with pytest.raises(ValueError):
            AmplifierConfig(**{"q": 1, "L": 100.0, "r1": 1.0, "r2": 1.0,
                               "chi1": CHI1, "chi2": CHI1, **bad})
    with pytest.raises(ValueError, match="above the supported ceiling 1e\\+09"):
        AmplifierConfig(q=1, L=2e9, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI1)
    assert AmplifierConfig(q=1, L=1e9, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI1).L == 1e9
    cfg = AmplifierConfig(q=5, L=100.0, r1=1.0, r2=1.0, chi1=CHI3, chi2=CHI4)
    assert cfg.level == 12


def test_config_names_a_non_integer_modulus():
    """q is checked as an integer before any arithmetic, and the error names it."""
    for q in (3.0, "3", None):
        with pytest.raises(TypeError, match=rf"^q must be an integer, got {re.escape(repr(q))}$"):
            AmplifierConfig(q=q, L=100.0, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI5)
    cfg = AmplifierConfig(q=np.int64(3), L=100.0, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI5)
    assert cfg.level == 5


def test_config_names_a_mistyped_field():
    """chi1 and chi2 must be characters and L, r1 and r2 real numbers; each
    is checked before any arithmetic, and the error names the field."""
    base = {"q": 1, "L": 100.0, "r1": 1.0, "r2": 1.0, "chi1": CHI1, "chi2": CHI5}
    for name, bad in (("chi1", 3), ("chi2", None), ("chi1", "3:1")):
        with pytest.raises(TypeError, match=rf"^{name} must be a DirichletCharacter, got {re.escape(repr(bad))}$"):
            AmplifierConfig(**{**base, name: bad})
    for name, bad in (("L", "x"), ("r1", None), ("r2", 1j), ("L", [100.0])):
        with pytest.raises(TypeError, match=rf"^{name} must be a real number, got {re.escape(repr(bad))}$"):
            AmplifierConfig(**{**base, name: bad})
    cfg = AmplifierConfig(**{**base, "L": np.float64(100.0), "r1": np.int64(2), "r2": 0})
    assert cfg.level == 5


def test_eta_recurrence_at_prime_powers():
    """lambda(p^{k+1}) = lambda(p) lambda(p^k) - chi1 chi2(p) lambda(p^{k-1}).

    Off the unitary axis the values grow like p^{k sigma}, so the defect is
    measured relative to the size of the terms.
    """
    for chi1, chi2, s in ((CHI1, CHI1, 4j), (CHI3, CHI4, 0.7 + 2j), (CHI5, CHI5, -0.4 + 9j)):
        for p in (2, 3, 5, 7, 11, 97, 997):
            central = chi1.evaluate(p) * chi2.evaluate(p)
            for k in range(1, 6):
                lhs = generalized_divisor_sum(chi1, chi2, s, p ** (k + 1))
                rhs = (generalized_divisor_sum(chi1, chi2, s, p)
                       * generalized_divisor_sum(chi1, chi2, s, p ** k)
                       - central * generalized_divisor_sum(chi1, chi2, s, p ** (k - 1)))
                assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-12


def test_b_xi_rejects_ramified_primes():
    cfg = AmplifierConfig(q=5, L=100.0, r1=2.0, r2=3.0, chi1=CHI3, chi2=CHI4)
    xi = list(character_group(5))[1]
    for p in (2, 3, 5):
        with pytest.raises(ValueError):
            b_xi(p, xi, cfg)


def test_b_xi_and_factorization_check_reject_non_primes():
    cfg = AmplifierConfig(q=3, L=100.0, r1=2.0, r2=3.0, chi1=CHI1, chi2=CHI5)
    xi = build_character(3, 1)
    for p in (0, -7, 1, 4, 49, 7.0):
        for fn in (b_xi, factorization_check):
            with pytest.raises(ValueError, match=rf"^p = {re.escape(repr(p))} must be a prime"):
                fn(p, xi, cfg)


def test_b_xi_refuses_primes_past_the_window_ceiling():
    """No window [L, 2L] reaches past 2 _L_MAX = 2e9, so a larger p is refused
    before its trial division (minutes at 2^61 - 1); the largest prime below
    the ceiling is still checked."""
    cfg = AmplifierConfig(q=3, L=100.0, r1=2.0, r2=3.0, chi1=CHI1, chi2=CHI5)
    xi = build_character(3, 1)
    for fn in (b_xi, factorization_check):
        with pytest.raises(ValueError, match=rf"^p = {2 ** 61 - 1} above the amplifier's "
                                             r"prime ceiling 2e\+09$"):
            fn(2 ** 61 - 1, xi, cfg)
    assert factorization_check(1999999973, xi, cfg) < 1e-10


def test_prime_index_and_prime_test_match_the_oracle():
    """The amplifier's prime verdicts agree with the oracle's trial division,
    _prime_powers(n) == [(n, 1)], at every n in [-3, 10^4], at 44651 * 44657
    and at the prime 1999999973: the prime index holds exactly the primes up
    to 4096, in order, each at its slot, with math.log of each byte for
    byte, and the scalar path's test, _factorize(n) == ((n, 1),), every n;
    and b_xi refuses as not prime exactly the n that are not.  2^31 - 1, a
    prime, lies past the prime ceiling 2e9 and is refused before any prime
    test."""
    from eisenkit.characters import _factorize

    ns = list(range(-3, 10 ** 4 + 1)) + [44651 * 44657, 1999999973]
    primes = [_prime_powers(n) == [(n, 1)] for n in ns]
    assert [_factorize(n) == ((n, 1),) for n in ns] == primes
    want = [n for n, prime in zip(ns[3:4100], primes[3:4100]) if prime]      # n = 0..4096
    index, logs, slot = amplifier._prime_index()
    assert index.tolist() == list(slot) == want
    assert list(slot.values()) == list(range(len(want)))
    assert logs.tobytes() == np.array([math.log(n) for n in want]).tobytes()

    cfg = AmplifierConfig(q=3, L=100.0, r1=2.0, r2=3.0, chi1=CHI1, chi2=CHI5)
    xi = build_character(3, 1)

    def refused(n: int) -> bool:
        try:
            b_xi(n, xi, cfg)
        except ValueError as exc:
            return str(exc) == f"p = {n} must be a prime"
        return False

    assert [refused(n) for n in ns] == [not prime for prime in primes]
    with pytest.raises(ValueError, match=r"^p = 2147483647 above the amplifier's prime ceiling 2e\+09$"):
        b_xi(2 ** 31 - 1, xi, cfg)


def test_prime_lambda_matches_the_divisor_sum_bit_for_bit():
    """The two-term lambda(p) of b_xi equals generalized_divisor_sum at every
    prime below 1500, by == and by repr, so no signed zero slips through:
    300 seeded pairs mod 1, 3, 4, 5, 8 and 12 at s = +-(+-0.0 + i r), r drawn
    from [-30, 30] or +-0.0, so each pair takes one of the 12 sign cases;
    then heights with a real part, and a twist mod 49143, past the 2^14
    ceiling, whose values come from its phases."""
    rng = random.Random(2601)
    groups = [list(character_group(q)) for q in (1, 3, 4, 5, 8, 12)]
    signs = list(itertools.product((1, -1), (0.0, -0.0), ("r", 0.0, -0.0)))
    cases = []
    for k in range(300):
        sign, re_s, im_s = signs[k % len(signs)]
        s = complex(re_s, rng.uniform(-30.0, 30.0) if im_s == "r" else im_s)
        cases.append((rng.choice(rng.choice(groups)), rng.choice(rng.choice(groups)),
                      s if sign == 1 else -s))
    cases += [(CHI3, CHI4, 0.5 + 7.1j), (CHI5, CHI1, -1.5 - 3.3j)]
    primes = sieve_interval(2, 1499).tolist()
    calls = [(chi1, chi2, s, p) for chi1, chi2, s in cases for p in primes]
    wide = multiply(build_character(16381, 5), conjugate(CHI3))
    assert wide.modulus == 49143
    calls += [(chi1, chi2, s, p) for p in (2, 5, 1499) for s in (12.5j, complex(-0.0, -12.5))
              for chi1, chi2 in ((wide, CHI4), (CHI5, wide))]
    got = [amplifier._prime_lambda(chi1, chi2, s, p, math.log(p)) for chi1, chi2, s, p in calls]
    want = [generalized_divisor_sum(*call) for call in calls]
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))


def test_one_exponential_per_conjugate_phase_pair():
    """exp(-z) == conj(exp(z)) byte for byte at z = (+-0.0, y), for cmath and
    numpy, |y| up to 2.2e4 (1e3 log 2e9, the largest twist phase) and y = +-0.0;
    so b_xi and factorization_check equal their forms with every phase
    exponentiated, by == and repr: q in {3, 4, 5, 8}, every xi mod q, twist
    pairs with r = +-0.0 among them, at the unramified primes below 200."""
    rng = random.Random(2702)
    ys = [rng.uniform(-2.2e4, 2.2e4) for _ in range(400)]
    ys += [rng.uniform(-4.0, 4.0) for _ in range(100)]
    ys += [0.0, -0.0, 5e-324, math.pi, -math.pi / 2, 2.2e4, -2.2e4]
    zs = [complex(x, y) for y in ys for x in (0.0, -0.0)]
    assert [repr(cmath.exp(-z)) for z in zs] == [repr(cmath.exp(z).conjugate()) for z in zs]
    arr = np.array(zs)
    assert np.exp(-arr).tobytes() == np.conj(np.exp(arr)).tobytes()

    pairs = [(0.0, -0.0), (-0.0, 0.0), (0.0, 7.25), (-13.5, -0.0)]
    pairs += [(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)) for _ in range(2)]
    primes = sieve_interval(2, 199).tolist()
    for q, chi1, chi2 in ((3, CHI5, CHI4), (4, CHI3, CHI5), (5, CHI3, CHI4), (8, CHI3, CHI5)):
        for r1, r2 in pairs:
            cfg = AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)
            calls = [(p, xi, cfg) for xi in character_group(q) for p in primes
                     if (q * cfg.level) % p]
            for fn, oracle in ((b_xi, two_exponential_b_xi),
                               (factorization_check, two_exponential_factorization_check)):
                got = [fn(*call) for call in calls]
                want = [oracle(*call) for call in calls]
                assert got == want
                assert list(map(repr, got)) == list(map(repr, want))


def test_xi_must_be_a_character_mod_q():
    """xi is checked when its prime context is built: a value that is not a
    character raises TypeError naming xi, and a character of another modulus
    ValueError naming xi and q (chi(7:1) at q = 3 gave a defect of 2.5e-16)."""
    cfg = AmplifierConfig(q=3, L=100.0, r1=2.0, r2=3.0, chi1=CHI1, chi2=CHI5)
    for fn in (b_xi, factorization_check):
        for bad in (None, 3, "3:1", [1]):
            with pytest.raises(TypeError, match=f"^xi must be a DirichletCharacter, got {re.escape(repr(bad))}$"):
                fn(11, bad, cfg)
        for xi in (build_character(7, 1), CHI1, build_character(9, 1)):
            with pytest.raises(ValueError, match=rf"^xi must be a character mod q = 3, got {re.escape(repr(xi))}$"):
                fn(11, xi, cfg)
    assert cfg._contexts == {}
    assert factorization_check(11, CHI3, cfg) < 1e-12
    assert list(cfg._contexts) == [CHI3]


def test_factorization_bits_do_not_depend_on_the_context_cache():
    """b_xi and factorization_check give the two-exponential oracles' bits
    (== and repr) whichever contexts and prime tables were built before, at
    every prime up to the prime table's ceiling 4096 and the first ten past
    it: q in {3, 4, 5, 8}, every xi mod q, four twist pairs with signed
    zeros among them.  The primes are asked ascending on one config reused
    across every xi, descending with xi in reverse order on one config, past
    the ceiling first on a fresh config per xi, and on a fresh equal config
    per call (every 50th prime and those from 4050 on)."""
    primes = sieve_interval(2, 4177).tolist()
    assert [p for p in primes if p > 4096] == [4099, 4111, 4127, 4129, 4133, 4139, 4153, 4157, 4159, 4177]
    for q, chi1, chi2 in ((3, CHI5, CHI4), (4, CHI3, CHI5), (5, CHI3, CHI4), (8, CHI3, CHI5)):
        for r1, r2 in ((-27.5, 13.25), (8.0, -0.0), (-0.0, 3.0), (-5.0, 5.0)):
            def config():
                return AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)

            shared, backwards = config(), config()
            unramified = [p for p in primes if (q * shared.level) % p]
            past_first = [p for p in unramified if p > 4096] + [p for p in unramified if p <= 4096]
            sample = unramified[::50] + [p for p in unramified if p >= 4050]
            xis = list(character_group(q))
            for fn, oracle in ((b_xi, two_exponential_b_xi),
                               (factorization_check, two_exponential_factorization_check)):
                want = {(p, xi): oracle(p, xi, shared) for xi in xis for p in unramified}
                runs = [{(p, xi): fn(p, xi, shared) for xi in xis for p in unramified},
                        {(p, xi): fn(p, xi, backwards) for xi in xis[::-1] for p in unramified[::-1]},
                        {(p, xi): fn(p, xi, cfg) for xi in xis for cfg in [config()] for p in past_first},
                        {(p, xi): fn(p, xi, config()) for xi in xis for p in sample}]
                for got in runs:
                    assert [got[call] for call in got] == [want[call] for call in got]
                    assert [repr(got[call]) for call in got] == [repr(want[call]) for call in got]


def test_prime_table_is_built_once_per_context_and_never_past_the_ceiling(monkeypatch):
    """The kernel runs once per (xi, config), with its context, whatever p
    the first call asks for: calls past the ceiling alone, refused ones
    included, build the whole table, and later calls at any p build no
    other.  The table serves exactly the primes up to 4096 prime to q and
    the level, none past the ceiling."""
    calls = []
    kernel = amplifier._prime_kernel

    def counted(ctx, p, logp):
        calls.append(ctx.xi)
        return kernel(ctx, p, logp)

    monkeypatch.setattr(amplifier, "_prime_kernel", counted)
    cfg = AmplifierConfig(q=5, L=100.0, r1=2.0, r2=-3.0, chi1=CHI3, chi2=CHI4)
    xi, other = list(character_group(5))[1:3]
    primes = sieve_interval(2, 4096).tolist()
    for fn in (b_xi, factorization_check):
        for p in (4099, 9973, 1999999973, np.int64(4099)):
            fn(p, xi, cfg)
        for p in (4097, 2 ** 61 - 1, 4.0, np.int64(4)):
            with pytest.raises(ValueError):
                fn(p, xi, cfg)
    assert calls == [xi]
    assert _served(cfg._contexts[xi]) == [[p for p in primes if p not in (2, 3, 5)]] * 2
    for p in primes[::-1]:
        if p not in (2, 3, 5):
            b_xi(p, xi, cfg)
            factorization_check(p, xi, cfg)
    factorization_check(7, other, cfg)
    b_xi(4099, other, cfg)
    assert calls == [xi, other]


def test_prime_table_with_q_times_the_level_past_int64():
    """chi1 mod 3 * 43 * 127 * 16381 and chi2 mod 16361 * 16369 at q = 131:
    q times the level, 9.4e18, passes int64, and the table still serves
    exactly the primes up to 4096 prime to it, with the oracles' bits; the
    primes up to 4096 that divide it are still refused."""
    chi1 = multiply(build_character(16381, 1), build_character(16383, 5))
    chi2 = multiply(build_character(16369, 3), build_character(16361, 2))
    cfg = AmplifierConfig(q=131, L=100.0, r1=2.0, r2=-3.5, chi1=chi1, chi2=chi2)
    assert cfg.q * cfg.level > 2 ** 63
    xi = list(character_group(131))[7]
    primes = [p for p in sieve_interval(2, 4177).tolist() if (cfg.q * cfg.level) % p]
    for fn, oracle in ((b_xi, two_exponential_b_xi),
                       (factorization_check, two_exponential_factorization_check)):
        got = [fn(p, xi, cfg) for p in primes]
        want = [oracle(p, xi, cfg) for p in primes]
        assert list(map(repr, got)) == list(map(repr, want))
    assert _served(cfg._contexts[xi]) == [[p for p in primes if p <= 4096]] * 2
    ramified = [p for p in sieve_interval(2, 4096).tolist() if (cfg.q * cfg.level) % p == 0]
    assert ramified == [3, 43, 127, 131]
    for fn in (b_xi, factorization_check):
        for p in ramified:
            with pytest.raises(ValueError, match=f"^p = {p} must avoid the progression modulus and the level$"):
                fn(p, xi, cfg)


def test_prime_index_is_built_once_per_process(monkeypatch):
    """Two configs, two xi each, b_xi and factorization_check: the prime
    index is built by the first context, from one sieve_interval(2, 4096)
    call (with its base-prime recursion, up to sqrt(4096)), and every later
    context reads it and keeps its dict; the kernel runs once per context."""
    sieve_calls, kernels = [], []
    sieve, kernel = amplifier.sieve_interval, amplifier._prime_kernel
    amplifier._prime_index.cache_clear()
    monkeypatch.setattr(amplifier, "sieve_interval", lambda lo, hi: sieve_calls.append((lo, hi)) or sieve(lo, hi))
    monkeypatch.setattr(amplifier, "_prime_kernel",
                        lambda ctx, *args: kernels.append(ctx) or kernel(ctx, *args))
    configs = [AmplifierConfig(q=5, L=100.0, r1=2.0, r2=-3.0, chi1=CHI3, chi2=CHI4),
               AmplifierConfig(q=3, L=100.0, r1=-1.5, r2=4.0, chi1=CHI1, chi2=CHI5)]
    for cfg in configs:
        for xi in list(character_group(cfg.q))[:2]:
            for fn in (b_xi, factorization_check):
                for p in (7, 11, 4093):
                    fn(p, xi, cfg)
    assert sieve_calls == [(2, 4096), (3, 64), (3, 8), (3, 2)]
    assert amplifier._prime_index.cache_info().misses == 1
    assert kernels == [ctx for cfg in configs for ctx in cfg._contexts.values()] and len(kernels) == 4
    assert all(ctx.slot is amplifier._prime_index()[2] for ctx in kernels)


def test_importing_the_amplifier_builds_no_prime_index():
    """A fresh import of the amplifier neither builds the prime index nor
    grows eisenstein's sieve table, its four arrays (spf, exp, rest, logs),
    past their first entries, n <= 3.  The prime index sieves its own
    primes: in that process one prime context and b_xi(7, ...) leave the
    table there, and in another, lambda to n = 2000 grows it to the block
    top 2048, where one prime context after it leaves it, at 2,049 entries."""
    src = Path(amplifier.__file__).resolve().parent.parent
    prelude = ("import sys; sys.path.insert(0, sys.argv[1]); from eisenkit import amplifier, eisenstein; "
               "from eisenkit.characters import build_character as c; "
               "cfg = amplifier.AmplifierConfig(q=3, L=100.0, r1=2.0, r2=3.0, chi1=c(1, 0), chi2=c(5, 1)); "
               "state = lambda: print(amplifier._prime_index.cache_info().currsize, "
               "*map(len, eisenstein._sieve_slot[0])); ")
    runs = {"state(); amplifier.b_xi(7, c(3, 1), cfg); state()": ["0"] + ["4"] * 4 + ["1"] + ["4"] * 4,
            "eisenstein.generalized_divisor_sum(c(3, 1), c(4, 1), 2.5j, 2000); state(); "
            "amplifier.b_xi(7, c(3, 1), cfg); state()": ["0"] + ["2049"] * 4 + ["1"] + ["2049"] * 4}
    for code, want in runs.items():
        out = subprocess.run([sys.executable, "-c", prelude + code, str(src)], capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == want, code


def test_the_twists_of_one_xi_are_built_once_across_configs(monkeypatch):
    """The factorization sweep of the benchmark, a fresh config per (q, xi,
    pair) over four q with three pairs each, builds each xi's twists once:
    12 builds, not one per config (36)."""
    builds = []
    conj = amplifier.conjugate
    monkeypatch.setattr(amplifier, "_last_twists", weakref.WeakKeyDictionary())
    monkeypatch.setattr(amplifier, "conjugate", lambda chi: builds.append(chi) or conj(chi))
    sweep = {3: (CHI5, build_character(5, 3)), 4: (CHI5, build_character(5, 3)),
             5: (CHI3, CHI4), 8: (CHI3, CHI5)}
    configs = 0
    for q, (chi1, chi2) in sweep.items():
        for xi in character_group(q):
            for r1, r2 in ((-27.5, 13.25), (8.0, 8.0), (3.0, -0.5)):
                cfg = AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)
                factorization_check(7, xi, cfg)
                configs += 1
    assert configs == 36 and len(builds) == 2 * 12     # two conjugates per build


def test_a_dropped_xi_dies_with_its_config():
    """xi mod 16381 and its twists, mod up to 16381 * 12, die with their
    config once both are dropped: the twist memo keeps neither alive, also
    when a twist is xi itself (chi1 mod 1)."""
    refs = []
    for index, (chi1, chi2) in enumerate(((CHI3, CHI4), (CHI1, CHI5)), start=9100):
        xi = build_character(16381, index)
        cfg = AmplifierConfig(q=16381, L=100.0, r1=2.0, r2=-3.0, chi1=chi1, chi2=chi2)
        b_xi(7, xi, cfg)
        refs += [weakref.ref(chi) for chi in (xi, *amplifier._twists(xi, chi1, chi2))]
        del xi, cfg
    gc.collect()
    assert [ref() for ref in refs] == [None] * 10


def test_prime_table_leaves_the_errors_unchanged():
    """Each refusal keeps its message, from a fresh config, whose first call
    builds the context and its prime table, and from one whose context is
    built: non-primes (0, 1, 4, 4096,
    -7, True, 2.0, 3e9, np.int64(4)), ramified primes, and primes past 2e9; an
    np.int64 prime gives the bits of the int."""
    def config():
        return AmplifierConfig(q=5, L=100.0, r1=2.0, r2=-3.0, chi1=CHI3, chi2=CHI4)

    xi = list(character_group(5))[1]
    refusals = [(p, f"p = {p!r} must be a prime") for p in (0, 1, 4, 4096, -7, True, 2.0, 3e9, np.int64(4))]
    refusals += [(p, f"p = {p} must avoid the progression modulus and the level")
                 for p in (2, 3, 5, np.int64(3))]
    refusals += [(p, f"p = {p} above the amplifier's prime ceiling 2e+09")
                 for p in (2000000011, 2 ** 61 - 1)]
    warm = config()
    b_xi(7, xi, warm)
    assert list(warm._contexts) == [xi]
    for fn in (b_xi, factorization_check):
        for p, message in refusals:
            for cfg in (config(), warm):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fn(p, xi, cfg)
        for p in (7, 4093, 4099):
            assert repr(fn(np.int64(p), xi, config())) == repr(fn(p, xi, warm))


def test_numpy_integer_primes_read_the_prime_table(monkeypatch):
    """np.int64 and np.int32 primes p <= 4096, as iterating sieve_interval
    yields them, give the int's value byte for byte from the prime table,
    never the scalar path: the first call builds the context and its table,
    and no later call, at an int or a numpy integer, builds a second."""
    calls = []
    kernel = amplifier._prime_kernel

    def counted(ctx, p, logp):
        calls.append(ctx)
        return kernel(ctx, p, logp)

    def config():
        return AmplifierConfig(q=5, L=100.0, r1=2.0, r2=-3.0, chi1=CHI3, chi2=CHI4)

    xi = list(character_group(5))[1]
    primes = [p for p in sieve_interval(2, 4096).tolist() if p not in (2, 3, 5)]
    for fn in (b_xi, factorization_check):
        plain = config()
        want = [repr(fn(p, xi, plain)) for p in primes]
        monkeypatch.setattr(amplifier, "_prime_kernel", counted)
        monkeypatch.setattr(amplifier, "_b_xi_at", None)     # the scalar path is not taken
        for dtype in (np.int64, np.int32):
            cfg = config()
            assert [repr(fn(p, xi, cfg)) for p in map(dtype, primes)] == want
            ctx = cfg._contexts[xi]
            b, defect = ctx.b, ctx.defect
            assert [repr(fn(p, xi, cfg)) for p in primes[::-1]] == want[::-1]
            assert cfg._contexts[xi] is ctx and ctx.b is b and ctx.defect is defect and calls == [ctx]
            calls.clear()
        monkeypatch.undo()


_NOT_CHARACTERS_MOD_Q = [None, 3, "3:1", [1], CHI1, build_character(7, 1)]
_FACTORS = {3: (CHI5, CHI4), 4: (CHI3, CHI5), 5: (CHI3, CHI4), 8: (CHI3, CHI5)}


def _expected_refusal(p, xi, cfg) -> tuple[type, str] | None:
    """The error and message b_xi and factorization_check document for
    (p, xi, cfg), by the oracle's trial division, or None for a value."""
    if not isinstance(xi, DirichletCharacter):
        return TypeError, f"xi must be a DirichletCharacter, got {xi!r}"
    if xi.modulus != cfg.q:
        return ValueError, f"xi must be a character mod q = {cfg.q}, got {xi!r}"
    n = 0 if isinstance(p, (bool, float)) else int(p)
    if n > 2 * 10 ** 9:
        return ValueError, f"p = {p} above the amplifier's prime ceiling 2e+09"
    if _prime_powers(n) != [(n, 1)]:
        return ValueError, f"p = {p!r} must be a prime"
    if (cfg.q * cfg.level) % n == 0:
        return ValueError, f"p = {p} must avoid the progression modulus and the level"
    return None


# primes, so that values and ramified refusals are drawn, not only non-primes
_PRIMES = st.sampled_from(sieve_interval(2, 5000).tolist() + sieve_interval(2 * 10 ** 9 - 200, 2 * 10 ** 9).tolist())


@pytest.mark.parametrize("fn", [b_xi, factorization_check])
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(sorted(_FACTORS)).flatmap(lambda q: st.tuples(st.just(q), st.one_of(
           # a character mod q twice as often as a value that is none
           st.sampled_from(list(character_group(q))), st.sampled_from(list(character_group(q))),
           st.sampled_from(_NOT_CHARACTERS_MOD_Q)))),
       p=st.one_of(_PRIMES, st.integers(-10, 5000), st.integers(2 * 10 ** 9 - 200, 2 * 10 ** 9 + 200),
                   (_PRIMES | st.integers(-10, 5000)).map(np.int64), _PRIMES.map(np.int32),
                   st.floats(), _PRIMES.map(float), st.booleans()),
       r1=st.one_of(st.floats(-30.0, 30.0), st.sampled_from([0.0, -0.0])),
       r2=st.one_of(st.floats(-30.0, 30.0), st.sampled_from([0.0, -0.0])))
def test_prime_coefficients_give_a_finite_value_or_a_documented_refusal(fn, case, p, r1, r2):
    """b_xi and factorization_check over p from ints in [-10, 5000] and near
    the ceiling 2e9, numpy integers, floats and bools, xi from each group mod
    q in {3, 4, 5, 8} and values that are no character mod q, and twists in
    [-30, 30] with signed zeros: a finite value (a defect below 1e-10) or the
    documented error, message and all, that the oracle predicts."""
    q, xi = case
    cfg = AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=_FACTORS[q][0], chi2=_FACTORS[q][1])
    refusal = _expected_refusal(p, xi, cfg)
    if refusal is None:
        value = fn(p, xi, cfg)
        assert cmath.isfinite(value)
        assert fn is b_xi or value < 1e-10
    else:
        with pytest.raises(refusal[0], match=f"^{re.escape(refusal[1])}$"):
            fn(p, xi, cfg)


def test_b_xi_principal_diagonal_is_a_square():
    """With xi principal and r1 = r2, b_xi(p) = log(p) |eta(p)|^2."""
    cfg = AmplifierConfig(q=1, L=100.0, r1=13.0, r2=13.0, chi1=CHI3, chi2=CHI4)
    xi = build_character(1, 0)
    for p in (7, 11, 101):
        val = b_xi(p, xi, cfg)
        expect = math.log(p) * abs(generalized_divisor_sum(CHI3, CHI4, 13j, p)) ** 2
        assert abs(val.imag) < 1e-12
        assert abs(val.real - expect) < 1e-12 * max(1.0, expect)


def test_factorization_identity_spot_checks():
    cfg = AmplifierConfig(q=5, L=100.0, r1=-7.3, r2=18.1, chi1=CHI3, chi2=CHI4)
    for xi in character_group(5):
        for p in (7, 11, 13, 9973):
            assert factorization_check(p, xi, cfg) < 1e-12


def test_factorization_identity_with_twists_past_the_modulus_ceiling(monkeypatch):
    """xi mod 16381 twists chi1 mod 3 and chi2 mod 4 into characters mod 49143,
    65524 and 196572, past the 2^14 ceiling on value tables: their values
    come from their phases, and no table is built for them."""
    from eisenkit import characters

    xi = build_character(16381, 5)
    for chi in (CHI3, CHI4, xi):
        chi.evaluate(1)      # the factors' own tables, below the ceiling

    def forbidden(*args):
        raise AssertionError("a value table was built")

    monkeypatch.setattr(characters, "_value_rows", forbidden)
    cfg = AmplifierConfig(q=16381, L=100.0, r1=1.0, r2=1.0, chi1=CHI3, chi2=CHI4)
    for p in (5, 7, 11):
        assert factorization_check(p, xi, cfg) < 1e-10
        assert math.isfinite(abs(b_xi(p, xi, cfg)))


def test_twists_stay_in_the_l_value_window():
    """|r1|, |r2| <= 1e3, where the factorization holds to 1e-10 at the primes
    of [1e3, 1500] (2.3e-11; the defect grows with |r| log p, and passes
    1e-10 near |r| = 1e4); past it the config is refused, as amp --r 1e308
    is (it printed ratio NaN)."""
    primes = sieve_interval(1000, 1500).tolist()
    for r in (1e3, -1e3):
        cfg = AmplifierConfig(q=5, L=1e3, r1=r, r2=r / 3, chi1=CHI3, chi2=CHI4)
        assert max(factorization_check(p, xi, cfg)
                   for xi in character_group(5) for p in primes) < 1e-10
    for r1, r2 in ((1000.5, 0.0), (0.0, -1e4), (1e308, 1e308)):
        with pytest.raises(ValueError, match=r"outside \[-1000, 1000\]"):
            AmplifierConfig(q=5, L=1e3, r1=r1, r2=r2, chi1=CHI3, chi2=CHI4)


def test_factorization_is_symmetric_in_the_height_swap():
    """Swapping (r1, r2) conjugates the spectral data, not the identity."""
    xi = list(character_group(8))[2]
    cfg = AmplifierConfig(q=8, L=100.0, r1=4.2, r2=-9.9, chi1=CHI3, chi2=CHI5)
    swapped = AmplifierConfig(q=8, L=100.0, r1=-9.9, r2=4.2, chi1=CHI3, chi2=CHI5)
    for p in (7, 11, 23):
        assert factorization_check(p, xi, cfg) < 1e-12
        assert factorization_check(p, xi, swapped) < 1e-12


def test_sieve_interval_matches_a_plain_sieve():
    """Windows against a plain sieve of every integer.  A segment of the odd-only
    layout covers 2 * _SEGMENT integers from the first odd number >= max(lo, 3),
    so each wide window spans two segments, from odd and even lo; one ends on
    the first number of its second segment.  The base primes up to sqrt(hi)
    come from sieve_interval itself, so every small window, lo in [-3, 12]
    and hi in [-3, 120], runs that recursion down to its empty base case."""
    span = 2 * _SEGMENT
    windows = [(10 ** 6, 10 ** 6 + 10 ** 4),
               (0, span + 999), (1, 60), (2, 60), (3, span + 3),
               (span, 2 * span + 12345), (span + 1, 2 * span + 12345),
               (2, 2), (3, 3), (97, 97), (1000003, 1000003), (span + 17, span + 17)]
    windows += [(lo, hi) for lo in range(-3, 13) for hi in range(-3, 121)]
    hi_max = max(hi for _, hi in windows)
    sieve = bytearray([1]) * (hi_max + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi_max) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    assert sieve[span + 17] and sieve[1000003]
    for lo, hi in windows:
        start = max(lo, 0)
        plain = list(itertools.compress(range(start, hi + 1), sieve[start : hi + 1]))
        assert list(sieve_interval(lo, hi)) == plain, (lo, hi)


def test_sieve_interval_edges():
    assert list(sieve_interval(2, 2)) == [2]
    assert list(sieve_interval(0, 1)) == []
    assert list(sieve_interval(14, 16)) == []
    assert list(sieve_interval(100, 10)) == []
    assert list(sieve_interval(np.int64(10), np.int64(20))) == [11, 13, 17, 19]
    for args, message in (((10.0, 20.0), "lo must be an integer, got 10.0"),
                          ((10, 20.0), "hi must be an integer, got 20.0")):
        with pytest.raises(TypeError, match=f"^{message}$"):
            sieve_interval(*args)
    with pytest.raises(ValueError, match="above the sieve ceiling 2e\\+09"):
        sieve_interval(0, 10 ** 13)


def test_amplifier_sum_against_double_loop():
    """Three configs at L = 2000, and one at L = 100 whose chi1, mod 49143,
    lies past the 2^14 ceiling on value tables (b_xi served it, and the sum
    refused it as a modulus past 16384)."""
    wide = multiply(build_character(16381, 5), CHI3)
    assert wide.modulus == 49143
    for L, q, chi1, chi2 in ((2000.0, 1, CHI3, CHI4), (2000.0, 3, CHI1, CHI1), (2000.0, 4, CHI5, CHI5),
                             (100.0, 7, wide, CHI4)):
        cfg = AmplifierConfig(q=q, L=L, r1=3.0, r2=-5.0, chi1=chi1, chi2=chi2)
        fast = amplifier_sum(cfg)
        slow = naive_amplifier_sum(cfg)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_sieve_layout_does_not_set_the_bits(monkeypatch):
    """Reduction blocks are spans of _SPAN integers counted from ceil(L), so
    four sieve windows over [1e6, 2e6] give the default sum's bits; blocks of
    64 and 1024 integers, many per window, agree with the double loop."""
    cfg = AmplifierConfig(q=3, L=1e6, r1=17.25, r2=17.25, chi1=CHI1, chi2=CHI1)
    default = amplifier_sum(cfg)
    monkeypatch.setattr(amplifier, "_SEGMENT", 2 * _SPAN)
    assert amplifier_sum(cfg) == default
    monkeypatch.undo()
    for L, (q, chi1, chi2) in itertools.product((2000.0, 5000.0),
                                                ((1, CHI3, CHI4), (3, CHI1, CHI1))):
        cfg = AmplifierConfig(q=q, L=L, r1=3.0, r2=-5.0, chi1=chi1, chi2=chi2)
        slow = naive_amplifier_sum(cfg)
        for span in (64, 1024):
            monkeypatch.setattr(amplifier, "_SPAN", span)
            assert abs(amplifier_sum(cfg) - slow) <= 1e-12 * max(1.0, abs(slow)), (L, q, span)


def test_amplifier_sum_bits_do_not_depend_on_the_window_cache():
    """Sums at L = 1e6 for q in {1, 3, 4} give the same bits (repr) from a
    cleared window cache, warm, and after sums at L = 1e4, 1e5 and 3e6 have
    pushed the 1e6 window out of it.  The cached window is read-only;
    sieve_interval still returns a fresh, writable array, and writing to it
    leaves the next sum unchanged."""
    def sums(L):
        return [amplifier_sum(AmplifierConfig(q=q, L=L, r1=r, r2=r, chi1=CHI1, chi2=CHI1))
                for q, r in ((1, 12.5), (3, 17.25), (4, 23.0))]

    amplifier._window_primes.cache_clear()
    cold = sums(1e6)
    assert amplifier._window_primes.cache_info().misses == 1
    warm = sums(1e6)
    for L in (1e4, 1e5, 3e6):    # four windows: 3e6's [L, 2L] takes two
        sums(L)
    misses = amplifier._window_primes.cache_info().misses
    cycled = sums(1e6)
    assert amplifier._window_primes.cache_info().misses == misses + 1
    assert list(map(repr, cold)) == list(map(repr, warm)) == list(map(repr, cycled))

    window = amplifier._window_primes(10 ** 6, 2 * 10 ** 6)
    assert not window.flags.writeable
    with pytest.raises(ValueError):
        window[0] = 7
    primes = sieve_interval(10 ** 6, 2 * 10 ** 6)
    assert primes.flags.writeable and not np.shares_memory(primes, window)
    primes[:] = 1000003
    assert list(map(repr, sums(1e6))) == list(map(repr, cold))


def test_amplifier_sum_works_in_bounded_memory():
    """One sum at L = 1e6 holds one block's temporaries at a time, not a sieve
    window's: its traced peak is about 1.3 MB, where arrays over all of the
    window's 70,000 primes peak at 8.6 MB."""
    cfg = AmplifierConfig(q=1, L=1e6, r1=12.5, r2=12.5, chi1=CHI1, chi2=CHI1)
    amplifier_sum(AmplifierConfig(q=1, L=100.0, r1=1.0, r2=1.0, chi1=CHI1, chi2=CHI1))
    tracemalloc.start()
    try:
        amplifier_sum(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


def test_diagonal_sum_is_nonnegative():
    for q in (1, 3):
        cfg = AmplifierConfig(q=q, L=10 ** 4, r1=20.0, r2=20.0, chi1=CHI1, chi2=CHI1)
        val = amplifier_sum(cfg)
        assert val.real >= 0.0
        assert abs(val.imag) <= 1e-9 * max(1.0, val.real)


def test_principal_zero_height_reduces_to_a_prime_count():
    """At r = 0 with trivial characters every eta(p) is 2, so the sum is
    four times the weighted log-prime count; the ratio normalization then
    tends to two, not one, on this boundary configuration."""
    cfg = AmplifierConfig(q=1, L=10 ** 5, r1=0.0, r2=0.0, chi1=CHI1, chi2=CHI1)
    val = amplifier_sum(cfg)
    ref = 4.0 * weighted_prime_log_sum(1, cfg.L, cfg.weight)
    assert abs(val.real - ref) <= 1e-12 * ref
    row = asymptotic_report([cfg])[0]
    assert abs(row.ratio - 2.0) < 0.05


def test_progression_ratios_equidistribute():
    """ratio(q) stays near ratio(1): the phi(q) normalization absorbs the
    thinning of the progression."""
    rows = {}
    for q in (1, 3, 4):
        cfg = AmplifierConfig(q=q, L=10 ** 5, r1=20.0, r2=20.0, chi1=CHI1, chi2=CHI1)
        rows[q] = asymptotic_report([cfg])[0].ratio
    for q in (3, 4):
        assert abs(rows[q] - rows[1]) < 0.05


def test_asymptotic_report_rows_carry_their_inputs():
    cfgs = [AmplifierConfig(q=1, L=float(L), r1=20.0, r2=20.0, chi1=CHI1, chi2=CHI1)
            for L in (10 ** 4, 10 ** 5)]
    rows = asymptotic_report(cfgs)
    assert [row.L for row in rows] == [10 ** 4, 10 ** 5]
    for row in rows:
        assert row.ratio == pytest.approx(
            row.amplifier_value.real / (2 * cfgs[0].weight.mellin_at_one * row.L), rel=1e-12)
