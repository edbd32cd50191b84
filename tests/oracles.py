"""Independent reference implementations used only by the test suite.

Everything here recomputes a quantity the package produces, by a different
route: integral representations and mpmath's besselk (which the package
does not call) instead of its contour quadrature, brute divisor loops
instead of sieves, series acceleration instead of Hurwitz values, and
character phases by walking generator powers instead of discrete-log arrays.
Keeping them quarantined in the test tree means the library can never
quietly start testing itself against itself.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np

import eisenkit.special_functions as sf
from eisenkit.characters import (
    DirichletCharacter,
    character_group,
    conjugate,
    local_component,
    local_epsilon,
    multiply,
)


# ------------------------------------------------------------------
# K-Bessel via the cosh integral
# ------------------------------------------------------------------

def bessel_quadrature(t: float, x: float, dps: int | None = None) -> float:
    """K_{it}(x) = integral over u >= 0 of exp(-x cosh u) cos(t u).

    Gauss-Legendre quadrature on subintervals aligned with the zeros of the
    cosine, so the oscillation never defeats the quadrature rule.  The
    exponential is rescaled by e^{x} before integrating: mpmath's adaptive
    loop stops on an absolute error test, and for x large the raw integrand
    is uniformly of size e^{-x}, small enough to pass that test at any crude
    degree.  With the rescaling the integrand is O(1) near u = 0 and the
    working precision only has to cover the cancellation down to the answer
    at exp(-decay + x).
    """
    t = abs(float(t))
    x = float(x)
    lost = max(0.0, decay(t, x) - x) / math.log(10)   # cancellation against e^{-x}
    if dps is None:
        dps = 30 + int(math.ceil(lost))
    # cutoff where exp(-x cosh u) is negligible next to the answer e^{-decay}
    goal = decay(t, x) + (dps + 8) * math.log(10)
    u_max = math.acosh(max(2.0, goal / x))
    points = [0.0]
    if t > 0:
        k = 0
        while True:
            z = (k + 0.5) * math.pi / t
            if z >= u_max:
                break
            points.append(z)
            k += 1
    points.append(u_max)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        tm = mpmath.mpf(t)
        val = mpmath.quadgl(lambda u: mpmath.exp(xm - xm * mpmath.cosh(u)) * mpmath.cos(tm * u),
                            points, maxdegree=8)
        return float(mpmath.exp(-xm) * val)


def bessel_k_mp(order: complex, x: float, dps: int = 40) -> complex:
    """K_nu(x) by mpmath.besselk, with the working precision raised by the
    digits that cancel against e^{-x} in the oscillatory range."""
    lost = max(0.0, decay(order.imag, x) - x) / math.log(10)
    with mpmath.workdps(dps + int(math.ceil(lost))):
        return complex(mpmath.besselk(mpmath.mpc(order.real, order.imag), mpmath.mpf(x)))


def decay(t: float, x: float) -> float:
    """-log of the leading size of K_{it}(x), up to polynomial factors:
    pi |t| / 2 in the oscillatory range x < |t|, sqrt(x^2 - t^2) + |t| asin(|t|/x)
    past the turning point."""
    t = abs(t)
    if x >= t:
        return math.sqrt(x * x - t * t) + (t * math.asin(t / x) if t > 0 else 0.0)
    return 0.5 * math.pi * t


def bessel_draws(seed: int, count: int) -> list[tuple[float, float]]:
    """Seeded (t, x) pairs, t uniform in [-50, 50] and x log-uniform in [1e-3, 100]:
    the points of the frozen cosh-quadrature fixtures."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        t = rng.uniform(-50.0, 50.0)
        draws.append((t, 10.0 ** rng.uniform(-3.0, 2.0)))
    return draws


def envelope_grid() -> list[tuple[complex, list[float]]]:
    """Seeded (order, x) points across the whole Bessel envelope, grouped by order.

    |Im nu| runs to 200 with heights on both sides of 60, |Re nu| to 10, and
    every order gets x at the ends of [1e-6, 705], at and around the turning
    point x = |Im nu|, and a few log-uniform draws.  Orders on the unitary
    axis also get x = 1e-3 |t|, |t| / 2 and |t| (1 - 1e-9), deep inside and
    at the upper end of the saddle contour's range, where a saddle position
    taken as arccosh(|t| / x) would lose digits.  Last come four points each
    at t = 120, 160 and 200 in the band x / t = 1.29..1.42, appended after
    the seeded groups so that those keep their draws and places.
    """
    rng = random.Random(20261018)
    grid = []
    for t in (0.0, 0.7, 12.0, 45.0, 59.5, 60.5, 75.0, 130.0, 200.0):
        for sigma in (0.0, 0.5, 4.0, 10.0):
            order = complex(sigma * rng.choice((-1, 1)), t * rng.choice((-1, 1)))
            xs = [1e-6, 705.0] + [10.0 ** rng.uniform(-6.0, math.log10(705.0)) for _ in range(3)]
            if t > 0:
                xs += [0.97 * t, t, 1.03 * t]
            if t > 0 and sigma == 0.0:
                xs += [1e-3 * t, 0.5 * t, t * (1.0 - 1e-9)]
            grid.append((order, xs))
    # past the turning point at x / |t| = 1.29..1.42 for |t| >= 120, the line
    # route's trapezoid step needs the strip's lower edge as well as its upper
    # one: charged for the upper edge alone, it missed the 1e-12 bar there by
    # up to 3.8 times
    for t in (120.0, 160.0, 200.0):
        grid.append((complex(0.0, t), [ratio * t for ratio in (1.29, 1.335, 1.38, 1.42)]))
    return grid


def saddle_sum_complex(t: float, xs) -> np.ndarray:
    """K_{it}(x) for 0 < x < t on the library's saddle contour, summed in
    complex form: the weights w_k and exponents e_k as complex numbers, one
    complex exponential and one complex product per node, and the real part
    of exp(-pi t / 2 + i phase) sum_k w_k exp(s e_k) at the end.

    It shares the library's nodes and contour ends, so it checks the
    arithmetic of the real form, not the contour; `bessel_k_mp` is the
    independent check of the values.
    """
    down = sf._bisect(lambda d: t * (d - math.sin(d)) - sf._SADDLE_LOG, sf._SADDLE_LOG / t + 1.0)
    d = 0.5 * down * (1.0 + sf._GL_X)
    along = sf._bisect(lambda r: t * sf._ray_decay(r) - sf._SADDLE_LOG, math.pi)
    rho = 0.5 * along * sf._RAY * (1.0 + sf._GL_X)
    exponents = np.concatenate([2j * np.sin(0.5 * d) ** 2, -2j * np.sinh(0.5 * rho) ** 2])
    weights = np.concatenate([-0.5j * down * sf._GL_W * np.exp(-t * (d - np.sin(d))),
                              0.5 * along * sf._RAY * sf._GL_W * np.exp(-1j * t * (np.sinh(rho) - rho))])
    xs = np.asarray(xs, dtype=float)
    s = np.sqrt((t - xs) * (t + xs))
    phase = t * np.arcsinh(s / xs) - s
    j = (np.exp(np.multiply.outer(s, exponents)) * weights).sum(axis=1)
    return math.exp(-0.5 * math.pi * t) * (j * np.exp(1j * phase)).real


def line_sum_complex(t: float, xs) -> np.ndarray:
    """K_{it}(x) for x in the envelope on the library's line contour, summed
    in the complex form the real one replaced: theta as Im arcsinh(i t / x),
    capped, the scale h/2 exp(peak) as a complex exponential, and
    2 sum_{k >= 0} T_k - T_0 times it as a complex product, one value at a
    time.

    It shares the library's strip, step and node count, so it checks the
    arithmetic of the real form, not the contour; `bessel_k_mp` is the
    independent check of the values.
    """
    xs = np.asarray(xs, dtype=float)
    cap = 0.5 * math.pi - min(sf._CAP / t, 0.5 * math.pi) if t > 0 else 0.5 * math.pi
    theta = np.minimum(np.arcsinh(complex(0.0, t) / xs).imag, cap)
    peak, _, a, b = sf._line_peak(0.0, t, xs, theta)
    room = 0.5 * np.pi - sf._SIDE * theta[:, None]
    d = np.minimum(0.995 * room, np.sqrt(2.0 * sf._LOG_TOL / b)[:, None])
    edge, _, _, b_edge = sf._line_peak(0.0, t, xs[:, None], theta[:, None] + sf._SIDE * d)
    growth = np.maximum(edge - peak[:, None], 0.0) + np.log(5.0 + 4.0 * np.log1p(1.0 / b_edge))
    h = (2.0 * np.pi * d / (sf._LOG_TOL + growth)).min(axis=1)
    count = np.ceil(np.arccosh(1.0 + sf._LOG_TOL / b) / h).astype(np.int64) + 1
    out = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        u = np.arange(count[i]) * h[i]
        terms = (np.exp(-a[i] * np.cosh(u) - (peak[i] + t * theta[i]))
                 * np.cos(t * u - x * math.sin(theta[i]) * np.sinh(u)))
        out[i] = 0.5 * h[i] * np.exp(complex(peak[i], 0.0)) * complex(2.0 * terms.sum() - terms[0])
    return out


# ------------------------------------------------------------------
# the real-place integral behind the constant-term factor
# ------------------------------------------------------------------

def real_place_quadrature(s: complex) -> complex:
    """integral over the line of (1 + x^2)^(-s - 1/2), by scipy quadrature."""
    from scipy.integrate import quad

    s = complex(s)

    def integrand(x: float) -> complex:
        return (1.0 + x * x) ** complex(-s.real - 0.5, -s.imag)

    re, _ = quad(lambda x: integrand(x).real, -math.inf, math.inf, limit=400)
    im, _ = quad(lambda x: integrand(x).imag, -math.inf, math.inf, limit=400)
    return complex(re, im)


def bump_mellin_quadrature(s: complex) -> complex:
    """Mellin transform of the standard bump on [1, 2], by scipy quadrature."""
    from scipy.integrate import quad

    s = complex(s)

    def w(x: float) -> float:
        if x <= 1.0 or x >= 2.0:
            return 0.0
        return math.exp(-1.0 / ((x - 1.0) * (2.0 - x)))

    def integrand(x: float) -> complex:
        return w(x) * cmath.exp((s - 1) * math.log(x))

    re, _ = quad(lambda x: integrand(x).real, 1.0, 2.0, limit=200)
    im, _ = quad(lambda x: integrand(x).imag, 1.0, 2.0, limit=200)
    return complex(re, im)


# ------------------------------------------------------------------
# local constant-term factors
# ------------------------------------------------------------------

def local_constant(params, p: int) -> complex:
    """The local constant-term factor c_p(s), all three ramification cases.

    The unramified branch returns the local L-ratio.  The package never
    multiplies these out (the completed global ratio supplies them), so the
    local formulas live here, for unit-level cross-checks.  Conductor
    exponents and values at the uniformizer come from the generator-walk
    phases (brute_conductor, _at_uniformizer), not from the package's rules.
    """
    s = params.s
    psi = params.quotient_character
    a1 = _conductor_exponent(params.chi1, p)
    a2 = _conductor_exponent(params.chi2, p)

    if a1 == 0 and a2 == 0:
        psi_p = psi.evaluate(p)
        num = 1.0 - psi_p * cmath.exp(-2 * s * math.log(p))
        den = 1.0 - psi_p * cmath.exp(-(2 * s + 1) * math.log(p))
        return den / num     # L_p(2s)/L_p(2s+1) as a ratio of inverted Euler factors

    if a1 == 0 or a2 == 0:
        chi1_p = local_component(params.chi1, p)
        sign = chi1_p.evaluate(chi1_p.modulus - 1) if chi1_p.modulus > 1 else 1.0
        return sign * p ** (-a2)

    a_psi = _conductor_exponent(psi, p)
    n_p = a1 + a2
    chi1_p = local_component(params.chi1, p)
    sign = chi1_p.evaluate(chi1_p.modulus - 1)
    exponent = -2 * s * n_p - (0.5 - 2 * s) * a_psi + a1 / 2.0 - a2 / 2.0
    eps_block = (local_epsilon(params.chi1, p)
                 * local_epsilon(conjugate(params.chi2), p)
                 / local_epsilon(psi, p))
    char_block = _at_uniformizer(params.chi2, p, -a1) * _at_uniformizer(params.chi1, p, a2)
    return sign * cmath.exp(exponent * math.log(p)) * eps_block * char_block


def _conductor_exponent(chi: DirichletCharacter, p: int) -> int:
    """v_p of brute_conductor(chi)."""
    return dict(_prime_powers(brute_conductor(chi))).get(p, 0)


def _at_uniformizer(chi: DirichletCharacter, p: int, k: int) -> complex:
    """The p-component of chi at p^k: the prime-to-p part of chi at p, to the
    k-th power.  That part at p is chi at the unit u = p mod q / p^e, u = 1
    mod p^e, where the p-part is trivial; its phase is the generator walk's."""
    q = chi.modulus
    pe = p ** dict(_prime_powers(q)).get(p, 0)
    u = _crt([(p, q // pe), (1, pe)])
    phase = oracle_phases(q, oracle_index(chi))[u % q]
    return cmath.exp(2j * math.pi * float(phase * k % 1))


# ------------------------------------------------------------------
# L-values by routes other than Hurwitz zeta
# ------------------------------------------------------------------

def leibniz_pi_over_four(levels: int = 12, terms: int = 40) -> float:
    """L(1) for the odd character mod 4, by Euler-transforming Leibniz.

    Repeatedly averaging the partial-sum sequence squeezes the alternating
    tail geometrically; a dozen levels on forty terms is already far below
    double-precision roundoff.
    """
    rows = [[math.fsum((-1.0) ** k / (2 * k + 1) for k in range(n + 1))
             for n in range(terms)]]
    for _ in range(levels):
        prev = rows[-1]
        rows.append([(a + b) / 2.0 for a, b in zip(prev, prev[1:])])
    return rows[-1][-1]


def direct_dirichlet_sum(s: complex, chi: DirichletCharacter, terms: int) -> complex:
    """Plain partial sum of the Dirichlet series; only sensible for Re s > 1."""
    total = 0j
    for block_start in range(1, terms + 1, 1 << 16):
        block = []
        for n in range(block_start, min(block_start + (1 << 16), terms + 1)):
            value = chi.evaluate(n)
            if value != 0:
                block.append(value * cmath.exp(-s * math.log(n)))
        total += complex(math.fsum(z.real for z in block),
                         math.fsum(z.imag for z in block))
    return total


def euler_product_l(s: complex, chi: DirichletCharacter, prime_bound: int) -> complex:
    """Product over primes p <= prime_bound of (1 - chi(p) p^{-s})^{-1}."""
    log_total = 0j
    sieve = bytearray([1]) * (prime_bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, prime_bound + 1):
        if not sieve[p]:
            continue
        for m in range(p * p, prime_bound + 1, p):
            sieve[m] = 0
        value = chi.evaluate(p)
        if value != 0:
            log_total -= cmath.log(1 - value * cmath.exp(-s * math.log(p)))
    return cmath.exp(log_total)


def dirichlet_l_mp(s: complex, q: int, index: int) -> complex:
    """L(s, chi) for the index-th character mod q, by mpmath's Hurwitz zeta:
    q^{-s} sum_a chi(a) zeta(s, a/q), with the values chi(a) from the
    generator walk of oracle_phases.  Works at 30 digits, 45 above
    |Im s| = 200.  At s = 1 the Hurwitz poles cancel across a non-principal
    sum, which is then -sum_a chi(a) digamma(a/q) / q.
    """
    with mpmath.workdps(30 if abs(complex(s).imag) <= 200 else 45):
        s_mp = mpmath.mpc(complex(s).real, complex(s).imag)
        at_one = s_mp == 1
        total = mpmath.mpc(0)
        for a, phase in oracle_phases(q, index).items():
            a = a or q
            root = mpmath.expjpi(2 * mpmath.mpf(phase.numerator) / phase.denominator)
            if at_one:
                total -= root * mpmath.digamma(mpmath.mpf(a) / q)
            else:
                total += root * mpmath.zeta(s_mp, mpmath.mpf(a) / q)
        return complex(total * mpmath.power(q, -s_mp))


# ------------------------------------------------------------------
# characters by walking generator powers
# ------------------------------------------------------------------

def _prime_powers(n: int) -> list[tuple[int, int]]:
    out = []
    for p in range(2, n + 1):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _multiplicative_order(g: int, m: int) -> int:
    k, v = 1, g % m
    while v != 1:
        v = v * g % m
        k += 1
    return k


def _generators(p: int, e: int) -> list[tuple[int, int]]:
    """(generator, order) pairs of (Z/p^e)^x under the documented conventions."""
    pe = p**e
    if p == 2:
        return [] if e == 1 else [(3, 2)] if e == 2 else [(pe - 1, 2), (5, pe // 4)]
    phi = (p - 1) * p ** (e - 1)
    g = next(g for g in range(2, p) if _multiplicative_order(g, p) == p - 1)
    if _multiplicative_order(g, pe) != phi:
        g += p
    assert _multiplicative_order(g, pe) == phi
    return [(g, phi)]


def _crt(residues: list[tuple[int, int]]) -> int:
    """The x mod prod(m) with x = r mod m for every (r, m), by search on the moduli."""
    x, mod = 0, 1
    for r, m in residues:
        while x % m != r % m:
            x += mod
        mod *= m
    return x


def oracle_int_phases(q: int, index: int) -> tuple[int, dict[int, int]]:
    """D and the phase m in [0, D) of the index-th character mod q at every
    unit residue, the value being e(m / D), D the lcm of the generator orders.

    Reads the conventions of the characters module docstring and nothing
    else: generators per prime power, lexicographic enumeration of the
    exponent vectors (components by increasing prime, last generator
    fastest).  Each generator is lifted by CRT to a residue that is 1 at the
    other prime powers; the group is walked as products of their powers, in
    integers mod D, the phase adding k D / o per step on a generator of
    order o.
    """
    moduli = [p**e for p, e in _prime_powers(q)]
    lifts = []
    for pos, (p, e) in enumerate(_prime_powers(q)):
        for g, o in _generators(p, e):
            lifts.append((_crt([(g if j == pos else 1, m) for j, m in enumerate(moduli)]), o))
    exps = []
    for _, o in reversed(lifts):
        exps.append(index % o)
        index //= o
    assert index == 0, "index out of range"
    exps.reverse()
    D = math.lcm(*(o for _, o in lifts))
    phases = {1 % q: 0}
    for (g, o), k in zip(lifts, exps):
        step = k * (D // o)
        walked = {}
        for u, m in phases.items():
            for _ in range(o):
                walked[u] = m
                u, m = u * g % q, (m + step) % D
        phases = walked
    return D, phases


def oracle_phases(q: int, index: int) -> dict[int, Fraction]:
    """oracle_int_phases as exact fractions of a turn, m / D in lowest terms."""
    D, phases = oracle_int_phases(q, index)
    return {u: Fraction(m, D) for u, m in phases.items()}


def oracle_index(chi: DirichletCharacter) -> int:
    """The enumeration index of chi, its exponent vector read in mixed radix
    against this module's own generator orders."""
    orders = [o for p, e in _prime_powers(chi.modulus) for _, o in _generators(p, e)]
    assert len(chi.exps) == len(orders) and all(0 <= k < o for k, o in zip(chi.exps, orders))
    index = 0
    for k, o in zip(chi.exps, orders):
        index = index * o + k
    return index


def brute_conductor(chi: DirichletCharacter) -> int:
    """Smallest d | q with chi trivial on units congruent to 1 mod d."""
    q = chi.modulus
    phases = oracle_phases(q, oracle_index(chi))
    for d in sorted(_divisors_of(q)):
        if all(ph == 0 for n, ph in phases.items() if n % d == 1 % d):
            return d
    return q


def divisors_by_product(n: int) -> tuple[int, ...]:
    """The divisors of n as the product of the prime-power lists of n's own
    trial division, primes increasing: the least prime's exponent varies
    slowest.  (1,) for every n <= 1."""
    powers = [[p ** k for k in range(e + 1)] for p, e in _prime_powers(max(n, 1))]
    return tuple(math.prod(ds) for ds in itertools.product(*powers))


def divisor_layout(ns) -> tuple:
    """The divisor terms of lambda(n) for each n of ns, as a lambda table
    block lays them out: n after n, each n's in divisors_by_product order.

    Returns (divs, logs, mirror, counts): the divisor a at each position;
    math.log(a); the position of the same n's divisor n / a, index
    k - 1 - i of its list for a at index i; and each n's divisor count k.
    """
    lists = [divisors_by_product(n) for n in ns]
    counts = np.array([len(d) for d in lists])
    ends = np.cumsum(counts)
    divs = np.fromiter(itertools.chain.from_iterable(lists), count=ends[-1], dtype=np.intp)
    logs = np.fromiter(map(math.log, itertools.chain.from_iterable(lists)), count=ends[-1],
                       dtype=float)
    mirror = np.repeat(2 * ends - counts - 1, counts) - np.arange(ends[-1])
    return divs, logs, mirror, counts


def _divisors_of(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return out


def brute_gauss_sum(chi: DirichletCharacter) -> complex:
    """Direct exponential sum over the oracle's phases; fine for moduli in the hundreds."""
    q = chi.modulus
    phases = oracle_phases(q, oracle_index(chi))
    total = 0j
    for u in range(1, q + 1):
        ph = phases.get(u % q)
        if ph is not None:
            total += cmath.exp(2j * math.pi * float(ph)) * cmath.exp(2j * math.pi * u / q)
    return total


def brute_divisor_sum(chi1: DirichletCharacter, chi2: DirichletCharacter,
                      s: complex, n: int) -> complex:
    """sum over ab = n of chi1(a) a^s chi2(b) b^{-s}: every divisor by trial,
    character values from the generator-walk phases."""
    def values(chi):
        q, phases = chi.modulus, oracle_phases(chi.modulus, oracle_index(chi))
        return lambda m: cmath.exp(2j * math.pi * float(phases[m % q])) if m % q in phases else 0j

    v1, v2 = values(chi1), values(chi2)
    return sum((v1(a) * cmath.exp(s * math.log(a)) * v2(n // a) * cmath.exp(-s * math.log(n // a))
                for a in range(1, n + 1) if n % a == 0), 0j)


def divisor_sum_loop(chi1: DirichletCharacter, chi2: DirichletCharacter,
                     s: complex, n: int) -> complex:
    """lambda(n) by the scalar loop: the divisors in the summation order
    (divisors_by_product), character values from the characters' list
    copies, terms with a zero value skipped, every product and exponential
    in Python complex arithmetic, added in turn to 0j.  The bit reference
    for generalized_divisor_sum's vectorized kernel."""
    v1, q1 = chi1._values, chi1.modulus
    v2, q2 = chi2._values, chi2.modulus
    total = 0j
    for a in divisors_by_product(n):
        c1 = v1[a % q1]
        if c1 == 0:
            continue
        b = n // a
        c2 = v2[b % q2]
        if c2 == 0:
            continue
        total += c1 * c2 * cmath.exp(s * math.log(a) - s * math.log(b))
    return total


def character_count(q: int) -> int:
    return sum(1 for _ in character_group(q))


# ------------------------------------------------------------------
# the level-one series off the axis as a lattice sum
# ------------------------------------------------------------------

def zeta_direct(s: complex, terms: int = 100) -> complex:
    """zeta(s) by its Dirichlet series to k = terms, for Re s > 1: the tail
    is below terms^(1 - Re s) / (Re s - 1), about 1e-21 at Re s = 11."""
    k = np.arange(1, terms + 1, dtype=float)
    values = np.exp(-s * np.log(k))
    return complex(math.fsum(values.real), math.fsum(values.imag))


def level_one_lattice_sum(x: float, y: float, w: complex, bound: int = 80) -> complex:
    """sum over (m, n) != (0, 0), |m|, |n| <= bound, of y^w / |mz + n|^(2w),
    z = x + iy: for Re w > 1 the sum over all (m, n) is 2 zeta(2w) E(z, w),
    the level-one series at s = w - 1/2, and the box drops a tail of order
    bound^(2 - 2 Re w)."""
    m, n = np.meshgrid(np.arange(-bound, bound + 1.0), np.arange(-bound, bound + 1.0))
    q = (m * x + n) ** 2 + (m * y) ** 2         # |mz + n|^2
    q = q[q > 0]
    values = np.exp(w * np.log(y / q))
    return complex(math.fsum(values.real), math.fsum(values.imag))


# ------------------------------------------------------------------
# amplifier by the unsieved double loop
# ------------------------------------------------------------------

def naive_amplifier_sum(cfg) -> complex:
    total = 0j
    for p in range(math.ceil(cfg.L), math.floor(2 * cfg.L) + 1):
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            continue
        if p % cfg.q != 1 % cfg.q or cfg.level % p == 0:
            continue
        left = (cfg.chi1.evaluate(p) * p ** (1j * cfg.r1)
                + cfg.chi2.evaluate(p) * p ** (-1j * cfg.r1))
        right = (cfg.chi1.evaluate(p) * p ** (1j * cfg.r2)
                 + cfg.chi2.evaluate(p) * p ** (-1j * cfg.r2)).conjugate()
        total += cfg.weight(p / cfg.L) * math.log(p) * left * right
    return total


def _two_exponential_lambda(chi1: DirichletCharacter, chi2: DirichletCharacter,
                            s: complex, p: int, logp: float) -> complex:
    """chi1(1) chi2(p) p^{-s} + chi1(p) chi2(1) p^s at a prime p, each phase
    its own exponential, terms with a zero character value skipped."""
    total = 0j
    for a, b, z in ((1, p, -(s * logp)), (p, 1, s * logp)):
        c1, c2 = chi1.evaluate(a), chi2.evaluate(b)
        if c1 != 0 and c2 != 0:
            total += c1 * c2 * cmath.exp(z)
    return total


@functools.cache
def _oracle_twists(xi: DirichletCharacter, chi1: DirichletCharacter, chi2: DirichletCharacter):
    """xi conj(chi1), xi conj(chi2), xi conj(chi2 conj(chi1)) and
    xi conj(chi1 conj(chi2)), built once per (xi, chi1, chi2) and held, so
    that the per-prime oracles below neither rebuild them nor their values."""
    return (multiply(xi, conjugate(chi1)), multiply(xi, conjugate(chi2)),
            multiply(xi, conjugate(multiply(chi2, conjugate(chi1)))),
            multiply(xi, conjugate(multiply(chi1, conjugate(chi2)))))


def two_exponential_b_xi(p: int, xi: DirichletCharacter, cfg) -> complex:
    """b_xi with p^{-i r} taken by its own exponential, not as a conjugate."""
    logp = math.log(p)
    twist1, twist2 = _oracle_twists(xi, cfg.chi1, cfg.chi2)[:2]
    left = _two_exponential_lambda(cfg.chi1, cfg.chi2, 1j * cfg.r1, p, logp)
    right = _two_exponential_lambda(twist1, twist2, -1j * cfg.r2, p, logp)
    return logp * left * right


def two_exponential_factorization_check(p: int, xi: DirichletCharacter, cfg) -> float:
    """factorization_check with all four phases p^{+-i(r1 -+ r2)} exponentiated."""
    logp = math.log(p)
    up, down = _oracle_twists(xi, cfg.chi1, cfg.chi2)[2:]
    diff = 1j * (cfg.r1 - cfg.r2) * logp
    total = 1j * (cfg.r1 + cfg.r2) * logp
    xi_p = xi.evaluate(p)
    four_terms = (xi_p * cmath.exp(diff) + xi_p * cmath.exp(-diff)
                  + up.evaluate(p) * cmath.exp(total) + down.evaluate(p) * cmath.exp(-total))
    return abs(two_exponential_b_xi(p, xi, cfg) - logp * four_terms)


def weighted_prime_log_sum(q: int, L: float, weight) -> float:
    """sum of w(p/L) log p over p = 1 mod q in [L, 2L], double loop."""
    total = 0.0
    for p in range(math.ceil(L), math.floor(2 * L) + 1):
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            continue
        if p % q != 1 % q:
            continue
        total += weight(p / L) * math.log(p)
    return total
