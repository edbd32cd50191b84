"""Output checks for the benchmark workloads, and a self-test for each.

Every checker is a pure function of library outputs and the benchmark's own
reference data, so it can be fed a deliberately wrong result without
importing the library.  ``self_test`` does exactly that and returns the names
of the checkers that failed to flag their injected error.
"""

from __future__ import annotations

import math

FE_RESIDUAL_MAX = 1e-6
GAUSS_DEVIATION_MAX = 1e-10
FACTORIZATION_DEFECT_MAX = 1e-10
HECKE_DEVIATION_MAX = 1e-12
# relative: a faster Bessel route may move the last digits of a supremum,
# but not the ninth
SCAN_RTOL = 1e-9
# the normalized amplifier diagonal Re(A) phi(q) / (2 w~(1) L) near one
AMPLIFIER_RATIO_RANGE = (0.7, 1.3)


def fe_residual_ok(residual: float) -> bool:
    return math.isfinite(residual) and 0.0 <= residual < FE_RESIDUAL_MAX


def gauss_law_ok(squares, q: int) -> bool:
    """|G(chi)|^2 = q for every primitive character mod q."""
    return all(math.isfinite(v) and abs(v - q) < GAUSS_DEVIATION_MAX for v in squares)


def factorization_ok(defect: float) -> bool:
    return math.isfinite(defect) and 0.0 <= defect < FACTORIZATION_DEFECT_MAX


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m <= n (0 and 1 map to themselves)."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def hecke_failures(lam, central, spf) -> int:
    """Count relations broken by the coefficients lam[1..N].

    For every 2 <= m <= N one relation is checked: multiplicativity
    lam(m) = lam(p^k) lam(m / p^k) when m is not a prime power, and the
    recurrence lam(p^k) = lam(p) lam(p^{k-1}) - central(p) lam(p^{k-2}) at
    prime powers p^k with k >= 2.  Primes themselves carry no relation.
    ``central(p)`` is chi1(p) chi2(p).
    """
    failures = 0
    for m in range(2, len(lam)):
        p = spf[m]
        pk = p
        while m % (pk * p) == 0:
            pk *= p
        rest = m // pk
        if rest > 1:
            dev = abs(lam[m] - lam[pk] * lam[rest])
        elif pk != p:
            dev = abs(lam[pk] - lam[p] * lam[pk // p] + central(p) * lam[pk // (p * p)])
        else:
            continue
        if not dev < HECKE_DEVIATION_MAX:
            failures += 1
    return failures


def hecke_relation_count(n_max: int, spf) -> int:
    """How many relations hecke_failures checks for coefficients up to n_max."""
    return sum(1 for m in range(2, n_max + 1) if spf[m] != m)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCAN_RTOL * max(abs(a), abs(b)) or a == b


def scan_ok(supremum: float, argmax, grid_points: int, reference: dict) -> bool:
    """Supremum, argmax and grid size against values recorded before any optimisation."""
    ref_x, ref_y = reference["argmax"]
    return (math.isfinite(supremum) and grid_points == reference["grid_points"]
            and _close(supremum, reference["supremum"])
            and _close(argmax[0], ref_x) and _close(argmax[1], ref_y))


def amplifier_ok(value: complex, q: int, weight_integral: float, L: float) -> bool:
    """The diagonal sum is real and its normalized size is near one."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    ratio = value.real * totient(q) / (2.0 * weight_integral * L)
    lo, hi = AMPLIFIER_RATIO_RANGE
    return abs(value.imag) <= 1e-9 * abs(value.real) and lo <= ratio <= hi


def totient(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def self_test() -> list[str]:
    """Feed each checker a correct and a wrong result; name those that miss."""
    missed = []

    def expect(name, good, bad):
        if not good or bad:
            missed.append(name)

    expect("fe_residual", fe_residual_ok(3e-9), fe_residual_ok(2e-6))
    expect("fe_residual_nan", True, fe_residual_ok(float("nan")))
    expect("gauss_law", gauss_law_ok([7.0, 7.0 + 1e-12], 7),
           gauss_law_ok([7.0, 7.0 + 1e-8], 7))
    expect("factorization", factorization_ok(1e-14), factorization_ok(1e-9))

    # a correct coefficient table: level one at s = 0, lam(n) = d(n)
    n_max = 64
    spf = smallest_prime_factors(n_max)
    lam = [0.0] + [float(sum(1 for d in range(1, n + 1) if n % d == 0))
                   for n in range(1, n_max + 1)]
    wrong_mult = list(lam)
    wrong_mult[12] += 1e-9          # 12 = 4 * 3 breaks multiplicativity
    wrong_rec = list(lam)
    wrong_rec[27] -= 1e-9           # 27 = 3^3 breaks the recurrence
    one = lambda p: 1.0
    expect("hecke_multiplicativity", hecke_failures(lam, one, spf) == 0,
           hecke_failures(wrong_mult, one, spf) == 0)
    expect("hecke_recurrence", True, hecke_failures(wrong_rec, one, spf) == 0)

    ref = {"supremum": 7.330332826659509, "argmax": [0.0, 0.3472875000000001], "grid_points": 3392}
    at = (0.0, 0.3472875000000001)
    expect("scan_supremum", scan_ok(ref["supremum"] * (1 + 1e-12), at, 3392, ref),
           scan_ok(ref["supremum"] * (1 + 1e-7), at, 3392, ref))
    expect("scan_argmax", True, scan_ok(ref["supremum"], (0.5, at[1]), 3392, ref))
    expect("scan_grid", True, scan_ok(ref["supremum"], at, 3328, ref))

    w1 = 0.00699613578051381
    L = 1e6
    good = complex(2.0 * w1 * L / 2, 0.0)       # ratio 1 at q = 3 (phi = 2)
    expect("amplifier_ratio", amplifier_ok(good, 3, w1, L), amplifier_ok(good * 2, 3, w1, L))
    expect("amplifier_real", True, amplifier_ok(complex(good.real, 1e-3 * good.real), 3, w1, L))
    return missed
