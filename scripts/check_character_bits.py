#!/usr/bin/env python3
"""Dump the character layer's outputs, or compare two dumps bit for bit.

    python3 scripts/check_character_bits.py --dump FILE.npz [--src DIR]
    python3 scripts/check_character_bits.py --compare A.npz B.npz

--dump evaluates the checkout this script sits in, or the eisenkit sources
in DIR (a src/ directory) with --src, with this checkout's workload
definitions, and saves:
  * for every character with q <= 129 or q in {256, 360, 499, 500}: its value
    table, its conductor, its parity, and the (modulus, index) of its
    primitive part and its conjugate, and at each p | q of its local
    component and its prime-to-p part;
  * gauss_sum(chi) for every primitive character with q <= 129, and
    local_epsilon(chi, p) at each p | q;
  * the (modulus, index) of the products over a fixed, seeded sample of
    character pairs, across moduli as well as within one;
  * |G(chi)|^2 from gauss_sum_moduli_squared(q) for every q <= 500;
  * the amplifier sums at L = 1e6 for the principal pair at q in {1, 3, 4},
    on the diagonal r1 = r2, plus one off-diagonal sum at q = 3, and the
    diagonal sums at q in {1, 3} again at L = 3e6, over three amplifier
    sieve windows; then the three diagonal sums at L = 1e6 once more, in
    reverse q order, so that a result that depends on the window cache
    shows as a mismatch;
  * BumpWeight().mellin_at_one;
  * the benchmark's arith-sweep divisor sums: lambda(n) = generalized_divisor_sum
    for n <= 2000 at its five Hecke parameter sets, each at a fixed height;
  * lambda(n) for every n <= 4096, the lambda table ceiling, at the same
    sets and heights, twice: read in ascending order, and read after one
    read at 4096, each on cleared lambda and block-layout memos; so the
    tables are built by doubling blocks and by one block (0, 4096], and a
    result that depends on the block layout shows as a mismatch;
  * lambda(n) for every n in (4096, 10^4], past the table ceiling, where
    each n is summed alone, at the benchmark's Hecke set 5:1 x 5:3 and its
    fixed height;
  * b_xi and factorization_check at every prime p <= 1500 prime to q and the
    level, for each of the benchmark's four progression moduli q, every
    character xi mod q and two fixed (r1, r2) pairs, with one config per
    (q, xi, pair); then again with xi in reverse order and a fresh equal
    config per call, so that a result that depends on the prime contexts
    kept on a config shows as a mismatch;
  * b_xi and factorization_check at every prime p in [3900, 4400] prime to q
    and the level, both sides of the 4096 prime-table ceiling, for the same
    q, xi and pairs, one config per (q, xi, pair): once with the primes
    asked in descending order, so that each config is asked past the
    ceiling first, and once in ascending order;
  * b_xi's prime verdict at every n in [-3, 10^4] and at 44651 * 44657 and
    1999999973, at one config: 0 where it refuses n as not prime, else 1;
  * the ramified verdicts of b_xi and factorization_check at every prime
    p <= 4096, for each of the benchmark's four progression moduli q, every
    character xi mod q and the first fixed pair, each config's context
    built first: 1 where the function refuses p as dividing q and the level,
    else 0, so that a table that serves such a p shows as a mismatch;
  * sieve_interval(10**6, 2 * 10**6).

--compare counts the entries whose raw bytes differ between two dumps, per
array, with the largest deviation among them and a verdict against the
array's tolerance, exact for every array here (check_series_bits.compare),
and exits 1 if any differ or an array is missing from either side.
Run --dump on two checkouts (say, before and after a change to the
character layer), or one copy of this script with --src on each checkout's
src/, and --compare the two files; a dump takes a few seconds.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# --src DIR: the eisenkit sources to evaluate, read before eisenkit is imported
SRC_ARG = argparse.ArgumentParser(add_help=False)
SRC_ARG.add_argument("--src", type=Path, default=REPO / "src", metavar="DIR",
                     help="the eisenkit sources to dump (default: this checkout's src/)")
if __name__ == "__main__":
    sys.path.insert(0, str(SRC_ARG.parse_known_args()[0].src.resolve()))
sys.path.insert(0, str(REPO / "perfbench"))

from eisenkit.amplifier import (  # noqa: E402
    AmplifierConfig,
    amplifier_sum,
    b_xi,
    factorization_check,
    sieve_interval,
)
from eisenkit.characters import (  # noqa: E402
    build_character,
    character_group,
    character_index,
    conductor,
    conjugate,
    gauss_sum,
    gauss_sum_moduli_squared,
    local_component,
    local_epsilon,
    multiply,
    prime_to_p_part,
    primitive_part,
    value_table,
)
from eisenkit import eisenstein  # noqa: E402
from eisenkit.eisenstein import generalized_divisor_sum  # noqa: E402
from eisenkit.special_functions import BumpWeight  # noqa: E402
from workloads import ArithSweep  # noqa: E402
from check_series_bits import compare  # noqa: E402

MODULI = tuple(range(1, 130)) + (256, 360, 499, 500)
GAUSS_SUM_MAX = 129
GAUSS_MAX = 500
PRODUCTS = 4000
# (L, q, r1, r2): the three diagonal sums in one sieve window, one off the
# diagonal, then two whose [L, 2L] spans three amplifier sieve windows
AMP_CASES = ((1e6, 1, 12.5, 12.5), (1e6, 3, 17.25, 17.25), (1e6, 4, 23.0, 23.0),
             (1e6, 3, 11.0, 19.5), (3e6, 1, 12.5, 12.5), (3e6, 3, 17.25, 17.25))
# one height per Hecke parameter set, inside the benchmark's draw range [2, 12]
HECKE_HEIGHTS = (2.5, 4.75, 7.0, 9.25, 11.5)
LAMBDA_TOP = 4096       # the lambda table ceiling, eisenstein._LAMBDA_MAX
PRIME_TOP = 4096        # the amplifier's prime-table ceiling, amplifier._PRIME_MAX
PAST_TOP = 10 ** 4      # the hecke-relations acceptance test's largest n
PAST_SET = 3            # the Hecke set 5:1 x 5:3
FACT_PAIRS = ((-27.5, 13.25), (8.0, 8.0))
CEILING_PRIMES = (3900, 4400)   # around the amplifier's prime-table ceiling PRIME_TOP
SIEVE_WINDOW = (10**6, 2 * 10**6)
# the prime test's range: past the 4096 prime table, and two large n
PRIME_TEST_NS = tuple(range(-3, 10**4 + 1)) + (44651 * 44657, 1999999973)


def _hecke() -> np.ndarray:
    """lambda(n) for n = 1..HECKE_N, one row per Hecke parameter set."""
    rows = []
    for ((q1, i1), (q2, i2)), h in zip(ArithSweep.HECKE_SETS, HECKE_HEIGHTS):
        chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
        rows.append([generalized_divisor_sum(chi1, chi2, 1j * h, n)
                     for n in range(1, ArithSweep.HECKE_N + 1)])
    return np.array(rows, dtype=np.complex128)


def _hecke_to_ceiling(at_once: bool) -> np.ndarray:
    """lambda(n) for n = 1..4096 per Hecke parameter set, on cleared lambda
    and layout memos: read in ascending order, or with at_once, after one
    read at 4096."""
    rows = []
    for ((q1, i1), (q2, i2)), h in zip(ArithSweep.HECKE_SETS, HECKE_HEIGHTS):
        chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
        eisenstein._lambda_slot.cache_clear()
        eisenstein._block_layout.cache_clear()
        if at_once:
            generalized_divisor_sum(chi1, chi2, 1j * h, LAMBDA_TOP)
        rows.append([generalized_divisor_sum(chi1, chi2, 1j * h, n) for n in range(1, LAMBDA_TOP + 1)])
    return np.array(rows, dtype=np.complex128)


def _hecke_past_ceiling() -> np.ndarray:
    """lambda(n) for n in (4096, 10^4] at one Hecke parameter set."""
    ((q1, i1), (q2, i2)), h = ArithSweep.HECKE_SETS[PAST_SET], HECKE_HEIGHTS[PAST_SET]
    chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
    return np.array([generalized_divisor_sum(chi1, chi2, 1j * h, n)
                     for n in range(LAMBDA_TOP + 1, PAST_TOP + 1)], dtype=np.complex128)


def _factorization(reverse: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, xi index, pair, p) labels with b_xi and factorization_check there:
    one config per (q, xi, pair), or with reverse, xi in reverse order and a
    fresh equal config per call."""
    primes = [p for p in range(2, ArithSweep.FACT_PRIMES + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    labels, b, defects = [], [], []
    for q, ((q1, i1), (q2, i2)) in ArithSweep.FACT_MODULI.items():
        chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
        xis = list(character_group(q))
        for xi in xis[::-1] if reverse else xis:
            for k, (r1, r2) in enumerate(FACT_PAIRS):
                def config():
                    return AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)

                cfg = config()
                for p in primes:
                    if (q * cfg.level) % p:
                        labels.append((q, character_index(xi), k, p))
                        b.append(b_xi(p, xi, config() if reverse else cfg))
                        defects.append(factorization_check(p, xi, config() if reverse else cfg))
    return (np.array(labels, dtype=np.int64), np.array(b, dtype=np.complex128),
            np.array(defects, dtype=np.float64))


def _around_ceiling(past_first: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, xi index, pair, p) labels with b_xi and factorization_check there
    for the primes in CEILING_PRIMES, one config per (q, xi, pair), asked in
    descending order with past_first, else ascending; stored ascending."""
    primes = sieve_interval(*CEILING_PRIMES).tolist()
    labels, b, defects = [], [], []
    for q, ((q1, i1), (q2, i2)) in ArithSweep.FACT_MODULI.items():
        chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
        for xi in character_group(q):
            for k, (r1, r2) in enumerate(FACT_PAIRS):
                cfg = AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)
                asked = [p for p in primes if (q * cfg.level) % p]
                values = {p: (b_xi(p, xi, cfg), factorization_check(p, xi, cfg))
                          for p in (asked[::-1] if past_first else asked)}
                for p in asked:
                    labels.append((q, character_index(xi), k, p))
                    b.append(values[p][0])
                    defects.append(values[p][1])
    return (np.array(labels, dtype=np.int64), np.array(b, dtype=np.complex128),
            np.array(defects, dtype=np.float64))


def _prime_test() -> np.ndarray:
    """b_xi's verdict at each n of PRIME_TEST_NS, at the config q = 3,
    chi1 = 1:0, chi2 = 5:1, xi = 3:1: 0 where it refuses n as not prime,
    else 1 (a value, or another refusal)."""
    cfg = AmplifierConfig(q=3, L=100.0, r1=FACT_PAIRS[0][0], r2=FACT_PAIRS[0][1],
                          chi1=build_character(1, 0), chi2=build_character(5, 1))
    xi = build_character(3, 1)
    verdicts = []
    for n in PRIME_TEST_NS:
        try:
            b_xi(n, xi, cfg)
        except ValueError as exc:
            verdicts.append(str(exc) != f"p = {n} must be a prime")
        else:
            verdicts.append(True)
    return np.array(verdicts, dtype=np.uint8)


def _ramified() -> np.ndarray:
    """(b_xi, factorization_check) verdicts, one row per (q, xi, p) for the
    primes p <= 4096, on a config per (q, xi) whose context is built by a
    call at its least prime prime to q and the level: 1 where the call
    refuses p as dividing q and the level, else 0."""
    primes = sieve_interval(2, PRIME_TOP).tolist()
    r1, r2 = FACT_PAIRS[0]
    verdicts = []
    for q, ((q1, i1), (q2, i2)) in ArithSweep.FACT_MODULI.items():
        chi1, chi2 = build_character(q1, i1), build_character(q2, i2)
        for xi in character_group(q):
            cfg = AmplifierConfig(q=q, L=100.0, r1=r1, r2=r2, chi1=chi1, chi2=chi2)
            b_xi(next(p for p in primes if (q * cfg.level) % p), xi, cfg)
            for p in primes:
                for fn in (b_xi, factorization_check):
                    try:
                        fn(p, xi, cfg)
                    except ValueError as exc:
                        verdicts.append(str(exc) == f"p = {p} must avoid the progression modulus and the level")
                    else:
                        verdicts.append(False)
    return np.array(verdicts, dtype=np.uint8).reshape(-1, 2)


def _identity(chi) -> tuple[int, int]:
    return chi.modulus, character_index(chi)


def dump(path: str) -> None:
    tables, conductors, prim_parts, labels = [], [], [], []
    parities, conjugates, local_parts = [], [], []
    gauss_sum_labels, gauss_sums, epsilon_labels, epsilons = [], [], [], []
    for q in MODULI:
        prime_divisors = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
        for chi in character_group(q):
            labels.append(_identity(chi))
            tables.append(value_table(chi))
            conductors.append(conductor(chi))
            prim_parts.append(_identity(primitive_part(chi)))
            parities.append(chi.parity)
            conjugates.append(_identity(conjugate(chi)))
            for p in prime_divisors:
                local_parts.append(labels[-1] + (p,) + _identity(local_component(chi, p))
                                   + _identity(prime_to_p_part(chi, p)))
            if q <= GAUSS_SUM_MAX and conductors[-1] == q:
                gauss_sum_labels.append(labels[-1])
                gauss_sums.append(gauss_sum(chi))
                for p in prime_divisors:
                    epsilon_labels.append(labels[-1] + (p,))
                    epsilons.append(local_epsilon(chi, p))

    phi = Counter(q for q, _ in labels)
    rng = random.Random("check_character_bits")
    products = []
    for _ in range(PRODUCTS):
        (q1, i1), (q2, i2) = rng.choice(labels), rng.choice(labels)
        if rng.random() < 0.5:
            q2, i2 = q1, rng.randrange(phi[q1])
        products.append((q1, i1, q2, i2) + _identity(multiply(build_character(q1, i1),
                                                              build_character(q2, i2))))

    gauss = [gauss_sum_moduli_squared(q) for q in range(1, GAUSS_MAX + 1)]

    principal = build_character(1, 0)
    amp = [amplifier_sum(AmplifierConfig(q=q, L=L, r1=r1, r2=r2, chi1=principal, chi2=principal))
           for L, q, r1, r2 in AMP_CASES]
    amp_again = [amplifier_sum(AmplifierConfig(q=q, L=L, r1=r1, r2=r2, chi1=principal, chi2=principal))
                 for L, q, r1, r2 in AMP_CASES[2::-1]]

    hecke = _hecke()
    ascending, at_once = _hecke_to_ceiling(False), _hecke_to_ceiling(True)
    past = _hecke_past_ceiling()
    fact_labels, fact_b, fact_defects = _factorization()
    again_labels, again_b, again_defects = _factorization(reverse=True)
    ceiling_labels, ceiling_b, ceiling_defects = _around_ceiling(past_first=True)
    _, ascending_b, ascending_defects = _around_ceiling(past_first=False)
    prime_test = _prime_test()
    ramified = _ramified()
    primes = sieve_interval(*SIEVE_WINDOW)

    np.savez_compressed(
        path,
        labels=np.array(labels, dtype=np.int64),
        values=np.concatenate(tables),
        conductors=np.array(conductors, dtype=np.int64),
        primitive_parts=np.array(prim_parts, dtype=np.int64),
        parities=np.array(parities, dtype=np.int64),
        conjugates=np.array(conjugates, dtype=np.int64),
        local_parts=np.array(local_parts, dtype=np.int64),
        local_epsilon_labels=np.array(epsilon_labels, dtype=np.int64),
        local_epsilons=np.array(epsilons, dtype=np.complex128),
        products=np.array(products, dtype=np.int64),
        gauss_counts=np.array([len(g) for g in gauss], dtype=np.int64),
        gauss=np.concatenate(gauss),
        gauss_sum_labels=np.array(gauss_sum_labels, dtype=np.int64),
        gauss_sums=np.array(gauss_sums, dtype=np.complex128),
        amplifier_sums=np.array(amp, dtype=np.complex128),
        amplifier_sums_again=np.array(amp_again, dtype=np.complex128),
        mellin_at_one=np.array([BumpWeight().mellin_at_one]),
        hecke=hecke.ravel(),
        hecke_to_ceiling=ascending.ravel(),
        hecke_to_ceiling_at_once=at_once.ravel(),
        hecke_past_ceiling=past,
        factorization_labels=fact_labels,
        b_xi=fact_b,
        factorization_defects=fact_defects,
        factorization_labels_again=again_labels,
        b_xi_again=again_b,
        factorization_defects_again=again_defects,
        factorization_labels_ceiling=ceiling_labels,
        b_xi_ceiling_past_first=ceiling_b,
        factorization_defects_ceiling_past_first=ceiling_defects,
        b_xi_ceiling_ascending=ascending_b,
        factorization_defects_ceiling_ascending=ascending_defects,
        prime_test=prime_test,
        ramified_refusals=ramified,
        sieve=primes,
    )
    print(f"{path}: {len(labels)} characters, {len(products)} products, "
          f"{sum(len(g) for g in gauss)} |G|^2 values, {len(gauss_sums)} Gauss sums, "
          f"{len(epsilons)} local epsilons, {len(local_parts)} local parts, "
          f"{len(amp) + len(amp_again)} amplifier sums, "
          f"{hecke.size + ascending.size + at_once.size + past.size} divisor sums, "
          f"{len(fact_b) + len(again_b) + len(ceiling_b) + len(ascending_b)} factorization checks, "
          f"{len(prime_test)} prime verdicts ({int(prime_test.sum())} prime), "
          f"{ramified.size} ramified verdicts ({int(ramified.sum())} refused), "
          f"{len(primes)} sieved primes")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], parents=[SRC_ARG])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="FILE.npz")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
