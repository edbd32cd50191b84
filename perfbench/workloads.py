"""The benchmark's three workloads.

Each workload class builds its inputs from the seed in ``__init__`` (that is
set-up: imports, input generation, character and parameter construction),
runs the library in ``run`` (the timed phase, one call after another) and
checks every output in ``check``.  The library only ever sees the generated
inputs.

* ``scan-ladder``: level-1 sup-norm scans at three heights, one of them above
  t = 60 where the Bessel values must come from mpmath.
* ``fe-matrix``: functional-equation residuals at seeded points across the
  acceptance pair matrix at t0 in {5, 10}.
* ``arith-sweep``: Gauss-sum law, Hecke relations, the amplifier
  factorization identity and amplifier sums; no Bessel values, no L-values.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from hostspeed import Probe
from eisenkit import amplifier, characters, eisenstein, supnorm
from eisenkit.amplifier import AmplifierConfig
from eisenkit.characters import build_character, character_group
from eisenkit.eisenstein import EisensteinParams

SCAN_REFERENCE = Path(__file__).parent / "data" / "scan_reference.json"


@dataclass
class Outcome:
    """What one timed pass produced, before and after checking.

    The timed phase is a fixed sequence of steps, the same in every pass of a
    run; ``step_s`` holds their durations in order, without the time the
    host-speed probe spent inside them, and ``unit_steps`` the indices of
    the steps that are one unit call each (the latency samples).
    """

    probe: Probe                                    # its samples' time is not the step's
    step_s: list = field(default_factory=list)
    step_at: list = field(default_factory=list)     # (start, end) of each step
    unit_steps: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)      # work counts that must repeat exactly
    worst: dict = field(default_factory=dict)       # largest error seen per check

    @contextmanager
    def step(self, unit: bool = False):
        spent = self.probe.spent
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            if unit:
                self.unit_steps.append(len(self.step_s))
            self.step_at.append((start, end))
            self.step_s.append(end - start - (self.probe.spent - spent))

    def tally(self, ok: bool, n: int = 1):
        self.attempted += n
        if not ok:
            self.failed += n

    def worse(self, key: str, value: float):
        self.worst[key] = max(self.worst.get(key, 0.0), value)


def _attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised: a failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# scan-ladder
# ---------------------------------------------------------------------------

class ScanLadder:
    """Level-1 scans with characters 1:0 x 1:0 at default x_steps and eps.

    The ladder is the same for every seed.  A scan's cost moves by up to half
    between neighbouring heights (20.5 costs about 1.5 times 19.5, because
    the Bessel route split and mpmath's working precision change with the
    height), so a seeded height would make the seed, not the program, set
    the spread; and each height needs a recorded reference.
    """

    HEIGHTS = (10.0, 20.0, 61.0)
    X_STEPS = 64
    EPS = 1e-8

    def __init__(self, seed: int):
        self.heights = list(self.HEIGHTS)
        with open(SCAN_REFERENCE) as fh:
            table = json.load(fh)["scans"]
        self.reference = {t0: table[repr(t0)] for t0 in self.heights}
        chi = build_character(1, 0)
        self.params = EisensteinParams(chi, chi, 0.0)

    def run(self, out: Outcome):
        results = []
        for t0 in self.heights:
            with out.step(unit=True):
                rep = _attempt(supnorm.scan, self.params, t0, x_steps=self.X_STEPS,
                               eps=self.EPS, threads=1)
            results.append((t0, rep))
        return results

    def check(self, results, out: Outcome):
        points = 0
        for t0, rep in results:
            if isinstance(rep, Exception):
                out.tally(False)
                continue
            ref = self.reference[t0]
            out.tally(checks.scan_ok(rep.supremum, rep.argmax, len(rep.grid), ref))
            out.worse("scan_rel_dev", abs(rep.supremum - ref["supremum"]) / ref["supremum"])
            points += len(rep.grid)
        out.counts["grid_points"] = points


# ---------------------------------------------------------------------------
# fe-matrix
# ---------------------------------------------------------------------------

class FEMatrix:
    """functional_equation_residual at 20 seeded points per (pair, t0).

    x is uniform on [-1/2, 1/2]; y is stratified on [0.5, 3], one point per
    twentieth, so every seed covers the whole height range and the
    truncation lengths (and with them the cost) stay the same in total.
    """

    PAIRS = (((1, 0), (1, 0)), ((1, 0), (4, 1)), ((3, 1), (4, 1)), ((5, 1), (5, 3)))
    HEIGHTS = (5.0, 10.0)
    POINTS = 20
    EPS = 1e-8

    def __init__(self, seed: int):
        rng = random.Random(f"fe-matrix:{seed}")
        self.cases = []
        for a, b in self.PAIRS:
            chi1, chi2 = build_character(*a), build_character(*b)
            for t0 in self.HEIGHTS:
                params = EisensteinParams(chi1, chi2, t0)
                for k in range(self.POINTS):
                    x = rng.uniform(-0.5, 0.5)
                    y = 0.5 + 2.5 * (k + rng.random()) / self.POINTS
                    self.cases.append((params, x, y))

    def run(self, out: Outcome):
        results = []
        for params, x, y in self.cases:
            with out.step(unit=True):
                r = _attempt(eisenstein.functional_equation_residual, params, x, y, eps=self.EPS)
            results.append(r)
        return results

    def check(self, results, out: Outcome):
        for r in results:
            ok = not isinstance(r, Exception) and checks.fe_residual_ok(r)
            out.tally(ok)
            if ok:
                out.worse("fe_residual", r)
        out.counts["fe_points"] = len(results)


# ---------------------------------------------------------------------------
# arith-sweep
# ---------------------------------------------------------------------------

class ArithSweep:
    """Character arithmetic, divisor sums and prime sums; no Bessel, no L.

    * Gauss-sum law: ``gauss_sum_moduli_squared(q)`` for every q up to
      GAUSS_MAX in a seeded order (the unit call for the latency metrics).
    * Hecke relations: ``generalized_divisor_sum`` for n up to HECKE_N at the
      acceptance parameter sets, each at a seeded height.
    * Factorization identity: ``factorization_check`` at every prime up to
      FACT_PRIMES, for each progression modulus q, each character xi mod q
      and each of FACT_PAIRS seeded (r1, r2), with one fresh
      ``AmplifierConfig`` per (q, xi, pair).
    * Amplifier sums at L = AMP_L on the diagonal r1 = r2 (seeded) for
      q in {1, 3, 4}.
    """

    GAUSS_MAX = 120
    HECKE_N = 2000
    HECKE_SETS = (((1, 0), (1, 0)), ((1, 0), (4, 1)), ((3, 1), (4, 1)),
                  ((5, 1), (5, 3)), ((4, 1), (3, 1)))
    FACT_PRIMES = 1500
    FACT_PAIRS = 3
    FACT_MODULI = {3: ((5, 1), (5, 3)), 4: ((5, 1), (5, 3)),
                   5: ((3, 1), (4, 1)), 8: ((3, 1), (5, 1))}
    AMP_L = 1e6
    AMP_MODULI = (1, 3, 4)

    def __init__(self, seed: int):
        rng = random.Random(f"arith-sweep:{seed}")
        self.gauss_moduli = list(range(1, self.GAUSS_MAX + 1))
        rng.shuffle(self.gauss_moduli)

        self.hecke = [(build_character(*a), build_character(*b), 1j * rng.uniform(2.0, 12.0))
                      for a, b in self.HECKE_SETS]
        self.spf = checks.smallest_prime_factors(max(self.HECKE_N, self.FACT_PRIMES))

        self.primes = [p for p in range(2, self.FACT_PRIMES + 1) if self.spf[p] == p]
        self.fact = []
        for q, (a, b) in self.FACT_MODULI.items():
            chi1, chi2 = build_character(*a), build_character(*b)
            pairs = [(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))
                     for _ in range(self.FACT_PAIRS)]
            self.fact.append((q, chi1, chi2, list(character_group(q)), pairs))

        self.principal = build_character(1, 0)
        self.amp_r = [rng.uniform(10.0, 30.0) for _ in self.AMP_MODULI]

    def run(self, out: Outcome):
        gauss = []
        for q in self.gauss_moduli:
            with out.step(unit=True):
                squares = _attempt(characters.gauss_sum_moduli_squared, q)
            gauss.append((q, squares))

        hecke = []
        for chi1, chi2, s in self.hecke:
            gds = eisenstein.generalized_divisor_sum
            with out.step():
                lam = _attempt(lambda: [0j] + [gds(chi1, chi2, s, n)
                                               for n in range(1, self.HECKE_N + 1)])
            hecke.append((chi1, chi2, lam))

        defects = []
        for q, chi1, chi2, xis, pairs in self.fact:
            for xi in xis:
                for r1, r2 in pairs:
                    with out.step():
                        cfg = _attempt(AmplifierConfig, q=q, L=100.0, r1=r1, r2=r2,
                                       chi1=chi1, chi2=chi2)
                        if isinstance(cfg, Exception):
                            defects.append(cfg)
                            continue
                        for p in self.primes:
                            if (q * cfg.level) % p:
                                defects.append(_attempt(amplifier.factorization_check, p, xi, cfg))

        sums = []
        for q, r in zip(self.AMP_MODULI, self.amp_r):
            with out.step():
                cfg = _attempt(AmplifierConfig, q=q, L=self.AMP_L, r1=r, r2=r,
                               chi1=self.principal, chi2=self.principal)
                value = cfg if isinstance(cfg, Exception) else _attempt(amplifier.amplifier_sum, cfg)
            sums.append((q, cfg, value))
        return gauss, hecke, defects, sums

    def check(self, results, out: Outcome):
        gauss, hecke, defects, sums = results
        primitive = 0
        for q, squares in gauss:
            if isinstance(squares, Exception):
                out.tally(False)
                continue
            out.tally(checks.gauss_law_ok(squares, q))
            primitive += len(squares)
            if len(squares):
                out.worse("gauss_deviation", float(abs(squares - q).max()))

        relations = checks.hecke_relation_count(self.HECKE_N, self.spf)
        for chi1, chi2, lam in hecke:
            if isinstance(lam, Exception):
                out.tally(False, relations)
                continue
            central = lambda p: chi1.evaluate(p) * chi2.evaluate(p)
            bad = checks.hecke_failures(lam, central, self.spf)
            out.attempted += relations
            out.failed += bad

        for d in defects:
            ok = not isinstance(d, Exception) and checks.factorization_ok(d)
            out.tally(ok)
            if ok:
                out.worse("factorization_defect", d)

        for q, cfg, value in sums:
            ok = not isinstance(value, Exception) and checks.amplifier_ok(
                value, q, cfg.weight.mellin_at_one, self.AMP_L)
            out.tally(ok)

        out.counts["primitive_characters"] = primitive
        out.counts["prime_evaluations"] = len(defects)
        out.counts["hecke_relations"] = relations * len(hecke)


WORKLOADS = {
    "scan-ladder": ScanLadder,
    "fe-matrix": FEMatrix,
    "arith-sweep": ArithSweep,
}
