#!/usr/bin/env python3
"""Dump the series layer's outputs, or compare two dumps bit for bit.

    python3 scripts/check_series_bits.py --dump FILE.npz [--src DIR]
    python3 scripts/check_series_bits.py --compare A.npz B.npz

--dump evaluates the checkout this script sits in, or the eisenkit sources
in DIR (a src/ directory) with --src, with this checkout's workload
definitions, and saves:
  * the benchmark's scan ladder: level-1 scans (1:0 x 1:0, x_steps = 64,
    eps = 1e-8, threads = 1) at t0 = 10, 20 and 61, and the t0 = 20 scan
    again with threads = 2: every grid entry (x, y, |F|), the truncation
    length of every row, the supremum and its argmax;
  * the benchmark's 160 functional-equation residuals for seeds 7 and 8,
    and seed 7's a second time: in reverse order, on the same params
    objects, after an evaluate at y = 0.3 on each series and its dual has
    grown every coefficient table past every truncation, so that per-series
    state whose contents depend on call order shows as a mismatch;
  * coefficient_prefactor, the Lambda ratio (at s and the quotient character)
    and scattering_constant (c(s), its ramified product and its local
    factors, prime by prime) for the benchmark's FE-matrix parameter sets
    and their duals, and the two L-values these are built on,
    L(2s+1, psi) and L(2s, psi) with psi the quotient character, each as
    its own array, so that a change to the L-value sum shows there by name;
  * bessel_k_row over a fixed, seeded set of orders, each with a row of
    arguments spread log-uniformly over [1e-3, 700].

--compare counts the entries whose raw bytes differ between two dumps, per
array, with the largest absolute and relative deviation among them, and
exits 1 if any differ or an array is missing from either side.
Run --dump on two checkouts (say, before and after a change to the Bessel
or series code), or one copy of this script with --src on each checkout's
src/, and --compare the two files; a dump takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
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

from eisenkit.characters import build_character  # noqa: E402
from eisenkit.eisenstein import (  # noqa: E402
    _Y_FLOOR,
    EisensteinParams,
    coefficient_prefactor,
    evaluate,
    functional_equation_residual,
    scattering_constant,
)
from eisenkit.lfunctions import _lambda_ratio, dirichlet_l  # noqa: E402
from eisenkit.special_functions import bessel_k_row  # noqa: E402
from eisenkit.supnorm import scan  # noqa: E402
from workloads import FEMatrix, ScanLadder  # noqa: E402

# (t0, threads): the ladder on one thread, then its middle scan on two
SCANS = tuple((t0, 1) for t0 in ScanLadder.HEIGHTS) + ((20.0, 2),)
FE_SEEDS = (7, 8)
BESSEL_ORDERS = 9
BESSEL_ARGS = 300


def _bessel_cases() -> tuple[np.ndarray, np.ndarray]:
    """Orders with |Re| <= 10 and |Im| <= 200 (two on the axis), each with
    a row of arguments in a seeded order."""
    rng = np.random.default_rng(20170)
    orders = rng.uniform(-3.0, 3.0, BESSEL_ORDERS) + 1j * rng.uniform(-150.0, 150.0, BESSEL_ORDERS)
    orders[:2] = orders[:2].imag * 1j
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(700.0), (BESSEL_ORDERS, BESSEL_ARGS)))
    return orders, xs


def dump(path: str) -> None:
    level1 = EisensteinParams(build_character(1, 0), build_character(1, 0), 0.0)
    arrays = {}
    for t0, threads in SCANS:
        rep = scan(level1, t0, x_steps=ScanLadder.X_STEPS, eps=ScanLadder.EPS, threads=threads)
        tag = f"scan_{t0:g}" + ("" if threads == 1 else f"_threads{threads}")
        arrays[f"{tag}_grid"] = np.array(rep.grid, dtype=float)
        arrays[f"{tag}_modes"] = np.array(rep.metadata["modes"], dtype=np.int64)
        arrays[f"{tag}_supremum"] = np.array([rep.supremum])
        arrays[f"{tag}_argmax"] = np.array(rep.argmax)

    for seed in FE_SEEDS:
        cases = FEMatrix(seed).cases
        arrays[f"fe_seed{seed}"] = np.array(
            [functional_equation_residual(p, x, y, eps=FEMatrix.EPS) for p, x, y in cases])
        if seed == FE_SEEDS[0]:
            for p in dict.fromkeys(p for p, _, _ in cases):
                for side in (p, p.dual()):
                    evaluate(side, 0.0, _Y_FLOOR, FEMatrix.EPS)
            reverse = [functional_equation_residual(p, x, y, eps=FEMatrix.EPS)
                       for p, x, y in reversed(cases)]
            arrays[f"fe_seed{seed}_reversed_after_growth"] = np.array(reverse[::-1])

    series = [EisensteinParams(build_character(*a), build_character(*b), t0)
              for a, b in FEMatrix.PAIRS for t0 in FEMatrix.HEIGHTS]
    series += [p.dual() for p in series]
    arrays["const_prefactor"] = np.array([coefficient_prefactor(p) for p in series])
    arrays["const_l_2s_plus_1"] = np.array([dirichlet_l(2 * p.s + 1, p.quotient_character) for p in series])
    arrays["const_l_2s"] = np.array([dirichlet_l(2 * p.s, p.quotient_character) for p in series])
    arrays["const_lambda_ratio"] = np.array([
        _lambda_ratio(p.s, p.quotient_character, dirichlet_l(2 * p.s + 1, p.quotient_character))
        for p in series])
    data = [scattering_constant(p) for p in series]
    arrays["const_scattering"] = np.array([d.scattering for d in data])
    arrays["const_ramified"] = np.array([d.ramified_product for d in data])
    local = [(k, p, v) for k, d in enumerate(data) for p, v in sorted(d.local_factors.items())]
    arrays["const_local_labels"] = np.array([(k, p) for k, p, _ in local], dtype=np.int64)
    arrays["const_local_factors"] = np.array([v for _, _, v in local], dtype=np.complex128)

    orders, xs = _bessel_cases()
    arrays["bessel_orders"] = orders
    arrays["bessel_values"] = np.concatenate([bessel_k_row(nu, row) for nu, row in zip(orders, xs)])

    np.savez_compressed(path, **arrays)
    print(f"{path}: {len(SCANS)} scans, "
          f"{sum(len(arrays[f'fe_seed{s}']) for s in FE_SEEDS)} FE residuals "
          f"(+{len(arrays[f'fe_seed{FE_SEEDS[0]}_reversed_after_growth'])} in reverse), "
          f"constants of {len(series)} series, "
          f"{orders.size * BESSEL_ARGS} Bessel values")


def _raw(a: np.ndarray) -> np.ndarray:
    """One row of raw bytes per entry, so -0.0 != 0.0 and NaN payloads count."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint8).reshape(len(a), -1) if a.ndim else a.view(np.uint8)[None]


def _deviation(x: np.ndarray, y: np.ndarray, differ: np.ndarray) -> str:
    """The largest absolute and relative deviation over the mismatched
    entries (relative to the first dump's entry), or "" if there are none."""
    if not differ.any():
        return ""
    a = x.reshape(len(differ), -1)[differ].astype(complex)
    b = y.reshape(len(differ), -1)[differ].astype(complex)
    dev = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(dev == 0, 0.0, dev / np.abs(a))
    return f", max abs deviation {dev.max():.3g}, max rel deviation {rel.max():.3g}"


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    bad = 0
    for name in sorted(set(a.files) | set(b.files)):
        if name not in a.files or name not in b.files:
            print(f"{name}: missing from {path_a if name not in a.files else path_b}")
            bad += 1
            continue
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype:
            print(f"{name}: shape/dtype {x.shape} {x.dtype} vs {y.shape} {y.dtype}")
            bad += 1
            continue
        differ = np.any(_raw(x) != _raw(y), axis=-1)
        mismatches = int(differ.sum())
        print(f"{name}: {len(_raw(x))} entries, {mismatches} mismatches" + _deviation(x, y, differ))
        bad += mismatches
    print(f"total mismatches: {bad}")
    return 1 if bad else 0


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
