#!/usr/bin/env python3
"""Freeze reference tables of K-Bessel values for the test suite.

    python3 scripts/make_bessel_oracle.py
    python3 scripts/make_bessel_oracle.py --count 30 --seed 1105 --out tests/data/bessel_spot_oracle.json
    python3 scripts/make_bessel_oracle.py --envelope

By default the script draws (t, x) pairs with t uniform in [-50, 50] and x
log-uniform in [1e-3, 100], evaluates K_{it}(x) by the cosh-integral
quadrature that the test suite keeps as an independent oracle, and writes the
triples to a JSON fixture: 1000 draws at seed 20260822 are the Bessel backend
acceptance fixture, 30 draws at seed 1105 the quadrature spot checks.

--envelope instead evaluates every point of the test suite's envelope grid
(orders with |Re nu| <= 10 and |Im nu| <= 200, x in [1e-6, 705], seed
20261018) by mpmath's besselk, and writes (Re nu, Im nu, x, Re K, Im K) rows
in grid order.

Every draw is seeded, so a fixture is reproducible bit for bit; regenerating
one after an oracle change is a deliberate act, not drift.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from oracles import bessel_draws, bessel_k_mp, bessel_quadrature, envelope_grid  # noqa: E402


def _quadrature_fixture(seed: int, count: int) -> dict:
    entries = []
    start = time.time()
    for k, (t, x) in enumerate(bessel_draws(seed, count)):
        entries.append([t, x, bessel_quadrature(t, x)])
        if (k + 1) % 100 == 0:
            print(f"  {k + 1}/{count}  ({time.time() - start:.1f} s)")
    return {"schema": "eisenkit-bessel-oracle-v1", "seed": seed, "count": count,
            "entries": entries}


def _envelope_fixture() -> dict:
    entries = []
    for order, xs in envelope_grid():
        for x in xs:
            ref = bessel_k_mp(order, x)
            entries.append([order.real, order.imag, x, ref.real, ref.imag])
    return {"schema": "eisenkit-bessel-envelope-v1", "seed": 20261018, "count": len(entries),
            "columns": ["re_nu", "im_nu", "x", "re_K", "im_K"], "entries": entries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument("--envelope", action="store_true",
                        help="freeze the envelope grid by mpmath instead of quadrature draws")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    start = time.time()
    if args.envelope:
        payload = _envelope_fixture()
        out = args.out or REPO / "tests" / "data" / "bessel_envelope.json"
    else:
        payload = _quadrature_fixture(args.seed, args.count)
        out = args.out or REPO / "tests" / "data" / "bessel_oracle.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out} with {len(payload['entries'])} entries "
          f"in {time.time() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
