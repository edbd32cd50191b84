#!/usr/bin/env python3
"""Freeze a reference table of Dirichlet L-values over the supported envelope.

Samples the moduli q in {1, 3, 4, 5, 8, 13, 97, 1000, 9973} (9973 is the
largest prime below the envelope's q <= 1e4), up to two primitive characters
per modulus, and points s = sigma + it with sigma in {-1/2, 0, 1/2, 1, 2} and
|t| up to 1e3, the edge of the envelope.  Each value comes from the test
suite's independent oracle (mpmath's Hurwitz zeta at 30 to 45 digits,
character values by walking generator powers) and is written with its
(q, index, s) to a JSON fixture.  The draw is seeded so the fixture is reproducible bit for
bit; regenerating it after an oracle change is a deliberate act, not drift.

The largest modulus costs one Hurwitz zeta per unit, about 0.03 s each at
|t| = 1e3, so the whole run takes roughly a quarter of an hour.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from oracles import dirichlet_l_mp  # noqa: E402
from eisenkit.characters import character_group, character_index, conductor  # noqa: E402

SMALL = (1, 3, 4, 5, 8, 13, 97)
SIGMAS = (-0.5, 0.0, 0.5, 1.0, 2.0)
# |t| drawn log-uniformly from each band, so every decade of height is hit
BANDS = ((0.1, 1.0), (1.0, 30.0), (30.0, 300.0), (300.0, 1000.0))


def _primitive(q: int, count: int, rng: random.Random) -> list[int]:
    indices = [character_index(chi) for chi in character_group(q) if conductor(chi) == q]
    return sorted(rng.sample(indices, min(count, len(indices))))


def _height(band: tuple[float, float], rng: random.Random) -> float:
    lo, hi = band
    return rng.choice((-1.0, 1.0)) * lo * (hi / lo) ** rng.random()


def points(rng: random.Random) -> list[tuple[int, int, complex]]:
    out = []
    for q in SMALL:
        for index in _primitive(q, 2, rng):
            for sigma in SIGMAS:
                out += [(q, index, complex(sigma, _height(band, rng))) for band in BANDS]
            if q > 1:
                # the real points s = 0 and s = 1, where the Hurwitz poles cancel
                out += [(q, index, 0j), (q, index, 1 + 0j)]
    # the edge |Im s| = 1e3
    out += [(97, index, complex(sigma, 1e3)) for index in _primitive(97, 1, rng) for sigma in (0.0, 1.0)]
    (index,) = _primitive(1000, 1, rng)
    out += [(1000, index, complex(sigma, _height(band, rng))) for sigma in SIGMAS for band in BANDS]
    (index,) = _primitive(9973, 1, rng)
    out += [(9973, index, complex(-0.5, _height(BANDS[0], rng))),
            (9973, index, complex(0.0, _height(BANDS[1], rng))),
            (9973, index, complex(0.5, -1e3)),
            (9973, index, 1 + 0j),
            (9973, index, complex(2.0, _height(BANDS[2], rng)))]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261018)
    parser.add_argument("--out", type=Path, default=REPO / "tests" / "data" / "l_oracle.json")
    args = parser.parse_args()

    todo = points(random.Random(args.seed))
    entries = []
    start = time.time()
    for k, (q, index, s) in enumerate(todo):
        value = dirichlet_l_mp(s, q, index)
        entries.append([q, index, s.real, s.imag, value.real, value.imag])
        if (k + 1) % 20 == 0 or q > 1000:
            print(f"  {k + 1}/{len(todo)}  q = {q}  ({time.time() - start:.1f} s)", flush=True)

    payload = {
        "schema": "eisenkit-l-oracle-v1",
        "seed": args.seed,
        "count": len(entries),
        "columns": ["q", "index", "re_s", "im_s", "re_L", "im_L"],
        "entries": entries,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} with {len(entries)} entries in {time.time() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
