"""Record the scan-ladder reference values: supremum and argmax per height.

The stored values are the ones the scan-ladder check compares against at a
relative tolerance of 1e-9.  They were recorded with eisenkit 0.1.0 before any
optimisation; re-record only if a change to the scan is meant to move the
suprema, and say so where the change is described.

    python3 perfbench/record_scan_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from eisenkit import __version__  # noqa: E402
from eisenkit.characters import build_character  # noqa: E402
from eisenkit.eisenstein import EisensteinParams  # noqa: E402
from eisenkit.supnorm import scan  # noqa: E402
from workloads import SCAN_REFERENCE, ScanLadder  # noqa: E402


def main() -> int:
    chi = build_character(1, 0)
    params = EisensteinParams(chi, chi, 0.0)
    scans = {}
    for t0 in ScanLadder.HEIGHTS:
        rep = scan(params, t0, x_steps=ScanLadder.X_STEPS, eps=ScanLadder.EPS, threads=1)
        scans[repr(t0)] = {"supremum": rep.supremum, "argmax": list(rep.argmax),
                           "grid_points": len(rep.grid)}
        print(f"t0 = {t0}: supremum {rep.supremum!r} at {rep.argmax}", flush=True)
    payload = {
        "schema": "perfbench-scan-reference-v1",
        "eisenkit_version": __version__,
        "characters": ["1:0", "1:0"],
        "x_steps": ScanLadder.X_STEPS,
        "eps": ScanLadder.EPS,
        "scans": scans,
    }
    SCAN_REFERENCE.parent.mkdir(exist_ok=True)
    SCAN_REFERENCE.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
