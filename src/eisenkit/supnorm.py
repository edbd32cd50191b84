"""Grid scans of the non-constant Fourier part over a Siegel-type region.

The scan measures |F| rather than |E| because the constant term dominates
high in the cusp while the sup-norm question concerns everything else.  The
region is {x + iy : 0 <= x <= 1/2, y >= y_min}: the expansion is even and
1-periodic in x, so the half-interval already sees the full supremum.  The
y-grid is geometric because the Bessel factors switch from oscillation to
decay near y = T/(2pi) and the interesting structure concentrates there.

This module owns the grid, the thread split and the report.  The rows are
split into contiguous chunks, one per thread, and each chunk is one call of
the Fourier-grid core that also evaluates single points
(eisenstein._fourier_grid).  No value depends on which rows share a call,
so none depends on the thread count.  A numerics error in a chunk is
retried row by row, so that the abort names the first failing row.  The
chunks' |F| fill one float array; a non-finite |F| aborts the scan, and the
supremum is the array's first maximum (np.argmax), so ties go to the lowest
y, then the smallest x.  The report's grid (_Grid) is a view over that array,
made read-only, and the x and y columns: a row is built when it is read.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from eisenkit.characters import build_character, character_index
from eisenkit.eisenstein import _Y_FLOOR, EisensteinParams, _check_height, _fourier_grid
from eisenkit.special_functions import NumericsError, _check_real

__all__ = [
    "ScanAbortedError",
    "ScanReport",
    "exponent_fit",
    "geometric_grid",
    "load_report",
    "scan",
    "spectral_height",
    "theorem_reference",
]

_SCHEMA = "eisenkit-scan-v1"
_X_STEPS_MAX = 4096
_Y_POINTS_MAX = 4096


def spectral_height(t0: float) -> float:
    """T = max(1/2, |t0|), the height entering every bound and fit."""
    return max(0.5, abs(t0))


def geometric_grid(y_min: float, y_max: float, ratio: float = 1.05) -> list[float]:
    """y_min, y_min * ratio, ... up to y_max, at most 4096 points (checked
    before the grid is built, as x_steps is)."""
    if not (math.inf > y_max >= y_min > 0 and ratio > 1):
        raise ValueError("need 0 < y_min <= y_max < inf and ratio > 1")
    points = math.floor((math.log(y_max) - math.log(y_min)) / math.log1p(ratio - 1)) + 1
    if points > _Y_POINTS_MAX:
        raise ValueError(f"geometric grid of about {points} points exceeds {_Y_POINTS_MAX}")
    grid = [y_min]
    while grid[-1] * ratio <= y_max:
        grid.append(grid[-1] * ratio)
    return grid


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class ScanAbortedError(NumericsError):
    """A grid evaluation failed; the message carries partial-progress data."""


class _Grid(Sequence):
    """A scan's rows (x, y, |F|), y-major, built when read; equal to and hashed as their tuple."""

    def __init__(self, xs: list, ys: list, values: np.ndarray):
        values.flags.writeable = False
        self._xs, self._ys, self._values = xs, ys, values.ravel()

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        k = range(len(self._values))[i]     # negative indices, slices, IndexError
        if type(k) is range:
            return tuple(map(self.__getitem__, k))
        y, x = divmod(k, len(self._xs))
        return self._xs[x], self._ys[y], self._values.item(k)

    def __iter__(self):     # off the columns, not one indexed row at a time
        flat = iter(self._values.tolist())
        return ((x, y, next(flat)) for y in self._ys for x in self._xs)

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _Grid)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return _Grid, (self._xs, self._ys, self._values)


@dataclass(frozen=True)
class ScanReport:
    params: EisensteinParams
    t0: float
    grid: Sequence       # rows (x, y, |F|), y-major: a _Grid view from scan, a tuple loaded
    supremum: float
    argmax: tuple        # (x, y) of the first row attaining the supremum
    truncation_eps: float
    wall_time: float
    metadata: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        payload = {
            "schema": _SCHEMA,
            "chi1": [self.params.chi1.modulus, character_index(self.params.chi1)],
            "chi2": [self.params.chi2.modulus, character_index(self.params.chi2)],
            "t0": self.t0,
            "supremum": self.supremum,
            "argmax": list(self.argmax),
            "truncation_eps": self.truncation_eps,
            "wall_time": self.wall_time,
            "metadata": self.metadata,
            "grid": [list(row) for row in self.grid],
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        return "x,y,absF\n" + "".join(f"{x!r},{y!r},{val!r}\n" for x, y, val in self.grid)


def load_report(text: str) -> ScanReport:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"a scan report is a JSON object, not a {type(payload).__name__}")
    if payload.get("schema") != _SCHEMA:
        raise ValueError(f"unrecognized report schema {payload.get('schema')!r}")
    try:
        chi1 = build_character(*payload["chi1"])
        chi2 = build_character(*payload["chi2"])
        t0 = float(payload["t0"])
        return ScanReport(
            params=EisensteinParams(chi1, chi2, t0),
            t0=t0,
            grid=tuple((row[0], row[1], row[2]) for row in payload["grid"]),
            supremum=payload["supremum"],
            argmax=tuple(payload["argmax"]),
            truncation_eps=payload["truncation_eps"],
            wall_time=payload["wall_time"],
            metadata=payload["metadata"],
        )
    except KeyError as exc:     # the payload's own key lookups above
        raise ValueError(f"scan report has no {exc.args[0]!r} field") from None


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def scan(params: EisensteinParams, t0: float, x_steps: int = 64,
         y_grid=None, eps: float = 1e-8, threads: int = 1) -> ScanReport:
    """Measure |F(it0, x + iy)| over the grid and extract the supremum.

    The character pair is taken from ``params``; the spectral point is pinned
    to s = i*t0.  ``y_grid`` may be any increasing sequence of heights above
    the evaluation floor; by default a geometric grid up to 1.2*T/(2pi),
    which covers the transition range where the supremum is attained.
    x_steps runs over [1, 4096] and |t0| up to the K-Bessel order bound 200,
    both checked first: the report keeps 8 bytes of |F| a grid point, and
    every row needs K values of order i t0.
    """
    for name, value in (("x_steps", x_steps), ("threads", threads)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if not 1 <= x_steps <= _X_STEPS_MAX:
        raise ValueError(f"x_steps must be in [1, {_X_STEPS_MAX}], got {x_steps}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_height(t0)
    here = EisensteinParams(params.chi1, params.chi2, float(t0))
    T = spectral_height(t0)
    if y_grid is None:
        y_grid = geometric_grid(_Y_FLOOR, max(T * (1.2 / (2.0 * math.pi)), _Y_FLOOR * 1.3))
    ys = sorted(_check_real("y-grid entry", y) for y in y_grid)
    for y in ys:
        if not math.isfinite(y):
            raise ValueError(f"y-grid entry {y!r} is not finite")
    if not ys or ys[0] < _Y_FLOOR * (1 - 1e-12):
        raise ValueError(f"y-grid must stay at or above the evaluation floor {_Y_FLOOR}")
    xs = [0.5 * i / (x_steps - 1) if x_steps > 1 else 0.0 for i in range(x_steps)]

    start = time.perf_counter()

    def measure(lo: int, hi: int) -> tuple[np.ndarray, list[int]]:
        """|F| on rows lo..hi-1, and their mode counts."""
        try:
            (values, modes), = _fourier_grid((here,), xs, ys[lo:hi], eps)
        except NumericsError:
            # row by row, so that the error names the first failing row
            for i in range(lo, hi):
                try:
                    _fourier_grid((here,), xs, ys[i:i + 1], eps)
                except NumericsError as exc:
                    raise ScanAbortedError(
                        f"scan aborted at y = {ys[i]:.6g} after {i} of {len(ys)} rows: {exc}") from exc
            raise
        return np.abs(values), modes

    # contiguous chunks of rows, one per thread
    n = min(threads, len(ys))
    cuts = [len(ys) * k // n for k in range(n + 1)]
    if n > 1:
        # imported here: concurrent.futures pulls in logging, which a
        # single-threaded process never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n) as pool:
            chunks = list(pool.map(measure, cuts[:-1], cuts[1:]))
        values = np.concatenate([v for v, _ in chunks])
        modes = [m for _, chunk_modes in chunks for m in chunk_modes]
        del chunks      # the chunks' |F| arrays, copied into values
    else:       # one chunk's |F| is the array itself, not a copy
        values, modes = measure(0, len(ys))

    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScanAbortedError(
            f"scan aborted at y = {ys[i]:.6g} after {i} of {len(ys)} rows: |F| is not finite")
    grid = _Grid(xs, ys, values)
    x, y, sup = grid[int(np.argmax(values))]     # np.argmax: the first entry attaining the supremum
    elapsed = time.perf_counter() - start
    metadata = {
        "chart": "cusp-infinity",
        "auxiliary_levels": "N0 = 1 and m1 = 1 in this chart over the rationals",
        "reference_bound": theorem_reference(here, t0),
        "x_steps": x_steps,
        "y_points": len(ys),
        "modes": modes,
    }
    return ScanReport(params=here, t0=float(t0), grid=grid, supremum=sup, argmax=(x, y),
                      truncation_eps=eps, wall_time=elapsed, metadata=metadata)


# ---------------------------------------------------------------------------
# exponent fits and the comparison bound
# ---------------------------------------------------------------------------

def exponent_fit(reports) -> float:
    """Least-squares slope of log(supremum) against log(T) across reports."""
    reports = list(reports)
    if len(reports) < 3:
        raise ValueError("exponent fit needs at least 3 reports")
    if len({(rep.params.chi1, rep.params.chi2) for rep in reports}) > 1:
        raise ValueError("exponent fit needs a fixed character pair")
    logt = [math.log(spectral_height(rep.t0)) for rep in reports]
    logs = [math.log(rep.supremum) for rep in reports]
    import statistics   # here: a scan that fits nothing need not import it
    try:
        return statistics.linear_regression(logt, logs).slope
    except statistics.StatisticsError:
        raise ValueError("exponent fit needs distinct spectral heights") from None


def theorem_reference(params: EisensteinParams, T: float) -> float:
    """Shape of the comparison bound, (N*T)^eps * T^(3/8) with eps = 0.01.

    Annotation only: the implied constant is unknown, so reports display this
    next to the measured supremum without asserting anything.
    """
    t_eff = spectral_height(T)
    return (params.level * t_eff) ** 0.01 * t_eff ** 0.375
