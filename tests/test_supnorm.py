"""Siegel-region scans, their serialization, and the growth-exponent fit."""

from __future__ import annotations

import gc
import json
import math
import pickle
import re
import sys
import time

import numpy as np
import pytest

from eisenkit.characters import build_character
from eisenkit.eisenstein import EisensteinParams
from eisenkit.special_functions import NumericEnvelopeError, NumericsError
from eisenkit.supnorm import (
    ScanAbortedError,
    ScanReport,
    exponent_fit,
    geometric_grid,
    load_report,
    scan,
    spectral_height,
    theorem_reference,
)

CHI1 = build_character(1, 0)
CHI3 = build_character(3, 1)
CHI4 = build_character(4, 1)
LEVEL1 = EisensteinParams(CHI1, CHI1, 0.0)


def test_spectral_height_floor():
    assert spectral_height(0.0) == 0.5
    assert spectral_height(0.2) == 0.5
    assert spectral_height(-37.0) == 37.0


def test_geometric_grid_shape():
    grid = geometric_grid(0.3, 5.0, ratio=1.05)
    assert grid[0] == pytest.approx(0.3)
    assert grid[-1] <= 5.0 < grid[-1] * 1.05
    for a, b in zip(grid, grid[1:]):
        assert b / a == pytest.approx(1.05, rel=1e-12)


def test_geometric_grid_validation():
    with pytest.raises(ValueError):
        geometric_grid(5.0, 0.3)
    with pytest.raises(ValueError):
        geometric_grid(0.3, 5.0, ratio=0.99)
    for y_max in (math.inf, math.nan):     # the grid would grow without end
        with pytest.raises(ValueError, match="y_max < inf"):
            geometric_grid(0.3, y_max)


def test_geometric_grid_caps_its_point_count():
    """A ratio just above 1 is refused before the loop: 1 + 1e-9 asks for
    about 3.5e9 points, which used to run out of memory."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds 4096"):
        geometric_grid(0.3, 10.0, ratio=1 + 1e-9)
    assert time.perf_counter() - start < 1.0
    assert len(geometric_grid(1.0, 1.05 ** 4095.5, ratio=1.05)) == 4096
    with pytest.raises(ValueError, match="exceeds 4096"):
        geometric_grid(1.0, 1.05 ** 4096.5, ratio=1.05)
    for y_min, y_max in ((1e-300, 1e10), (5e-324, 1.0)):   # y_max / y_min overflows
        with pytest.raises(ValueError, match="exceeds 4096"):
            geometric_grid(y_min, y_max)


def test_scan_invariants():
    report = scan(LEVEL1, 12.0, x_steps=8, y_grid=(0.5, 0.8, 1.3))
    assert len(report.grid) == 24
    assert report.t0 == 12.0
    sup = max(point[2] for point in report.grid)
    assert report.supremum == sup
    x, y = report.argmax
    assert (x, y, sup) in report.grid
    assert report.metadata["chart"] == "cusp-infinity"
    assert report.metadata["x_steps"] == 8
    assert len(report.metadata["modes"]) == 3
    assert all(m >= 1 for m in report.metadata["modes"])
    assert report.wall_time >= 0.0


def test_scan_floor_and_height_guards():
    with pytest.raises(ValueError):
        scan(LEVEL1, 12.0, y_grid=(0.2, 0.5))
    with pytest.raises(ValueError):
        scan(LEVEL1, 12.0, x_steps=0)
    with pytest.raises(ValueError):
        scan(LEVEL1, 12.0, eps=0.0)


def test_scan_rejects_fewer_than_one_thread():
    for threads in (0, -3):
        with pytest.raises(ValueError, match=f"got {threads}"):
            scan(LEVEL1, 12.0, x_steps=4, y_grid=(0.5,), threads=threads)


def test_scan_refuses_non_integer_steps_and_threads(monkeypatch):
    """A float or a bool for x_steps or threads is refused by name before any
    work, instead of a bare TypeError from range, or True read as 1."""
    from eisenkit import supnorm

    def no_work(*args):
        raise AssertionError("the scan evaluated a row")

    monkeypatch.setattr(supnorm, "_fourier_grid", no_work)
    for name in ("x_steps", "threads"):
        for value in (2.5, True, False, "8", None):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
                scan(LEVEL1, 10.0, y_grid=(0.5,), **{name: value})


def test_scan_names_a_non_finite_y_grid_entry():
    """nan compares false with the floor, so it used to pass the floor check
    and fail later as a truncation without a tail budget."""
    for y_grid, entry in (([math.nan, 1.0], "nan"), ([0.5, math.inf], "inf"),
                          ([-math.inf, 0.5], "-inf")):
        with pytest.raises(ValueError, match=f"^y-grid entry {entry} is not finite$"):
            scan(LEVEL1, 12.0, x_steps=4, y_grid=y_grid)


def test_scan_refusals_do_no_cutoff_work(monkeypatch):
    """A non-finite y entry, a y below the floor, |t0| > 200 and a bad
    x_steps are refused before any tail cutoff is searched."""
    from eisenkit import eisenstein

    def forbidden(*args):
        raise AssertionError("a tail cutoff was searched")

    monkeypatch.setattr(eisenstein, "_truncation", forbidden)
    for kwargs in ({"y_grid": (0.5, math.nan)}, {"y_grid": (0.2, 0.5)}, {"x_steps": 0},
                   {"x_steps": 4097}, {"x_steps": 2.0}):
        with pytest.raises(ValueError):
            scan(LEVEL1, 12.0, **kwargs)
    with pytest.raises(NumericEnvelopeError):
        scan(LEVEL1, 200.5, y_grid=(0.5, 0.9))


def test_scan_modes_equal_the_scalar_search_for_one_and_three_threads():
    """One thread takes the four rows' cutoffs as one column, three threads
    as a one-row, a one-row and a two-row chunk: both report the scalar
    search's M at every row, the one-row chunks from whittaker_tail_cutoff
    itself."""
    from eisenkit.eisenstein import _truncation

    y_grid = (0.3, 0.55, 1.1, 2.4)
    want = [_truncation(EisensteinParams(CHI1, CHI1, 30.0), [y], 1e-8)[0] for y in y_grid]
    for threads in (1, 3):
        assert scan(LEVEL1, 30.0, x_steps=3, y_grid=y_grid, threads=threads).metadata["modes"] == want


def test_scan_aborts_outside_the_bessel_envelope():
    # a height past the order bound is refused before any row, and a
    # non-finite one is no height at all
    with pytest.raises(NumericEnvelopeError, match=r"^t0 = 250 outside the K-Bessel order bound"):
        scan(LEVEL1, 250.0, x_steps=4, y_grid=(0.5, 0.7))
    with pytest.raises(ValueError, match="t0 must be finite"):
        scan(LEVEL1, math.inf, x_steps=4, y_grid=(0.5, 0.7))
    # the first two rows are in the envelope; the batched Bessel call fails
    # as a whole, and the message still names the failing row
    for threads in (1, 3):
        with pytest.raises(ScanAbortedError, match=r"at y = 150 after 2 of 3 rows"):
            scan(LEVEL1, 12.0, x_steps=4, y_grid=(0.5, 0.7, 150.0), threads=threads)
    assert issubclass(ScanAbortedError, NumericsError)


def test_scan_aborts_on_a_non_finite_value(monkeypatch):
    """A NaN in one row stops the scan with that row's height and index,
    instead of leaving the supremum to wherever the NaN sits."""
    from eisenkit import supnorm

    real = supnorm._fourier_grid

    def nan_at_y(series, xs, ys, eps):
        out = real(series, xs, ys, eps)
        for values, _ in out:
            values[np.asarray(ys) == 0.7, 2] = math.nan
        return out

    monkeypatch.setattr(supnorm, "_fourier_grid", nan_at_y)
    for threads in (1, 3):
        with pytest.raises(ScanAbortedError, match=r"at y = 0.7 after 1 of 3 rows: .*not finite"):
            scan(LEVEL1, 12.0, x_steps=4, y_grid=(0.5, 0.7, 0.9), threads=threads)


def test_scan_argmax_is_the_first_maximum(monkeypatch):
    """When every |F| ties, the supremum is attained first at x = 0 on the
    lowest row, whatever the thread count; the report keeps Python floats,
    so it round-trips through JSON."""
    from eisenkit import supnorm

    monkeypatch.setattr(supnorm, "_fourier_grid", lambda series, xs, ys, eps: [
        (np.full((len(ys), len(xs)), 1.5 + 2j), [1] * len(ys)) for _ in series])
    ys = (0.5, 0.7, 0.9, 1.2)
    for threads in (1, 3):
        report = scan(LEVEL1, 12.0, x_steps=5, y_grid=ys, threads=threads)
        assert report.argmax == (0.0, ys[0])
        assert type(report.supremum) is float and report.supremum == 2.5
        assert len(report.grid) == 20
        assert all(type(entry) is tuple and len(entry) == 3
                   and all(type(v) is float for v in entry) for entry in report.grid)
        assert load_report(report.to_json()) == report


def test_scan_grid_is_a_read_only_view_of_its_rows(monkeypatch):
    """The grid serves the rows (x, y, |F|) y-major, each a tuple of Python
    floats built when read, over 1 and 3 threads: the rows are rebuilt here
    from the metadata's sizes and a known |F| = |10 y + x - 7|."""
    from eisenkit import supnorm

    monkeypatch.setattr(supnorm, "_fourier_grid", lambda series, xs, ys, eps: [
        (np.add.outer(10.0 * np.asarray(ys), np.asarray(xs)) - 7.0 + 0j, [1] * len(ys))
        for _ in series])
    y_grid = (0.9, 0.5, 0.7, 1.2)
    grids = []
    for threads in (1, 3):
        report = scan(LEVEL1, 12.0, x_steps=5, y_grid=y_grid, threads=threads)
        n, m = report.metadata["x_steps"], report.metadata["y_points"]
        xs = [0.5 * i / (n - 1) for i in range(n)]
        rows = tuple((x, y, abs(10.0 * y + x - 7.0)) for y in sorted(y_grid) for x in xs)
        grid = report.grid
        grids.append(grid)
        assert len(grid) == len(rows) == n * m == 20
        assert tuple(grid) == rows and list(grid) == list(rows)
        assert [grid[i] for i in range(len(grid))] == list(rows)
        assert grid[-1] == rows[-1] and grid[-len(grid)] == rows[0] and grid[np.int64(7)] == rows[7]
        assert grid[3:9] == rows[3:9] and grid[::-3] == rows[::-3] and grid[30:] == ()
        assert type(grid[3:9]) is tuple
        for i in (len(grid), -len(grid) - 1):
            with pytest.raises(IndexError):
                grid[i]
        assert rows[7] in grid and (0.0, 0.5, 0.0) not in grid
        assert all(type(row) is tuple and len(row) == 3 and all(type(v) is float for v in row)
                   for row in (*grid, grid[0], grid[-1], *grid[2:5]))
        assert (report.supremum, report.argmax) == (rows[-1][2], rows[-1][:2])
        loaded = load_report(report.to_json())
        assert type(loaded.grid) is tuple
        assert grid == rows and rows == grid and grid == loaded.grid and loaded.grid == grid
        assert not grid != rows and grid != rows[:-1] and rows[:-1] != grid and grid != list(rows)
        assert hash(grid) == hash(rows) and hash(report) == hash(loaded)
        assert loaded == report and report == loaded
        with pytest.raises(ValueError, match="read-only"):
            grid._values[0] = 0.0
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report and copy.grid == rows and not copy.grid._values.flags.writeable
    assert grids[0] == grids[1] and hash(grids[0]) == hash(grids[1])


def test_scan_allocates_no_object_per_grid_point():
    """With the cyclic collector off, a level-1 scan at t0 = 20, x_steps = 64
    (3,392 rows) leaves fewer new gc-tracked objects than rows: the grid
    builds a row when it is read.  (In a fresh process a tuple per row grew
    the count by 3,397, the view by 6.)"""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        report = scan(LEVEL1, 20.0, x_steps=64)
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(report.grid) == 3392
    assert grown < len(report.grid), grown


def test_reference_bound_formula():
    val = theorem_reference(LEVEL1, 160.0)
    assert val == pytest.approx((1.0 * 160.0) ** 0.01 * 160.0 ** 0.375, rel=1e-12)
    # below the spectral floor the height is clamped
    assert theorem_reference(LEVEL1, 0.1) == theorem_reference(LEVEL1, 0.5)
    level12 = EisensteinParams(CHI3, CHI4, 0.0)
    assert theorem_reference(level12, 40.0) == pytest.approx(
        (12.0 * 40.0) ** 0.01 * 40.0 ** 0.375, rel=1e-12)


def test_json_round_trip(tmp_path):
    report = scan(LEVEL1, 9.0, x_steps=6, y_grid=(0.5, 1.1))
    path = tmp_path / "scan.json"
    path.write_text(report.to_json())
    loaded = load_report(path.read_text())
    assert loaded.t0 == report.t0
    assert loaded.grid == report.grid
    assert loaded.supremum == report.supremum
    assert loaded.argmax == report.argmax
    assert loaded.truncation_eps == report.truncation_eps
    payload = json.loads(report.to_json())
    assert payload["schema"] == "eisenkit-scan-v1"


def test_load_report_names_a_missing_field():
    """A payload without one of its fields, or one that is not a JSON object,
    is refused by a ValueError naming it, as a wrong schema is, instead of a
    bare KeyError or AttributeError."""
    payload = json.loads(scan(LEVEL1, 9.0, x_steps=4, y_grid=(0.5,)).to_json())
    for name in payload.keys() - {"schema"}:
        broken = {k: v for k, v in payload.items() if k != name}
        with pytest.raises(ValueError, match=f"^scan report has no '{name}' field$"):
            load_report(json.dumps(broken))
    for other, kind in (([payload], "list"), ("text", "str"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"^a scan report is a JSON object, not a {kind}$"):
            load_report(json.dumps(other))
    with pytest.raises(ValueError, match="unrecognized report schema"):
        load_report(json.dumps({**payload, "schema": "other"}))


def test_csv_has_header_and_rows():
    report = scan(LEVEL1, 9.0, x_steps=4, y_grid=(0.5,))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "x,y,absF"
    assert len(lines) == 1 + len(report.grid)
    x, y, val = report.grid[0]
    assert lines[1] == f"{x!r},{y!r},{val!r}"


def test_exponent_fit_recovers_a_synthetic_power_law():
    alpha = 0.231
    reports = []
    for t0 in (20.0, 40.0, 80.0):
        sup = 3.7 * spectral_height(t0) ** alpha
        reports.append(ScanReport(
            params=LEVEL1, t0=t0, grid=((0.0, 1.0, sup),), supremum=sup,
            argmax=(0.0, 1.0), truncation_eps=1e-8, wall_time=0.0,
            metadata={}))
    assert exponent_fit(reports) == pytest.approx(alpha, abs=1e-12)


def test_exponent_fit_needs_three_reports_and_one_family():
    report = scan(LEVEL1, 9.0, x_steps=4, y_grid=(0.5,))
    with pytest.raises(ValueError):
        exponent_fit([report, report])
    other = scan(EisensteinParams(CHI3, CHI4, 0.0), 9.0, x_steps=4, y_grid=(0.5,))
    with pytest.raises(ValueError):
        exponent_fit([report, report, other])
    with pytest.raises(ValueError, match="distinct spectral heights"):
        exponent_fit([report, report, report])


def test_scan_matches_direct_evaluation():
    """The reported |F| is exactly |evaluate_truncated| at the same point,
    also at t0 = 199, where the modes below the turning point 2 pi n y = t0
    (105 at y = 0.3, 70 at y = 0.45) fill several 32-value saddle blocks."""
    from eisenkit.eisenstein import evaluate_truncated

    for t0, y_grid in ((12.0, (0.6, 1.4)), (199.0, (0.3, 0.45))):
        report = scan(LEVEL1, t0, x_steps=4, y_grid=y_grid, eps=1e-8)
        for y, modes in zip(y_grid, report.metadata["modes"]):   # each row straddles the turning point
            assert modes > t0 / (2.0 * math.pi * y)
        here = EisensteinParams(CHI1, CHI1, t0)
        for x, y, val in report.grid:
            assert val == float(np.abs(evaluate_truncated(here, x, y, eps=1e-8)))


def test_scan_does_not_depend_on_the_thread_count():
    """Seven rows split unevenly over 2, 3 and 4 threads give the same grid,
    with the chunks growing the fresh series' state at once, switching often."""
    y_grid = geometric_grid(0.4, 2.5, ratio=1.35)
    assert len(y_grid) == 7
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = [scan(LEVEL1, 14.0, x_steps=5, y_grid=y_grid, threads=n) for n in (1, 2, 3, 4)]
    finally:
        sys.setswitchinterval(switch)
    for rep in reports[1:]:
        assert rep.grid == reports[0].grid
        assert rep.metadata["modes"] == reports[0].metadata["modes"]


def test_threaded_scan_frees_its_chunks_before_the_grid(monkeypatch):
    """Once the rows of a threaded scan are concatenated, the chunks' |F|
    arrays are freed: the traced memory held when the report is built, the
    grid complete, is that of one thread plus less than 4 bytes a grid point
    (a warm level-1 scan at t0 = 61 with 4864 points: +6 to +10 KB over
    2, 3 and 4 threads; +47 to +49 KB while the chunks, 8 bytes a point,
    stayed)."""
    import tracemalloc

    from eisenkit import supnorm

    held = []
    report = supnorm.ScanReport

    def measured(**fields):
        held.append(tracemalloc.get_traced_memory()[0])
        return report(**fields)

    monkeypatch.setattr(supnorm, "ScanReport", measured)
    points = {}
    for threads in (1, 2, 3, 4):
        scan(LEVEL1, 61.0, threads=threads)       # warm: the series' state and the pool's imports
        tracemalloc.start()
        try:
            points[threads] = len(scan(LEVEL1, 61.0, threads=threads).grid)
        finally:
            tracemalloc.stop()
    one = held[1]
    assert points[1] == 4864
    for threads, memory in zip((2, 3, 4), held[3::2]):
        assert memory - one < 4 * points[threads], (threads, memory - one)


def test_scan_batches_its_bessel_rows(monkeypatch):
    from eisenkit import eisenstein

    calls = []
    real = eisenstein.bessel_k_row

    def counted(order, xs):
        calls.append(len(xs))
        return real(order, xs)

    monkeypatch.setattr(eisenstein, "bessel_k_row", counted)
    report = scan(LEVEL1, 20.0, x_steps=4)
    rows = report.metadata["y_points"]
    assert 0 < len(calls) < rows
    assert sum(calls) == sum(report.metadata["modes"])
