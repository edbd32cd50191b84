"""scripts/compare.py reads a bit script's --compare output faithfully,
dumps both sides with the change's copy of each bit script, and records each
side's Tier-1 counts, time and acceptance figures."""

from __future__ import annotations

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
COMPARE = SCRIPTS / "compare.py"


def _load_compare():
    spec = importlib.util.spec_from_file_location("compare_script", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_series_bits():
    """scripts/check_series_bits.py as a module, with sys.path as it was:
    the script puts perfbench/ on it for its workload definitions."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("series_bits_script", SCRIPTS / "check_series_bits.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _moved(a: np.ndarray, limit, inside: bool) -> np.ndarray:
    """a moved up by the largest whole number of its ulps that is at most
    limit (inside), or by one ulp more (outside); a stays in its binade."""
    ulp = np.spacing(np.abs(a))
    n = np.floor(limit / ulp)
    n = np.where(n * ulp > limit, n - 1, n)
    return a + (n if inside else n + 1) * ulp


def test_each_array_is_judged_against_its_declared_tolerance(tmp_path, capsys):
    """Dumps moved just inside and just outside each declared bound read
    within and outside tolerance, array by array: K values against
    1e-15 max(|K|, e^{-pi t/2}), with |K| above and below that floor; a
    scan grid's |F| column, its supremum and the FE residuals absolutely,
    and a grid's x and y exactly; modes and constants exactly.  The
    mismatch counts and the exit status still go by bits."""
    bits, compare = _load_series_bits(), _load_compare()
    args = bits.BESSEL_ARGS
    base = {
        "bessel_orders": np.array([10j, 100j]),
        "bessel_values": np.concatenate([np.full(args, 1.5), np.full(args, 1e-70)]),  # floor 6e-69 at t = 100
        "saddle_61": np.array([3e-40, 1.25]),
        "scan_20_grid": np.array([[0.25, 1.5, 7.0], [0.5, 3.0, 2.0]]),
        "scan_20_supremum": np.array([7.0]),
        "fe_seed7": np.array([1e-9, 3e-10]),
        "scan_20_modes": np.array([12, 14]),
        "const_prefactor": np.array([0.5 + 0.25j]),
    }
    floors = {"bessel_values": np.repeat(np.exp(-np.pi * np.array([10.0, 100.0]) / 2), args),
              "saddle_61": np.exp(-np.pi * np.full(2, 61.0) / 2)}

    def dump(tag: str, inside: bool | None, x_moved: bool = False) -> str:
        arrays = dict(base)
        if inside is not None:
            for name, floor in floors.items():
                a = base[name]
                arrays[name] = _moved(a, 1e-15 * np.maximum(np.abs(a), floor), inside)
            grid = base["scan_20_grid"].copy()
            grid[:, 2] = _moved(grid[:, 2], 1e-12, inside)
            arrays["scan_20_grid"] = grid
            for name in ("scan_20_supremum", "fe_seed7"):
                arrays[name] = _moved(base[name], 1e-12, inside)
            if not inside:
                arrays["scan_20_modes"] = base["scan_20_modes"] + [0, 1]
                arrays["const_prefactor"] = _moved(base["const_prefactor"].real, 0.0, False) + 0.25j
        if x_moved:
            arrays["scan_20_grid"] = base["scan_20_grid"].copy()
            arrays["scan_20_grid"][0, 0] = np.nextafter(0.25, 1.0)
        arrays["bessel_values"] = arrays["bessel_values"].astype(complex)
        path = str(tmp_path / f"{tag}.npz")
        np.savez(path, **arrays)
        return path

    def verdicts(other: str) -> tuple[int, dict]:
        capsys.readouterr()
        status = bits.compare(dump("base", None), other)
        parsed = compare._parse_compare(capsys.readouterr().out, "base.npz")
        return status, parsed

    tolerant = ["bessel_values", "fe_seed7", "saddle_61", "scan_20_grid", "scan_20_supremum"]
    status, parsed = verdicts(dump("inside", True))
    assert status == 1 and parsed["outside_tolerance"] == []
    assert parsed["total_mismatches"] == 2 * args + 2 + 2 + 1 + 2
    assert all(parsed["arrays"][name]["within_tolerance"] for name in parsed["arrays"])
    assert parsed["arrays"]["bessel_values"]["tolerance"] == "scale <= 1e-15"
    assert parsed["arrays"]["scan_20_grid"]["tolerance"] == "grid <= 1e-12"
    assert parsed["arrays"]["const_prefactor"] == {"entries": 1, "mismatches": 0,
                                                   "within_tolerance": True, "tolerance": "exact"}

    status, parsed = verdicts(dump("outside", False))
    assert status == 1
    assert parsed["outside_tolerance"] == sorted(tolerant + ["const_prefactor", "scan_20_modes"])
    assert parsed["arrays"]["bessel_orders"]["within_tolerance"]

    status, parsed = verdicts(dump("x_moved", None, x_moved=True))
    assert status == 1 and parsed["outside_tolerance"] == ["scan_20_grid"]
    assert parsed["arrays"]["scan_20_grid"]["mismatches"] == 1
    # every mode count the dump holds is held exactly, the FE modes included
    for name in ("column_199_modes", "column_61_sigma0.5_modes", "fe_series_dual_seed7_modes"):
        assert bits._tolerance(name) == ("exact", 0.0)


def test_an_array_missing_from_one_dump_counts_as_a_mismatch():
    """An array that the change's dump lacks, or whose shape differs, is
    kept per array and counted in the total, as the bit script counts it;
    one that only the parent's dump lacks is new and counts as none."""
    stdout = "\n".join([
        "bessel_values: 2700 entries, 448 mismatches, max abs deviation 4.41e-39, max rel deviation 6.96e-14",
        "const_l_2s: missing from change-check_series_bits.npz",
        "fe_residuals: 160 entries, 0 mismatches",
        "hecke_past_ceiling: missing from parent-check_series_bits.npz",
        "scan_20_grid: shape/dtype (4864,) float64 vs (4800,) float64",
        "total mismatches: 451",
    ])
    parsed = _load_compare()._parse_compare(stdout, "parent-check_series_bits.npz")
    assert parsed["arrays"] == {
        "bessel_values": {"entries": 2700, "mismatches": 448,
                          "max_abs_deviation": 4.41e-39, "max_rel_deviation": 6.96e-14},
        "const_l_2s": {"mismatches": 1, "problem": "missing from change-check_series_bits.npz"},
        "fe_residuals": {"entries": 160, "mismatches": 0},
        "hecke_past_ceiling": {"mismatches": 0, "new": True},
        "scan_20_grid": {"mismatches": 1, "problem": "shape/dtype (4864,) float64 vs (4800,) float64"},
    }
    assert parsed["total_mismatches"] == 450
    assert parsed["new_arrays"] == ["hecke_past_ceiling"]


def test_the_scale_deviation_of_k_values_is_recorded():
    """A K array's line also gives its deviation relative to
    max(|K|, e^{-pi t/2}), recorded beside the absolute and relative ones;
    a line without it records none."""
    stdout = "\n".join([
        "bessel_values: 2700 entries, 448 mismatches, max abs deviation 4.41e-39, "
        "max rel deviation 2.2e-14, max scale deviation 1.1e-16",
        "saddle_199: 200 entries, 3 mismatches, max abs deviation 3.82e-152, "
        "max rel deviation 4.8e-15, max scale deviation 2.17e-16",
        "fe_seed8: 160 entries, 2 mismatches, max abs deviation 3.8e-17, max rel deviation 0.021",
        "total mismatches: 453",
    ])
    parsed = _load_compare()._parse_compare(stdout, "parent-check_series_bits.npz")
    assert parsed["arrays"] == {
        "bessel_values": {"entries": 2700, "mismatches": 448, "max_abs_deviation": 4.41e-39,
                          "max_rel_deviation": 2.2e-14, "max_scale_deviation": 1.1e-16},
        "saddle_199": {"entries": 200, "mismatches": 3, "max_abs_deviation": 3.82e-152,
                       "max_rel_deviation": 4.8e-15, "max_scale_deviation": 2.17e-16},
        "fe_seed8": {"entries": 160, "mismatches": 2,
                     "max_abs_deviation": 3.8e-17, "max_rel_deviation": 0.021},
    }
    assert parsed["total_mismatches"] == 453


# A bit script in miniature: --dump writes each value its side's eisenkit
# stand-in (src/fake.py) computes, --compare prints a line per array in the
# bit scripts' format.  The change's copy takes --src and dumps "old" and
# "added"; the parent's copy has no --src and dumps "old" alone.
_FAKE_SCRIPT = textwrap.dedent('''
    import argparse, json, sys
    from pathlib import Path
    REPO = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser()
    ap.add_argument("--dump")
    ap.add_argument("--compare", nargs=2)
    if {takes_src}:
        ap.add_argument("--src", default=str(REPO / "src"))
    args = ap.parse_args()
    if args.dump:
        sys.path.insert(0, args.src if {takes_src} else str(REPO / "src"))
        import fake
        Path(args.dump).write_text(json.dumps({{name: getattr(fake, name)() for name in {names}}}))
        sys.exit(0)
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    bad = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{{name}}: missing from {{args.compare[0] if name not in a else args.compare[1]}}")
            bad += 1
        else:
            print(f"{{name}}: 1 entries, {{int(a[name] != b[name])}} mismatches")
            bad += a[name] != b[name]
    sys.exit(1 if bad else 0)
''')


def _checkout(root: Path, fake_src: str, takes_src: bool, names: tuple[str, ...]) -> Path:
    (root / "scripts").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "src" / "fake.py").write_text(textwrap.dedent(fake_src))
    (root / "scripts" / "fake_bits.py").write_text(_FAKE_SCRIPT.format(takes_src=takes_src, names=names))
    return root


def _fake_bits(tmp_path, monkeypatch, parent_src: str) -> dict:
    compare = _load_compare()
    monkeypatch.setattr(compare, "BIT_SCRIPTS", ("fake_bits.py",))
    dirs = {"parent": _checkout(tmp_path / "parent", parent_src, False, ("old",)),
            "change": _checkout(tmp_path / "change", "def old(): return 1\ndef added(): return 2\n",
                                True, ("old", "added"))}
    work = tmp_path / "work"
    work.mkdir()
    return compare._bits(dirs, work)["fake_bits.py"]


def test_the_change_script_dumps_both_sides(tmp_path, monkeypatch):
    """Where the parent's code computes every array, the change's copy dumps
    it from the parent's src/: the added array exists on both sides, and a
    value that the parent's code computes differently is a mismatch."""
    got = _fake_bits(tmp_path, monkeypatch, "def old(): return 1\ndef added(): return 3\n")
    assert got["dumped_by"] == {"parent": "change", "change": "change"}
    assert got["arrays"] == {"added": {"entries": 1, "mismatches": 1}, "old": {"entries": 1, "mismatches": 0}}
    assert got["total_mismatches"] == 1 and got["new_arrays"] == [] and got["exit"] == 1


def test_an_array_the_parent_cannot_compute_is_new(tmp_path, monkeypatch):
    """Where the change's copy fails on the parent's code, the parent's own
    copy dumps it, and the array only the change dumps is new, not a
    mismatch; the script's own exit status still counts it."""
    got = _fake_bits(tmp_path, monkeypatch, "def old(): return 1\n")
    assert got["dumped_by"] == {"parent": "parent", "change": "change"}
    assert got["arrays"] == {"added": {"mismatches": 0, "new": True}, "old": {"entries": 1, "mismatches": 0}}
    assert got["total_mismatches"] == 0 and got["new_arrays"] == ["added"] and got["exit"] == 1
    assert json.loads((tmp_path / "work" / "parent-fake_bits.npz").read_text()) == {"old": 1}


def test_tier1_counts_time_and_acceptance_figures_are_parsed():
    """pytest's closing summary gives the counts and time; each PASS or FAIL
    line gives a verdict and its figures, without its bounds (in
    parentheses) or its timings (in seconds)."""
    stdout = "\n".join([
        "........F.                                                               [100%]",
        "============================= acceptance criteria ==============================",
        "PASS  functional-equation-suite: max residual 1.919e-09 (< 1e-6), 0.0 s (< 60 s)",
        "FAIL  bessel-backend: 1000-point oracle max rel 3.448e-12 (< 1e-10); envelope ratio 1.23 (<= 10); "
        "half-integer pin off",
        "PASS  supnorm-exponent: suprema [7.330, 7.708], slope 0.1726 (<= 0.475), 12.5 s (< 900 s)",
        "=========== 1 failed, 348 passed, 2 warnings in 65.35s (0:01:05) ===========",
    ])
    parsed = _load_compare()._parse_tier1(stdout)
    assert parsed["counts"] == {"failed": 1, "passed": 348, "warnings": 2}
    assert parsed["pytest_s"] == 65.35
    acceptance = parsed["acceptance"]
    assert list(acceptance) == ["functional-equation-suite", "bessel-backend", "supnorm-exponent"]
    assert acceptance["functional-equation-suite"]["figures"] == [1.919e-09]
    assert acceptance["bessel-backend"] == {
        "passed": False, "figures": [1000.0, 3.448e-12, 1.23],
        "detail": "1000-point oracle max rel 3.448e-12 (< 1e-10); envelope ratio 1.23 (<= 10); half-integer pin off"}
    assert acceptance["supnorm-exponent"]["figures"] == [7.33, 7.708, 0.1726]
    assert _load_compare()._parse_tier1("349 passed in 25.35s")["counts"] == {"passed": 349}


def test_moved_names_the_verdicts_that_differ():
    """A verdict moves when its PASS/FAIL or a figure differs, or when one
    side lacks it; a detail that differs only in its timing does not."""
    def side(**figures):
        return {"acceptance": {name: {"passed": True, "figures": f, "detail": f"{f} {len(name)} s"}
                               for name, f in figures.items()}}
    tier1 = {"parent": side(a=[1.0], b=[2.0], c=[3.0], d=[4.0]),
             "change": side(a=[1.0], b=[2.5], d=[4.0], e=[5.0])}
    tier1["change"]["acceptance"]["d"]["passed"] = False
    assert _load_compare()._moved(tier1) == ["b", "c", "d", "e"]


def test_tier1_runs_each_side_on_its_own_sources(tmp_path):
    """_tier1 runs pytest in the side's directory with its src/ on the path,
    and reads back the counts and the acceptance block its conftest prints."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "fake.py").write_text("VALUE = 7\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "conftest.py").write_text(textwrap.dedent('''
        def pytest_terminal_summary(terminalreporter, exitstatus, config):
            terminalreporter.write_line("PASS  fake-check: value 7 (< 8), 0.1 s (< 1 s)")
    '''))
    (tmp_path / "tests" / "test_fake.py").write_text(textwrap.dedent('''
        import fake
        def test_value():
            assert fake.VALUE == 7
        def test_other():
            pass
    '''))
    got = _load_compare()._tier1(tmp_path)
    assert got["exit"] == 0 and got["counts"] == {"passed": 2} and got["wall_s"] > 0.0
    assert got["acceptance"] == {"fake-check": {"passed": True, "figures": [7.0], "detail": "value 7 (< 8), 0.1 s (< 1 s)"}}


def test_compile_costs_cover_the_modules_a_pass_imports(tmp_path):
    """Each module that importing perfbench's workloads loads from the side's
    own files gets its token count, compile time and compile peak; a module
    nothing imports gets none, and a longer module peaks higher."""
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "small.py").write_text("A = 1\n")
    (tmp_path / "src" / "large.py").write_text("".join(f"def f{i}(x):\n    return x + {i}\n" for i in range(200)))
    (tmp_path / "src" / "unused.py").write_text("B = 2\n")
    (tmp_path / "perfbench" / "workloads.py").write_text("import large\nimport small\n")
    got = _load_compare()._compile_costs(tmp_path)
    assert sorted(got) == ["perfbench/workloads.py", "src/large.py", "src/small.py"]
    assert got["src/small.py"]["tokens"] == 5         # A, =, 1, NEWLINE, ENDMARKER
    assert got["src/large.py"]["tokens"] == 200 * 14 + 1     # def f ( x ) : NEWLINE INDENT return x + i NEWLINE DEDENT
    assert all(cost["compile_ms"] > 0.0 for cost in got.values())
    assert got["src/large.py"]["compile_peak_kb"] > got["src/small.py"]["compile_peak_kb"] > 0.0


def test_code_lines_leave_out_blank_lines_comments_and_docstrings(tmp_path):
    """src_code_lines counts the lines of src/ that hold code: a module,
    class or function docstring, one line or several, a comment-only line
    and a blank line do not count; a string that is no docstring, a line
    with code and a comment, and every line of a bracketed expression do."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(textwrap.dedent('''\
        """Module
        docstring."""

        # a comment
        X = 1  # code with a comment
        TEXT = """not a
        docstring"""


        class C:
            """One line."""

            def f(self, y):
                """Two
                lines."""
                return (y +
                        X)
        '''))
    (tmp_path / "src" / "pkg" / "b.py").write_text("async def g():\n    \"\"\"Doc.\"\"\"\n    return 1\n")
    compare = _load_compare()
    assert compare._src_lines(tmp_path) == 17 + 3
    assert compare._src_code_lines(tmp_path) == 7 + 2
