"""scripts/compare.py reads a bit script's --compare output faithfully, and
dumps both sides with the change's copy of each bit script."""

from __future__ import annotations

import importlib.util
import json
import textwrap
from pathlib import Path

COMPARE = Path(__file__).resolve().parent.parent / "scripts" / "compare.py"


def _load_compare():
    spec = importlib.util.spec_from_file_location("compare_script", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
