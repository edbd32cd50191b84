"""scripts/compare.py reads a bit script's --compare output faithfully."""

from __future__ import annotations

import importlib.util
from pathlib import Path

COMPARE = Path(__file__).resolve().parent.parent / "scripts" / "compare.py"


def _load_compare():
    spec = importlib.util.spec_from_file_location("compare_script", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_array_missing_from_one_dump_counts_as_a_mismatch():
    """An array that one side's dump lacks, or whose shape differs, is kept
    per array and counted in the total, as the bit script counts it."""
    stdout = "\n".join([
        "bessel_values: 2700 entries, 448 mismatches, max abs deviation 4.41e-39, max rel deviation 6.96e-14",
        "const_l_2s: missing from parent-check_series_bits.npz",
        "fe_residuals: 160 entries, 0 mismatches",
        "scan_20_grid: shape/dtype (4864,) float64 vs (4800,) float64",
        "total mismatches: 450",
    ])
    parsed = _load_compare()._parse_compare(stdout)
    assert parsed["arrays"] == {
        "bessel_values": {"entries": 2700, "mismatches": 448,
                          "max_abs_deviation": 4.41e-39, "max_rel_deviation": 6.96e-14},
        "const_l_2s": {"mismatches": 1, "problem": "missing from parent-check_series_bits.npz"},
        "fe_residuals": {"entries": 160, "mismatches": 0},
        "scan_20_grid": {"mismatches": 1, "problem": "shape/dtype (4864,) float64 vs (4800,) float64"},
    }
    assert parsed["total_mismatches"] == 450
