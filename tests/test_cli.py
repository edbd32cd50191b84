"""Command-line surface: exit codes, artifacts, and flag precedence."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eisenkit
from eisenkit.cli import run


def test_eval_writes_json(tmp_path, capsys):
    out = tmp_path / "val.json"
    code = run(["eval", "--chi1", "1:0", "--chi2", "4:1", "--t0", "5",
                "--x", "0.2", "--y", "1.3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "eisenkit-eval-v1"
    assert "value" in payload
    assert "summary" not in payload
    assert capsys.readouterr().out.strip()


def test_eval_below_floor_is_a_validation_error(capsys):
    assert run(["eval", "--chi1", "1:0", "--chi2", "1:0", "--t0", "5",
                "--x", "0.0", "--y", "0.1"]) == 2


def test_importing_the_package_leaves_cli_and_pool_modules_unloaded():
    """A library user who imports eisenkit gets none of the modules only the
    CLI, a thread pool, an exponent fit or the Gauss-sum transform needs."""
    src = Path(eisenkit.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eisenkit; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True).stdout.split()
    for name in ("concurrent.futures", "statistics", "logging", "argparse", "scipy", "numpy.fft",
                 "eisenkit.cli"):
        assert name not in out, name


def test_unknown_subcommand(capsys):
    assert run(["transmogrify"]) == 2


def test_bad_character_syntax(capsys):
    assert run(["scatter", "--chi1", "4-1", "--chi2", "1:0", "--t0", "5"]) == 2


def test_scatter_reports_unit_modulus(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["scatter", "--chi1", "5:1", "--chi2", "5:3", "--t0", "7",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    c = complex(payload["scattering"][0], payload["scattering"][1])
    assert abs(abs(c) - 1.0) < 1e-10


def test_fecheck_residuals(tmp_path, capsys):
    out = tmp_path / "fe.json"
    assert run(["fecheck", "--chi1", "1:0", "--chi2", "4:1", "--t0", "5",
                "--points", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "eisenkit-fecheck-v1"
    assert len(payload["points"]) == 4
    assert payload["max_residual"] < 1e-6


def test_amp_csv(tmp_path, capsys):
    out = tmp_path / "amp.csv"
    assert run(["amp", "--q", "3", "--L", "10000", "--r", "20",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "L"
    assert "ratio" in lines[0].split(",")
    assert len(lines) == 2


def test_amp_needs_at_least_one_length(capsys):
    assert run(["amp", "--q", "1", "--L", ","]) == 2
    assert "need at least one L" in capsys.readouterr().err


def test_amp_nonpositive_modulus_is_a_validation_error(capsys):
    assert run(["amp", "--q", "0", "--L", "100"]) == 2
    assert "progression modulus" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["1e300", "1e13"])
def test_amp_window_above_the_ceiling_is_a_validation_error(capsys, length):
    """L above the ceiling is rejected before any sieve starts: exit 2 naming
    the ceiling, not a numpy dimension error (1e300) or a sieve of 1e13
    integers."""
    assert run(["amp", "--q", "3", "--L", length, "--r", "5"]) == 2
    assert "above the supported ceiling 1e+09" in capsys.readouterr().err


def test_bessel_value_and_envelope(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["bessel", "--t", "5", "--x", "2.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "eisenkit-bessel-v1"
    assert run(["bessel", "--t", "5", "--x", "900"]) == 3
    assert "envelope" in capsys.readouterr().err.lower()


def test_lfunc_leibniz(tmp_path, capsys):
    out = tmp_path / "l.json"
    assert run(["lfunc", "--chi", "4:1", "--s", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["value"][0] - math.pi / 4) < 1e-12


def test_scan_writes_per_height_files_and_fits(tmp_path, capsys):
    prefix = tmp_path / "night"
    code = run(["scan", "--level1", "--t0", "8,16,32", "--xsteps", "6",
                "--fit", "--out", str(prefix)])
    assert code == 0
    for t in (8, 16, 32):
        assert (tmp_path / f"night-t{t}.json").exists()
        assert (tmp_path / f"night-t{t}.csv").exists()
    text = capsys.readouterr().out
    assert "fitted exponent" in text


@pytest.mark.parametrize("argv", [
    ["bessel", "--t", "5", "--x", "2"],
    ["scan", "--level1", "--t0", "8", "--xsteps", "4"],
])
def test_out_in_a_missing_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv):
    from eisenkit import cli

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the --out check")

    monkeypatch.setattr(cli, "scan", no_work)
    monkeypatch.setattr(cli, "bessel_k_row", no_work)
    missing = tmp_path / "missing"
    assert run(argv + ["--out", str(missing / "x")]) == 2
    assert f"--out directory {str(missing)!r} does not exist" in capsys.readouterr().err
    assert not missing.exists()


def test_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    assert run(["bessel", "--t", "5", "--x", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_rejects_fewer_than_one_thread(capsys):
    assert run(["scan", "--level1", "--t0", "10", "--threads", "0"]) == 2
    assert "threads must be at least 1, got 0" in capsys.readouterr().err


def test_scan_fit_needs_three_heights(tmp_path, capsys):
    assert run(["scan", "--level1", "--t0", "8,16", "--xsteps", "4",
                "--fit", "--out", str(tmp_path / "s")]) == 2


def test_config_file_defaults_lose_to_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chi1 = 1:0\nchi2 = 4:1\nt0 = 5\nx = 0.2\ny = 0.9\n")
    out = tmp_path / "a.json"
    assert run(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    a = json.loads(out.read_text())
    assert run(["eval", "--config", str(cfg), "--y", "2.5",
                "--out", str(out)]) == 0
    b = json.loads(out.read_text())
    assert a["y"] == 0.9
    assert b["y"] == 2.5
    assert a["value"] != b["value"]


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_config_flag_forms(tmp_path, capsys, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chi1 = 1:0\nchi2 = 4:1\nt0 = 5\ny = 0.9\n")
    flag = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    out = tmp_path / "a.json"
    assert run(["eval", *flag, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["y"] == 0.9


def test_scan_outside_the_bessel_envelope_exits_3(capsys):
    # past the height where Gamma_R(2s + 1) underflows too, the order bound
    # is what scan names, before any other work
    for t0 in ("250", "500"):
        assert run(["scan", "--level1", "--t0", t0, "--xsteps", "4"]) == 3
        err = capsys.readouterr().err
        assert "envelope" in err and f"t0 = {t0} outside the K-Bessel order bound" in err


@pytest.mark.parametrize("t0", ["250", "480", "1e300"])
@pytest.mark.parametrize("command", ["eval", "fecheck"])
def test_a_height_past_the_order_bound_exits_3_before_any_l_value(monkeypatch, capsys, command, t0):
    """eval and fecheck check |t0| <= 200 first and name t0: not the order of
    a Bessel row (250), the Gamma_R(2s + 1) underflow near t = 450 (480), or
    the L-value window at 2s + 1 (1e300), and without computing an L-value."""
    from eisenkit import eisenstein, lfunctions

    def forbidden(s, chi):
        raise AssertionError(f"L({s}, {chi}) computed for a height past the order bound")

    monkeypatch.setattr(eisenstein, "dirichlet_l", forbidden)
    monkeypatch.setattr(lfunctions, "dirichlet_l", forbidden)
    last = ["--y", "1"] if command == "eval" else ["--points", "5"]
    assert run([command, "--chi1", "1:0", "--chi2", "1:0", "--t0", t0, *last]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric envelope: t0 = {float(t0):g} outside the K-Bessel order bound |t0| <= 200\n"


def test_scatter_answers_past_the_order_bound(capsys):
    """c(s) needs no K value, so scatter has no height check of its own."""
    assert run(["scatter", "--chi1", "3:1", "--chi2", "4:1", "--t0", "250"]) == 0
    assert "c(s) at s=0+250j" in capsys.readouterr().out


def test_completed_zeta_at_its_pole_exits_3(capsys):
    assert run(["lfunc", "--chi", "1:0", "--s", "0", "--completed"]) == 3
    assert "pole" in capsys.readouterr().err


def test_completed_lambda_overflow_exits_3(capsys):
    """Lambda(700, chi mod 4) is about exp(1786): a numerics error with exit
    code 3, not an OverflowError."""
    assert run(["lfunc", "--chi", "4:1", "--s", "700", "--completed"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric envelope: ") and "overflows double precision" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--chi1", "1:0", "--chi2", "1:0", "--t0", "nan", "--y", "1.0"],
    ["eval", "--chi1", "1:0", "--chi2", "1:0", "--t0", "5", "--y", "inf"],
    ["lfunc", "--chi", "4:1", "--s", "nan"],
    ["lfunc", "--chi", "4:1", "--s", "1+infj"],
    ["bessel", "--t", "nan", "--x", "1.0"],
    ["scan", "--level1", "--t0", "8,nan"],
])
def test_non_finite_inputs_are_validation_errors(capsys, argv):
    assert run(argv) == 2
    assert "not a finite number" in capsys.readouterr().err


# one quick, valid invocation per subcommand, for the flag table below
_BASE = {
    "eval": ["eval", "--chi1", "1:0", "--chi2", "4:1", "--t0", "5", "--y", "1.3"],
    "scatter": ["scatter", "--chi1", "5:1", "--chi2", "5:3", "--t0", "7"],
    "fecheck": ["fecheck", "--chi1", "1:0", "--chi2", "4:1", "--t0", "5", "--points", "2"],
    "amp": ["amp", "--q", "3", "--L", "100", "--r", "5"],
    "scan": ["scan", "--level1", "--t0", "8", "--xsteps", "4"],
    "bessel": ["bessel", "--t", "5", "--x", "2.0"],
    "lfunc": ["lfunc", "--chi", "4:1", "--s", "2"],
    "selftest": ["selftest"],
}


def test_flags_exist_only_where_they_act(tmp_path, capsys):
    """--threads belongs to scan, --seed to fecheck, and --format to eval,
    fecheck and amp, the subcommands with a CSV form; selftest takes no
    flags.  Elsewhere each is an unknown flag, from the command line or from
    a config file, and exits 2."""
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    rejected = [
        ("eval", ["--threads", "2"]),
        ("scan", ["--seed", "1"]),
        ("bessel", ["--target", "1e-8"]),
        *((cmd, ["--format", "csv"]) for cmd in ("scatter", "scan", "bessel", "lfunc", "selftest")),
        ("selftest", ["--out", str(tmp_path / "f")]),
        ("selftest", ["--config", str(empty)]),
    ]
    for cmd, extra in rejected:
        assert run(_BASE[cmd] + extra) == 2, (cmd, extra)
        assert "unrecognized arguments" in capsys.readouterr().err, (cmd, extra)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chi1 = 1:0\nchi2 = 4:1\nt0 = 5\ny = 0.9\nthreads = 2\n")
    assert run(["eval", "--config", str(cfg)]) == 2
    assert run(_BASE["fecheck"] + ["--seed", "3"]) == 0
    capsys.readouterr()
    for cmd, header in (("eval", "x,y,re,im"), ("fecheck", "x,y,residual"), ("amp", "L,A_re,A_im,ratio")):
        assert run(_BASE[cmd] + ["--format", "csv"]) == 0, cmd
        assert capsys.readouterr().out.splitlines()[0] == header


def test_character_modulus_above_the_ceiling_exits_2_before_any_table(monkeypatch, capsys):
    from eisenkit import characters

    def forbidden(*args):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(characters, "_component_structure", forbidden)
    assert run(["lfunc", "--chi", "1000003:1", "--s", "2"]) == 2
    assert "modulus must be in [1, 16384], got 1000003" in capsys.readouterr().err


@pytest.mark.parametrize("xsteps", ["0", "4097", "1000000000"])
def test_scan_xsteps_outside_its_range_exits_2_before_any_work(monkeypatch, capsys, xsteps):
    from eisenkit import supnorm

    def no_work(*args, **kwargs):
        raise AssertionError("the scan started before the --xsteps check")

    monkeypatch.setattr(supnorm, "_fourier_grid", no_work)
    assert run(["scan", "--level1", "--t0", "10", "--xsteps", xsteps]) == 2
    assert f"x_steps must be in [1, 4096], got {xsteps}" in capsys.readouterr().err


def test_amp_modulus_above_twice_the_window_ceiling_exits_2(monkeypatch, capsys):
    """No prime p = 1 mod q lies in a window [L, 2L] with L <= 1e9 once
    q > 2e9, so such a q is refused before any sieve or trial division."""
    from eisenkit import amplifier

    def forbidden(*args):
        raise AssertionError("the window was sieved or q factored")

    monkeypatch.setattr(amplifier, "sieve_interval", forbidden)
    monkeypatch.setattr(amplifier, "_factorize", forbidden)
    for q in ("2000000001", "2305843009213693951"):
        assert run(["amp", "--q", q, "--L", "10"]) == 2
        assert f"progression modulus must be in [1, 2e+09], got {q}" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--ymin", "1e-4", "--ymax", "1e-4"], "y = 0.0001 below the expansion floor 0.3"),
    (["--points", "0"], "points must be in [1, 4096], got 0"),
    (["--points", "4097"], "points must be in [1, 4096], got 4097"),
])
def test_fecheck_outside_its_bounds_exits_2_before_any_truncation(monkeypatch, capsys, extra, message):
    from eisenkit import eisenstein

    def no_work(*args, **kwargs):
        raise AssertionError("a residual was truncated before the bounds check")

    monkeypatch.setattr(eisenstein, "_truncation", no_work)
    assert run(["fecheck", "--chi1", "1:0", "--chi2", "1:0", "--t0", "5", "--points", "1"] + extra) == 2
    assert message in capsys.readouterr().err


def test_quotient_modulus_past_the_l_window_exits_3_before_any_table(monkeypatch, capsys):
    """993 = 3 * 331 and 1011 = 3 * 337 with one 3-part: psi is mod 111547."""
    from eisenkit import characters

    def forbidden(*args):
        raise AssertionError("a character value table was built")

    monkeypatch.setattr(characters, "_value_rows", forbidden)
    assert run(["eval", "--chi1", "993:331", "--chi2", "1011:337", "--t0", "5", "--y", "1"]) == 3
    assert "quotient character modulus 111547 outside" in capsys.readouterr().err


def test_scatter_outside_the_l_envelope_exits_3(capsys):
    assert run(["scatter", "--chi1", "10007:1", "--chi2", "1:0", "--t0", "2"]) == 3
    assert "modulus 10007 outside" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text


# off-axis series past the K-Bessel order envelope |sigma| <= 10: unless
# refused on construction, each overflows (Gamma_R, an Euler factor or
# p^(2 sigma e)) or yields c(s) = nan
_SIGMA_PAST_THE_ENVELOPE = [
    ["eval", "--chi1", "13:1", "--chi2", "5:1", "--t0", "1", "--sigma", "400", "--y", "1"],
    ["eval", "--chi1", "3:1", "--chi2", "3:1", "--t0", "1", "--sigma=-400", "--y", "1"],
    ["scatter", "--chi1", "3:1", "--chi2", "3:1", "--t0", "1", "--sigma=-400"],
    ["scatter", "--chi1", "3:1", "--chi2", "3:1", "--t0", "1", "--sigma", "400"],
    ["scatter", "--chi1", "1:0", "--chi2", "9973:7007", "--t0", "226.8", "--sigma", "178.6"],
    ["scatter", "--chi1", "5:3", "--chi2", "13:4", "--t0=-497.7", "--sigma", "93.8"],
]
_R_PAST_THE_WINDOW = ["amp", "--q", "3", "--L", "100", "--r", "1e308"]
_SCAN_AT_THE_TOP_OF_THE_DOUBLES = ["scan", "--level1", "--t0", "1.7e308"]


@pytest.mark.parametrize("argv", _SIGMA_PAST_THE_ENVELOPE)
def test_sigma_past_the_bessel_order_envelope_exits_3(capsys, argv):
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric envelope: sigma = ") and err.count("\n") == 1


def test_level_one_scatter_past_the_order_envelope_exits_3(capsys):
    """Level one needs no Euler factor and no Bessel value for c(s), but the
    series it belongs to does, so |sigma| > 10 is refused there too."""
    assert run(["scatter", "--chi1", "1:0", "--chi2", "1:0", "--t0", "1", "--sigma", "10"]) == 0
    assert run(["scatter", "--chi1", "1:0", "--chi2", "1:0", "--t0", "1", "--sigma", "10.5"]) == 3


def test_amp_twist_past_the_window_exits_2(capsys):
    assert run(_R_PAST_THE_WINDOW) == 2
    err = capsys.readouterr().err
    assert err == "error: twists r1 = 1e+308 and r2 = 1e+308 outside [-1000, 1000]\n"


def test_scan_at_the_top_of_the_doubles_ends_at_once(capsys):
    """The height is past the K-Bessel order bound, so scan refuses it, by
    name, before it builds a grid."""
    start = time.perf_counter()
    assert run(_SCAN_AT_THE_TOP_OF_THE_DOUBLES) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t0 = 1.7e+308" in err


# ------------------------------------------------------------------
# the contract of cli.run: exit 0, 2 or 3, and finite numbers at exit 0
# ------------------------------------------------------------------

# the last is no character: index 6 is past phi(7)
_CHARACTERS = ("1:0", "3:1", "4:1", "5:1", "5:3", "13:1", "13:4", "9973:7007", "7:6")


def _number(*edges):
    """Any finite double, or one of the edges of its parameter's envelope."""
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(edges))


def _flags(**draws):
    """argv flags --name=value, one per drawn value; None leaves a flag out."""
    return st.fixed_dictionaries(draws).map(
        lambda d: [f"--{k}={v}" for k, v in d.items() if v is not None])


_T = _number(0.0, 0.5, 6.5, 200.0, 200.5, -500.0, 1e3, 1.5e308, -1.7e308)
_SIGMA = _number(10.0, -10.0, 10.5, 400.0)
_Y = _number(0.3, 0.2999, 112.2, 1e300)
_EPS = _number(1e-300, 5e-324, 1.0, 1e300)
_CHI = st.sampled_from(_CHARACTERS)
_COMMANDS = {
    "eval": _flags(chi1=_CHI, chi2=_CHI, t0=_T, sigma=_SIGMA, x=_number(0.0, 0.5), y=_Y, eps=_EPS),
    "scatter": _flags(chi1=_CHI, chi2=_CHI, t0=_T, sigma=_SIGMA),
    "fecheck": _flags(chi1=_CHI, chi2=_CHI, t0=_T, points=st.integers(-1, 3), ymin=_Y, ymax=_Y,
                      eps=_EPS, seed=st.none() | st.integers()),
    "amp": _flags(q=st.integers(-1, 2**64) | st.sampled_from([1, 3, 2 * 10**9, 2 * 10**9 + 1]),
                  L=st.floats(max_value=1e4) | st.sampled_from([10.0, 9.99, 1e4]),
                  r1=_number(1e3, -1e3, 1000.5), r2=_number(0.0, 1e3), chi1=_CHI, chi2=_CHI),
    "scan": _flags(chi1=_CHI, chi2=_CHI, t0=_T, xsteps=st.integers(0, 3), eps=_EPS,
                   threads=st.integers(0, 2)),
    "bessel": _flags(sigma=_SIGMA, t=_number(200.0, 200.5, 6.58), x=_number(1e-6, 705.0, 705.5)),
    "lfunc": _flags(chi=_CHI, s=st.builds(complex, _number(-0.5, -0.51, 1e3, 1e3 + 1),
                                          _number(1e3, -1e3, 1000.5))),
}


def _reject_non_finite(token):
    raise AssertionError(f"{token} in a JSON payload at exit 0")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(argv=st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda command: _COMMANDS[command].map(lambda flags: [command] + flags)))
@example(argv=_SIGMA_PAST_THE_ENVELOPE[0])
@example(argv=_SIGMA_PAST_THE_ENVELOPE[1])
@example(argv=_SIGMA_PAST_THE_ENVELOPE[2])
@example(argv=_SIGMA_PAST_THE_ENVELOPE[3])
@example(argv=_SIGMA_PAST_THE_ENVELOPE[4])
@example(argv=_SIGMA_PAST_THE_ENVELOPE[5])
@example(argv=_R_PAST_THE_WINDOW)
@example(argv=_SCAN_AT_THE_TOP_OF_THE_DOUBLES)
def test_cli_run_exits_0_2_or_3_with_finite_payloads(argv):
    """Numbers from the whole double range and the envelope edges: cli.run
    returns 0, 2 or 3, raises nothing, and writes no NaN or infinity."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv + [f"--out={out}/o.json"])
        assert code in (0, 2, 3), argv
        for path in Path(out).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_non_finite)
        assert code != 0 or any(Path(out).glob("*.json"))
