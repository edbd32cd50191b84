"""Command-line surface: evaluation, scattering, identity checks, amplifier
tables, sup-norm scans, and a curated selftest.

Conventions shared by the subcommands:

* characters are written ``q:index`` against the fixed enumeration of
  build_character, so invocations are scriptable and unambiguous;
* ``--config FILE`` reads a flat ``key = value`` manifest whose entries act
  as defaults for the same-named flags (a flag given on the command line
  wins), which keeps experiment setups reproducible;
* results go to ``--out`` when given, otherwise to stdout, as JSON; eval,
  fecheck and amp, the subcommands with a CSV form, take ``--format csv``;
  scan's ``--out`` is a stem, written as ``<stem>-t<t0>.json`` and ``.csv``
  per height; the last stdout line is always a one-line summary;
* selftest takes no flags; scan runs on one thread unless ``--threads``
  says otherwise, and its output is the same at any thread count;
* exit codes: 0 success, 2 validation problem (an ``--out`` in a missing
  directory or a file that cannot be written included), 3 numeric-envelope
  problem (a series with |sigma| > 10, say).  No input exits 1 with a
  traceback, and no exit 0 reports a NaN or an infinity.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import sys
import time

from eisenkit.characters import (
    DirichletCharacter,
    build_character,
    character_index,
    gauss_sum_moduli_squared,
)
from eisenkit.amplifier import AmplifierConfig, amplifier_sum, asymptotic_report, factorization_check
from eisenkit.eisenstein import (
    EisensteinParams,
    evaluate,
    functional_equation_residual,
    generalized_divisor_sum,
    scattering_constant,
)
from eisenkit.lfunctions import completed_lambda, dirichlet_l
from eisenkit.special_functions import NumericsError, bessel_k_row
from eisenkit.supnorm import exponent_fit, load_report, scan

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _character(text: str) -> DirichletCharacter:
    try:
        q_str, _, idx_str = text.partition(":")
        return build_character(int(q_str), int(idx_str))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad character spec {text!r}: {exc}") from exc


def _finite(text: str, kind=float):
    try:
        value = kind(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _complex(text: str) -> complex:
    return _finite(text, complex)


def _float_list(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


def _config_flags(path: str) -> list[str]:
    """Flat key = value manifest, rewritten as flags to prepend.

    Prepending keeps precedence right with no extra machinery: argparse lets
    a later occurrence of a flag override an earlier one, so anything typed
    on the command line beats the manifest.
    """
    flags: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key = key.strip().replace("_", "-")
            value = value.strip().strip("\"'")
            if value.lower() not in ("true", "false"):
                flags.extend([f"--{key}", value])
            elif value.lower() == "true":
                flags.append(f"--{key}")
    return flags


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    """The payload to --out or stdout, as CSV where the subcommand has a CSV
    form and --format asks for it, else as JSON."""
    body = csv_text if csv_text is not None and args.format == "csv" else json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body if body.endswith("\n") else body + "\n")
    else:
        print(body)


def _add_common(sub, csv: bool = False, out: str = "output file (default: print to stdout)") -> None:
    """--config and --out; --format too where the subcommand has a CSV form."""
    sub.add_argument("--config", help="flat key = value manifest supplying flag defaults")
    sub.add_argument("--out", help=out)
    if csv:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def _pair(sub, required: bool = True) -> None:
    sub.add_argument("--chi1", type=_character, required=required, help="first character, q:index")
    sub.add_argument("--chi2", type=_character, required=required, help="second character, q:index")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisenkit",
        description="Eisenstein series for character pairs: values, scattering, "
                    "identity checks, amplifier sums, sup-norm scans.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate the series at one point")
    _pair(sub)
    sub.add_argument("--t0", type=_finite, required=True, help="spectral parameter t")
    sub.add_argument("--sigma", type=_finite, default=0.0, help="real part of s")
    sub.add_argument("--x", type=_finite, default=0.0)
    sub.add_argument("--y", type=_finite, required=True)
    sub.add_argument("--eps", type=_finite, default=1e-8, help="truncation target")
    _add_common(sub, csv=True)

    sub = subs.add_parser("scatter", help="scattering constant and local factors")
    _pair(sub)
    sub.add_argument("--t0", type=_finite, required=True)
    sub.add_argument("--sigma", type=_finite, default=0.0)
    _add_common(sub)

    sub = subs.add_parser("fecheck", help="functional-equation residuals on a point set")
    _pair(sub)
    sub.add_argument("--t0", type=_finite, required=True)
    sub.add_argument("--points", type=int, default=20, help="residual points, 1 to 4096")
    sub.add_argument("--ymin", type=_finite, default=0.5)
    sub.add_argument("--ymax", type=_finite, default=3.0)
    sub.add_argument("--eps", type=_finite, default=1e-8)
    sub.add_argument("--seed", type=int, default=None, help="seed for randomized point draws")
    _add_common(sub, csv=True)

    sub = subs.add_parser("amp", help="amplifier sums and the asymptotic ratio")
    sub.add_argument("--q", type=int, required=True, help="progression modulus")
    sub.add_argument("--L", type=_float_list, required=True,
                     help="window length, or comma list of lengths")
    sub.add_argument("--r", type=_finite, default=None, help="sets r1 = r2 = r")
    sub.add_argument("--r1", type=_finite, default=None)
    sub.add_argument("--r2", type=_finite, default=None)
    _pair(sub, required=False)
    _add_common(sub, csv=True)

    sub = subs.add_parser("scan", help="grid scan of |F| and optional exponent fit")
    _pair(sub, required=False)
    sub.add_argument("--level1", action="store_true", help="shorthand for --chi1 1:0 --chi2 1:0")
    sub.add_argument("--t0", type=_float_list, required=True, help="comma list of spectral parameters")
    sub.add_argument("--xsteps", type=int, default=64, help="x grid points per row, 1 to 4096")
    sub.add_argument("--eps", type=_finite, default=1e-8)
    sub.add_argument("--fit", action="store_true", help="fit log(sup) against log(T)")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker cap, at least 1 (default 1); results do not depend on it")
    _add_common(sub, out="file stem: writes <stem>-t<t0>.json and .csv per height")

    sub = subs.add_parser("bessel", help="one K-Bessel value")
    sub.add_argument("--sigma", type=_finite, default=0.0, help="real part of the order")
    sub.add_argument("--t", type=_finite, required=True, help="imaginary part of the order")
    sub.add_argument("--x", type=_finite, required=True)
    _add_common(sub)

    sub = subs.add_parser("lfunc", help="one Dirichlet L-value")
    sub.add_argument("--chi", type=_character, required=True, help="character, q:index")
    sub.add_argument("--s", type=_complex, required=True, help="complex point, e.g. 1+2j")
    sub.add_argument("--completed", action="store_true", help="completed Lambda instead of L")
    _add_common(sub)

    subs.add_parser("selftest", help="curated internal checks with PASS/FAIL lines")

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    params = EisensteinParams(args.chi1, args.chi2, args.t0, args.sigma)
    value = evaluate(params, args.x, args.y, args.eps)
    payload = {
        "schema": "eisenkit-eval-v1",
        "s": [params.sigma, params.t_shift],
        "x": args.x, "y": args.y, "eps": args.eps,
        "value": [value.real, value.imag],
    }
    _emit(args, payload, f"x,y,re,im\n{args.x!r},{args.y!r},{value.real!r},{value.imag!r}\n")
    print(f"E at x={args.x:g}, y={args.y:g}, s={params.s:g}: {value:.12g}")
    return 0


def _cmd_scatter(args) -> int:
    params = EisensteinParams(args.chi1, args.chi2, args.t0, args.sigma)
    data = scattering_constant(params)
    c = data.scattering
    payload = {
        "schema": "eisenkit-scatter-v1",
        "s": [params.sigma, params.t_shift],
        "scattering": [c.real, c.imag],
        "modulus": abs(c),
        "ramified_product": [data.ramified_product.real, data.ramified_product.imag],
        "local_factors": {str(p): [v.real, v.imag] for p, v in sorted(data.local_factors.items())},
    }
    _emit(args, payload)
    print(f"c(s) at s={params.s:g}: {c:.12g}  |c| = {abs(c):.12g}")
    return 0


def _cmd_fecheck(args) -> int:
    if not 1 <= args.points <= 4096:     # as scan's x-steps: each point is a residual
        raise ValueError(f"points must be in [1, 4096], got {args.points}")
    if not 0 < args.ymin <= args.ymax:
        raise ValueError("need 0 < ymin <= ymax")
    params = EisensteinParams(args.chi1, args.chi2, args.t0)
    if args.seed is not None:
        rng = random.Random(args.seed)
        pts = [(rng.uniform(0.0, 0.5), math.exp(rng.uniform(math.log(args.ymin), math.log(args.ymax))))
               for _ in range(args.points)]
    else:
        fracs = [(j + 0.5) / args.points for j in range(args.points)]
        pts = [(0.5 * frac, args.ymin * (args.ymax / args.ymin) ** frac) for frac in fracs]
    rows = [{"x": x, "y": y, "residual": functional_equation_residual(params, x, y, args.eps)}
            for x, y in pts]
    worst = max(row["residual"] for row in rows)
    payload = {"schema": "eisenkit-fecheck-v1",
               "chi1": [args.chi1.modulus, character_index(args.chi1)],
               "chi2": [args.chi2.modulus, character_index(args.chi2)],
               "t0": args.t0, "eps": args.eps,
               "points": rows, "max_residual": worst}
    csv_text = "x,y,residual\n" + "".join(
        f"{r['x']!r},{r['y']!r},{r['residual']!r}\n" for r in rows)
    _emit(args, payload, csv_text)
    print(f"fecheck: {len(rows)} points, max residual {worst:.3e}")
    return 0


def _amp_config(args, length: float) -> AmplifierConfig:
    r1 = args.r1 if args.r1 is not None else (args.r if args.r is not None else 0.0)
    r2 = args.r2 if args.r2 is not None else (args.r if args.r is not None else 0.0)
    chi1 = args.chi1 if args.chi1 is not None else build_character(1, 0)
    chi2 = args.chi2 if args.chi2 is not None else build_character(1, 0)
    return AmplifierConfig(q=args.q, L=length, r1=r1, r2=r2, chi1=chi1, chi2=chi2)


def _cmd_amp(args) -> int:
    if not args.L:
        raise ValueError("need at least one L")
    cfgs = [_amp_config(args, length) for length in args.L]
    rows = asymptotic_report(cfgs)
    payload = {"schema": "eisenkit-amp-v1",
               "q": args.q,
               "rows": [{"L": row.L,
                         "A": [row.amplifier_value.real, row.amplifier_value.imag],
                         "ratio": row.ratio} for row in rows]}
    csv_text = "L,A_re,A_im,ratio\n" + "".join(
        f"{row.L!r},{row.amplifier_value.real!r},{row.amplifier_value.imag!r},{row.ratio!r}\n"
        for row in rows)
    _emit(args, payload, csv_text)
    last = rows[-1]
    print(f"amp: q={args.q}, L={last.L:g}: ratio {last.ratio:.6g}")
    return 0


def _cmd_scan(args) -> int:
    if args.level1:
        chi1 = chi2 = build_character(1, 0)
    elif args.chi1 is not None and args.chi2 is not None:
        chi1, chi2 = args.chi1, args.chi2
    else:
        raise ValueError("give --level1 or both --chi1 and --chi2")
    if not args.t0:
        raise ValueError("need at least one t0")
    params = EisensteinParams(chi1, chi2, args.t0[0])
    reports = []
    for t in args.t0:
        rep = scan(params, t, x_steps=args.xsteps, eps=args.eps, threads=args.threads)
        reports.append(rep)
        if args.out:
            stem = f"{args.out}-t{t:g}"
            with open(stem + ".json", "w", encoding="utf-8") as handle:
                handle.write(rep.to_json() + "\n")
            with open(stem + ".csv", "w", encoding="utf-8") as handle:
                handle.write(rep.to_csv())
        print(f"scan t0={t:g}: sup {rep.supremum:.6g} at (x, y) = "
              f"({rep.argmax[0]:.4f}, {rep.argmax[1]:.4f}), "
              f"{rep.metadata['y_points']}x{rep.metadata['x_steps']} grid, "
              f"{rep.wall_time:.1f} s, reference {rep.metadata['reference_bound']:.4g}")
    if args.fit:
        slope = exponent_fit(reports)
        print(f"fitted exponent: {slope:.4f} (comparison bound exponent 0.375)")
    return 0


def _cmd_bessel(args) -> int:
    value = bessel_k_row(complex(args.sigma, args.t), [args.x])[0]
    payload = {"schema": "eisenkit-bessel-v1",
               "order": [args.sigma, args.t], "x": args.x,
               "value": [value.real, value.imag]}
    _emit(args, payload)
    print(f"K_({args.sigma:g}{args.t:+g}j)({args.x:g}) = {value:.12g}")
    return 0


def _cmd_lfunc(args) -> int:
    value = (completed_lambda if args.completed else dirichlet_l)(args.s, args.chi)
    payload = {"schema": "eisenkit-lfunc-v1",
               "modulus": args.chi.modulus, "s": [args.s.real, args.s.imag],
               "completed": args.completed, "value": [value.real, value.imag]}
    _emit(args, payload)
    name = "Lambda" if args.completed else "L"
    print(f"{name}({args.s:g}, chi mod {args.chi.modulus}) = {value:.12g}")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks():
    def gauss_law():
        worst = max(float(abs(gauss_sum_moduli_squared(q) - q).max(initial=0.0)) for q in range(3, 101))
        return worst < 1e-10, f"max |G|^2 deviation {worst:.2e}"

    def hecke():
        chi1, chi2 = build_character(4, 1), build_character(3, 1)
        lam = {n: generalized_divisor_sum(chi1, chi2, 1.5j, n) for n in range(1, 2001)}
        prod = chi1.evaluate(3) * chi2.evaluate(3)
        defects = [abs(lam[3 ** (k + 1)] - (lam[3] * lam[3 ** k] - prod * lam[3 ** (k - 1)])) for k in range(1, 6)]
        defects += [abs(lam[m * n] - lam[m] * lam[n]) for m, n in ((4, 9), (25, 49), (11, 13), (8, 27))]
        worst = max(defects)
        return worst < 1e-12, f"max defect {worst:.2e}"

    def fe_residual():
        params = EisensteinParams(build_character(1, 0), build_character(4, 1), 5.0)
        worst = max(functional_equation_residual(params, 0.3, y) for y in (0.6, 1.1, 2.3))
        return worst < 1e-6, f"max residual {worst:.2e}"

    def bessel_half():
        refs = {x: math.sqrt(math.pi / (2 * x)) * math.exp(-x) for x in (0.01, 0.5, 3.0, 40.0, 300.0)}
        worst = max(abs(bessel_k_row(0.5, [x])[0] - ref) / ref for x, ref in refs.items())
        return worst < 1e-13, f"max closed-form deviation {worst:.2e}"

    def bessel_reference():
        # K_{it}(x) from a 50-digit mpmath evaluation, frozen
        table = ((12.0, 0.5, -2.966296614242154e-09), (30.0, 9.0, -1.662637137405939e-22),
                 (50.0, 250.0, 1.4153573529314504e-112), (60.0, 360.0, 1.9964225634017682e-160),
                 (100.0, 70.0, 1.3678185681808807e-70), (160.0, 240.0, 3.762201040832116e-130))
        worst = max(abs(bessel_k_row(1j * t, [x])[0] - ref) / abs(ref) for t, x, ref in table)
        return worst < 1e-10, f"max cross-check deviation {worst:.2e}"

    def scattering_unitary():
        params = EisensteinParams(build_character(4, 1), build_character(3, 1), 7.0)
        c, cdual = (scattering_constant(p).scattering for p in (params, params.dual()))
        dev = max(abs(abs(c) - math.sqrt(4.0 / 3.0)), abs(c * cdual - 1))
        return dev < 1e-10, f"max deviation {dev:.2e}"

    def amp_window():
        triv = build_character(1, 0)
        cfg = AmplifierConfig(q=1, L=10.0, r1=0.0, r2=0.0, chi1=triv, chi2=triv)
        want = 4.0 * math.fsum(cfg.weight(p / 10) * math.log(p) for p in (11, 13, 17, 19))
        dev = abs(amplifier_sum(cfg) - want)
        return dev < 1e-12, f"window deviation {dev:.2e}"

    def amp_naive():
        chi1, chi2 = build_character(4, 1), build_character(3, 1)
        cfg = AmplifierConfig(q=5, L=1000.0, r1=2.0, r2=-1.0, chi1=chi1, chi2=chi2)
        naive = 0j
        for p in range(1000, 2001):
            if p % 5 == 1 and all(p % d for d in range(2, math.isqrt(p) + 1)):
                e1 = chi1.evaluate(p) * p ** (2j) + chi2.evaluate(p) * p ** (-2j)
                e2 = (chi1.evaluate(p) * p ** (-1j) + chi2.evaluate(p) * p ** (1j)).conjugate()
                naive += cfg.weight(p / 1000.0) * math.log(p) * e1 * e2
        dev = abs(amplifier_sum(cfg) - naive)
        return dev < 1e-12, f"sieve vs direct deviation {dev:.2e}"

    def factorization():
        rng = random.Random(11)
        triv, xi = build_character(1, 0), build_character(5, 2)
        cfgs = [AmplifierConfig(q=5, L=10.0, r1=rng.uniform(-20, 20), r2=rng.uniform(-20, 20),
                                chi1=triv, chi2=triv) for _ in range(3)]
        worst = max(factorization_check(p, xi, cfg) for cfg in cfgs for p in (7, 11, 101, 499))
        return worst < 1e-10, f"max defect {worst:.2e}"

    def leibniz():
        dev = abs(dirichlet_l(1.0, build_character(4, 1)) - math.pi / 4)
        return dev < 1e-12, f"|L(1) - pi/4| = {dev:.2e}"

    def scan_roundtrip():
        params = EisensteinParams(build_character(1, 0), build_character(1, 0), 8.0)
        rep1 = scan(params, 8.0, x_steps=8, eps=1e-6, threads=1)
        rep2 = scan(params, 8.0, x_steps=8, eps=1e-6, threads=4)
        stable = rep1.grid == rep2.grid
        same = load_report(rep1.to_json()) == rep1
        return stable and same, f"thread-stable {stable}, round-trip {same}"

    return [
        ("gauss-modulus", gauss_law),
        ("hecke-recurrence", hecke),
        ("fe-residual", fe_residual),
        ("bessel-closed-form", bessel_half),
        ("bessel-reference", bessel_reference),
        ("scattering-unitarity", scattering_unitary),
        ("amplifier-window", amp_window),
        ("amplifier-naive", amp_naive),
        ("factorization-identity", factorization),
        ("l-value-leibniz", leibniz),
        ("scan-roundtrip", scan_roundtrip),
    ]


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    start = time.perf_counter()
    failures = 0
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:   # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail}, {time.perf_counter() - t0:.2f} s)")
        failures += 0 if ok else 1
    total = time.perf_counter() - start
    print(f"selftest: {len(checks) - failures}/{len(checks)} passed in {total:.1f} s")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_DISPATCH = {
    "eval": _cmd_eval,
    "scatter": _cmd_scatter,
    "fecheck": _cmd_fecheck,
    "amp": _cmd_amp,
    "scan": _cmd_scan,
    "bessel": _cmd_bessel,
    "lfunc": _cmd_lfunc,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    argv = [part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if argv and "--config" in argv[1:]:
        at = argv.index("--config")
        try:
            injected = _config_flags(argv[at + 1])
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        argv = [argv[0]] + injected + argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    # checked before any work, so a scan does not run only to fail at the write
    out_dir = os.path.dirname(getattr(args, "out", None) or "")
    try:
        if out_dir and not os.path.isdir(out_dir):
            raise ValueError(f"--out directory {out_dir!r} does not exist")
        return _DISPATCH[args.command](args)
    except NumericsError as exc:
        print(f"numeric envelope: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
