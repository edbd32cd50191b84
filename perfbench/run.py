"""The eisenkit benchmark: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload scan-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (``worker.py``), one pass after another, so every timed phase
starts with cold library caches and nothing overlaps.  Passes repeat until
about ``--seconds`` of passes have run; six extra set-up-only passes add
samples to ``setup_s``.  Times are scaled to a reference host speed sampled
while they were measured (``hostspeed.py``); README.md says why and how.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead measured against the untraced passes of the same run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Above it, every metric is printed with its unit, together with
error_rate, sample counts, work counts and the host.  A fuller record of the
run (every pass, the worst error per check) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and the spans of each
traced pass to ``.perfbench_out/spans/``.

Exit codes: 0 with a result; 2 for bad arguments or no eisenkit sources in
this checkout; 3 if a pass crashed or timed out; 4 if a checker failed its
self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from hostspeed import KERNEL_REF_S  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("scan-ladder", "fe-matrix", "arith-sweep")
SETUP_PROBES = 6
DEADLINE_S = 170.0
MAX_PASSES = 40
PROBE_WINDOW_S = 0.25

END_TO_END = (
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (function, stats) for spans; see README.md for the metric each one moves
_FUNCTION_STATS = (
    ("special_functions.bessel_k", ("calls", "busy_s", "distinct_frac")),
    ("special_functions.gamma_factor", ("busy_s",)),
    ("special_functions.whittaker_tail_cutoff", ("busy_s",)),
    ("special_functions.BumpWeight", ("calls", "busy_s")),
    ("lfunctions.dirichlet_l", ("calls", "busy_s", "distinct_frac")),
    ("lfunctions.lambda_ratio", ("calls", "busy_s", "distinct_frac")),
    ("eisenstein.coefficient_prefactor", ("calls", "busy_s", "distinct_frac")),
    ("eisenstein.scattering_constant", ("calls", "busy_s", "distinct_frac")),
    ("eisenstein.generalized_divisor_sum", ("calls", "busy_s")),
    ("eisenstein.build_coefficient_table", ("busy_s",)),
    ("eisenstein.functional_equation_residual", ("self_s",)),
    ("characters.phase", ("calls",)),
    ("characters.value_table", ("calls", "busy_s", "distinct_frac")),
    ("characters.gauss_sum", ("calls", "busy_s")),
    ("characters.gauss_sum_moduli_squared", ("calls", "busy_s")),
    ("characters.multiply", ("calls", "busy_s")),
    ("characters.primitive_part", ("calls", "busy_s")),
    ("supnorm.scan", ("self_s",)),
    ("amplifier.sieve_interval", ("calls", "busy_s")),
    ("amplifier.factorization_check", ("calls", "busy_s")),
    ("amplifier.amplifier_sum", ("self_s",)),
)
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "distinct_frac": "ratio"}
# work counts that must repeat exactly for a given seed
_WORK_COUNTS = (
    ("supnorm.grid_points", "grid_points"),
    ("work.primitive_characters", "primitive_characters"),
    ("work.prime_evaluations", "prime_evaluations"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric a traced run reports."""
    out = []
    for fn, stats in _FUNCTION_STATS:
        for stat in stats:
            better = "higher" if stat == "distinct_frac" else "lower"
            out.append((f"{fn}.{stat}", _UNITS[stat], better))
        if fn == "special_functions.bessel_k":
            out.append((f"{fn}.busy_s_t_le_60", "s", "lower"))
            out.append((f"{fn}.busy_s_t_gt_60", "s", "lower"))
    for name, _ in _WORK_COUNTS:
        out.append((name, "count", "higher"))
    for layer in LAYERS:
        out.append((f"layer.{layer}.self_s", "s", "lower"))
        out.append((f"layer.{layer}.self_frac", "ratio", "lower"))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.untraced_wall_s", "s", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class PassFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "EISENKIT_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def run_pass(workload: str, seed: int, deadline: float, *, traced=False,
             setup_only=False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("out of time before the pass started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassFailed(f"pass printed no result:\n{proc.stdout[-2000:]}") from exc


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        rec = run_pass(workload, seed, deadline, setup_only=True)
        setups.append((rec["setup_s"], rec["setup_probe"]))
    passes = []
    start = time.monotonic()
    while len(passes) < MAX_PASSES:
        traced = trace and len(passes) % 2 == 1
        spans = out_dir / "spans" / f"{workload}-seed{seed}-pass{len(passes)}.csv" if traced else None
        t = time.monotonic()
        rec = run_pass(workload, seed, deadline, traced=traced, spans=spans)
        rec["traced"] = traced
        passes.append(rec)
        setups.append((rec["setup_s"], rec["setup_probe"]))
        last = time.monotonic() - t
        done = time.monotonic() - start
        # a traced run needs one pass of each kind; otherwise stop where the
        # run length comes nearest to --seconds
        if len(passes) >= (2 if trace else 1) and done + 0.5 * last >= seconds:
            break
    return setups, passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _speed(samples) -> float:
    """Reference-speed seconds per measured second, from probe samples.

    The probe samples at equal intervals of wall time, so the mean of the
    speed KERNEL_REF_S / duration over the samples is its time average: the
    right factor for a step that ran partly fast and partly slow.
    """
    return statistics.fmean(KERNEL_REF_S / d for _, d in samples)


def scaled_steps(p) -> list[float]:
    """A pass's step times in reference-speed seconds.

    Each step is scaled by the probe samples taken while it ran, the window
    widened by PROBE_WINDOW_S on both sides so that short steps have some.
    """
    starts = [t for t, _ in p["probe"]]
    out = []
    for (a, b), net in zip(p["step_at"], p["step_s"]):
        window = p["probe"][bisect_left(starts, a - PROBE_WINDOW_S):
                            bisect_right(starts, b + PROBE_WINDOW_S)]
        out.append(net * _speed(window or p["probe"]))
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, passes) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    # every pass runs the same steps in the same order, so each step is
    # taken at its median over the passes and the timed phase is their sum
    steps = [statistics.median(col) for col in zip(*(scaled_steps(p) for p in plain))]
    calls = [steps[i] for i in plain[0]["unit_steps"]]
    metrics = {
        "wall_s": math.fsum(steps),
        "call_p50_ms": 1e3 * percentile(calls, 50),
        "call_p90_ms": 1e3 * percentile(calls, 90),
        "setup_s": statistics.median(s * _speed(probe) for s, probe in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    info = {
        "passes": len(plain),
        "unit_calls": len(calls),
        "setups": len(setups),
        "measured_wall_s": statistics.median(p["wall_s"] for p in plain),
        "measured_setup_s": statistics.median(s for s, _ in setups),
        "host_speed": statistics.median(_speed(p["probe"]) for p in plain),
    }
    return metrics, info


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def stat(p, fn, key):
        return p["layers"].get(fn, {}).get(key) or 0

    def timed(fn, key):
        """A traced time in reference-speed seconds, by the pass's probe."""
        return med(lambda p: stat(p, fn, key) * _speed(p["probe"]))

    first = traced[0]
    metrics = {}
    for fn, stats in _FUNCTION_STATS:
        for s in stats:
            name = f"{fn}.{s}"
            if s == "calls":
                metrics[name] = stat(first, fn, "calls")
            elif s == "distinct_frac":
                calls = stat(first, fn, "calls")
                # no calls means nothing was recomputed
                metrics[name] = stat(first, fn, "distinct") / calls if calls else 1.0
            else:
                metrics[name] = timed(fn, s)
        if fn == "special_functions.bessel_k":
            for band in ("t_le_60", "t_gt_60"):
                metrics[f"{fn}.busy_s_{band}"] = med(
                    lambda p: p["layers"].get(fn, {}).get("bands", {}).get(band, 0.0)
                    * _speed(p["probe"]))
    for name, key in _WORK_COUNTS:
        metrics[name] = first["counts"].get(key, 0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = med(
            lambda p: p["layer_self_s"][layer] * _speed(p["probe"]))
        metrics[f"layer.{layer}.self_frac"] = med(lambda p: p["layer_self_s"][layer] / p["wall_s"])
    traced_wall = med(lambda p: math.fsum(scaled_steps(p)))
    plain_wall = statistics.median(math.fsum(scaled_steps(p)) for p in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics


def tally(passes) -> tuple[int, int, list[str]]:
    """attempted and failed over all passes, plus the determinism check.

    Every pass of a run has the same inputs, so its work counts (and, for
    traced passes, the call counts of every layer) must match the first
    pass's exactly; each pass after the first is one more attempted
    operation, failed if they differ.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = []
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        if p["counts"] != passes[0]["counts"]:
            failed += 1
            notes.append(f"pass {i} work counts {p['counts']} != pass 0 {passes[0]['counts']}")
    traced = [p for p in passes if p["traced"]]
    for p in traced[1:]:
        attempted += 1
        calls = {k: v["calls"] for k, v in p["layers"].items()}
        if calls != {k: v["calls"] for k, v in traced[0]["layers"].items()}:
            failed += 1
            notes.append("traced passes disagree on layer call counts")
    return attempted, failed, notes


def host_info(passes) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **passes[0]["versions"],
        "eisenkit_threads": passes[0]["threads_env"],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output checker flags a wrong result, then exit")
    args = ap.parse_args(argv)

    missed = checks.self_test()
    if args.self_test:
        print("checker self-test: " + ("all checkers flag their injected error"
                                       if not missed else f"MISSED {missed}"))
        return 0 if not missed else 4
    if missed:
        print(f"checker self-test failed: {missed}", file=sys.stderr)
        return 4
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "eisenkit" / "__init__.py").is_file():
        print(f"no eisenkit sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    (out_dir / "spans").mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        setups, passes = measure(args.workload, args.seed, args.seconds, trace, out_dir)
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 3

    attempted, failed, notes = tally(passes)
    e2e, info = end_to_end(setups, passes)
    layer = per_layer(passes) if trace else {}
    host = host_info(passes)
    host["seed"] = args.seed

    for key, value in host.items():
        print(f"host  {key:<36} {value}")
    for key in sorted({k for p in passes for k in p["counts"]}):
        print(f"work  {key:<36} {passes[0]['counts'].get(key)}")
    worst: dict[str, float] = {}
    for p in passes:
        for key, value in p["worst"].items():
            worst[key] = max(worst.get(key, 0.0), value)
    for key, value in sorted(worst.items()):
        print(f"check worst {key:<30} {value:.3e}")
    for note in notes:
        print(f"FAIL  {note}")
    print(f"e2e   {'error_rate':<36} {failed / attempted:.6g} ({failed} of {attempted})")
    for name, unit in END_TO_END:
        print(f"e2e   {name:<36} {e2e[name]:.6g} {unit}")
    print(f"e2e   samples: {info['passes']} timed passes, {info['unit_calls']} unit calls, "
          f"{info['setups']} set-ups")
    print(f"e2e   as measured: wall {info['measured_wall_s']:.6g} s, set-up "
          f"{info['measured_setup_s']:.6g} s, at {info['host_speed']:.3f} x the reference speed")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    for name, value in layer.items():
        print(f"layer {name:<45} {value:.6g} {units[name]}")

    reported = layer if trace else e2e
    unit_of = units if trace else dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in reported.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "info": info, "notes": notes,
              "end_to_end": e2e, "per_layer": layer, "result": result,
              "worst": worst, "setups": setups, "passes": passes}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
