"""One cold pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout.  Set-up time runs from
the first statement here through the library imports, input generation and
character/parameter construction.  The timed phase then starts with no
library cache warmed by an earlier pass, because every pass is a new
process.  A host-speed probe samples the interpreter's speed throughout
the timed phase and once right after set-up.

    python3 perfbench/worker.py --workload fe-matrix --seed 1 [--traced] [--setup-only]
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="CSV file for the traced pass's spans")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hostspeed
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - T_START
    # the host's speed just after set-up, to scale set-up by
    setup_probe = hostspeed.Probe()
    for _ in range(hostspeed.SETUP_SAMPLES):
        setup_probe.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe": setup_probe.samples}))
        return 0

    probe = hostspeed.Probe()
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer(probe)
        tracer.install(extra_namespaces=[workloads])
        tracer.enabled = True

    out = workloads.Outcome(probe=probe)
    with probe:
        spent = probe.spent
        start = perf_counter()
        results = workload.run(out)
        wall_s = perf_counter() - start - (probe.spent - spent)

    if tracer is not None:
        tracer.enabled = False
        tracer.restore()
    workload.check(results, out)
    out.counts["steps"] = len(out.step_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "step_s": out.step_s,
        "step_at": out.step_at,
        "probe": probe.samples,
        "setup_probe": setup_probe.samples,
        "unit_steps": out.unit_steps,
        "attempted": out.attempted,
        "failed": out.failed,
        "counts": out.counts,
        "worst": out.worst,
        "threads_env": os.environ.get("EISENKIT_THREADS"),
        "versions": {name: sys.modules[name].__version__ for name in ("eisenkit", "numpy", "mpmath")},
    }
    if tracer is not None:
        report["layers"] = {
            name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s,
                   "distinct": None if s.keys is None else len(s.keys),
                   "bands": s.bands}
            for name, s in tracer.stats.items()}
        report["layer_self_s"] = tracer.layer_self_s()
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans, origin=start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
