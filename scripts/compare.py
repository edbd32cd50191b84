#!/usr/bin/env python3
"""Benchmark a change against its parent revision in alternating pairs, and
compare the two checkouts' outputs bit for bit.

    python3 scripts/compare.py PARENT_REV [--pairs N] [--first-seed N]
        [--label LABEL]

Both sides are exported to a fresh temporary directory (TMPDIR picks its
place), as .../parent and .../change, paths of equal length, because the
length of a path alone moves timings (Mytkowicz et al., ASPLOS 2009).  The
parent is `git archive PARENT_REV`; the change is this checkout's working
tree, every tracked or untracked file that git does not ignore, so
uncommitted work is measured as it stands.

For each workload in BENCHMARK.json, N pairs run the unchanged
perfbench/run.py of both sides for the benchmark's run_seconds at --trace 0
on one seed per pair, first-seed, first-seed + 1, ..., and the side that
runs first alternates from pair to pair (Kalibera and Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013).  Then the change's copy of
each bit script in scripts/ (check_series_bits.py, check_character_bits.py)
dumps both sides, with --src on each side's src/, so that an array the
change adds is dumped from the parent's code too, and compares the dumps.
Where the change's copy cannot dump the parent's code, because it reads an
entry point the parent lacks, the parent's own copy dumps it, and an array
that only the change's dump holds is reported as new.

The record goes to BENCH_<label>.json at the root of this checkout: the
host, the revisions, the seeds, every pair's metrics, and per metric the
median and quartiles of each side, the change's wins (pairs in which it was
the better by the metric's direction in BENCHMARK.json), the median gap,
the parent's interquartile range and the relative change against its bound;
failed operations and the exit status of any run that did not finish; each
bit script's mismatch counts per array, with the largest deviations it
prints (absolute, relative, and for K values relative to
max(|K|, e^{-pi t/2})) and its verdict against the array's declared
tolerance (within_tolerance, and the list outside_tolerance), an array
that the change's dump lacks counted as one mismatch and outside its
tolerance, and its new arrays, which count as none (the script's own exit
status still counts them); the line counts of src/, of all lines and of code
lines alone, those neither blank, nor only a comment, nor in a module,
class or function docstring, so that removed prose does not read as
removed code; and, for each module
of the side's own files that a workload pass imports, its token count,
its compile time and the peak of tracemalloc's traced memory while it
compiles.  A process that writes no bytecode (PYTHONDONTWRITEBYTECODE)
compiles every module on every start, so these costs land in each pass's
setup_s, and the largest compile peak can set its peak_rss_mb.  The file
is rewritten after every workload, so an interrupted run keeps what it
measured.  Last, each side runs Tier-1 once (pytest -q on its own src/ and
tests/), and the record keeps its counts and wall time and the nine
acceptance verdicts it prints, PASS or FAIL with their figures: every number
of a verdict's detail but its bounds, in parentheses, and its timings, in
seconds.  The acceptance names whose verdict or figures differ between the
sides are listed under "moved".  The exported directories are removed
whatever happens.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
import zipfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BIT_SCRIPTS = ("check_series_bits.py", "check_character_bits.py")
SIDES = ("parent", "change")       # equal lengths, so both paths are as long
_BIT_LINE = re.compile(r"^(\S+): (\d+) entries, (\d+) mismatches"
                       r"(?:, max abs deviation (\S+), max rel deviation (\S+)"
                       r"(?:, max scale deviation (\S+))?)?"
                       r"(?:, (within|outside) tolerance \(([^)]*)\))?$")
# an array that one dump lacks, or whose shape or dtype differs: the bit
# script counts it as one mismatch
_BIT_PROBLEM = re.compile(r"^(\S+): ((?:missing from|shape/dtype) .*)$")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# the acceptance block of tests/conftest.py, and pytest's closing summary
_VERDICT = re.compile(r"^(PASS|FAIL)  ([\w-]+): (.*)$")
_SUMMARY = re.compile(r"^=*\s*(\d+ \w+.*?) in ([\d.]+)s\b")
_NOT_FIGURES = re.compile(r"\([^)]*\)|\b[\d.]+ s\b")     # bounds, and timings
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def _export_revision(rev: str, dest: Path) -> str:
    """Fill dest with revision rev; return its commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with zipfile.ZipFile(io.BytesIO(_git("archive", "--format=zip", commit))) as archive:
        archive.extractall(dest)
    return commit


def _export_working_tree(dest: Path) -> str:
    """Fill dest with the working tree's files that git does not ignore."""
    dest.mkdir(parents=True)
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src = REPO / name
        if src.is_file():            # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return "working tree at " + _git("rev-parse", "HEAD").decode().strip()


def _env() -> dict:
    """The caller's environment without PYTHONPATH, so that each side
    imports only its own sources."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, or the exit status and the end of
    its stderr if it did not finish."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins, and its median
    gap against the parent's interquartile range and the metric's bound."""
    done = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    out = {}
    for name, spec in metrics.items() if done else ():
        values = {side: [p[side]["metrics"][name]["value"] for p in done] for side in SIDES}
        sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
        q = {side: _quartiles(values[side]) for side in SIDES}
        gain = sign * (q["parent"][1] - q["change"][1])      # > 0 when the change is better
        out[name] = {
            "better": spec.get("better", "lower"),
            "parent": dict(zip(("q1", "median", "q3"), q["parent"])),
            "change": dict(zip(("q1", "median", "q3"), q["change"])),
            "wins": sum(sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"])),
            "pairs": len(done),
            "median_gain": gain,
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "relative_change": (q["change"][1] - q["parent"][1]) / q["parent"][1],
            "bound": spec.get("bound"),
        }
    return out


def _bits(dirs: dict[str, Path], work: Path) -> dict:
    """Each bit script's dumps of both sides by the change's copy, --src on
    each side's src/, or by the parent's own copy where the change's fails
    on the parent; compared by the change's copy."""
    out = {}
    for script in BIT_SCRIPTS:
        mine, theirs = (dirs[side] / "scripts" / script for side in ("change", "parent"))
        if not mine.is_file():
            out[script] = {"skipped": "not in the change"}
            continue
        dumps = {side: work / f"{side}-{Path(script).stem}.npz" for side in SIDES}
        dumped_by = dict.fromkeys(SIDES, "change")
        for side in SIDES:
            cmd = [sys.executable, str(mine), "--dump", str(dumps[side]), "--src", str(dirs[side] / "src")]
            proc = subprocess.run(cmd, cwd=dirs[side], env=_env(), capture_output=True, text=True)
            if proc.returncode and side == "parent" and theirs.is_file():
                dumped_by[side] = "parent"
                proc = subprocess.run([sys.executable, str(theirs), "--dump", str(dumps[side])],
                                      cwd=dirs[side], env=_env(), capture_output=True, text=True)
            proc.check_returncode()
        proc = subprocess.run([sys.executable, str(mine), "--compare", *map(str, dumps.values())],
                              cwd=dirs["change"], env=_env(), capture_output=True, text=True)
        out[script] = {**_parse_compare(proc.stdout, str(dumps["parent"])), "exit": proc.returncode,
                       "dumped_by": dumped_by}
    return out


def _parse_compare(stdout: str, parent_dump: str) -> dict:
    """The per-array lines of a bit script's --compare output, and their total:
    an array missing from the change's dump, or of another shape or dtype,
    counts as one mismatch, as the script itself counts it, and is outside
    its tolerance; one missing from the parent's dump, parent_dump, is new
    and counts as none.  Each line's verdict against the array's declared
    tolerance is kept as within_tolerance, and outside_tolerance lists the
    arrays outside theirs."""
    arrays = {}
    for line in stdout.splitlines():
        match, problem = _BIT_LINE.match(line), _BIT_PROBLEM.match(line)
        if match:
            name, entries, mismatches, dev_abs, dev_rel, dev_scale, verdict, tolerance = match.groups()
            arrays[name] = {"entries": int(entries), "mismatches": int(mismatches)}
            if dev_abs is not None:
                arrays[name].update(max_abs_deviation=float(dev_abs), max_rel_deviation=float(dev_rel))
            if dev_scale is not None:
                arrays[name]["max_scale_deviation"] = float(dev_scale)
            if verdict is not None:
                arrays[name].update(within_tolerance=verdict == "within", tolerance=tolerance)
        elif problem:
            name, what = problem.groups()
            new = what == f"missing from {parent_dump}"
            arrays[name] = {"mismatches": 0, "new": True} if new else {"mismatches": 1, "problem": what}
    return {"total_mismatches": sum(a["mismatches"] for a in arrays.values()),
            "new_arrays": sorted(name for name, a in arrays.items() if a.get("new")),
            "outside_tolerance": sorted(name for name, a in arrays.items()
                                        if "problem" in a or a.get("within_tolerance") is False),
            "arrays": arrays}


def _tier1(side: Path) -> dict:
    """One Tier-1 run of a side on its own src/: its counts, wall time, exit
    status and acceptance verdicts."""
    env = {**_env(), "PYTHONPATH": str(side / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=side, env=env, capture_output=True, text=True)
    return {**_parse_tier1(proc.stdout), "wall_s": time.perf_counter() - start, "exit": proc.returncode}


def _parse_tier1(stdout: str) -> dict:
    """The counts and time of pytest's closing summary line, and each
    acceptance verdict with its figures."""
    out = {"counts": {}, "pytest_s": None, "acceptance": {}}
    for line in stdout.splitlines():
        verdict, summary = _VERDICT.match(line), _SUMMARY.match(line)
        if verdict:
            word, name, detail = verdict.groups()
            figures = [float(x) for x in _NUMBER.findall(_NOT_FIGURES.sub(" ", detail))]
            out["acceptance"][name] = {"passed": word == "PASS", "figures": figures, "detail": detail}
        elif summary:
            counts, seconds = summary.groups()
            out["counts"] = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", counts)}
            out["pytest_s"] = float(seconds)
    return out


def _moved(tier1: dict) -> list[str]:
    """The acceptance names whose verdict or figures differ between the
    sides, or that one side lacks."""
    parent, change = ({name: (v["passed"], v["figures"]) for name, v in tier1[side]["acceptance"].items()}
                      for side in SIDES)
    return sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))


# the modules a pass imports: perfbench/worker.py puts src/ and perfbench/
# first on sys.path and imports workloads, which imports the library
_IMPORTED = ("import json, sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
             "print(json.dumps([getattr(m, '__file__', None) for m in list(sys.modules.values())]))")
COMPILE_REPEATS = 5


def _compile_costs(side: Path) -> dict:
    """Per module that importing perfbench's workloads loads from the side's
    own files, by path within the side: its tokenize token count, its best
    compile time of COMPILE_REPEATS in ms, and the peak traced memory of
    one compile in KB, all measured in this process."""
    proc = subprocess.run([sys.executable, "-c", _IMPORTED], cwd=side, env=_env(),
                          capture_output=True, text=True, check=True)
    root = side.resolve()
    names = sorted({Path(f).resolve().relative_to(root).as_posix()
                    for f in json.loads(proc.stdout) if f and Path(f).resolve().is_relative_to(root)})
    out = {}
    for name in names:
        text = (side / name).read_text()
        times = []
        for _ in range(COMPILE_REPEATS):
            start = time.perf_counter()
            compile(text, name, "exec")
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            compile(text, name, "exec")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {"tokens": sum(1 for _ in tokenize.generate_tokens(io.StringIO(text).readline)),
                     "compile_ms": 1e3 * min(times), "compile_peak_kb": peak / 1024}
    return out


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _code_lines(text: str) -> int:
    """Lines of the Python source text that are not blank, not only a
    comment and not in a module, class or function docstring."""
    prose = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            prose.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), start=1)
               if i not in prose and line.strip() and not line.lstrip().startswith("#"))


def _src_code_lines(root: Path) -> int:
    return sum(_code_lines(p.read_text()) for p in sorted((root / "src").rglob("*.py")))


def _host() -> dict:
    host = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    try:
        host["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            host["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return host


def _write(path: Path, record: dict) -> None:
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_REV")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default="compare", help="the record goes to BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    out_path = REPO / f"BENCH_{args.label}.json"
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    work = Path(tempfile.mkdtemp(prefix="compare-"))
    try:
        dirs = {side: work / side for side in SIDES}
        record = {
            "label": args.label,
            "host": _host(),
            "parent": _export_revision(args.parent, dirs["parent"]),
            "change": _export_working_tree(dirs["change"]),
            "seconds": seconds,
            "src_lines": {side: _src_lines(dirs[side]) for side in SIDES},
            "src_code_lines": {side: _src_code_lines(dirs[side]) for side in SIDES},
            "compile": {side: _compile_costs(dirs[side]) for side in SIDES},
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                    pair[side] = _bench(dirs[side], workload, seed, seconds)
                pairs.append(pair)
            record["workloads"][workload] = {
                "summary": _summary(pairs, metrics),
                "failed_operations": {side: sum(p[side].get("failed", 0) for p in pairs) for side in SIDES},
                "unfinished_runs": {side: sum("exit" in p[side] for p in pairs) for side in SIDES},
                "pairs": pairs,
            }
            _write(out_path, record)
        record["bits"] = _bits(dirs, work)
        _write(out_path, record)
        record["tier1"] = {side: _tier1(dirs[side]) for side in SIDES}
        record["tier1"]["moved"] = _moved(record["tier1"])
        _write(out_path, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
