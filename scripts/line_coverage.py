#!/usr/bin/env python3
"""List the lines of src/eisenkit that no Tier-1 test executes.

    python3 scripts/line_coverage.py

Runs pytest -q on the tests/ of the checkout that holds this script, in
this process, from that checkout and with its src/ first on sys.path,
under the standard library's trace module, so it needs nothing that Tier-1
does not.  Then, for each module of src/eisenkit, it prints every
executable line (one where a code object starts a line, as the trace
module counts them) that no test executed, with its text.

Tests that run the library in a subprocess (the command-line entry point,
fresh-process import checks) are not traced: a line that only they reach
is listed as not executed.  Tracing makes the suite about six times slower
(Tier-1 took about two minutes against about 20 s on a 2-vCPU host), so
this is not part of Tier-1.  The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import dis
import os
import sys
import trace
import types
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """The lines at which some code object compiled from path starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    import pytest

    # no ignoredirs: the trace module remembers an ignored module by its bare
    # name, so a library's __init__ would hide every package's __init__
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(root / "tests")])
    executed = {}
    for filename, line in tracer.results().counts:
        executed.setdefault(os.path.realpath(filename), set()).add(line)

    print("\nlines no test executed in this process (tests run in subprocesses are not traced):")
    for path in sorted((root / "src" / "eisenkit").glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - executed.get(os.path.realpath(path), set()))
        print(f"{path.relative_to(root).as_posix()}: {len(missed)} of {len(lines)} executable lines")
        text = path.read_text().splitlines()
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
