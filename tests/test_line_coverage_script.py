"""scripts/line_coverage.py runs a tree's tests under the trace module and
lists, per module of its src/eisenkit, each executable line no test ran."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_coverage.py"


def test_lines_no_test_runs_are_listed_with_their_text(tmp_path):
    """On a fake tree, with the script copied into its scripts/ so that the
    tree is the checkout it runs, the body of the function no test calls is listed,
    line by line; its def line and the package docstring, which run at
    import, and the called function are not; and the exit status is
    pytest's, 1 for the test that fails."""
    package = tmp_path / "src" / "eisenkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Fake package."""\n')
    (package / "mod.py").write_text(textwrap.dedent('''\
        def used(x):
            return x + 1


        def unused(x):
            y = x * 2
            return y
    '''))
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts" / "line_coverage.py")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(textwrap.dedent('''\
        from eisenkit import mod


        def test_used():
            assert mod.used(1) == 2


        def test_fails():
            assert False
    '''))
    # third-party pytest plugins are left out: loading them under trace takes seconds
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "line_coverage.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    report = proc.stdout.split("lines no test executed in this process (tests run in subprocesses are not traced):\n")[1]
    assert report.splitlines() == [
        "src/eisenkit/__init__.py: 0 of 1 executable lines",
        "src/eisenkit/mod.py: 2 of 5 executable lines",
        "  6: y = x * 2",
        "  7: return y",
    ]
