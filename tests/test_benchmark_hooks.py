"""The library names the benchmark's tracer hooks into stay in place.

perfbench/tracer.py wraps every public layer function where it is bound and
hooks two class attributes, ``DirichletCharacter.phase`` and
``BumpWeight.__post_init__``; if either is gone, ``install`` raises.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import eisenkit
import eisenkit.eisenstein
import eisenkit.special_functions

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    original = eisenkit.special_functions.bessel_k_row
    tracer = _load_tracer().Tracer(None)
    try:
        tracer.install()
        for namespace in (eisenkit.special_functions, eisenkit.eisenstein, eisenkit):
            wrapped = namespace.bessel_k_row
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.restore()
    assert eisenkit.special_functions.bessel_k_row is original
    assert eisenkit.eisenstein.bessel_k_row is original
