"""The benchmark's span tracer (perfbench/tracer.py) wraps functions at their
import sites inside the package.  Every name it looks up must resolve, or a
traced benchmark run stops at start-up."""

import importlib
from pathlib import Path

from susyspectra import eigensolver

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    tracer = importlib.import_module("tracer")
    original = eigensolver.discretize
    patched = tracer.install(tracer.Tracer())
    try:
        assert eigensolver.discretize is not original
    finally:
        tracer.uninstall(patched)
    assert eigensolver.discretize is original
