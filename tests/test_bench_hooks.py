"""The benchmark's span tracer (perfbench/tracer.py) wraps functions at their
import sites inside the package.  Every name it looks up must resolve, or a
traced benchmark run stops at start-up, and every wrapped name must stay on
the call path, or its per-layer counters silently read 0."""

import importlib
from pathlib import Path

import pytest

from susyspectra import cli, eigensolver

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_patches_resolve_and_restore(tracing):
    original = eigensolver.discretize
    patched = tracing.install(tracing.Tracer())
    try:
        assert eigensolver.discretize is not original
    finally:
        tracing.uninstall(patched)
    assert eigensolver.discretize is original


def test_traced_runs_record_every_layer(tracing, tmp_path):
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        for i, argv in enumerate((
                ["potential-curve", "--family", "morse"],
                ["spectrum", "--family", "pt"],
                ["gamma-sweep", "--family", "morse", "--gammas", "1,10"])):
            out = tmp_path / f"run{i}.json"
            assert cli.main(argv + ["--output", str(out), "--format", "json",
                                    "--reproducible"]) == 0
    finally:
        tracing.uninstall(patched)
    recorded = {span.name for span in tracer.spans}
    for name in ("potentials.sample", "potentials.rho_min", "analysis.solve",
                 "eigensolver.solve", "analysis.gamma_sweep"):
        assert name in recorded, name
