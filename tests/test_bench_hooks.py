"""The benchmark's span tracer (perfbench/tracer.py) wraps functions at their
import sites inside the package.  Every name it looks up must resolve, or a
traced benchmark run stops at start-up, and every wrapped name must stay on
the call path, or its per-layer counters silently read 0."""

import importlib
import math
from pathlib import Path

import pytest

from susyspectra import cli, eigensolver
from susyspectra.transforms import DEFAULT_PLAN_N

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


def test_traced_wavefunction_map_records_its_layers(tracing, tmp_path):
    # the tracer wraps the map and both resamplings on cli, and reads the
    # plan from hankel's second argument and t' from its third for `mac`
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        out = tmp_path / "map.json"
        assert cli.main(["wavefunction-map", "--state", "1",
                         "--output", str(out), "--format", "json",
                         "--reproducible"]) == 0
    finally:
        tracing.uninstall(patched)
    names = [span.name for span in tracer.spans]
    for name in ("transforms.wavefunction_map", "transforms.hankel",
                 "numerics.bessel_j"):
        assert name in names, name
    assert names.count("transforms.resample") == 2
    (hankel,) = [s for s in tracer.spans if s.name == "transforms.hankel"]
    assert hankel.counts["mac"] == DEFAULT_PLAN_N * 1200


def test_traced_term_map_records_its_layers(tracing, tmp_path):
    # the tracer wraps potential_term_map and potential_term_sandwich on cli
    # separately and reads max_residual off the term map's report; merging
    # the two calls would leave the benchmark's transform layers unrecorded
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        out = tmp_path / "term_map.json"
        assert cli.main(["potential-term-map", "--plan-n", "64",
                         "--output", str(out), "--format", "json",
                         "--reproducible"]) == 0
    finally:
        tracing.uninstall(patched)
    recorded = {span.name for span in tracer.spans}
    for name in ("transforms.term_map", "transforms.sandwich",
                 "numerics.bessel_j"):
        assert name in recorded, name
    (term_map,) = [s for s in tracer.spans if s.name == "transforms.term_map"]
    assert math.isfinite(term_map.counts["max_residual"])


def test_traced_kernel_builds_count_every_element(tracing, tmp_path):
    # every Bessel kernel of the transforms is one bessel_j call, on the
    # calling thread, so the tracer sees each build: the coarse plan's term
    # map builds order 4, the fine pass orders 4 and 3, each on the
    # 226 x 226 Chebyshev points of t and t'
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        out = tmp_path / "term_map.json"
        assert cli.main(["potential-term-map", "--plan-n", "2048",
                         "--output", str(out), "--format", "json",
                         "--reproducible"]) == 0
    finally:
        tracing.uninstall(patched)
    builds = [s.counts["elements"] for s in tracer.spans
              if s.name == "numerics.bessel_j"]
    assert builds == [226 * 226] * 3
