"""Per-layer metrics from the spans of a traced run.

Values are per pass: for the fixed workloads, the sum over the pass's ops of
each op's value (times: median over the op's samples; counters: the op's
count, which must repeat exactly in every sample); for scan, the first
batch's total divided by its number of points.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracer as tracing

# Counters that must repeat exactly between samples of one op.
COUNTERS = ("calls", "pairs", "elements", "evaluations", "points", "mac",
            "nodes", "levels", "levels_expected", "grid_too_small", "bytes")

CLI_RUNS = ("potential_curve_morse", "potential_curve_pt", "riccati",
            "spectrum_morse", "spectrum_pt", "isospectral_morse",
            "isospectral_pt", "gamma_sweep_morse", "energy_shift",
            "hankel_verify", "wavefunction_map_n0", "wavefunction_map_n1",
            "potential_term_map", "scan_morse", "scan_pt")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "numerics.sturm.calls": "count",
    "numerics.sturm.s": "s",
    "numerics.tridiag_eigen.calls": "count",
    "numerics.tridiag_eigen.s": "s",
    "numerics.tridiag_eigen.pairs": "count",
    "numerics.bessel_j.calls": "count",
    "numerics.bessel_j.s": "s",
    "numerics.bessel_j.elements": "count",
    "numerics.bessel_j.ns_per_element": "ns",
    "numerics.oscillatory.calls": "count",
    "numerics.oscillatory.s": "s",
    "numerics.oscillatory.evaluations": "count",
    "numerics.cubic_interp.calls": "count",
    "numerics.cubic_interp.s": "s",
    "numerics.cubic_interp.points": "count",
    "transforms.hankel.calls": "count",
    "transforms.hankel.self_s": "s",
    "transforms.hankel.mac": "count",
    "transforms.wavefunction_map.s": "s",
    "transforms.term_map.s": "s",
    "transforms.sandwich.s": "s",
    "transforms.resample.s": "s",
    "transforms.term_map.max_residual": "1",
    "eigensolver.solve.calls": "count",
    "eigensolver.solve.self_s": "s",
    "eigensolver.discretize.s": "s",
    "eigensolver.nodes": "count",
    "eigensolver.levels": "count",
    "eigensolver.levels_expected": "count",
    "eigensolver.level_yield": "ratio",
    "eigensolver.grid_too_small": "count",
    "potentials.sample.calls": "count",
    "potentials.sample.s": "s",
    "potentials.sample.points": "count",
    "potentials.rho_min.calls": "count",
    "potentials.rho_min.s": "s",
    "analysis.solve.calls": "count",
    "analysis.solve.s": "s",
    "analysis.gamma_sweep.s": "s",
    "analysis.gamma_sweep.child_s": "s",
    **{f"cli.{run}.wall_s": "s" for run in CLI_RUNS},
    "cli.write_table.s": "s",
    "cli.write_table.bytes": "count",
    "trace.overhead_frac": "ratio",
    "accuracy.eig_digits": "digits",
    "accuracy.riccati_digits": "digits",
    "accuracy.map_digits": "digits",
    "accuracy.bessel_digits": "digits",
}

# counters recorded on one span name but reported under another layer
_RENAME = {
    "analysis.solve.levels": "eigensolver.levels",
    "analysis.solve.levels_expected": "eigensolver.levels_expected",
    "eigensolver.solve.nodes": "eigensolver.nodes",
}


def _op_kind(name: str) -> str:
    """scan ops are numbered per point; they share one kind per family."""
    return name.rsplit("_", 1)[0] if name.startswith("scan_") else name


def op_values(spans) -> dict[int, dict[str, float]]:
    """Per-op sums of span durations, self times and counters."""
    selfs = tracing.self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        if s.op is None:
            continue
        m = out[s.op]
        dur = s.end - s.start
        if s.parent is None:
            m[f"cli.{_op_kind(s.name[4:])}.wall_s"] += dur
            continue
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.s"] += dur
        m[f"{s.name}.self_s"] += self_s
        if spans[s.parent].name == "analysis.gamma_sweep":
            m["analysis.gamma_sweep.child_s"] += dur
        for key, value in s.counts.items():
            if key == "raised":
                if value == "GridTooSmallError":
                    m["eigensolver.grid_too_small"] += 1
            elif key == "max_residual":
                m[f"{s.name}.{key}"] = max(m[f"{s.name}.{key}"], value)
            else:
                m[_RENAME.get(f"{s.name}.{key}", f"{s.name}.{key}")] += value
    return out


def _is_counter(key: str) -> bool:
    return key.rsplit(".", 1)[-1] in COUNTERS


def per_layer(tracer, samples, ops, scan: bool, measured_s: float):
    """(metrics, problems): per-layer values as {name: (value, unit)} and
    any counter that failed to repeat between samples of one op."""
    values = op_values(tracer.spans)
    problems: list[str] = []
    totals: dict[str, float] = defaultdict(float)
    if scan:
        for s in samples:
            for key, v in values[s.index].items():
                totals[key] += v
        totals = {k: v / (len(samples) / 2) for k, v in totals.items()}
    else:
        by_op: dict[str, list[dict]] = defaultdict(list)
        for s in samples:
            by_op[s.op.name].append(values[s.index])
        for op in ops:
            runs = by_op[op.name]
            keys = set().union(*runs)
            for key in keys:
                vals = [r.get(key, 0.0) for r in runs]
                if _is_counter(key) or key.endswith("max_residual"):
                    if any(v != vals[0] for v in vals[1:]):
                        problems.append(f"{op.name}: {key} did not repeat "
                                        f"across passes: {vals}")
                    totals[key] += vals[0]
                else:
                    totals[key] += statistics.median(vals)
    elements = totals.get("numerics.bessel_j.elements", 0.0)
    expected = totals.get("eigensolver.levels_expected", 0.0)
    derived = {
        "numerics.bessel_j.ns_per_element": (
            1e9 * totals.get("numerics.bessel_j.s", 0.0) / elements
            if elements else 0.0),
        "eigensolver.level_yield": (
            totals.get("eigensolver.levels", 0.0) / expected
            if expected else 0.0),
        "trace.overhead_frac": (tracing.span_cost() * len(tracer.spans)
                                / measured_s),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("accuracy."):
            continue
        value = derived.get(name, totals.get(name, 0.0))
        metrics[name] = (float(value), unit)
    return metrics, problems
