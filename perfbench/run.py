#!/usr/bin/env python3
"""Benchmark of the susyspectra CLI: time, memory and accuracy per workload.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one closed-loop client: each op is a call of
``susyspectra.cli.main`` with ``--format json --reproducible``, run serially,
and every table it writes is read back and gated against the closed forms
(``perfbench/gate.py``) outside the timed region.

Workloads (why each exists is in ``BENCHMARK.json`` and ``README.md``):
  spectra    eigen-solving ops at the verification point lambda=4.5, mu=4
  transform  the Hankel-stage ops at the same point
  scan       spectrum of the generalized well of both families at
             (lambda, mu, gamma) points drawn from the seed

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with span wrappers installed (``perfbench/tracer.py``) and prints
the per-layer metrics instead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402


@dataclass(frozen=True)
class Op:
    name: str
    experiment: str
    family: str
    args: tuple[str, ...]

    def argv(self, dest: Path) -> list[str]:
        return [self.experiment, *self.args, "--output", str(dest),
                "--format", "json", "--reproducible"]


def _op(name, experiment, family, *args):
    return Op(name, experiment, family, tuple(args))


# One pass of each fixed workload.  Cheap ops come first so that the part
# of a second pass that fits in the run repeats them: the counter repeat
# check then covers tridiag pairs (spectrum), Bessel elements, oscillatory
# evaluations and Hankel MACs (hankel-verify, potential-term-map).
SPECTRA = (
    _op("potential_curve_morse", "potential-curve", "morse",
        "--family", "morse"),
    _op("potential_curve_pt", "potential-curve", "pt", "--family", "pt"),
    _op("riccati", "riccati", "both", "--family", "both", "--lambda", "2.5",
        "--mu", "3.0"),
    _op("spectrum_morse", "spectrum", "morse", "--family", "morse"),
    _op("spectrum_pt", "spectrum", "pt", "--family", "pt"),
    _op("isospectral_morse", "isospectral", "morse", "--family", "morse"),
    _op("isospectral_pt", "isospectral", "pt", "--family", "pt"),
    _op("gamma_sweep_morse", "gamma-sweep", "morse", "--family", "morse",
        "--gammas", "0.5,1,10"),
    _op("energy_shift", "energy-shift", "both"),
)
TRANSFORM = (
    _op("hankel_verify", "hankel-verify", "both"),
    _op("potential_term_map", "potential-term-map", "both",
        "--plan-n", "2048"),
    _op("wavefunction_map_n0", "wavefunction-map", "both", "--state", "0"),
    _op("wavefunction_map_n1", "wavefunction-map", "both", "--state", "1"),
)
FIXED = {"spectra": SPECTRA, "transform": TRANSFORM}
WORKLOADS = ("spectra", "transform", "scan")

# Admissible ranges of the robustness scan: lambda in (0.6, 12], mu in
# (0.2, 10], gamma log-uniform in [0.1, 100].  SCAN_POINTS points (two ops each) make one batch.
SCAN_POINTS = 7
SCAN_JITTER = 0.005
_KRONECKER_G = 1.2207440846057594  # root of x^4 = x + 1


def scan_points(seed: int, count: int = SCAN_POINTS) -> list[tuple]:
    """The first `count` points of the R3 Kronecker sequence (start 0.5)
    over the full ranges, each moved by up to SCAN_JITTER of every range by
    the seed.  Seven independent draws would let the share of points that
    miss the closed form swing from 1/14 to 5/14 between seeds; a fixed
    space-filling design with a seeded jitter keeps that share steady while
    every seed still runs other inputs."""
    import numpy as np

    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3))
    alpha = np.array([_KRONECKER_G ** -k for k in (1, 2, 3)])
    points = []
    for i in range(count):
        u = (0.5 + (i + 1) * alpha + SCAN_JITTER * jitter[i]) % 1.0
        lam = 12.0 - 11.4 * u[0]
        mu = 10.0 - 9.8 * u[1]
        gamma = 10.0 ** (-1.0 + 3.0 * u[2])
        points.append((float(lam), float(mu), float(gamma)))
    return points


def scan_ops(seed: int) -> list[Op]:
    ops = []
    for i, (lam, mu, gamma) in enumerate(scan_points(seed)):
        common = ("--potential", "generalized", "--gamma", repr(gamma))
        ops.append(_op(f"scan_morse_{i}", "spectrum", "morse", "--family",
                       "morse", "--lambda", repr(lam), *common))
        ops.append(_op(f"scan_pt_{i}", "spectrum", "pt", "--family", "pt",
                       "--mu", repr(mu), *common))
    return ops


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    op: Op
    seconds: float
    exit_code: int | None
    verdict: gate.Verdict
    index: int


def run_op(cli_main, op: Op, workdir: Path, index: int) -> Sample:
    dest = workdir / f"{op.name}.json"
    out, err = io.StringIO(), io.StringIO()
    exit_code = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = cli_main(op.argv(dest))
    except Exception:
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    table = dest.read_text() if dest.exists() else None
    dest.unlink(missing_ok=True)
    if exit_code is None:
        verdict = gate.Verdict()
        verdict.fail("uncaught exception: "
                     + err.getvalue().strip().splitlines()[-1])
    else:
        verdict = gate.check_op(op.experiment, op.family, exit_code, table,
                                err.getvalue())
    return Sample(op, seconds, exit_code, verdict, index)


def run_fixed(cli_main, ops, seconds: float, workdir: Path, tracer=None):
    """Whole passes op by op: always one full pass, then further ops in
    pass order while the next one is expected to end within `seconds`."""
    samples: list[Sample] = []
    last: dict[str, float] = {}
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops) and (time.perf_counter() - start + last[op.name]
                              > seconds):
            break
        samples.append(_traced(cli_main, op, workdir, i, tracer))
        last[op.name] = samples[-1].seconds
        i += 1
    return samples


def run_scan(cli_main, ops, seconds: float, workdir: Path, tracer=None):
    """The seed's batch once; repeated while a further batch is expected
    to end within `seconds`.  Outcomes are taken from the first batch."""
    batches: list[list[Sample]] = []
    start = time.perf_counter()
    while True:
        if batches:
            spent = time.perf_counter() - start
            if spent + spent / len(batches) > seconds:
                break
        base = len(batches) * len(ops)
        batches.append([_traced(cli_main, op, workdir, base + j, tracer)
                        for j, op in enumerate(ops)])
    return batches


def _traced(cli_main, op, workdir, index, tracer):
    if tracer is None:
        return run_op(cli_main, op, workdir, index)
    tracer.op = index
    span = tracer.begin(f"cli.{op.name}")
    try:
        return run_op(cli_main, op, workdir, index)
    finally:
        tracer.end(span)
        tracer.op = None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import susyspectra.cli;"
                 " print(time.perf_counter() - t)")
SETUP_REPEATS = 7


def measure_import() -> float:
    """Median import time of the CLI module in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def make_inputs(workload: str, seed: int) -> list[Op]:
    return list(FIXED[workload]) if workload in FIXED else scan_ops(seed)


def measure_inputs(workload: str, seed: int) -> tuple[list[Op], float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = make_inputs(workload, seed)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def digits(error: float) -> float:
    """-log10 of an error; an exact zero reads as 16 (double precision)."""
    return 16.0 if error <= 0.0 else -math.log10(error)


def pass_time(samples: list[Sample], ops) -> tuple[float, dict[str, int]]:
    """Time of one pass: the sum over the pass's ops of each op's median."""
    by_name: dict[str, list[float]] = {}
    for s in samples:
        by_name.setdefault(s.op.name, []).append(s.seconds)
    total = sum(statistics.median(by_name[op.name]) for op in ops)
    return total, {name: len(v) for name, v in by_name.items()}


def worst_errors(samples: list[Sample]) -> dict[str, float]:
    """Worst closed-form error per accuracy kind over the tables written."""
    worst: dict[str, float] = {}
    for s in samples:
        for kind, err in s.verdict.errors.items():
            worst[kind] = max(worst.get(kind, 0.0), err)
    return worst


def load_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "susyspectra" / "cli.py").is_file():
        print(f"no susyspectra sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    import selftest

    problems = selftest.gate_problems()

    import_s = measure_import()
    ops, inputs_s = measure_inputs(args.workload, args.seed)
    setup_s = import_s + inputs_s
    sys.path.insert(0, str(ROOT / "src"))
    from susyspectra import cli

    tracer = patched = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        patched = tracing.install(tracer)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if args.workload == "scan":
            batches = run_scan(cli.main, ops, args.seconds, Path(tmp), tracer)
            samples = batches[0]
            wall_s = statistics.median(
                sum(s.seconds for s in b) for b in batches) / SCAN_POINTS
            counts = {"batches": len(batches)}
        else:
            samples = run_fixed(cli.main, ops, args.seconds, Path(tmp), tracer)
            wall_s, counts = pass_time(samples, ops)
    measured_s = time.perf_counter() - t0
    if patched is not None:
        tracing.uninstall(patched)

    scan = args.workload == "scan"
    failed = 0
    for s in samples:
        if scan:
            # Closed-form misses and exit-3 refusals are the outcome the
            # scan measures (pass_frac); a crash, another exit code or a
            # malformed table is a failed op.
            bad = s.exit_code not in (0, 3) or any(
                r.startswith("malformed") or r.startswith("uncaught")
                for r in s.verdict.reasons)
        else:
            bad = not s.verdict.passed
        failed += bad
        print(f"# {s.op.name} {s.seconds:.3f}s "
              + ("ok" if s.verdict.passed else "; ".join(s.verdict.reasons)),
              file=sys.stderr)
    passed = sum(s.verdict.passed for s in samples)
    worst = worst_errors(samples)
    print(f"# {args.workload}: {len(samples)} ops, samples {counts}",
          file=sys.stderr)

    if args.trace:
        import layers
        metrics, trace_problems = layers.per_layer(
            tracer, samples, ops, scan, measured_s)
        problems += trace_problems
        for kind in ("eig", "riccati", "map", "bessel"):
            metrics[f"accuracy.{kind}_digits"] = (
                digits(worst[kind]), "digits") if kind in worst else (
                0.0, "digits")
        trace_file = work / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.to_json()))
        names = load_names("per_layer")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "pass_frac": (passed / len(samples), "ratio"),
            "digits": (digits(max(worst.values(), default=0.0)), "digits"),
        }
        names = load_names("end_to_end")
    if sorted(metrics) != sorted(names):
        problems.append("printed metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(names))}")
    for p in problems:
        print(f"benchmark check failed: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
