#!/usr/bin/env python3
"""Drive every CLI experiment with the default verification parameters.

Writes one table per experiment into the output directory (CSV unless
--format json) and prints the headline metadata of each run.

    python scripts/run_all_experiments.py --outdir out
"""

import argparse
import sys
from pathlib import Path

from susyspectra.cli import main as cli_main

RUNS = [
    ("potential_curve_morse", ["potential-curve", "--family", "morse"]),
    ("potential_curve_pt", ["potential-curve", "--family", "pt"]),
    ("spectrum_morse", ["spectrum", "--family", "morse"]),
    ("spectrum_pt", ["spectrum", "--family", "pt"]),
    ("isospectral_morse", ["isospectral", "--family", "morse"]),
    ("isospectral_pt", ["isospectral", "--family", "pt"]),
    ("gamma_sweep_morse", ["gamma-sweep", "--family", "morse",
                           "--gammas", "0.5,1,10"]),
    ("gamma_sweep_pt", ["gamma-sweep", "--family", "pt",
                        "--gammas", "0.5,1,10"]),
    ("riccati", ["riccati", "--family", "both", "--lambda", "2.5",
                 "--mu", "3.0"]),
    ("hankel_verify", ["hankel-verify"]),
    ("wavefunction_map_n0", ["wavefunction-map", "--state", "0"]),
    ("wavefunction_map_n1", ["wavefunction-map", "--state", "1"]),
    ("energy_shift", ["energy-shift"]),
    ("energy_shift_offpoint", ["energy-shift", "--mu", "3.0"]),
    ("potential_term_map", ["potential-term-map"]),
    ("potential_term_map_2048", ["potential-term-map", "--plan-n", "2048"]),
    ("potential_term_map_m6", ["potential-term-map", "--order-m", "6"]),
]

HEADLINES = ("verdict", "bound_count", "max_residual", "l2_discrepancy",
             "max_delta", "max_scaled_error", "partner_verdict",
             "generalized_verdict", "asserted")


def headline(path: Path) -> str:
    bits = []
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        if key in HEADLINES or key.endswith("_verdict"):
            bits.append(f"{key}={value}")
    return "  ".join(bits)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, argv in RUNS:
        dest = outdir / f"{name}.{args.format}"
        rc = cli_main(argv + ["--output", str(dest), "--format", args.format,
                              "--reproducible"])
        if rc != 0:
            print(f"{name}: exit {rc}")
            failures += 1
            continue
        note = headline(dest) if args.format == "csv" else ""
        print(f"{name}: ok  {note}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
