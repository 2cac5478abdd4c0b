#!/usr/bin/env python3
"""Node-spacing study of the sinc-DVR bound-state solver.

Solves the shifted Morse and sech wells on their default domains at node
spacings from 0.4 down to 0.1 and tabulates eigenvalue errors against the
closed-form levels n(2a - n) and n(2 mu - n).  The error falls exponentially
as h shrinks (spectral convergence of the sinc basis), not by a fixed factor
per halving, until it reaches round-off.  A spacing too coarse for the steep
Morse wall leaves a spurious edge amplitude; the solver then refuses the
grid and the row reads `grid_too_small`.  Each dense solve costs O(N^2)
memory and O(N^3) time in the node count N.

    python scripts/convergence_study.py --out convergence.csv
"""

import argparse
import math
import time

import numpy as np

from susyspectra.analysis import solve
from susyspectra.eigensolver import GridTooSmallError, default_grid
from susyspectra.grids import Grid
from susyspectra.potentials import MorseParams, PTParams

SPACINGS = (0.4, 0.3, 0.25, 0.2, 0.15, 0.125, 0.1)


def exact_levels(strength: float) -> np.ndarray:
    n = np.arange(int(np.ceil(strength - 1e-9)))
    return n * (2 * strength - n)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="convergence.csv")
    ap.add_argument("--lambda", dest="lam", type=float, default=4.5)
    ap.add_argument("--mu", type=float, default=4.0)
    args = ap.parse_args()

    rows = ["family,n_nodes,h,status,max_abs_error,seconds"]
    # closed-form levels n(2a - n) with a = lambda - 1/2 and a = mu
    for params, a in ((MorseParams(args.lam, 1.0), args.lam - 0.5),
                      (PTParams(args.mu, 1.0), args.mu)):
        family = params.family
        domain = default_grid(params)
        exact = exact_levels(a)
        for h in SPACINGS:
            n = math.ceil((domain.max - domain.min) / h) + 1
            grid = Grid(domain.min, domain.max, n)
            t0 = time.perf_counter()
            try:
                levels = solve(params, "shifted", grid).eigenvalues
            except GridTooSmallError:
                levels = None
            dt = time.perf_counter() - t0
            err = math.nan
            if levels is None:
                status = "grid_too_small"
            elif levels.size != exact.size:
                status = f"{levels.size}_of_{exact.size}_levels"
            else:
                status = "ok"
                err = float(np.max(np.abs(levels - exact)))
            rows.append(f"{family},{n},{grid.spacing:.6g},{status},{err:.6e},"
                        f"{dt:.3f}")
            print(rows[-1])
    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
