#!/usr/bin/env python3
"""Node-spacing study of the sinc-DVR bound-state solver.

Solves the shifted Morse and sech wells on their default domains at
x-spacings from 0.4 down to 0.065, on the uniform grid (stretch 0) and on
the stretched grid of the defaults (stretch 1.5), and tabulates eigenvalue
errors against the closed-form levels n(2a - n) and n(2 mu - n), so error
against node count reads off for both grids.  Every grid has its outermost
interior nodes on the domain's edges, as the default grids do.  The error
falls exponentially as h shrinks (spectral convergence of the sinc basis),
not by a fixed factor per halving, until it reaches round-off.  A spacing
too coarse for the steep Morse wall leaves a spurious edge amplitude or
loses a level; the solver then refuses the grid and the row reads
`grid_too_small`.  Each dense solve costs O(N^2) memory and O(N^3) time in
the node count N.

    python scripts/convergence_study.py --out convergence.csv
"""

import argparse
import itertools
import math
import time

import numpy as np

from susyspectra.analysis import solve
from susyspectra.eigensolver import (DEFAULT_STRETCH, GridTooSmallError,
                                     _grid_at_spacing)
from susyspectra.potentials import MorseParams, PTParams

SPACINGS = (0.4, 0.3, 0.25, 0.2, 0.15, 0.13, 0.1, 0.065)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="convergence.csv")
    ap.add_argument("--lambda", dest="lam", type=float, default=4.5)
    ap.add_argument("--mu", type=float, default=4.0)
    args = ap.parse_args()

    rows = ["family,stretch,n_nodes,h,status,max_abs_error,seconds"]
    for params in (MorseParams(args.lam, 1.0), PTParams(args.mu, 1.0)):
        family = params.family
        for h, stretch in itertools.product(SPACINGS, (0.0, DEFAULT_STRETCH)):
            grid = _grid_at_spacing(*params.default_domain(), h, stretch)
            t0 = time.perf_counter()
            try:
                levels = solve(params, "shifted", grid).eigenvalues
            except GridTooSmallError:
                levels = None
            dt = time.perf_counter() - t0
            err = math.nan
            if levels is None:
                status = "grid_too_small"
            else:
                status = "ok"
                err = float(np.max(np.abs(levels - params.levels)))
            rows.append(f"{family},{stretch:g},{grid.n},{grid.spacing:.6g},"
                        f"{status},{err:.6e},{dt:.3f}")
            print(rows[-1])
    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
