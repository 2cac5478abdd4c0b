"""Batch front-end: named experiments, CSV/JSON tables, verification verdicts.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (energy_shift_check, gamma_sweep, isospectral_check,
                       normalized_l2_discrepancy, solve_morse, solve_pt)
from .eigensolver import GridTooSmallError, default_grid
from .grids import Grid
from .numerics import OscillatoryError
from .potentials import (FAMILIES, MorseParams, PTParams,
                         SingularConfigurationError, riccati_residual)
from .transforms import (DEFAULT_PLAN_N, MIN_PLAN_N, hankel_oscillatory,
                         make_hankel_plan, morse_state_on_plan,
                         potential_term_map, potential_term_sandwich,
                         pt_state_on_nodes, wavefunction_map)

# perfbench/tracer.py wraps these per-family names (and solve_morse,
# solve_pt) by attribute, so the generic runners reach them through
# `_traced`.  They retire with the numerics stubs at the next change to the
# benchmark.
morse_shifted = MorseParams.shifted
morse_partner = MorseParams.partner
morse_generalized = MorseParams.generalized
morse_rho_min = MorseParams.rho_min
pt_shifted = PTParams.shifted
pt_partner = PTParams.partner
pt_generalized = PTParams.generalized
pt_rho_min = PTParams.rho_min


def _traced(template: str, params):
    """This module's binding `template`, with the family of `params` filled
    in, looked up at call time so that the tracer's wrapper is the one
    called."""
    return globals()[template.format(params.family)]


EXPERIMENTS = (
    "potential-curve", "spectrum", "isospectral", "gamma-sweep", "riccati",
    "hankel-verify", "wavefunction-map", "energy-shift", "potential-term-map",
)

EXPERIMENT_COLUMNS = {
    "potential-curve": ["index", "rho", "shifted", "partner", "generalized"],
    "spectrum": ["index", "energy"],
    "isospectral": ["comparison", "index", "e_left", "e_right", "delta"],
    "gamma-sweep": ["gamma", "index", "energy", "delta_vs_base"],
    "riccati": ["family", "h", "max_residual"],
    "hankel-verify": ["p", "order", "value", "scaled_error"],
    "wavefunction-map": ["index", "t_prime", "u_mapped", "u_direct"],
    "energy-shift": ["index", "e_morse", "e_morse_shifted", "e_pt", "delta"],
    "potential-term-map": ["index", "t_prime", "lhs", "rhs", "residual"],
}


# experiments that always solve both wells, whatever --family says, each on
# its default grid (so --grid-* is refused for them)
_CROSS_FAMILY = ("wavefunction-map", "energy-shift", "potential-term-map")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    experiment: str
    family: str = "morse"
    lam: float = 4.5
    mu: float = 4.0
    gamma: float = 1.0
    gammas: tuple = (0.5, 1.0, 10.0)
    grid_min: float | None = None
    grid_max: float | None = None
    grid_n: int | None = None
    order_m: int | None = None
    state: int = 0
    plan_n: int = DEFAULT_PLAN_N
    t_max: float = 40.0
    output: str = "out"
    fmt: str = "csv"
    reproducible: bool = False


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def write_table(path: Path, meta: dict, columns: list[str], rows: list,
                fmt: str) -> None:
    if fmt == "csv":
        lines = [f"# {k}: {_fmt_value(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt_value(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "meta": {k: _fmt_value(v) for k, v in meta.items()},
            "rows": [dict(zip(columns, (_fmt_value(v) for v in row)))
                     for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


def _base_meta(cfg: RunConfig) -> dict:
    meta = {"tool": "susyspectra", "version": __version__,
            "experiment": cfg.experiment}
    if not cfg.reproducible:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _grid_for(cfg: RunConfig, params):
    default = default_grid(params)
    lo = cfg.grid_min if cfg.grid_min is not None else default.min
    hi = cfg.grid_max if cfg.grid_max is not None else default.max
    n = cfg.grid_n if cfg.grid_n is not None else default.n
    return Grid(lo, hi, n)


def _family_params(cfg: RunConfig, family: str):
    cls = FAMILIES[family]
    strength = getattr(cfg, _KEY_TO_ATTR.get(cls.strength_name,
                                             cls.strength_name))
    return cls(strength, cfg.gamma)


def _families(cfg: RunConfig) -> list[str]:
    """The families an experiment solves: the one --family names, every
    family for --family both, and both wells for the cross-family runs."""
    cross = cfg.experiment in _CROSS_FAMILY
    return [family for family in FAMILIES
            if cross or cfg.family in (family, "both")]


def _check_transform_flags(cfg: RunConfig) -> None:
    """Bounds of the flags the Hankel-transform experiments read, checked
    before any solve."""
    if cfg.experiment not in ("wavefunction-map", "potential-term-map"):
        return
    min_plan = MIN_PLAN_N
    if cfg.experiment == "potential-term-map":
        min_plan *= 2  # its refinement trace runs on a plan of half the nodes
    if cfg.plan_n < min_plan:
        raise UsageError(f"--plan-n must be at least {min_plan}, "
                         f"got {cfg.plan_n}")
    if not (0.0 < cfg.t_max < math.inf):
        raise UsageError(f"--t-max must be positive and finite, "
                         f"got {cfg.t_max}")
    if cfg.order_m is not None and cfg.order_m < 0:
        raise UsageError(f"--order-m must be >= 0, got {cfg.order_m}")
    if cfg.experiment == "wavefunction-map" and cfg.state < 0:
        raise UsageError(f"--state must be >= 0, got {cfg.state}")


def _require_family(cfg: RunConfig, allowed: tuple[str, ...]) -> str:
    if cfg.family not in allowed:
        raise UsageError(
            f"experiment {cfg.experiment!r} needs --family in {allowed}, "
            f"got {cfg.family!r}")
    return cfg.family


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _one_family(cfg: RunConfig):
    """Params of the single family the experiment runs on (--family)."""
    return _family_params(cfg, _require_family(cfg, tuple(FAMILIES)))


def run_potential_curve(cfg: RunConfig):
    params = _one_family(cfg)
    grid = _grid_for(cfg, params)
    x = grid.nodes()
    trio = [_traced("{}_" + kind, params)(params, x)
            for kind in ("shifted", "partner", "generalized")]
    meta = _base_meta(cfg)
    meta.update(family=params.family, gamma=cfg.gamma,
                rho_min=_traced("{}_rho_min", params)(params),
                grid_min=grid.min, grid_max=grid.max, grid_n=grid.n)
    meta[params.strength_name] = params.strength
    rows = [(i, x[i], trio[0][i], trio[1][i], trio[2][i])
            for i in range(grid.n)]
    return meta, EXPERIMENT_COLUMNS[cfg.experiment], rows


def run_spectrum(cfg: RunConfig, kind: str):
    params = _one_family(cfg)
    grid = _grid_for(cfg, params)
    spec = _traced("solve_{}", params)(params, kind, grid)
    meta = _base_meta(cfg)
    meta.update(family=params.family, potential=kind, gamma=cfg.gamma,
                rho_min=_traced("{}_rho_min", params)(params),
                grid_min=grid.min, grid_max=grid.max, grid_n=grid.n,
                continuum_threshold=spec.continuum_threshold,
                bound_count=spec.bound_count)
    meta[params.strength_name] = params.strength
    rows = [(i, e) for i, e in enumerate(spec.eigenvalues)]
    return meta, EXPERIMENT_COLUMNS["spectrum"], rows


def run_isospectral(cfg: RunConfig):
    params = _one_family(cfg)
    grid = _grid_for(cfg, params)
    solver = _traced("solve_{}", params)
    base = solver(params, "shifted", grid)
    partner = solver(params, "partner", grid)
    generalized = solver(params, "generalized", grid)
    rep_partner = isospectral_check(base, partner, skip_ground_of_A=True)
    rep_gen = isospectral_check(base, generalized, skip_ground_of_A=False)
    rows = []
    for name, rep in (("partner", rep_partner), ("generalized", rep_gen)):
        for i, (l, r, d) in enumerate(rep.pairs):
            rows.append((name, i, l, r, d))
    meta = _base_meta(cfg)
    meta.update(family=params.family, gamma=cfg.gamma,
                partner_max_delta=rep_partner.max_delta,
                partner_verdict="pass" if rep_partner.passed else "fail",
                generalized_max_delta=rep_gen.max_delta,
                generalized_verdict="pass" if rep_gen.passed else "fail")
    meta[params.strength_name] = params.strength
    return meta, EXPERIMENT_COLUMNS["isospectral"], rows


def run_gamma_sweep(cfg: RunConfig):
    params = _one_family(cfg)
    grid = _grid_for(cfg, params)
    base, spectra, reports = gamma_sweep(params.family, params.strength,
                                         cfg.gammas, grid)
    rows = []
    meta = _base_meta(cfg)
    meta.update(family=params.family)
    meta[params.strength_name] = params.strength
    for g in sorted(spectra):
        spec = spectra[g]
        rep = reports[g]
        meta[f"gamma_{g:g}_verdict"] = "pass" if rep.passed else "fail"
        meta[f"gamma_{g:g}_max_delta"] = rep.max_delta
        for i, e in enumerate(spec.eigenvalues):
            delta = (e - base.eigenvalues[i]
                     if i < base.eigenvalues.size else math.nan)
            rows.append((g, i, e, delta))
    return meta, EXPERIMENT_COLUMNS["gamma-sweep"], rows


def run_riccati(cfg: RunConfig):
    _require_family(cfg, (*FAMILIES, "both"))
    rows = []
    meta = _base_meta(cfg)
    meta.update(gamma=cfg.gamma)
    for family in _families(cfg):
        p = _family_params(cfg, family)
        lo, hi, n = p.riccati_domain
        grid = Grid(cfg.grid_min if cfg.grid_min is not None else lo,
                    cfg.grid_max if cfg.grid_max is not None else hi,
                    cfg.grid_n if cfg.grid_n is not None else n)
        res = riccati_residual(p.f, p.w_prime, p.w_second, grid)
        rows.append((family, grid.spacing, res))
        meta[p.strength_name] = p.strength
    return meta, EXPERIMENT_COLUMNS["riccati"], rows


def run_hankel_verify(cfg: RunConfig):
    rows = []
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 5.0):
        for order in (0, 1, 2):
            res = hankel_oscillatory(lambda t: 1.0 / np.asarray(t), order, p,
                                     tol=1e-9)
            scaled = p * res.value - 1.0
            worst = max(worst, abs(scaled))
            rows.append((p, order, res.value, scaled))
    meta = _base_meta(cfg)
    meta.update(identity="p * integral_0^inf J_order(p t) dt = 1",
                max_scaled_error=worst,
                verdict="pass" if worst < 1e-6 else "fail")
    return meta, EXPERIMENT_COLUMNS["hankel-verify"], rows


def run_wavefunction_map(cfg: RunConfig):
    params_m = MorseParams(cfg.lam, cfg.gamma)
    params_pt = PTParams(cfg.mu, cfg.gamma)
    n_state = cfg.state
    spec_m = solve_morse(params_m, "shifted")
    spec_pt = solve_pt(params_pt, "shifted")
    if n_state >= spec_m.bound_count or n_state >= spec_pt.bound_count:
        raise UsageError(f"state {n_state} exceeds bound count")
    m = (cfg.order_m if cfg.order_m is not None
         else int(round(params_m.a)) - n_state)
    plan = make_hankel_plan(m, cfg.t_max, cfg.plan_n)
    tp = np.linspace(0.02, 6.0, 1200)
    R = morse_state_on_plan(spec_m.eigenfunctions[n_state], cfg.lam, plan)
    mapped = wavefunction_map(R, m, tp, plan)
    direct = pt_state_on_nodes(spec_pt.eigenfunctions[n_state], tp)
    disc = normalized_l2_discrepancy(mapped.values, direct.values, tp)
    meta = _base_meta(cfg)
    meta.update(state=n_state, order_m=m, l2_discrepancy=disc,
                quarter_turns=mapped.meta["quarter_turns"],
                plan_n=cfg.plan_n, t_max=cfg.t_max)
    meta["lambda"] = cfg.lam
    meta["mu"] = cfg.mu
    rows = [(i, tp[i], mapped.values[i], direct.values[i])
            for i in range(tp.size)]
    return meta, EXPERIMENT_COLUMNS["wavefunction-map"], rows


def run_energy_shift(cfg: RunConfig):
    params_m = MorseParams(cfg.lam, cfg.gamma)
    params_pt = PTParams(cfg.mu, cfg.gamma)
    spec_m = solve_morse(params_m, "generalized")
    spec_pt = solve_pt(params_pt, "generalized")
    report = energy_shift_check(spec_m, spec_pt, cfg.lam, cfg.mu)
    shift = cfg.lam - cfg.mu - 0.5
    rows = []
    for i, (left, right, delta) in enumerate(report.pairs):
        rows.append((i, left - shift, left, right, delta))
    meta = _base_meta(cfg)
    meta.update(gamma=cfg.gamma, shift=shift, max_delta=report.max_delta,
                verdict="pass" if report.passed else "fail",
                asserted="yes" if abs(shift) < 1e-12 else
                "no (off the mu = lambda - 1/2 point; data only)")
    meta["lambda"] = cfg.lam
    meta["mu"] = cfg.mu
    return meta, EXPERIMENT_COLUMNS["energy-shift"], rows


def run_potential_term_map(cfg: RunConfig):
    params_m = MorseParams(cfg.lam, cfg.gamma)
    params_pt = PTParams(cfg.mu, cfg.gamma)
    m = cfg.order_m if cfg.order_m is not None else int(round(params_m.a))
    plan = make_hankel_plan(m, cfg.t_max, cfg.plan_n)
    tp = np.linspace(0.01, 8.0, 800)
    report = potential_term_map(params_m, params_pt, m, plan, tp)
    spec_m = solve_morse(params_m, "generalized")
    sandwiches = potential_term_sandwich(params_m, params_pt, spec_m, plan, tp)
    meta = _base_meta(cfg)
    meta.update(gamma=cfg.gamma, order_m=m, plan_n=cfg.plan_n,
                t_max=cfg.t_max, max_residual=report.max_residual,
                truncation_warned=report.truncation_warned)
    meta["lambda"] = cfg.lam
    meta["mu"] = cfg.mu
    for size, res in report.refinement:
        meta[f"refinement_n{size}"] = res
    for chk in sandwiches:
        meta[f"sandwich_n{chk.n}_m{chk.order}_hankel_route"] = chk.hankel_route
        meta[f"sandwich_n{chk.n}_m{chk.order}_direct_pt"] = chk.direct_pt
        meta[f"sandwich_n{chk.n}_m{chk.order}_rel_diff"] = chk.rel_diff
    rows = [(i, tp[i], report.lhs[i], report.rhs[i], report.residual[i])
            for i in range(tp.size)]
    return meta, EXPERIMENT_COLUMNS["potential-term-map"], rows


# ---------------------------------------------------------------------------
# Argument and config handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyspectra",
        description="Isospectral Morse / Poschl-Teller experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file; explicit flags win")
        sp.add_argument("--family", choices=(*FAMILIES, "both"),
                        default=None)
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--gammas", type=str, default=None,
                        help="comma-separated, e.g. 0.5,1,10")
        sp.add_argument("--grid-min", type=float, default=None)
        sp.add_argument("--grid-max", type=float, default=None)
        sp.add_argument("--grid-n", type=int, default=None)
        sp.add_argument("--order-m", type=int, default=None)
        sp.add_argument("--state", type=int, default=None)
        sp.add_argument("--plan-n", type=int, default=None)
        sp.add_argument("--t-max", type=float, default=None)
        sp.add_argument("--potential", default=None,
                        choices=("shifted", "partner", "generalized"))
        sp.add_argument("--output", type=str, default=None)
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=None)
        sp.add_argument("--reproducible", action="store_true", default=None)
    return parser


_CONFIG_KEYS = {
    "family": str, "lambda": float, "mu": float, "gamma": float,
    "gammas": str, "grid-min": float, "grid-max": float, "grid-n": int,
    "order-m": int, "state": int, "plan-n": int, "t-max": float,
    "potential": str, "output": str, "format": str, "reproducible": str,
}
_KEY_TO_ATTR = {
    "lambda": "lam", "grid-min": "grid_min", "grid-max": "grid_max",
    "grid-n": "grid_n", "order-m": "order_m", "plan-n": "plan_n",
    "t-max": "t_max", "format": "fmt",
}


def _load_config(path: str) -> dict:
    text = Path(path).read_text()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def _merge(args: argparse.Namespace) -> tuple[RunConfig, str]:
    file_cfg = _load_config(args.config) if args.config else {}

    def pick(key: str, default):
        attr = _KEY_TO_ATTR.get(key, key)
        cli = getattr(args, attr, None)
        if cli is not None:
            return cli
        if key in file_cfg:
            val = file_cfg[key]
            if key == "reproducible":
                return str(val).lower() in ("1", "true", "yes")
            return val
        return default

    gammas_raw = pick("gammas", "0.5,1,10")
    try:
        gammas = tuple(float(s) for s in str(gammas_raw).split(",") if s.strip())
    except ValueError:
        raise UsageError(f"bad --gammas value {gammas_raw!r}")
    if not gammas:
        raise UsageError("gammas list is empty")
    fmt = pick("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    potential = pick("potential", "shifted")
    if potential not in ("shifted", "partner", "generalized"):
        raise UsageError(f"bad potential kind {potential!r}")
    cfg = RunConfig(
        experiment=args.experiment,
        family=pick("family", "morse"),
        lam=float(pick("lambda", 4.5)),
        mu=float(pick("mu", 4.0)),
        gamma=float(pick("gamma", 1.0)),
        gammas=gammas,
        grid_min=pick("grid-min", None),
        grid_max=pick("grid-max", None),
        grid_n=pick("grid-n", None),
        order_m=pick("order-m", None),
        state=int(pick("state", 0)),
        plan_n=int(pick("plan-n", DEFAULT_PLAN_N)),
        t_max=float(pick("t-max", 40.0)),
        output=str(pick("output", "out")),
        fmt=fmt,
        reproducible=bool(pick("reproducible", False)),
    )
    return cfg, potential


_RUNNERS = {
    "potential-curve": lambda cfg, kind: run_potential_curve(cfg),
    "spectrum": lambda cfg, kind: run_spectrum(cfg, kind),
    "isospectral": lambda cfg, kind: run_isospectral(cfg),
    "gamma-sweep": lambda cfg, kind: run_gamma_sweep(cfg),
    "riccati": lambda cfg, kind: run_riccati(cfg),
    "hankel-verify": lambda cfg, kind: run_hankel_verify(cfg),
    "wavefunction-map": lambda cfg, kind: run_wavefunction_map(cfg),
    "energy-shift": lambda cfg, kind: run_energy_shift(cfg),
    "potential-term-map": lambda cfg, kind: run_potential_term_map(cfg),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg, potential_kind = _merge(args)
        # parameter constraints surface as usage errors before any solve
        if cfg.experiment in _CROSS_FAMILY and any(
                v is not None for v in (cfg.grid_min, cfg.grid_max,
                                        cfg.grid_n)):
            raise UsageError(
                f"experiment {cfg.experiment!r} solves both wells on their "
                "default grids; --grid-min, --grid-max and --grid-n do not "
                "apply")
        _check_transform_flags(cfg)
        if cfg.experiment != "hankel-verify":
            for family in _families(cfg):
                _family_params(cfg, family)
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        meta, columns, rows = _RUNNERS[cfg.experiment](cfg, potential_kind)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SingularConfigurationError, GridTooSmallError, OscillatoryError,
            ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    out = Path(cfg.output)
    if out.suffix == "":
        out = out.with_suffix(".csv" if cfg.fmt == "csv" else ".json")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_table(out, meta, columns, rows, cfg.fmt)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out}")
    for key, value in meta.items():
        if "verdict" in key:
            print(f"{key}: {_fmt_value(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
