"""Batch front-end: named experiments, CSV/JSON tables, verification verdicts.

`EXPERIMENTS` holds one entry per experiment: its runner, its columns, the
--family values it allows and the flags it reads, each with its type,
default and bound.  The subparsers, the --config keys and the checks made
before any solve are all built from it, so a flag that an experiment does
not read is a usage error.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (KINDS, energy_shift_check, gamma_sweep,
                       isospectral_check, normalized_l2_discrepancy,
                       solve_morse, solve_pt)
from .eigensolver import _DECAY_TOL, GridTooSmallError, default_grid
from .grids import Grid
from .numerics import OscillatoryError
from .potentials import (FAMILIES, MorseParams, PTParams,
                         SingularConfigurationError, riccati_residual)
from .transforms import (DEFAULT_PLAN_N, DEFAULT_T_MAX, MIN_PLAN_N,
                         HankelPlan, hankel_oscillatory, morse_state_on_plan,
                         potential_term_map, potential_term_sandwich,
                         pt_state_on_nodes, truncated, wavefunction_map)

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


class UsageError(Exception):
    pass


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _column_format(values, quote=None) -> tuple[str, Sequence]:
    """A column as (conversion, items): the `%` conversion that writes each
    of its values as `_fmt_value` text, and the items it takes.  Floats
    alone take %.12g and ints alone %d, on the values themselves; strings
    alone, and any other mix as `_fmt_value` text, take %s.  With `quote`
    (JSON) every value comes out as a JSON string: a number's conversion
    is quoted, since its text never needs escaping, and any other text
    goes through `quote`."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        conversion = "%.12g"
    elif kinds <= {int, np.int64}:
        conversion = "%d"
    else:
        texts = values if kinds <= {str} else map(_fmt_value, values)
        return "%s", list(map(quote, texts)) if quote else list(texts)
    return (f'"{conversion}"' if quote else conversion), values


def _json_block(opening: str, closing: str, items: list[str]) -> str:
    """A JSON object or array of already indented items, at indent 2, as
    json.dumps(indent=2) lays it out."""
    if not items:
        return opening + closing
    return opening + "\n" + ",\n".join(items) + "\n  " + closing


def write_table(path: Path, meta: dict, columns: list[str], rows: list,
                fmt: str) -> None:
    """Write meta and rows, each value as `_fmt_value` text.  CSV: a
    "# key: value" line per meta item, the header, one line per row.  JSON:
    {"meta": {key: value}, "rows": [{column: value}]}, byte for byte as
    json.dumps(indent=2, sort_keys=True) writes it, strings escaped to
    ASCII.  Every row holds one value per column."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    if set(map(len, rows)) - {len(columns)}:
        row = next(row for row in rows if len(row) != len(columns))
        raise ValueError(f"row {row!r} does not match columns {columns}")
    quote = json.encoder.encode_basestring_ascii if fmt == "json" else None
    formats = [_column_format(col, quote) for col in zip(*rows)]
    if fmt == "csv":
        template = ",".join(conversion for conversion, _ in formats)
        lines = [f"# {k}: {_fmt_value(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines += [template % row
                  for row in zip(*(items for _, items in formats))]
        path.write_text("\n".join(lines) + "\n")
        return
    meta_items = [f"    {quote(k)}: {quote(_fmt_value(meta[k]))}"
                  for k in sorted(meta)]
    # a repeated column keeps its last value, as in a dict
    index = {c: i for i, c in enumerate(columns)}
    names = sorted(index) if formats else []
    # one row is one % of a template, so a % in a name is escaped
    template = "    {\n" + ",\n".join(
        f"      {quote(c).replace('%', '%%')}: {formats[index[c]][0]}"
        for c in names) + "\n    }"
    row_items = [template % row for row in
                 zip(*(formats[index[c]][1] for c in names))]
    path.write_text("{\n  \"meta\": " + _json_block("{", "}", meta_items)
                    + ",\n  \"rows\": " + _json_block("[", "]", row_items)
                    + "\n}\n")


# ---------------------------------------------------------------------------
# Experiments.  Each runner takes the parsed flags, with `cfg.wells` holding
# (params, grid) for every family it solves (grid None: the family's
# default), and returns its own metadata keys and the table's rows; `main`
# writes the common header and the strengths of the wells around them.
# ---------------------------------------------------------------------------


def run_potential_curve(cfg: argparse.Namespace):
    [(params, grid)] = cfg.wells
    x = grid.nodes()
    trio = [_traced("{}_" + kind, params)(params, x)
            for kind in ("shifted", "partner", "generalized")]
    meta = dict(gamma=cfg.gamma,
                rho_min=_traced("{}_rho_min", params)(params),
                grid_min=grid.min, grid_max=grid.max, grid_n=grid.n)
    rows = list(zip(range(grid.n), x.tolist(),
                    *(v.tolist() for v in trio)))
    return meta, rows


def run_spectrum(cfg: argparse.Namespace):
    [(params, grid)] = cfg.wells
    spec = _traced("solve_{}", params)(params, cfg.potential, grid)
    meta = dict(potential=cfg.potential, gamma=cfg.gamma,
                rho_min=_traced("{}_rho_min", params)(params),
                grid_min=grid.min, grid_max=grid.max, grid_n=grid.n,
                continuum_threshold=spec.continuum_threshold,
                bound_count=spec.bound_count)
    rows = list(enumerate(spec.eigenvalues.tolist()))
    return meta, rows


def run_isospectral(cfg: argparse.Namespace):
    [(params, grid)] = cfg.wells
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
    meta = dict(gamma=cfg.gamma,
                partner_max_delta=rep_partner.max_delta,
                partner_verdict="pass" if rep_partner.passed else "fail",
                generalized_max_delta=rep_gen.max_delta,
                generalized_verdict="pass" if rep_gen.passed else "fail")
    return meta, rows


def run_gamma_sweep(cfg: argparse.Namespace):
    [(params, grid)] = cfg.wells
    base, spectra, reports = gamma_sweep(params.family, params.strength,
                                         cfg.gammas, grid)
    rows = []
    meta = {}
    base_levels = base.eigenvalues.tolist()
    for g in sorted(spectra):
        rep = reports[g]
        meta[f"gamma_{g:g}_verdict"] = "pass" if rep.passed else "fail"
        meta[f"gamma_{g:g}_max_delta"] = rep.max_delta
        for i, e in enumerate(spectra[g].eigenvalues.tolist()):
            delta = e - base_levels[i] if i < len(base_levels) else math.nan
            rows.append((g, i, e, delta))
    return meta, rows


def run_riccati(cfg: argparse.Namespace):
    """The residual on each well's grid, once q has decayed at both end
    nodes to _DECAY_TOL of its peak, the eigensolver's edge rule: the
    derivative (D q)/J assumes it, and an edge that cuts q off would put
    the derivative's truncation into the residual."""
    rows = []
    for p, grid in cfg.wells:
        rho = grid.nodes()
        q = np.abs(p.q(rho))
        peak = np.max(q)
        for end in (0, -1):
            if q[end] > _DECAY_TOL * peak:
                raise GridTooSmallError(
                    f"the {p.label} well's q has not decayed at the end node "
                    f"rho={rho[end]:.6g}: |q| there is {q[end] / peak:.2e} "
                    f"of its peak; widen the grid beyond "
                    f"[{grid.min:g}, {grid.max:g}]")
        rows.append((p.family, grid.spacing,
                     riccati_residual(p.q, p.w_prime, grid)))
    return {"gamma": cfg.gamma}, rows


def run_hankel_verify(cfg: argparse.Namespace):
    ps = [0.5, 1.0, 2.0, 5.0]
    orders = (0, 1, 2)
    # one lockstep call per order, each p's value bit for bit its own call's
    values = [hankel_oscillatory(lambda t: 1.0 / np.asarray(t), order,
                                 np.array(ps), tol=1e-9).value.tolist()
              for order in orders]
    rows = []
    worst = 0.0
    for i, p in enumerate(ps):
        for order, value in zip(orders, values):
            scaled = p * value[i] - 1.0
            worst = max(worst, abs(scaled))
            rows.append((p, order, value[i], scaled))
    meta = dict(identity="p * integral_0^inf J_order(p t) dt = 1",
                max_scaled_error=worst,
                verdict="pass" if worst < 1e-6 else "fail")
    return meta, rows


def run_wavefunction_map(cfg: argparse.Namespace):
    (params_m, _), (params_pt, _) = cfg.wells
    n_state = cfg.state
    spec_m = solve_morse(params_m, "shifted")
    spec_pt = solve_pt(params_pt, "shifted")
    m = (cfg.order_m if cfg.order_m is not None
         else params_m.hankel_order(n_state))
    plan = HankelPlan(cfg.t_max, cfg.plan_n)
    tp = np.linspace(0.02, 6.0, 1200)
    R = morse_state_on_plan(spec_m, params_m.lam, plan)[n_state]
    mapped = wavefunction_map(R, m, tp, plan)
    direct = pt_state_on_nodes(spec_pt, tp)[n_state]
    disc = normalized_l2_discrepancy(mapped, direct, tp)
    meta = dict(state=n_state, order_m=m, l2_discrepancy=disc,
                quarter_turns=m % 4, truncation_warned=truncated(R, plan),
                plan_n=cfg.plan_n, t_max=cfg.t_max)
    rows = list(zip(range(tp.size), tp.tolist(), mapped.tolist(),
                    direct.tolist()))
    return meta, rows


def run_energy_shift(cfg: argparse.Namespace):
    (params_m, _), (params_pt, _) = cfg.wells
    lam, mu = params_m.lam, params_pt.mu
    spec_m = solve_morse(params_m, "generalized")
    spec_pt = solve_pt(params_pt, "generalized")
    report = energy_shift_check(spec_m, spec_pt, lam, mu)
    shift = lam - mu - 0.5
    rows = [(i, e, *pair) for i, (e, pair)
            in enumerate(zip(spec_m.eigenvalues.tolist(), report.pairs))]
    meta = dict(gamma=cfg.gamma, shift=shift, max_delta=report.max_delta,
                verdict="pass" if report.passed else "fail",
                asserted="yes" if abs(shift) < 1e-12 else
                "no (off the mu = lambda - 1/2 point; data only)")
    return meta, rows


def run_potential_term_map(cfg: argparse.Namespace):
    (params_m, _), (params_pt, _) = cfg.wells
    m = cfg.order_m if cfg.order_m is not None else params_m.hankel_order(0)
    plan = HankelPlan(cfg.t_max, cfg.plan_n)
    tp = np.linspace(0.01, 8.0, 800)
    spec_m = solve_morse(params_m, "generalized")
    # one kernel pass serves the term map and every state's sandwich
    report = potential_term_map(params_m, params_pt, m, plan, tp, spec_m)
    sandwiches = potential_term_sandwich(report)
    meta = dict(gamma=cfg.gamma, order_m=m, plan_n=cfg.plan_n,
                t_max=cfg.t_max, max_residual=report.max_residual,
                truncation_warned=report.truncation_warned)
    for size, res in report.refinement:
        meta[f"refinement_n{size}"] = res
    for chk in sandwiches:
        meta[f"sandwich_n{chk.n}_m{chk.order}_hankel_route"] = chk.hankel_route
        meta[f"sandwich_n{chk.n}_m{chk.order}_direct_pt"] = chk.direct_pt
        meta[f"sandwich_n{chk.n}_m{chk.order}_rel_diff"] = chk.rel_diff
    rows = list(zip(range(tp.size), tp.tolist(), report.lhs.tolist(),
                    report.rhs.tolist(), report.residual.tolist()))
    return meta, rows


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """A flag, and the --config key of the same name.  `type` reads its
    text and refuses a value out of bounds; `default` stands in when it is
    not given; `bool` makes it a switch."""

    type: Callable = str
    default: object = None
    choices: tuple | None = None


def _bounded(convert, ok, need: str):
    def read(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    read.__name__ = convert.__name__  # argparse names it in its errors
    return read


def _at_least(low: int):
    return _bounded(int, lambda v: v >= low, f"at least {low}")


def _int_between(low: int, high: int):
    return _bounded(int, lambda v: low <= v <= high,
                    f"between {low} and {high}")


def _gamma_list(text: str) -> tuple[float, ...]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    try:
        gammas = tuple(float(s) for s in parts)
    except ValueError:
        gammas = ()
    if not gammas or not all(0.0 < g < math.inf for g in gammas):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive finite numbers, got {text!r}")
    # the table keys each gamma's verdict by its 6-digit form
    first = {}
    for i, g in enumerate(gammas):
        j = first.setdefault(f"{g:g}", i)
        if j != i:
            raise argparse.ArgumentTypeError(
                f"{parts[j]} and {parts[i]} share the verdict key "
                f"gamma_{g:g}_verdict; give gammas that differ in 6 "
                "significant digits")
    return gammas


_WELL = {"lambda": Flag(float, 4.5), "mu": Flag(float, 4.0),
         "gamma": Flag(float, 1.0)}
_GRID = {"grid-min": Flag(float), "grid-max": Flag(float),
         "grid-n": Flag(int)}
# eigensolves and riccati's derivative are dense n x n matrices: at this
# cap 128 MB a copy and seconds to solve (a Grid needs at least 16 nodes)
_MAX_GRID_N = 4001
_DENSE_GRID = {**_GRID, "grid-n": Flag(_int_between(16, _MAX_GRID_N))}
# bessel_j holds to |x| <= 1000 and orders up to 300; the largest t' of
# either transform experiment is 8, so t_max reaches x = 1000 at 125.  A
# plan at the node cap runs either transform experiment in under a second.
_MAX_PLAN_N = 65536
_PLAN = {"order-m": Flag(_int_between(0, 300)),
         "plan-n": Flag(_int_between(MIN_PLAN_N, _MAX_PLAN_N),
                        DEFAULT_PLAN_N),
         "t-max": Flag(_bounded(float, lambda v: 0.0 < v <= 125.0,
                                "positive and at most 125"), DEFAULT_T_MAX)}
_OUTPUT = {"output": Flag(str, "out"),
           "format": Flag(str, "csv", ("csv", "json")),
           "reproducible": Flag(bool, False)}


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment.  `families` are its --family values, the first
    the default (none: it solves no well); `flags` are the others it reads
    beside --config and the output flags; `grid` maps a solved family's
    params to its default grid when it reads --grid-*."""

    run: Callable
    columns: list[str]
    families: tuple[str, ...] = ()
    flags: dict[str, Flag] = field(default_factory=dict)
    grid: Callable | None = None

    def options(self) -> dict[str, Flag]:
        """Every flag but --config, which are also its config keys."""
        family = ({"family": Flag(str, self.families[0], self.families)}
                  if self.families else {})
        return {**family, **self.flags, **_OUTPUT}


_ONE = tuple(FAMILIES)
_BOTH = ("both",)  # the cross-family experiments always solve both wells

EXPERIMENTS = {
    "potential-curve": Experiment(
        run_potential_curve,
        ["index", "rho", "shifted", "partner", "generalized"],
        _ONE, {**_WELL, **_GRID}, default_grid),
    "spectrum": Experiment(
        run_spectrum, ["index", "energy"], _ONE,
        {**_WELL, **_DENSE_GRID, "potential": Flag(str, "shifted", KINDS)},
        default_grid),
    "isospectral": Experiment(
        run_isospectral, ["comparison", "index", "e_left", "e_right", "delta"],
        _ONE, {**_WELL, **_DENSE_GRID}, default_grid),
    "gamma-sweep": Experiment(
        run_gamma_sweep, ["gamma", "index", "energy", "delta_vs_base"], _ONE,
        {"lambda": _WELL["lambda"], "mu": _WELL["mu"],
         "gammas": Flag(_gamma_list, (0.5, 1.0, 10.0)), **_DENSE_GRID},
        default_grid),
    "riccati": Experiment(
        run_riccati, ["family", "h", "max_residual"], (*FAMILIES, "both"),
        {**_WELL, **_DENSE_GRID}, default_grid),
    "hankel-verify": Experiment(
        run_hankel_verify, ["p", "order", "value", "scaled_error"]),
    # it maps the shifted wells, which do not depend on gamma
    "wavefunction-map": Experiment(
        run_wavefunction_map, ["index", "t_prime", "u_mapped", "u_direct"],
        _BOTH, {"lambda": _WELL["lambda"], "mu": _WELL["mu"],
                "state": Flag(_at_least(0), 0), **_PLAN}),
    "energy-shift": Experiment(
        run_energy_shift,
        ["index", "e_morse", "e_morse_shifted", "e_pt", "delta"],
        _BOTH, _WELL),
    # its refinement trace runs on a plan of half the nodes
    "potential-term-map": Experiment(
        run_potential_term_map, ["index", "t_prime", "lhs", "rhs", "residual"],
        _BOTH, {**_WELL, **_PLAN,
                "plan-n": Flag(_int_between(2 * MIN_PLAN_N, _MAX_PLAN_N),
                               DEFAULT_PLAN_N)}),
}


# ---------------------------------------------------------------------------
# Argument and config handling
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every experiment, built at the first `main` call and
    reused by the later ones in the process."""
    parser = argparse.ArgumentParser(
        prog="susyspectra",
        description="Isospectral Morse / Poschl-Teller experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, exp in EXPERIMENTS.items():
        # no abbreviations: gamma-sweep must not read --gamma as --gammas
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="key=value file of the flags "
                        "below, without their dashes; explicit flags win")
        for key, flag in exp.options().items():
            if flag.type is bool:
                sp.add_argument(f"--{key}", action="store_true", default=None)
            else:
                sp.add_argument(f"--{key}", type=flag.type,
                                choices=flag.choices)
    return parser


_SWITCH_VALUES = {"true": True, "yes": True, "1": True,
                  "false": False, "no": False, "0": False}


def _config_tokens(path: str, experiment: str,
                   options: dict[str, Flag]) -> list[str]:
    """The key=value lines of a config file as flag tokens of the
    experiment."""
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip().replace("_", "-"), value.strip()
        where = f"{path}:{lineno}"
        if not eq:
            raise UsageError(f"{where}: expected key=value, got {raw!r}")
        if key not in options:
            raise UsageError(f"{where}: {experiment} reads no key {key!r}")
        if options[key].type is not bool:
            tokens.append(f"--{key}={value}")
        elif value.lower() not in _SWITCH_VALUES:
            raise UsageError(f"{where}: {key} must be one of "
                             f"{'/'.join(_SWITCH_VALUES)}, got {value!r}")
        elif _SWITCH_VALUES[value.lower()]:
            tokens.append(f"--{key}")
    return tokens


def _prepare(cfg: argparse.Namespace, exp: Experiment) -> None:
    """The checks made before any solve, past the bounds parsing checked:
    a well strength is given only for a family the run solves, every
    solved family's params and grid are valid and its shifted well finite
    on the grid, and a --state is below the closed-form level count of
    every solved well.  Fills in the defaults and `cfg.wells`."""
    given = set()
    for key, flag in exp.options().items():
        dest = key.replace("-", "_")
        if getattr(cfg, dest) is None:
            setattr(cfg, dest, flag.default)
        else:
            given.add(key)
    if "gammas" in exp.flags:
        gamma = min(cfg.gammas)
    else:  # without --gamma: wells that do not depend on it
        gamma = getattr(cfg, "gamma", _WELL["gamma"].default)
    cfg.wells = []
    for family, cls in FAMILIES.items():
        if getattr(cfg, "family", None) not in (family, "both"):
            if cls.strength_name in given:
                raise UsageError(
                    f"--{cls.strength_name} sets the {cls.label} well, "
                    f"which {cfg.experiment} --family {cfg.family} does not "
                    "solve")
            continue
        params = cls(getattr(cfg, cls.strength_name), gamma)
        grid = _grid_for(cfg, exp.grid(params)) if exp.grid else None
        if grid is not None:
            rho = grid.nodes()
            bad = rho[~np.isfinite(params.shifted(rho))]
            if bad.size:
                raise UsageError(f"the {params.label} well overflows at node "
                                 f"rho={bad[0]:.6g}; narrow the grid")
        cfg.wells.append((params, grid))
    if "state" in exp.flags:
        count = min(p.level_count for p, _ in cfg.wells)
        if cfg.state >= count:
            raise UsageError(f"--state {cfg.state}: the wells hold "
                             f"{count} bound states")


def _grid_for(cfg: argparse.Namespace, default: Grid) -> Grid:
    """The default grid with any of --grid-min/--grid-max/--grid-n in place
    of its fields; it keeps its stretch.  Without them it is the default
    grid itself, whose x-bounds its own checks have already inverted."""
    given = {"min": cfg.grid_min, "max": cfg.grid_max, "n": cfg.grid_n}
    given = {name: value for name, value in given.items() if value is not None}
    return replace(default, **given) if given else default


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
        exp = EXPERIMENTS[cfg.experiment]
        if cfg.config:
            # the file's tokens go ahead of the command line's, which win
            tokens = _config_tokens(cfg.config, cfg.experiment, exp.options())
            cfg = parser.parse_args([argv[0], *tokens, *argv[1:]])
        _prepare(cfg, exp)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        own, rows = exp.run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SingularConfigurationError, GridTooSmallError, OscillatoryError,
            ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    meta = {"tool": "susyspectra", "version": __version__,
            "experiment": cfg.experiment}
    if not cfg.reproducible:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    if exp.families == _ONE:  # the one well, of the two, that it solves
        meta["family"] = cfg.family
    meta.update(own)
    meta.update((p.strength_name, p.strength) for p, _ in cfg.wells)
    out = Path(cfg.output)
    if out.suffix == "":
        out = out.with_suffix(f".{cfg.format}")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_table(out, meta, exp.columns, rows, cfg.format)
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
