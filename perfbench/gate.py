"""Correctness gate: read one CLI table back and check it against the closed
forms, with the tolerances of the acceptance suite.

Tolerances (acceptance check numbers in brackets):
  levels against n(2a - n) / n(2 mu - n)           < 2e-3  [01, 02]
  isospectral, gamma-sweep, pairing-point shift     <= 5e-3 [03, 04, 10]
  Riccati residual                                  < 1e-6  [05]
  Bessel integral identity                          < 1e-6  [08]
  wavefunction-map L2 discrepancy                   < 1e-3  [09]
The term-map residual (check 11) is recorded as data and never gated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

LEVEL_TOL = 2e-3
PAIR_TOL = 5e-3
RICCATI_TOL = 1e-6
BESSEL_TOL = 1e-6
MAP_TOL = 1e-3


@dataclass
class Verdict:
    """Outcome of one op. `errors` holds the worst closed-form error per
    accuracy kind (eig, riccati, map, bessel) the table exposed."""

    passed: bool = True
    reasons: list[str] = field(default_factory=list)
    errors: dict[str, float] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.passed = False
        self.reasons.append(reason)

    def error(self, kind: str, value: float) -> None:
        self.errors[kind] = max(self.errors.get(kind, 0.0), value)


def closed_form(strength: float) -> list[float]:
    """Bound levels n(2s - n), n < s, of either well (s = a = lambda - 1/2
    for Morse, s = mu for the sech well)."""
    count = int(math.ceil(strength - 1e-9))
    return [n * (2.0 * strength - n) for n in range(count)]


def family_strength(meta: dict, family: str) -> float:
    if family == "morse":
        return float(meta["lambda"]) - 0.5
    return float(meta["mu"])


def _levels(v: Verdict, label: str, got: list[float], want: list[float]):
    if len(got) != len(want):
        v.fail(f"{label}: {len(got)} levels, closed form has {len(want)}")
        return
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    v.error("eig", worst)
    if not worst < LEVEL_TOL:
        v.fail(f"{label}: level error {worst:.2e} >= {LEVEL_TOL:g}")


def _col(rows: list[dict], name: str, where=None) -> list[float]:
    return [float(r[name]) for r in rows if where is None or where(r)]


def _pairs(v: Verdict, label: str, meta: dict, key: str,
           deltas: list[float]):
    """The program's own verdict and the deltas it reports, both held to
    PAIR_TOL here so a change to the program's tolerance cannot pass."""
    if meta.get(key) != "pass":
        v.fail(f"{label}: {key} = {meta.get(key)!r}")
    bad = [d for d in deltas if not abs(d) <= PAIR_TOL]
    if bad:
        v.fail(f"{label}: pair deltas beyond {PAIR_TOL:g}: {bad}")


def _check_potential_curve(v, meta, rows, family):
    if len(rows) != int(meta["grid_n"]):
        v.fail(f"{len(rows)} rows for grid_n={meta['grid_n']}")
    worst = 0.0
    for r in rows:
        rho = float(r["rho"])
        if family == "morse":
            lam = float(meta["lambda"])
            shifted = lam**2 * (1.0 - math.exp(-rho))**2 - lam + 0.25
            partner = shifted + 2.0 * lam * math.exp(-rho)
        else:
            mu = float(meta["mu"])
            sech2 = 1.0 / math.cosh(rho)**2
            shifted = mu * mu - mu * (mu + 1.0) * sech2
            partner = mu * mu - mu * (mu - 1.0) * sech2
        for got, want in ((float(r["shifted"]), shifted),
                          (float(r["partner"]), partner)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        if not math.isfinite(float(r["generalized"])):
            v.fail(f"generalized potential not finite at rho={rho:g}")
            break
    if not worst < 1e-9:
        v.fail(f"potential samples off the closed form by {worst:.2e}")


def _check_spectrum(v, meta, rows, family):
    s = family_strength(meta, family)
    _levels(v, f"{family} {meta['potential']}", _col(rows, "energy"),
            closed_form(s))


def _check_isospectral(v, meta, rows, family):
    want = closed_form(family_strength(meta, family))
    for name, lo in (("partner", 1), ("generalized", 0)):
        sel = lambda r, name=name: r["comparison"] == name
        _levels(v, f"{family} {name} left", _col(rows, "e_left", sel), want[lo:])
        _levels(v, f"{family} {name} right", _col(rows, "e_right", sel),
                want[lo:])
        _pairs(v, f"{family} {name}", meta, f"{name}_verdict",
               _col(rows, "delta", sel))


def _check_gamma_sweep(v, meta, rows, family):
    want = closed_form(family_strength(meta, family))
    gammas = sorted({r["gamma"] for r in rows}, key=float)
    if not gammas:
        v.fail("gamma sweep has no rows")
    for g in gammas:
        _levels(v, f"{family} gamma={g}",
                _col(rows, "energy", lambda r: r["gamma"] == g), want)
        _pairs(v, f"{family} gamma={g}", meta, f"gamma_{float(g):g}_verdict",
               _col(rows, "delta_vs_base", lambda r: r["gamma"] == g))


def _check_riccati(v, meta, rows, family):
    families = {r["family"] for r in rows}
    if families != {"morse", "pt"}:
        v.fail(f"riccati rows for {sorted(families)}")
    worst = max(_col(rows, "max_residual"), default=math.inf)
    v.error("riccati", worst)
    if not worst < RICCATI_TOL:
        v.fail(f"Riccati residual {worst:.2e} >= {RICCATI_TOL:g}")


def _check_energy_shift(v, meta, rows, family):
    _levels(v, "energy-shift morse", _col(rows, "e_morse"),
            closed_form(family_strength(meta, "morse")))
    _levels(v, "energy-shift pt", _col(rows, "e_pt"),
            closed_form(family_strength(meta, "pt")))
    if meta.get("asserted") == "yes":
        _pairs(v, "energy-shift", meta, "verdict", _col(rows, "delta"))


def _check_hankel_verify(v, meta, rows, family):
    if len(rows) != 12:
        v.fail(f"{len(rows)} rows, expected 12")
    worst = max((abs(x) for x in _col(rows, "scaled_error")), default=math.inf)
    v.error("bessel", worst)
    if not worst < BESSEL_TOL:
        v.fail(f"Bessel identity error {worst:.2e} >= {BESSEL_TOL:g}")


def _check_wavefunction_map(v, meta, rows, family):
    if len(rows) != 1200:
        v.fail(f"{len(rows)} rows, expected 1200")
    for col in ("u_mapped", "u_direct"):
        if not all(math.isfinite(x) for x in _col(rows, col)):
            v.fail(f"{col} not finite")
    disc = float(meta["l2_discrepancy"])
    v.error("map", disc)
    if not disc < MAP_TOL:
        v.fail(f"L2 discrepancy {disc:.2e} >= {MAP_TOL:g}")


def _check_potential_term_map(v, meta, rows, family):
    if len(rows) != 800:
        v.fail(f"{len(rows)} rows, expected 800")
    for col in ("lhs", "rhs", "residual"):
        if not all(math.isfinite(x) for x in _col(rows, col)):
            v.fail(f"{col} not finite")
    if not math.isfinite(float(meta["max_residual"])):
        v.fail("max_residual not finite")


CHECKS = {
    "potential-curve": _check_potential_curve,
    "spectrum": _check_spectrum,
    "isospectral": _check_isospectral,
    "gamma-sweep": _check_gamma_sweep,
    "riccati": _check_riccati,
    "energy-shift": _check_energy_shift,
    "hankel-verify": _check_hankel_verify,
    "wavefunction-map": _check_wavefunction_map,
    "potential-term-map": _check_potential_term_map,
}


def check_table(experiment: str, family: str, text: str) -> Verdict:
    """Gate one JSON table written by `susyspectra <experiment> --format
    json`. A table that does not parse or lacks a column fails."""
    v = Verdict()
    try:
        payload = json.loads(text)
        meta, rows = payload["meta"], payload["rows"]
        if meta.get("experiment") != experiment:
            v.fail(f"table is for {meta.get('experiment')!r}")
        CHECKS[experiment](v, meta, rows, family)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        v.fail(f"malformed table: {type(exc).__name__}: {exc}")
    return v


def check_op(experiment: str, family: str, exit_code, table: str | None,
             stderr: str) -> Verdict:
    """Gate one CLI run: non-zero exit or a missing table fails it."""
    if exit_code != 0:
        v = Verdict()
        reason = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        v.fail(f"exit {exit_code}: {reason}")
        return v
    if table is None:
        v = Verdict()
        v.fail("exit 0 but no table written")
        return v
    return check_table(experiment, family, table)
