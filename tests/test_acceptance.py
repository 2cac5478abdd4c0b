"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Criterion 11 asserts the state-integrated deformation-term transform claim
exactly as stated and is expected to FAIL: the claim does not survive
numerical scrutiny (the transform of a product is not the product of
transforms).  See the repository README and the term-map report emitted by
the CLI for the measured residuals.
"""

import math
import time

import numpy as np

from susyspectra.analysis import (energy_shift_check, gamma_sweep,
                                  isospectral_check,
                                  normalized_l2_discrepancy, solve_morse,
                                  solve_pt)
from susyspectra.cli import main as cli_main
from susyspectra.coordinates import chain_30
from susyspectra.eigensolver import default_grid
from susyspectra.numerics import bessel_j, integrate_oscillatory_bessel
from susyspectra.potentials import MorseParams, PTParams, riccati_residual
from susyspectra.transforms import (HankelPlan, angular_phase_integral,
                                    morse_state_on_plan, potential_term_map,
                                    potential_term_sandwich,
                                    pt_state_on_nodes, wavefunction_map)

LAM, MU = 4.5, 4.0


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {state}{suffix}")
    return ok


def _morse_exact(lam):
    a = lam - 0.5
    n = np.arange(int(math.ceil(a - 1e-9)))
    return n * (2 * a - n)


def _pt_exact(mu):
    n = np.arange(int(math.ceil(mu - 1e-9)))
    return n * (2 * mu - n)


def test_01_zero_ground_state():
    t0 = time.perf_counter()
    spec_m = solve_morse(MorseParams(LAM, 1.0), "shifted")
    t_m = time.perf_counter() - t0
    t0 = time.perf_counter()
    spec_pt = solve_pt(PTParams(MU, 1.0), "shifted")
    t_pt = time.perf_counter() - t0
    e0m = abs(float(spec_m.eigenvalues[0]))
    e0p = abs(float(spec_pt.eigenvalues[0]))
    ok = e0m < 2e-3 and e0p < 2e-3 and t_m < 10.0 and t_pt < 10.0
    assert _verdict(1, "zero-ground-state", ok,
                    f"|E0|={e0m:.1e}/{e0p:.1e}, {t_m:.1f}s/{t_pt:.1f}s")


def test_02_analytic_spectra(morse_shifted_spectrum, pt_shifted_spectrum):
    t0 = time.perf_counter()
    em = solve_morse(MorseParams(LAM, 1.0), "shifted").eigenvalues
    ep = solve_pt(PTParams(MU, 1.0), "shifted").eigenvalues
    elapsed = time.perf_counter() - t0
    dm = float(np.max(np.abs(em - _morse_exact(LAM))))
    dp = float(np.max(np.abs(ep - _pt_exact(MU))))
    ok = dm < 2e-3 and dp < 2e-3 and elapsed < 10.0
    assert _verdict(2, "analytic-spectra", ok,
                    f"max|dE|={dm:.1e}/{dp:.1e}, {elapsed:.1f}s")


def test_03_susy_isospectrality(morse_shifted_spectrum,
                                morse_partner_spectrum,
                                pt_shifted_spectrum, pt_partner_spectrum):
    rm = isospectral_check(morse_shifted_spectrum, morse_partner_spectrum,
                           skip_ground_of_A=True, tolerance=5e-3)
    rp = isospectral_check(pt_shifted_spectrum, pt_partner_spectrum,
                           skip_ground_of_A=True, tolerance=5e-3)
    ok = rm.passed and rp.passed
    assert _verdict(3, "susy-isospectrality", ok,
                    f"max delta {rm.max_delta:.1e}/{rp.max_delta:.1e}")


def test_04_gamma_family_isospectrality():
    worst = 0.0
    ok = True
    for family, strength in (("morse", LAM), ("pt", MU)):
        _, _, reports = gamma_sweep(family, strength, (0.5, 1.0, 10.0))
        for rep in reports.values():
            ok = ok and rep.passed
            worst = max(worst, rep.max_delta)
    assert _verdict(4, "gamma-family-isospectrality", ok,
                    f"worst delta {worst:.1e}")


def test_05_riccati_verification():
    # on the default grids the eigensolver runs on
    pm, pp = MorseParams(2.5, 1.0), PTParams(3.0, 1.0)
    gm, gp = default_grid(pm), default_grid(pp)
    res_m = riccati_residual(pm.q, pm.w_prime, gm)
    res_p = riccati_residual(pp.q, pp.w_prime, gp)
    ok = res_m < 1e-6 and res_p < 1e-6
    assert _verdict(5, "riccati-residuals", ok,
                    f"{res_m:.1e}/{res_p:.1e} on {gm.n}/{gp.n} nodes")


def test_06_coordinate_chain_identity():
    rng = np.random.default_rng(2024)
    rho = rng.uniform(-5.0, 5.0, 100)
    _, _, t = chain_30(rho)
    worst = float(np.max(np.abs(t - np.exp(-rho))))
    ok = worst < 1e-12
    assert _verdict(6, "coordinate-chain-identity", ok, f"max {worst:.1e}")


def test_07_angular_reduction():
    rng = np.random.default_rng(7)
    phis = rng.uniform(0.0, 2 * math.pi, 16)
    worst = 0.0
    for m in range(0, 9):
        for x in (0.1, 1.0, 4.0, 9.0, 14.0, 20.0):
            expected_mag = 2 * math.pi * bessel_j(m, x)
            for pp in phis[:2]:
                got = angular_phase_integral(x, m, pp)
                expected = (-1j) ** m * np.exp(1j * m * pp) * expected_mag
                worst = max(worst, abs(got - expected))
    ok = worst < 1e-9
    assert _verdict(7, "angular-reduction", ok, f"max {worst:.1e}")


def test_08_bessel_integral_identity():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 5.0):
        for nu in (0, 1, 2):
            res = integrate_oscillatory_bessel(ones, nu, p, tol=1e-9)
            worst = max(worst, abs(p * res.value - 1.0))
    ok = worst < 1e-6
    assert _verdict(8, "bessel-integral-identity", ok, f"max {worst:.1e}")


def test_09_wavefunction_connection():
    t0 = time.perf_counter()
    spec_m = solve_morse(MorseParams(LAM, 1.0), "shifted")
    spec_pt = solve_pt(PTParams(MU, 1.0), "shifted")
    tp = np.linspace(0.02, 6.0, 1200)
    plan = HankelPlan()
    worst = 0.0
    R = morse_state_on_plan(spec_m, LAM, plan)
    direct = pt_state_on_nodes(spec_pt, tp)
    for n in (0, 1):
        m = int(round(LAM - 0.5)) - n
        mapped = wavefunction_map(R[n], m, tp, plan)
        worst = max(worst, normalized_l2_discrepancy(mapped, direct[n], tp))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 60.0
    assert _verdict(9, "wavefunction-connection", ok,
                    f"worst L2 {worst:.1e}, {elapsed:.1f}s")


def test_10_energy_relation_coincident_point(morse_generalized_spectrum,
                                             pt_generalized_spectrum):
    rep = energy_shift_check(morse_generalized_spectrum,
                             pt_generalized_spectrum, LAM, MU,
                             tolerance=5e-3)
    # off-point relation is reported as data, not asserted
    off = energy_shift_check(morse_generalized_spectrum,
                             solve_pt(PTParams(3.0, 1.0), "generalized"),
                             LAM, 3.0, tolerance=5e-3)
    print(f"  [data] off-point mu=3 shift={LAM - 3.0 - 0.5:g} deltas="
          + ",".join(f"{d:+.3f}" for _, _, d in off.pairs))
    ok = rep.passed
    assert _verdict(10, "energy-relation-coincident", ok,
                    f"max delta {rep.max_delta:.1e}")


def test_11_potential_term_relation(morse_generalized_spectrum):
    params_m = MorseParams(LAM, 1.0)
    params_pt = PTParams(MU, 1.0)
    plan = HankelPlan(40.0, 8192)
    tp = np.linspace(0.01, 10.0, 1000)
    report = potential_term_map(params_m, params_pt, 4, plan, tp,
                                morse_generalized_spectrum)
    print(f"  [data] unsandwiched pointwise residual: max {report.max_residual:.3e}, "
          "refinement "
          + " -> ".join(f"n={n}:{r:.3e}" for n, r in report.refinement))
    checks = potential_term_sandwich(report)
    worst = 0.0
    for chk in checks:
        print(f"  [data] state n={chk.n} m={chk.order}: hankel-route "
              f"{chk.hankel_route:+.6e} vs direct PT {chk.direct_pt:+.6e} "
              f"(rel diff {chk.rel_diff:.3e})")
        worst = max(worst, chk.rel_diff)
    ok = worst < 1e-3
    _verdict(11, "potential-term-relation", ok, f"worst rel diff {worst:.1e}")
    assert ok, (
        "sandwiched deformation-term transform claim fails by design of the "
        "underlying relation (transform of a product is not the product of "
        "transforms); see README and the term-map CLI report")


def test_12_determinism(tmp_path):
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        rc = cli_main(["riccati", "--family", "both", "--output", str(out),
                       "--reproducible"])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _verdict(12, "determinism", ok,
                    f"{len(outputs[0])} bytes, identical" if ok else "differ")
