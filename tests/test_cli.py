import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from susyspectra import cli
from susyspectra.cli import EXPERIMENTS, main
from susyspectra.eigensolver import default_grid
from susyspectra.potentials import MorseParams
from susyspectra.transforms import TruncationWarning

_ROOT = Path(__file__).resolve().parent.parent


def read_csv(path: Path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _src_env(**extra) -> dict:
    """The environment of a subprocess that imports the package from
    src/."""
    path = [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                **extra)


@pytest.fixture
def no_solve(monkeypatch):
    """Stand-in solvers that fail the test if a solve is reached."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were checked")

    for name in ("solve_morse", "solve_pt", "gamma_sweep"):
        monkeypatch.setattr(cli, name, no_solve)


@pytest.fixture
def no_run(monkeypatch):
    """Stand-in runners that fail the test if an experiment is run."""
    def no_run(cfg):
        raise AssertionError("ran before the flags were checked")

    for name, exp in EXPERIMENTS.items():
        monkeypatch.setitem(EXPERIMENTS, name,
                            dataclasses.replace(exp, run=no_run))


# (experiment, flags, the flag refused): one flag, or flag value, that each
# experiment does not read
UNREAD = [
    ("potential-curve", ["--state", "2"], "state"),
    ("spectrum", ["--plan-n", "5", "--t-max", "-3", "--state", "9"],
     "plan-n"),
    ("spectrum", ["--family", "pt", "--lambda", "3"], "lambda"),
    ("isospectral", ["--potential", "partner"], "potential"),
    ("gamma-sweep", ["--gamma", "7"], "gamma"),
    ("riccati", ["--family", "morse", "--mu", "3"], "mu"),
    ("hankel-verify", ["--lambda", "-3"], "lambda"),
    ("wavefunction-map", ["--potential", "generalized"], "potential"),
    # it maps the shifted wells, which do not depend on gamma
    ("wavefunction-map", ["--gamma", "2"], "gamma"),
    ("energy-shift", ["--order-m", "2"], "order-m"),
    ("potential-term-map", ["--state", "1"], "state"),
]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment(self):
        assert main(["frobnicate"]) == 2

    def test_bad_parameter_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["spectrum", "--family", "morse", "--lambda", "0.4",
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "usage error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value line\n")
        out = tmp_path / "x.csv"
        rc = main(["spectrum", "--config", str(cfg), "--output", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume=11\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("experiment", ["wavefunction-map",
                                            "energy-shift",
                                            "potential-term-map"])
    def test_grid_flags_refused_for_cross_family(self, experiment, tmp_path,
                                                 capsys):
        # these solve both wells on their default grids; a grid flag on the
        # command line or in a config file would be ignored, so it is an error
        out = tmp_path / "x.csv"
        assert main([experiment, "--grid-n", "50",
                     "--output", str(out)]) == 2
        assert "--grid-n" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-min=-1\ngrid-max=3\n")
        assert main([experiment, "--config", str(cfg),
                     "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["wavefunction-map", "--state", "-1"],
        # a = 4 and mu = 4: states 0-3 only, by the closed-form count
        ["wavefunction-map", "--state", "4"],
        ["wavefunction-map", "--plan-n", "15"],
        ["potential-term-map", "--plan-n", "31"],
        ["wavefunction-map", "--t-max", "0"],
        ["potential-term-map", "--t-max", "-3"],
        ["wavefunction-map", "--order-m", "-1"],
        ["potential-term-map", "--order-m", "-1"],
        ["wavefunction-map", "--t-max", "1e308"],
        ["wavefunction-map", "--t-max", "1e200"],
        ["potential-term-map", "--t-max", "125.001"],
        ["wavefunction-map", "--order-m", "100000"],
        ["potential-term-map", "--order-m", "301"],
        # the node cap, 65536, plus one
        ["wavefunction-map", "--plan-n", "65537"],
        ["potential-term-map", "--plan-n", "65537"],
    ], ids=lambda argv: " ".join(argv))
    def test_transform_flag_bounds(self, argv, tmp_path, capsys, no_solve):
        # out-of-bound transform flags are usage errors, found before any
        # solve (the stand-in solvers fail the test if one is reached)
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--grid-n", "2"],
        ["spectrum", "--grid-min", "5", "--grid-max", "1"],
        ["spectrum", "--grid-max", "inf"],
        ["riccati", "--family", "both", "--grid-n", "3"],
        # the dense-matrix node cap, 4001, plus one
        ["spectrum", "--grid-n", "4002"],
        ["riccati", "--family", "both", "--grid-n", "4002"],
        ["isospectral", "--grid-n", "4002"],
        ["gamma-sweep", "--grid-n", "4002"],
        # thresholds W'(inf)^2 past the largest float
        ["spectrum", "--family", "morse", "--lambda", "1e155"],
        ["spectrum", "--family", "pt", "--mu", "1e155"],
        ["isospectral", "--family", "morse", "--lambda", "1e200"],
        ["energy-shift", "--mu", "1e200"],
        ["potential-curve", "--family", "pt", "--mu", "1e200"],
        ["spectrum", "--family", "morse", "--lambda", "inf"],
        ["spectrum", "--family", "pt", "--mu", "inf"],
        ["spectrum", "--family", "pt", "--gamma", "inf"],
        ["energy-shift", "--gamma", "nan"],
        ["gamma-sweep", "--gammas", "nan"],
        ["gamma-sweep", "--gammas", "0.5,inf"],
        ["gamma-sweep", "--gammas", "1,0"],
        ["gamma-sweep", "--gammas", ","],
    ], ids=lambda argv: " ".join(argv))
    def test_well_and_grid_bounds(self, argv, tmp_path, capsys, no_solve):
        # a well or grid that cannot be built is a usage error, found
        # before any solve
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["wavefunction-map", "--t-max", "125"],
        ["wavefunction-map", "--order-m", "300"],
        ["potential-term-map", "--t-max", "125"],
        ["potential-term-map", "--order-m", "300"],
        ["riccati", "--family", "both", "--grid-max", "3000"],
        # the default map reaches every float: 1.79e308 at x = 1418.7
        ["potential-curve", "--family", "pt", "--grid-max", "1e308"],
        ["potential-curve", "--family", "pt", "--grid-max", "1.79e308"],
    ], ids=lambda argv: " ".join(argv))
    def test_flags_at_their_bounds_run(self, argv, tmp_path):
        # every number of the table is finite
        out = tmp_path / "x.json"
        assert main(argv + ["--output", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        values = [float(v) for row in rows for k, v in row.items()
                  if k != "family"]
        assert rows and np.all(np.isfinite(values))

    @pytest.mark.parametrize("argv, rho", [
        (["riccati", "--family", "morse", "--grid-min=-1e6"], "-1e+06"),
        # W' is finite here, W'^2 is not
        (["riccati", "--family", "morse", "--grid-min=-360",
          "--grid-max", "1"], "-360"),
        # W'^2 - W'' is inf - inf here
        (["isospectral", "--family", "morse", "--gamma", "0.3365",
          "--grid-min=-1e6"], "-1e+06"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_overflowing_well_refused(self, argv, rho, tmp_path, capsys,
                                      no_solve):
        # a grid on which the well overflows is refused before any run,
        # with one line naming the node and no floating-point warning
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: the Morse well overflows at node rho={rho}; "
            "narrow the grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flags, refused", UNREAD,
                             ids=lambda v: " ".join(v) if isinstance(
                                 v, list) else v)
    def test_unread_flag_refused(self, experiment, flags, refused, tmp_path,
                                 capsys, no_run):
        # on the command line and from --config alike, before any run
        out = tmp_path / "x.csv"
        assert main([experiment, *flags, "--output", str(out)]) == 2
        assert f"--{refused}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:]}={value}\n"
                               for flag, value in zip(flags[::2],
                                                      flags[1::2])))
        assert main([experiment, "--config", str(cfg),
                     "--output", str(out)]) == 2
        assert refused in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_only_read_flags(self, capsys):
        assert main(["hankel-verify", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--reproducible" in text
        for flag in ("--lambda", "--family", "--grid-n", "--plan-n"):
            assert flag not in text

    def test_bad_config_switch(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reproducible=ture\n")
        out = tmp_path / "x.csv"
        assert main(["hankel-verify", "--config", str(cfg),
                     "--output", str(out)]) == 2
        assert "reproducible" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["1,1.000001", "1,1"])
    def test_gammas_sharing_a_verdict_key_refused(self, gammas, tmp_path,
                                                  capsys, no_solve):
        # the verdict keys print gamma to 6 digits, so a second gamma with
        # the same key would silently replace the first one's verdict
        out = tmp_path / "g.csv"
        assert main(["gamma-sweep", "--family", "pt", "--gammas", gammas,
                     "--output", str(out)]) == 2
        first, second = gammas.split(",")
        assert (f"{first} and {second} share the verdict key "
                "gamma_1_verdict") in capsys.readouterr().err
        assert not out.exists()

    def test_term_map_smallest_plan(self, tmp_path):
        # 32 nodes: the refinement trace's half plan has the minimum of 16
        out = tmp_path / "x.csv"
        assert main(["potential-term-map", "--plan-n", "32",
                     "--output", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert "refinement_n16" in meta and "refinement_n32" in meta

    def test_wrong_family_for_experiment(self, tmp_path):
        rc = main(["potential-curve", "--family", "both",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2


class TestNumericalFailures:
    def test_singular_configuration_exit_3(self, tmp_path, capsys):
        # gamma below the negative-tail mass and a grid reaching into the
        # singular region
        out = tmp_path / "x.csv"
        rc = main(["potential-curve", "--family", "morse", "--lambda", "0.6",
                   "--gamma", "0.1", "--grid-min", "-6", "--grid-max", "5",
                   "--grid-n", "101", "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "denominator" in capsys.readouterr().err

    # each solve returns one level fewer than the closed form holds: the
    # level n(2s - n) named in the message, just below the threshold s^2.
    # A level within the solver's 1e-3 near-threshold cut (gap 4e-4) is
    # named as cut; one 0.0025 below is named as not resolved on the grid,
    # whose end nodes lie one x-spacing beyond the box [-20, 20].
    @pytest.mark.parametrize("argv, missing, reason", [
        (["--family", "pt", "--mu", "4.05"], "E = n(2s - n) = 16.4 (n=4",
         "is not resolved on the grid [-20.7224, 20.7224]"),
        (["--family", "pt", "--mu", "3.02"], "E = n(2s - n) = 9.12 (n=3",
         "near-threshold cut"),
        (["--family", "morse", "--lambda", "4.52", "--potential", "partner"],
         "E = n(2s - n) = 16.16 (n=4", "near-threshold cut"),
    ], ids=["pt-4.05", "pt-3.02", "morse-4.52-partner"])
    def test_missing_level_exit_3(self, argv, missing, reason, tmp_path,
                                  capsys):
        out = tmp_path / "x.csv"
        rc = main(["spectrum", *argv, "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert missing in err
        assert "below the threshold" in err
        assert reason in err
        assert ("no grid returns it" in err) == ("cut" in reason)

    def test_huge_strength_exit_3(self, tmp_path, capsys):
        # 1e12 levels: the least-bound one is taken in closed form, not
        # from an array of all of them, and the grid check then refuses
        out = tmp_path / "x.csv"
        rc = main(["spectrum", "--lambda", "1e12", "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "widen the grid" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--family", "morse", "--lambda", "4.5", "--gamma", "1e-5"],
        ["--family", "pt", "--mu", "3", "--gamma", "0.1"],
    ], ids=["morse-4.5", "pt-3"])
    def test_generalized_below_tail_mass_exit_3(self, argv, tmp_path,
                                                capsys):
        # the default grid is the same at every gamma, so a gamma below the
        # negative-tail mass reaches the singular region of q on it
        out = tmp_path / "x.csv"
        rc = main(["spectrum", *argv, "--potential", "generalized",
                   "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "below the negative-tail mass" in capsys.readouterr().err

    @pytest.mark.parametrize("potential", ["shifted", "partner"])
    def test_gamma_free_wells_ignore_gamma(self, potential, tmp_path):
        # neither well depends on gamma, so gamma = 1e-5 (below the
        # negative-tail mass) solves on the same grid to the same levels
        tables = []
        for gamma in ("1e-5", "1"):
            out = tmp_path / f"{gamma}.csv"
            assert main(["spectrum", "--family", "morse", "--lambda", "4.5",
                         "--gamma", gamma, "--potential", potential,
                         "--output", str(out)]) == 0
            meta, _, rows = read_csv(out)
            tables.append(((meta["grid_min"], meta["grid_n"]), rows))
        assert tables[0] == tables[1]


class TestOutputs:
    def test_riccati_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["riccati", "--family", "both", "--output", str(out),
                   "--reproducible"])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == EXPERIMENTS["riccati"].columns
        assert meta["experiment"] == "riccati"
        assert "timestamp" not in meta
        assert len(rows) == 2
        for row in rows:
            assert float(row[2]) < 1e-6

    def test_hankel_verify(self, tmp_path):
        out = tmp_path / "h.json"
        rc = main(["hankel-verify", "--format", "json", "--output", str(out),
                   "--reproducible"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["verdict"] == "pass"
        assert len(payload["rows"]) == 12
        for row in payload["rows"]:
            assert set(row) == set(EXPERIMENTS["hankel-verify"].columns)
            assert abs(float(row["scaled_error"])) < 1e-6

    @pytest.mark.slow
    def test_spectrum_ground_state_near_zero(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--family", "morse", "--lambda", "4.5",
                   "--gamma", "1", "--output", str(out), "--reproducible"])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == EXPERIMENTS["spectrum"].columns
        assert meta["family"] == "morse"
        assert meta["bound_count"] == "4"
        assert "rho_min" in meta
        assert abs(float(rows[0][1])) < 2e-3

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["hankel-verify", "--output", str(out),
                       "--reproducible"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "family=morse\n"
            "lambda=2.5\n"
            "gamma=2.0\n"
            "grid-n=101\n"
            "grid-min=-1\n"
            "grid-max=8\n"
            "format=json\n"
        )
        out = tmp_path / "c.json"
        rc = main(["potential-curve", "--config", str(cfg), "--gamma", "3.0",
                   "--output", str(out), "--reproducible"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["gamma"] == "3"      # CLI wins
        assert payload["meta"]["lambda"] == "2.5"   # config value
        assert len(payload["rows"]) == 101

    @pytest.mark.parametrize("value, stamped", [("yes", False), ("0", True)])
    def test_config_switch(self, value, stamped, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"reproducible={value}\n")
        out = tmp_path / "h.csv"
        assert main(["hankel-verify", "--config", str(cfg),
                     "--output", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert ("timestamp" in meta) == stamped

    @pytest.mark.parametrize("gammas", [(0.5, 1.0), (1.0, 0.01)])
    def test_gamma_sweep_grid_is_default_domain(self, gammas, tmp_path,
                                                monkeypatch):
        # the sweep's grid is the family's default domain whatever its
        # gammas, so every gamma's levels are compared on one grid; at
        # lambda=1.5, gamma=0.01 is below the negative-tail mass, which the
        # generalized solve (stubbed out here) refuses
        seen = {}

        def sweep(family, strength, swept, grid):
            seen.update(swept=swept, grid=grid)
            return SimpleNamespace(eigenvalues=np.array([])), {}, {}

        monkeypatch.setattr(cli, "gamma_sweep", sweep)
        out = tmp_path / "g.csv"
        assert main(["gamma-sweep", "--family", "morse", "--lambda", "1.5",
                     "--gammas", ",".join(map(str, gammas)),
                     "--output", str(out)]) == 0
        assert seen["swept"] == gammas
        assert seen["grid"] == default_grid(MorseParams(1.5, 1.0))
        assert seen["grid"] == default_grid(MorseParams(1.5, 0.1))
        box_lo, box_hi = MorseParams.domain_box
        assert box_lo <= seen["grid"].min < seen["grid"].max <= box_hi

    def test_gamma_sweep_default_gammas_keep_their_verdicts(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gamma-sweep", "--family", "pt", "--output", str(out),
                     "--reproducible"]) == 0
        meta, _, rows = read_csv(out)
        assert {row[0] for row in rows} == {"0.5", "1", "10"}
        for g in ("0.5", "1", "10"):
            assert meta[f"gamma_{g}_verdict"] == "pass"

    def test_energy_shift_prints_the_solved_morse_levels(self, tmp_path):
        # off the pairing point the shift is nonzero; e_morse is the solved
        # generalized Morse level, not (E + shift) - shift
        shift, spectrum = tmp_path / "e.csv", tmp_path / "s.csv"
        assert main(["energy-shift", "--mu", "3", "--output", str(shift),
                     "--reproducible"]) == 0
        assert main(["spectrum", "--family", "morse", "--potential",
                     "generalized", "--output", str(spectrum),
                     "--reproducible"]) == 0
        _, header, rows = read_csv(shift)
        _, _, levels = read_csv(spectrum)
        e_morse = [row[header.index("e_morse")] for row in rows]
        assert e_morse == [energy for _, energy in levels[:len(e_morse)]]
        assert len(e_morse) == 3  # the sech well at mu = 3 holds three

    def test_header_names_exactly_the_solved_wells(self, monkeypatch,
                                                   tmp_path):
        # main writes the common header and the strength of every well
        # the run solves, and no other
        monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
        runs = importlib.import_module("run_all_experiments").RUNS
        strengths = {"morse": {"lambda"}, "pt": {"mu"},
                     "both": {"lambda", "mu"}}
        for name, argv in runs:
            out = tmp_path / f"{name}.json"
            assert main(argv + ["--output", str(out), "--format", "json",
                                "--reproducible"]) == 0
            meta = json.loads(out.read_text())["meta"]
            common = {k: meta[k] for k in ("tool", "version", "experiment")}
            assert common == {"tool": "susyspectra",
                              "version": cli.__version__,
                              "experiment": argv[0]}
            if argv[0] == "hankel-verify":
                want = set()
            elif "--family" in argv:
                want = strengths[argv[argv.index("--family") + 1]]
            else:
                want = strengths["both"]
            assert {"lambda", "mu"} & set(meta) == want, name

    @pytest.mark.parametrize("flags, truncation_warned, quarter_turns", [
        ([], "false", "0"),
        (["--state", "1"], "false", "3"),
        (["--t-max", "5"], "true", "0"),
    ], ids=["default", "state 1", "t-max 5"])
    def test_wavefunction_map_reports_phase_and_truncation(
            self, flags, truncation_warned, quarter_turns, tmp_path):
        # a state still alive at t_max is reported in the table, not only
        # by a Python warning
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert main(["wavefunction-map", *flags, "--output", str(out),
                         "--reproducible"]) == 0
        meta, _, _ = read_csv(out)
        assert meta["truncation_warned"] == truncation_warned
        assert meta["quarter_turns"] == quarter_turns

    @pytest.mark.parametrize("lam, mu, state", [
        (1.5, 1, 0), (2.5, 2, 0), (2.5, 2, 1),
        (3.5, 3, 0), (3.5, 3, 1), (3.5, 3, 2)])
    def test_wavefunction_map_low_pairing_points(self, lam, mu, state,
                                                 tmp_path):
        # on mu = lambda - 1/2 every state maps onto its sech-well partner;
        # these wells' excited states need the left edge below -2
        out = tmp_path / "w.csv"
        assert main(["wavefunction-map", "--lambda", str(lam), "--mu",
                     str(mu), "--state", str(state), "--output", str(out),
                     "--reproducible"]) == 0
        meta, _, _ = read_csv(out)
        assert meta["truncation_warned"] == "false"
        assert float(meta["l2_discrepancy"]) < 1e-9

    def test_truncation_warning_names_the_caller(self, tmp_path):
        # the warning points at the CLI line that called the map, not at
        # the transform module's own call of hankel
        with pytest.warns(TruncationWarning) as record:
            assert main(["wavefunction-map", "--t-max", "5", "--output",
                         str(tmp_path / "w.csv"), "--reproducible"]) == 0
        names = {Path(w.filename).name for w in record}
        assert "transforms.py" not in names
        assert names == {"cli.py"}

    def test_state_sign_independent_of_blas_threads(self, tmp_path):
        # state 1 of the sech well is odd: its two largest components, at
        # +-rho, tie to rounding, and which one wins moved with the BLAS
        # thread count; the sign rule must not depend on it
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"w{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "susyspectra.cli", "wavefunction-map",
                 "--state", "1", "--output", str(out), "--reproducible"],
                env=_src_env(OPENBLAS_NUM_THREADS=threads), check=True)
            _, header, rows = read_csv(out)
            cols = [header.index("u_direct"), header.index("u_mapped")]
            tables.append(np.array(rows, dtype=float)[:, cols])
        # the tables print 12 significant digits, so a last-digit flip at
        # |u| ~ 84 is already 1e-10: the bound is relative to the peak
        scale = np.max(np.abs(tables[0]), axis=0)
        assert np.all(np.max(np.abs(tables[0] - tables[1]), axis=0)
                      < 1e-10 * scale)

    def test_default_extension_added(self, tmp_path):
        out = tmp_path / "noext"
        rc = main(["riccati", "--family", "morse", "--output", str(out),
                   "--reproducible"])
        assert rc == 0
        assert (tmp_path / "noext.csv").exists()


@pytest.mark.slow
def test_script_and_benchmark_argvs_are_accepted(monkeypatch, tmp_path):
    # every argv of scripts/run_all_experiments.py and of the benchmark's
    # workloads runs through cli.main; a usage error there would empty the
    # benchmark's pass_frac.  Scan points may exit 3 (a refused solve).
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    runs = importlib.import_module("run_all_experiments").RUNS
    bench = importlib.import_module("run")
    cases = [(argv + ["--output", str(tmp_path / name), "--reproducible"],
              (0,)) for name, argv in runs]
    cases += [(op.argv(tmp_path / op.name), (0,))
              for op in (*bench.SPECTRA, *bench.TRANSFORM)]
    cases += [(op.argv(tmp_path / op.name), (0, 3))
              for op in bench.scan_ops(1)]
    for argv, allowed in cases:
        assert main(argv) in allowed, " ".join(argv)


def _reference_write_table(path, meta, columns, rows, fmt):
    """The per-value writer that `cli.write_table` replaced: `_fmt_value`
    on every value, the JSON text by json.dumps."""
    fmt_value = cli._fmt_value
    if fmt == "csv":
        lines = [f"# {k}: {fmt_value(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(fmt_value(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "meta": {k: fmt_value(v) for k, v in meta.items()},
            "rows": [dict(zip(columns, (fmt_value(v) for v in row)))
                     for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _assert_writers_agree(tmp_path, meta, columns, rows):
    for fmt in ("csv", "json"):
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        cli.write_table(new, meta, columns, rows, fmt)
        _reference_write_table(old, meta, columns, rows, fmt)
        assert new.read_bytes() == old.read_bytes(), fmt


def test_writer_bytes_match_reference_on_every_table(monkeypatch, tmp_path):
    # every table of scripts/run_all_experiments.py, in CSV and in JSON
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    runs = importlib.import_module("run_all_experiments").RUNS
    tables = []
    monkeypatch.setattr(cli, "write_table",
                        lambda path, *table: tables.append(table[:3]))
    for name, argv in runs:
        assert main(argv + ["--output", str(tmp_path / name),
                            "--reproducible"]) == 0, name
    monkeypatch.undo()
    assert len(tables) == len(runs)
    for meta, columns, rows in tables:
        _assert_writers_agree(tmp_path, meta, columns, rows)


@pytest.mark.parametrize("meta, columns, rows", [
    ({}, ["a", "b"], []),
    ({"k": 1}, [], []),
    ({"note": 'say "hi"\\ \u00e9\n\t\u2713', "flag": True, "nan": math.nan},
     ["name", "x"], [("caf\u00e9 \"q\"", 1.5), ("a\\b,c", -0.0)]),
    ({}, ["mixed", "ints", "floats"],
     [(True, np.int64(3), np.float64(math.inf)),
      (2.5, 7, -math.inf),
      (np.float32(0.1), np.int32(-4), 1e-300),
      ("s", 0, np.float64(math.nan))]),
    ({"b": 2, "a": 1}, ["z", "a", "z"], [(1, 2, 3), (4, 5, 6)]),
], ids=["empty_rows", "empty_columns", "escapes", "mixed", "repeated"])
def test_writer_bytes_match_reference_edge_cases(tmp_path, meta, columns,
                                                 rows):
    _assert_writers_agree(tmp_path, meta, columns, rows)


def test_writer_refuses_a_ragged_row(tmp_path):
    with pytest.raises(ValueError, match="does not match"):
        cli.write_table(tmp_path / "t.csv", {}, ["a", "b"], [(1,)], "csv")


def test_import_starts_no_thread_pool():
    # the Hankel kernel pool is made at its first use; importing the CLI
    # must not pay for concurrent.futures (the benchmark's setup_s)
    code = ("import sys, susyspectra.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env())
    assert done.returncode == 0


def test_diff_tables_script(monkeypatch, tmp_path, capsys):
    # two tables per side: one byte-identical, one with a changed meta
    # value, a column that changed sign and a column moved at rounding level
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    diff_tables = importlib.import_module("diff_tables")
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        assert main(["riccati", "--family", "morse", "--output",
                     str(side / "r.csv"), "--reproducible"]) == 0
    capsys.readouterr()
    (a / "w.csv").write_text("# l2: 2.0e-09\nindex,u,v\n0,1.5,2.0\n"
                             "1,-0.5,3.0\n")
    (b / "w.csv").write_text("# l2: 2.5e-09\nindex,u,v\n0,-1.5,2.0\n"
                             "1,0.5,3.0000000003\n")
    monkeypatch.setattr(sys, "argv", ["diff_tables.py", str(a), str(b)])
    assert diff_tables.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r.csv: identical"
    assert out[1:] == [
        "w.csv:",
        "  meta l2: 2.0e-09 -> 2.5e-09",
        "  column u: 2/2 differ, max abs 3, max rel 2, every change a sign "
        "flip (max |a + b| 0)",
        "  column v: 1/2 differ, max abs 3e-10, max rel 1e-10"]
    monkeypatch.setattr(sys, "argv", ["diff_tables.py", str(a), str(a)])
    assert diff_tables.main() == 0
