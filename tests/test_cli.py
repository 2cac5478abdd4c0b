import json
from pathlib import Path

import pytest

from susyspectra import cli
from susyspectra.cli import EXPERIMENT_COLUMNS, main


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
        ["wavefunction-map", "--plan-n", "15"],
        ["potential-term-map", "--plan-n", "31"],
        ["wavefunction-map", "--t-max", "0"],
        ["potential-term-map", "--t-max", "-3"],
        ["wavefunction-map", "--order-m", "-1"],
        ["potential-term-map", "--order-m", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_transform_flag_bounds(self, argv, tmp_path, capsys,
                                   monkeypatch):
        # out-of-bound transform flags are usage errors, found before any
        # solve (the stand-in solvers fail the test if one is reached)
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the flag bounds were checked")

        monkeypatch.setattr(cli, "solve_morse", no_solve)
        monkeypatch.setattr(cli, "solve_pt", no_solve)
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert argv[1] in capsys.readouterr().err
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


class TestOutputs:
    def test_riccati_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["riccati", "--family", "both", "--output", str(out),
                   "--reproducible"])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == EXPERIMENT_COLUMNS["riccati"]
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
            assert set(row) == set(EXPERIMENT_COLUMNS["hankel-verify"])
            assert abs(float(row["scaled_error"])) < 1e-6

    @pytest.mark.slow
    def test_spectrum_ground_state_near_zero(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--family", "morse", "--lambda", "4.5",
                   "--gamma", "1", "--output", str(out), "--reproducible"])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == EXPERIMENT_COLUMNS["spectrum"]
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

    def test_default_extension_added(self, tmp_path):
        out = tmp_path / "noext"
        rc = main(["riccati", "--family", "morse", "--output", str(out),
                   "--reproducible"])
        assert rc == 0
        assert (tmp_path / "noext.csv").exists()
