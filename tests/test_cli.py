import hashlib
import json
import re

import numpy as np
import pytest

from nndlab import cli
from nndlab.concordance import concordancy_check, concordant5_system, linf_embed


def run(args):
    return cli.main(args)


def strict_json(text):
    """json.loads that rejects NaN and Infinity."""

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["nnd", "--space", "paris", "--n", "100"])
        assert err.value.code == 2

    def test_unknown_space_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["nnd", "--space", "hyperbolic", "--n", "100", "--k", "4"])
        assert err.value.code == 2

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["diag", "expansion", "--n", "100", "--k", "4", "--alpha", "nan"], 2),
            (["diag", "expansion", "--n", "100", "--k", "4", "--alpha", "inf"], 2),
            (["diag", "diameter", "--n", "200", "--k", "3", "--trials", "2", "--eps", "nan"], 2),
            (["diag", "diameter", "--n", "200", "--k", "3", "--trials", "2", "--eps", "inf"], 2),
            (["diag", "expansion", "--n", "100", "--k", "4", "--sets", "0"], 2),
            (["crs", "fraction", "--n", "5", "--samples", "0"], 2),
            (["nnd", "--space", "paris", "--n", "inf", "--k", "2"], 2),
            (["2nrq", "schedule", "--n", "1e5", "--k", "20", "--d", "3", "--alpha", "nan",
              "--format", "json"], 2),
            (["diag", "expansion", "--n", "100", "--k", "4", "--sets", "1"], 0),
            (["diag", "diameter", "--n", "200", "--k", "3", "--trials", "2", "--eps", "-0.5"], 0),
            (["crs", "fraction", "--n", "5", "--samples", "1"], 0),
        ],
    )
    def test_numeric_inputs_exit_2_or_write_strict_json(self, argv, code, tmp_path):
        # non-finite floats and empty sample counts once gave tracebacks,
        # NaN or Infinity; they are now usage errors
        out = tmp_path / "out.json"
        try:
            got = run(argv + ["--out", str(out)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        if code == 0:
            strict_json(out.read_text())
        else:
            assert not out.exists()


class TestNnd:
    def test_paris_run_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["nnd", "--space", "paris", "--n", "256", "--k", "4",
             "--mode", "batch", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["space"] == "paris"
        assert doc["config"]["seed"] == 1
        assert doc["data"]["recall"] == 1.0
        assert doc["data"]["rounds"] >= 1

    def test_generic_crs_low_recall(self, tmp_path):
        out = tmp_path / "report.json"
        run(["nnd", "--space", "generic-crs", "--n", "256", "--k", "8",
             "--mode", "pointwise", "--stop", "budget", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["recall"] < 0.7

    def test_paris_golden_sha256(self, tmp_path):
        # the report as written while ranking.csr sorted its rows by comparison
        out = tmp_path / "report.json"
        assert run(["nnd", "--space", "paris", "--n", "2048", "--k", "8", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3b8b3cf66062e45c96a3cd4ac15b241466d5ed0bea0d68aa0ed4f7b677ce6d57")

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_k_below_two_without_budget_exits_3(self, k, capsys):
        assert run(["nnd", "--space", "paris", "--n", "64", "--k", k]) == 3
        assert "error:" in capsys.readouterr().err

    def test_k1_with_explicit_rounds(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["nnd", "--space", "paris", "--n", "64", "--k", "1",
                    "--rounds", "2", "--out", str(out)]) == 0
        doc = strict_json(out.read_text())
        assert doc["data"]["rounds"] <= 2 and doc["data"]["K"] == 1


class TestTwoNrq:
    @pytest.mark.parametrize(
        "extra,digest",
        [
            ([], "fde7e7e3238aeb3b443a8037ee411ae750c10f2d2f0ee7d236ba1b3a1921bf19"),
            (["--idealized-inputs"],
             "4cdda32f87d831c2339bed48832cdc3f2a0fd6c1fd06547ad335be3a66315727"),
        ],
        ids=["plain", "idealized"],
    )
    def test_simulate_golden_sha256(self, extra, digest, tmp_path):
        # the report as written before the adjacency went through ranking.csr;
        # pins the neighbour order that orders the proposals and the coins
        out = tmp_path / "sim.json"
        assert run(["2nrq", "simulate", "--n", "4e3", "--k", "12", "--d", "2",
                    "--seed", "1", "--out", str(out)] + extra) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "2e4", "--k", "12", "--d", "2", "--alpha", "0.5", "--seed", "1"],
             "1e63808efc4557a9176bd0f16a4898b4b8a0118705cf204bb744cd5ff2b04cd1"),
            (["--n", "8e3", "--k", "30", "--d", "3", "--seed", "2"],
             "a9d8ae45a59e05234a95ec5da5abd38423d027192afdb13b7632f536d7ff5f1a"),
            (["--n", "3e3", "--k", "5", "--d", "1", "--alpha", "0.3", "--seed", "2"],
             "211afa3dd5caf25b7cb8e500369706a1d848547a0e161af76aea9f2e7951ca26"),
            (["--n", "5e3", "--k", "12", "--d", "2", "--idealized-inputs", "--seed", "1"],
             "10b8daa5041843a0bde0c0bbf7dd3c51bc54a819a8de10864cbacddf019b28b9"),
        ],
        ids=["bench-d2", "d3", "d1", "idealized-5e3"],
    )
    def test_round_and_scan_golden_sha256(self, argv, digest, tmp_path):
        # the reports as written while each round gathered its proposals as
        # an array of vertex pairs and ball scans returned distances
        out = tmp_path / "sim.json"
        assert run(["2nrq", "simulate"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "3e3", "--k", "5", "--d", "1", "--alpha", "0.3", "--seed", "2",
              "--sample-vertices", "3000"],
             "9cbf47b3bbfdef98614c8faf585844b53541f35910a8c21ae1821e8ece4f54fa"),
            (["--n", "300", "--k", "12", "--d", "2", "--seed", "4", "--sample-vertices", "400"],
             "b1f73102253f47761340923689c77676ef8a096bbdbe0f6d5abef1cd2ec4a396"),
        ],
        ids=["every-vertex-d1", "sample-above-m"],
    )
    def test_verify_golden_sha256(self, argv, digest, tmp_path):
        # the reports as written while verification drew its KS sample from a
        # kept-member array and scanned whole-torus balls point by point
        out = tmp_path / "sim.json"
        assert run(["2nrq", "simulate"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_schedule_golden_csv(self, tmp_path):
        out = tmp_path / "schedule.csv"
        code = run(["2nrq", "schedule", "--n", "1e7", "--k", "28", "--d", "4",
                    "--alpha", "0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "t,r_t,theta_t,formula_used"
        assert len(lines) == 11  # config + header + t = 0..8
        last = lines[-1].split(",")
        assert last[0] == "8" and last[3] == "implicit"

    def test_schedule_json(self, tmp_path):
        out = tmp_path / "schedule.json"
        run(["2nrq", "schedule", "--n", "2e4", "--k", "12", "--d", "2",
             "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["tau"] == len(doc["data"]["radii"]) - 1

    def test_schedule_huge_n_exits_3(self, capsys):
        # a ZeroDivisionError traceback (exit 1) before
        assert run(["2nrq", "schedule", "--n", "1e300", "--k", "12", "--d", "2"]) == 3
        assert "--n" in capsys.readouterr().err

    def test_simulate_tiny_alpha_advises_raising_it(self, capsys):
        assert run(["2nrq", "simulate", "--n", "300", "--k", "12", "--d", "2",
                    "--alpha", "1e-300"]) == 3
        assert "raise alpha" in capsys.readouterr().err

    def test_k_not_above_2d_exits_3(self, capsys):
        assert run(["2nrq", "schedule", "--n", "1e4", "--k", "4", "--d", "4"]) == 3
        assert "2^d" in capsys.readouterr().err

    def test_simulate_small(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run(["2nrq", "simulate", "--n", "2000", "--k", "12", "--d", "2",
                    "--seed", "7", "--sample-vertices", "200", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["data"]["tau"] >= 1
        assert len(doc["data"]["sampling_reports"]) == doc["data"]["tau"] + 1

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_simulate_needs_two_sampled_vertices(self, count, tmp_path, capsys):
        # fewer than two vertices gave NaN and Infinity standard errors
        out = tmp_path / "sim.json"
        with pytest.raises(SystemExit) as err:
            run(["2nrq", "simulate", "--n", "300", "--k", "12", "--d", "2",
                 "--sample-vertices", count, "--out", str(out)])
        assert err.value.code == 2
        assert "at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_two_sampled_vertices_is_strict_json(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(["2nrq", "simulate", "--n", "300", "--k", "12", "--d", "2",
                    "--sample-vertices", "2", "--out", str(out)]) == 0

        doc = strict_json(out.read_text())
        assert all(r["sampled"] == 2 for r in doc["data"]["sampling_reports"])

    def test_simulate_degenerate_statistics_are_null(self, capsys):
        # two sampled vertices of equal rate leave the rate z-score infinite
        assert run(["2nrq", "simulate", "--n", "60", "--k", "12", "--d", "3",
                    "--sample-vertices", "2", "--seed", "3"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert any(r["rate_z"] is None for r in doc["data"]["sampling_reports"])


class TestCrs:
    def test_enumerate_n4(self, tmp_path):
        out = tmp_path / "census.json"
        assert run(["crs", "enumerate", "--n", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["data"]["orders"] == 720
        assert doc["data"]["bounds_ok"] is True

    def test_enumerate_refusal_exits_4(self, capsys):
        assert run(["crs", "enumerate", "--n", "6"]) == 4
        assert "refused" in capsys.readouterr().err

    def test_embed_concordant5_matrix(self, tmp_path):
        out = tmp_path / "embed.csv"
        run(["crs", "embed", "--example", "concordant5", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        table, extension = concordant5_system()
        expected = linf_embed(concordancy_check(table), extension=extension)
        header = lines[1].split(",")[1:]
        assert header == [f"{i}-{j}" for i, j in expected.column_pairs]
        row0 = np.array([float(v) for v in lines[2].split(",")[1:]])
        assert np.allclose(row0, expected.coords[0])

    def test_special_powers2_isolated(self, tmp_path):
        out = tmp_path / "special.json"
        run(["crs", "special", "--kind", "powers2", "--n", "6",
             "--check", "isolated", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["isolated"] is True

    def test_special_baranyai_component(self, tmp_path):
        out = tmp_path / "component.json"
        run(["crs", "special", "--kind", "baranyai", "--n", "4",
             "--check", "component", "--cap", "100", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["component_size"] >= 8

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["crs", "embed", "--n", "8", "--seed", "0", "--format", "json"],
             "3844f74701d1f003bb9191fea6a2362c61943739c3502b9cc30f7f9af1494405"),
            (["crs", "embed", "--n", "8", "--seed", "0", "--format", "csv"],
             "10e3465de7fe7f3281b10d3fa16388147fdceaa1fb9846b92d35482f42b1cfec"),
            (["crs", "special", "--kind", "baranyai", "--n", "6", "--check", "component",
              "--cap", "8500"],
             "31ceb61931c36412142c9b769e7ef057af3ce5e383caef065a3ee4083abce9b5"),
            (["crs", "special", "--kind", "powers2", "--n", "7", "--check", "isolated"],
             "3c2f5d6c47530c612ecb5b0633c7ee96082ae075b790a9ed6784bc5e3d4d64e7"),
            (["crs", "enumerate", "--n", "4"],
             "10c5cc97fda70a9a6be85425d0cec7fe5d67afb9ea115c2dc2486a2e1e95b476"),
            (["nnd", "--space", "generic-crs", "--n", "512", "--k", "8", "--mode", "pointwise",
              "--seed", "1"],
             "01d8e4e53dd66356993dda8ea96fe923fef653cae1838f741b431b711a2d37de"),
        ],
        ids=["embed-json", "embed-csv", "baranyai-component", "powers2-isolated",
             "enumerate-4", "nnd-generic"],
    )
    def test_pair_order_golden_sha256(self, argv, digest, tmp_path):
        # the outputs as written while pair orders were tuples of pairs
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fraction(self, tmp_path):
        out = tmp_path / "fraction.json"
        run(["crs", "fraction", "--n", "4", "--samples", "2000", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["exact"] == "1/5"


class TestDiag:
    def test_diameter_report(self, tmp_path):
        out = tmp_path / "diam.json"
        hist = tmp_path / "diam.csv"
        code = run(["diag", "diameter", "--n", "500", "--k", "3", "--trials", "3",
                    "--eps", "0.5", "--seed", "1", "--out", str(out),
                    "--histogram", str(hist)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["data"]["diameters"]) == 3
        assert hist.read_text().splitlines()[1] == "diameter,count"

    def test_diameter_golden_sha256(self, tmp_path):
        # the report as written while ranking.csr sorted its rows by comparison
        out = tmp_path / "diam.json"
        assert run(["diag", "diameter", "--n", "10000", "--k", "3", "--trials", "3",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fe7d9ea7c9723d6f6d0796c221ed2e8f89209c1917ebf95f130e813487466270")

    def test_diameter_k2_rejected(self, capsys):
        assert run(["diag", "diameter", "--n", "100", "--k", "2"]) == 3
        assert "K >= 3" in capsys.readouterr().err

    def test_expansion_report(self, tmp_path):
        out = tmp_path / "exp.json"
        run(["diag", "expansion", "--n", "2000", "--k", "16", "--sets", "200",
             "--seed", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["violations"] == 0


class TestOutputDiscipline:
    def test_version_prints_checksum(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"nndlab \d+\.\d+\.\d+ \(golden schedule sha256/12: [0-9a-f]{12}\)", out)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["2nrq", "schedule", "--n", "1e5", "--k", "20", "--d", "3"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_experiment_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["diag", "expansion", "--n", "300", "--k", "8", "--sets", "50", "--seed", "9"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNDLAB_OUTDIR", str(tmp_path))
        run(["crs", "fraction", "--n", "4", "--samples", "100", "--out", "frac.json"])
        assert (tmp_path / "frac.json").exists()

    def test_scientific_notation_counts(self):
        assert cli._count("1e3") == 1000
        with pytest.raises(Exception):
            cli._count("2.5")
