import hashlib
import json
import re
import resource

import numpy as np
import pytest

from nndlab import cli, concordance, descent, diagnostics, ranking, spaces
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

    @pytest.mark.parametrize("value", ["1e308", "-1e308", "1e-308", "0"])
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["2nrq", "schedule", "--n", "1000", "--k", "8", "--d", "2", "--format", "json"],
             "--alpha"),
            (["2nrq", "simulate", "--n", "1000", "--k", "8", "--d", "2", "--sample-vertices", "2"],
             "--alpha"),
            (["diag", "diameter", "--n", "10", "--k", "3", "--trials", "1"], "--eps"),
            (["diag", "expansion", "--n", "200", "--k", "3", "--sets", "3"], "--alpha"),
            (["diag", "expansion", "--n", "200", "--k", "3", "--sets", "3"], "--eps"),
        ],
        ids=["schedule-alpha", "simulate-alpha", "diameter-eps", "expansion-alpha",
             "expansion-eps"],
    )
    def test_extreme_finite_floats_exit_0_or_3_with_strict_json(self, argv, option, value,
                                                                 tmp_path):
        # an eps of +-1e308 wrote an infinite diameter bound, and an alpha of
        # -1e308 an OverflowError traceback, from the set-size bound
        out = tmp_path / "out.json"
        got = run(argv + [f"{option}={value}", "--out", str(out)])
        assert got in (0, 3)
        if got == 0:
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

    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (["--space", "random-ranking", "--n", "600", "--k", "6", "--seed", "4"],
             "3f3a8d673d571aff41959d051057f02ef150de8a3527f0171839fc285716a4e1"),
            (["--space", "random-ranking", "--n", "600", "--k", "6", "--seed", "4",
              "--mode", "pointwise"],
             "256d88a1920ee00e1f4e1175666e238cbad72f7c2dfb2b345d51619a57afd57b"),
            (["--space", "paris", "--n", "2048", "--k", "8", "--mode", "pointwise"],
             "c4629e924cd69c22e7ec42ef3d4bc977eea6323e16d52acc936a9cbe8973407d"),
        ],
        ids=["random-batch", "random-pointwise", "paris-pointwise"],
    )
    def test_descent_golden_sha256(self, argv, digest, tmp_path):
        # the reports as written while top_k partitioned the pool before sorting it
        out = tmp_path / "report.json"
        assert run(["nnd"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (["--space", "circle", "--n", "300", "--k", "6", "--seed", "3"],
             "32f1f0d00d84775c8cd579714cfae97931bcfa133fbb4ea487d9576964db6e30"),
            (["--space", "powers2", "--n", "40", "--k", "4"],
             "46b30e9e44ac32136f285ac7ce42b5661f43d58a02f2b3ab75c2b7a24f482ab8"),
            # written with lcs_m in its config; the data are pinned in test_lcs_data_golden_sha256
            (["--space", "lcs", "--n", "60", "--k", "4", "--seed", "2", "--lcs-m", "12"],
             "32e82b66858ffeef44feb31c1380ba2a685e4c63f294053eff19a276cd9afc26"),
        ],
        ids=["circle", "powers2", "lcs"],
    )
    def test_space_golden_sha256(self, argv, digest, tmp_path):
        # the reports as written while each metric space also had a per-pair distance
        out = tmp_path / "report.json"
        assert run(["nnd"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_lcs_data_golden_sha256(self, tmp_path):
        # the report's data as written while the config left lcs_m out
        out = tmp_path / "report.json"
        argv = ["--space", "lcs", "--n", "60", "--k", "4", "--seed", "2", "--lcs-m", "12"]
        assert run(["nnd"] + argv + ["--out", str(out)]) == 0
        data = json.dumps(json.loads(out.read_text())["data"], indent=2, sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == (
            "1ae76970d32e6cf5c4ea4eb2cb1b05a37f8070abc67218d014d74f84466ef661"
        )

    @pytest.mark.parametrize(
        "space", ["paris", "circle", "powers2", "lcs", "random-ranking", "generic-crs"])
    def test_table_cap_refused_before_building(self, space, monkeypatch, capsys):
        # a paris table one item past the cap would be an 8.6 GB distance matrix
        def refuse(*args, **kwargs):
            raise AssertionError("a space was built before the table cap was checked")

        for name in ("paris_space", "circle_sample", "powers_of_two_space", "lcs_sample",
                     "random_ranking_table", "rank_table"):
            monkeypatch.setattr(spaces, name, refuse)
        monkeypatch.setattr(concordance, "generic_crs", refuse)
        n = str(ranking.MAX_TABLE_ITEMS + 1)
        assert run(["nnd", "--space", space, "--n", n, "--k", "4"]) == 3
        assert "exceeds the rank-table cap" in capsys.readouterr().err

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

    def test_simulate_empty_sample_names_realized_count(self, capsys):
        # seed 0 draws no points at n=5; the error named "n >= 1" before
        assert run(["2nrq", "simulate", "--n", "5", "--k", "3", "--d", "1"]) == 3
        assert "realized point count 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["schedule", "simulate"])
    def test_rate_above_alpha_at_r1_names_k_over_n_alpha(self, command, capsys):
        # K/(n alpha) = 30 > 1 leaves no admissible radius; the error named
        # "r_prev must lie in the admissible range" before
        assert run(["2nrq", command, "--n", "10", "--k", "3", "--d", "1",
                    "--alpha", "0.01"]) == 3
        err = capsys.readouterr().err
        assert "K/(n*alpha)" in err and "exceeds 1" in err and "r_prev" not in err

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
            (["crs", "enumerate", "--n", "5"],
             "33889f7f8b6d8ed6fdcd0ef9fdb773e505750365aa25ad0cc77d0013226b230a"),
            (["nnd", "--space", "generic-crs", "--n", "512", "--k", "8", "--mode", "pointwise",
              "--seed", "1"],
             "01d8e4e53dd66356993dda8ea96fe923fef653cae1838f741b431b711a2d37de"),
        ],
        ids=["embed-json", "embed-csv", "baranyai-component", "powers2-isolated",
             "enumerate-4", "enumerate-5", "nnd-generic"],
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

    def test_fraction_golden_sha256(self, tmp_path):
        # the report as written before cli estimated a command's memory
        out = tmp_path / "fraction.json"
        assert run(["crs", "fraction", "--n", "5", "--samples", "1000", "--seed", "4",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4bb448c054f1aebb0a2a5f2de817167e590c0fa7170bb9793ed81dd0bc2885e7")


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

    def test_diameter_histogram_golden_sha256(self, tmp_path):
        # the histogram as written while cmd_diag_diameter wrote both of its files
        hist = tmp_path / "diam.csv"
        assert run(["diag", "diameter", "--n", "200", "--k", "3", "--trials", "3", "--seed", "1",
                    "--out", str(tmp_path / "diam.json"), "--histogram", str(hist)]) == 0
        assert hashlib.sha256(hist.read_bytes()).hexdigest() == (
            "dfe1c69a1991c21f071f2aefc300d6d3ab1dfeb4616a2014d65cf3df582cbd7b")

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

    def test_expansion_golden_sha256(self, tmp_path):
        # the report as written while ExpansionReport listed its fields by hand
        out = tmp_path / "exp.json"
        assert run(["diag", "expansion", "--n", "2000", "--k", "8", "--sets", "500",
                    "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fa88ee34a0e5c661c6ed349176c20bcced872eb3d7bf88252113ce3780fe6f7e")

    def test_expansion_dense_draw_golden_sha256(self, tmp_path):
        # K > (n - 1) / 2 takes random_kout's dense path; written before cli
        # estimated a command's memory
        out = tmp_path / "exp.json"
        assert run(["diag", "expansion", "--n", "40", "--k", "30", "--alpha", "0.5",
                    "--sets", "50", "--seed", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a4c23f1bc07be7debb7a1821f2b482520b0025a636df888dc363c48650c07ffc")

    @pytest.mark.parametrize("alpha", ["3.9", "1e308"])
    def test_expansion_sets_stay_below_n(self, alpha, tmp_path):
        # alpha n / ln n at or past n once reached rng.choice, or int() as infinity
        out = tmp_path / "exp.json"
        assert run(["diag", "expansion", "--n", "10", "--k", "3", "--alpha", alpha,
                    "--sets", "20", "--out", str(out)]) == 0
        assert strict_json(out.read_text())["data"]["max_size"] == 9

    def test_expansion_report(self, tmp_path):
        out = tmp_path / "exp.json"
        run(["diag", "expansion", "--n", "2000", "--k", "16", "--sets", "200",
             "--seed", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["data"]["violations"] == 0


class TestMemoryRefusal:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            # float64 keys and their int64 argsort, N wide, for 4096 samples at a time
            (["crs", "fraction", "--n", "100"], 16 * 4096 * 4950),
            (["crs", "fraction", "--n", "100", "--samples", "10"], 16 * 10 * 4950),
            (["crs", "embed", "--n", "2000"], 24 * 2000 * 1_999_000),
            (["crs", "embed", "--n", "2000", "--format", "json"], 40 * 2000 * 1_999_000),
            (["crs", "embed", "--example", "concordant5", "--n", "2000"], 0),
            # near 480 bytes per pair, and 13 more per pair of each order of a component
            (["crs", "special", "--kind", "baranyai", "--n", "1000"], 480 * 499_500),
            (["crs", "special", "--kind", "baranyai", "--n", "40", "--check", "component"],
             (480 + 13 * 20_000) * 780),
            (["crs", "special", "--kind", "eulerian", "--n", "41", "--check", "component"],
             (480 + 13) * 820),
            # K > (n - 1) / 2 draws dense n x n keys
            (["diag", "expansion", "--n", "100000", "--k", "99999"], 16 * 100_000 ** 2),
            (["diag", "expansion", "--n", "100000", "--k", "8"], 16 * 100_000 * 8),
            (["diag", "expansion", "--n", "10", "--k", "10"], 0),
            # below the exact-diameter limit the BFS gathers 157 words per arc
            (["diag", "diameter", "--n", "10000", "--k", "3"],
             16 * 30_000 + (64 + 8 * 157) * 60_000),
            (["diag", "diameter", "--n", "30000", "--k", "3"], 16 * 90_000 + 64 * 180_000),
            (["diag", "diameter", "--n", "100", "--k", "60"], 16 * 100 ** 2 + (64 + 16) * 12_000),
            (["diag", "diameter", "--n", "1e10", "--k", "2"], 0),
            # the rank table's build peaks near 28 bytes per pair of items
            (["nnd", "--space", "paris", "--n", "2048", "--k", "8"], 28 * 2048 ** 2),
        ],
        ids=["fraction", "fraction-few", "embed-csv", "embed-json", "embed-example", "special",
             "special-component", "special-isolated", "expansion-dense", "expansion-sparse",
             "expansion-bad-k", "diameter-bitset", "diameter-interval", "diameter-dense",
             "diameter-k2", "nnd"],
    )
    def test_dense_bytes(self, argv, expected):
        assert cli.dense_bytes(cli.build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize(
        "argv,builder",
        [
            (["crs", "fraction", "--n", "100000"], (concordance, "white_edge_fraction")),
            (["crs", "embed", "--n", "30000"], (concordance, "generic_crs")),
            (["crs", "special", "--kind", "baranyai", "--n", "1e6"],
             (concordance, "baranyai_order")),
            (["diag", "expansion", "--n", "1e8", "--k", "99999999", "--sets", "1"],
             (descent, "random_kout")),
            (["diag", "diameter", "--n", "1e8", "--k", "99999999", "--trials", "1"],
             (diagnostics, "diameter_experiment")),
        ],
        ids=["fraction", "embed", "special", "expansion", "diameter"],
    )
    def test_refused_before_building(self, argv, builder, monkeypatch, capsys):
        # each of these once ended in a MemoryError traceback
        def refuse(*args, **kwargs):
            raise AssertionError("an array was built before the memory estimate")

        monkeypatch.setattr(*builder, refuse)
        assert run(argv) == 4
        assert capsys.readouterr().err.startswith(f"refused: {argv[0]} {argv[1]} needs about")

    def test_budget_is_a_share_of_physical_memory(self, monkeypatch, capsys):
        argv = ["crs", "fraction", "--n", "5", "--samples", "1000"]
        monkeypatch.setattr(cli, "MEMORY_FRACTION", 1e-12)
        assert run(argv) == 4
        assert capsys.readouterr().err.startswith("refused: crs fraction needs about")
        monkeypatch.setattr(cli, "MEMORY_FRACTION", 0.5)
        assert run(argv) == 0

    def test_budget_is_a_share_of_the_address_space_limit(self, monkeypatch, capsys):
        # under ulimit -v 1500000 this once ended in a MemoryError traceback
        def refuse(*args, **kwargs):
            raise AssertionError("an order was built before the memory estimate")

        monkeypatch.setattr(concordance, "baranyai_order", refuse)
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (1_500_000 * 1024, resource.RLIM_INFINITY))
        assert run(["crs", "special", "--kind", "baranyai", "--n", "3000"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("refused: crs special needs about 2.0 GiB")
        assert err.rstrip().endswith("of the 1.4 GiB address-space limit (RLIMIT_AS)")

    def test_unlimited_address_space_keeps_the_physical_budget(self, monkeypatch, capsys):
        argv = ["crs", "fraction", "--n", "5", "--samples", "1000"]
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
        assert run(argv) == 0
        monkeypatch.setattr(cli, "MEMORY_FRACTION", 1e-12)
        assert run(argv) == 4
        assert capsys.readouterr().err.rstrip().endswith("GiB of physical memory")

    def test_nnd_refused_before_building(self, monkeypatch, capsys):
        # n is capped at 2^15, where the estimate fits a large host, so the budget shrinks
        def refuse(*args, **kwargs):
            raise AssertionError("a rank table was built before the memory estimate")

        monkeypatch.setattr(spaces, "rank_table", refuse)
        monkeypatch.setattr(cli, "MEMORY_FRACTION", 1e-12)
        assert run(["nnd", "--space", "paris", "--n", "64", "--k", "4"]) == 4
        assert capsys.readouterr().err.startswith("refused: nnd needs about")

    def test_embed_above_table_cap_exits_3(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a system was built before the table cap was checked")

        monkeypatch.setattr(concordance, "generic_crs", refuse)
        assert run(["crs", "embed", "--n", str(ranking.MAX_TABLE_ITEMS + 1)]) == 3
        assert "exceeds the rank-table cap" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["nnd", "--space", "lcs", "--n", "30", "--k", "4", "--seed", "2", "--lcs-m", "12"],
            ["nnd", "--space", "paris", "--n", "64", "--k", "4", "--seed", "1"],
            ["2nrq", "simulate", "--n", "300", "--k", "12", "--d", "2", "--seed", "3",
             "--sample-vertices", "20", "--idealized-inputs"],
            ["2nrq", "schedule", "--n", "1e5", "--k", "20", "--d", "3"],
            ["2nrq", "schedule", "--n", "1e5", "--k", "20", "--d", "3", "--format", "json"],
            ["crs", "enumerate", "--n", "3"],
            ["crs", "embed", "--example", "concordant5", "--format", "json"],
            ["crs", "embed", "--n", "6", "--seed", "2"],
            ["crs", "special", "--kind", "baranyai", "--n", "6", "--check", "component"],
            ["crs", "fraction", "--n", "5", "--samples", "1000", "--seed", "4"],
            ["diag", "diameter", "--n", "200", "--k", "3", "--trials", "3", "--seed", "1"],
            ["diag", "expansion", "--n", "200", "--k", "4", "--sets", "100", "--seed", "2"],
        ],
        ids=["nnd-lcs", "nnd-paris", "simulate", "schedule-csv", "schedule-json", "enumerate",
             "embed-concordant5", "embed-generic", "special", "fraction", "diameter", "expansion"],
    )
    def test_config_header_reproduces_output(self, argv, tmp_path):
        # the command is rebuilt from the header alone, plus --out and the file's --format
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(argv + ["--out", str(first)]) == 0
        text = first.read_text()
        csv = text.startswith("# config: ")
        config = json.loads(text.splitlines()[0][len("# config: "):] if csv else text)
        if not csv:
            config = config["config"]
        rerun = config.pop("command").split()
        for key, value in config.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                rerun.append(flag)
            elif value is not None and value is not False:
                rerun += [flag, str(value)]
        if rerun[:2] in (["2nrq", "schedule"], ["crs", "embed"]):
            rerun += ["--format", "csv" if csv else "json"]
        assert run(rerun + ["--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNDLAB_OUTDIR", str(tmp_path))
        run(["crs", "fraction", "--n", "4", "--samples", "100", "--out", "frac.json"])
        assert (tmp_path / "frac.json").exists()

    @pytest.mark.parametrize("under", ["file", "dir"])
    def test_unwritable_out_exits_3(self, under, tmp_path, capsys):
        # a path under a regular file, or a directory, was a traceback (exit 1)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "x.json") if under == "file" else str(tmp_path) + "/"
        assert run(["crs", "enumerate", "--n", "3", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}") and captured.out == ""

    def test_unwritable_histogram_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        hist = str(blocker / "h.csv")
        assert run(["diag", "diameter", "--n", "200", "--k", "3", "--trials", "2",
                    "--out", str(tmp_path / "d.json"), "--histogram", hist]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {hist}")

    def test_scientific_notation_counts(self):
        assert cli._count("1e3") == 1000
        with pytest.raises(Exception):
            cli._count("2.5")
