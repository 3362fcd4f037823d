"""CLI subcommands: formats, reproducibility, exit codes."""

import csv
import io
import json
import math

import pytest

from qbacktrack.cli import main


def reject(constant):
    raise ValueError(f"non-JSON constant {constant}")


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text()


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.json"
    assert main(["gen-tree", "--kind", "star", "--size", "8", "--marked", "2",
                 "--output", str(path)]) == 0
    return str(path)


@pytest.fixture()
def unmarked_file(tmp_path):
    path = tmp_path / "bare.json"
    assert main(["gen-tree", "--kind", "path", "--size", "4", "--marked", "0",
                 "--output", str(path)]) == 0
    return str(path)


class TestGenTree:
    def test_random_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(["gen-tree", "--kind", "random", "--size", "30", "--degree", "3",
                     "--mark-prob", "0.2", "--seed", "5", "--output", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["vertices"]) == 30

    def test_dpll_from_file(self, tmp_path):
        cnf = tmp_path / "cnf.json"
        cnf.write_text(json.dumps({"clauses": [[1]], "var_order": [1]}))
        path = tmp_path / "d.json"
        assert main(["gen-tree", "--kind", "dpll", "--cnf", str(cnf),
                     "--output", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["vertices"]) == 2

    def test_dpll_without_cnf_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-tree", "--kind", "dpll", "--output", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "--kind dpll needs --cnf" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [{"clauses": [[1]]}, {"var_order": [1]}, [[1]]])
    def test_dpll_malformed_cnf_exits_2(self, data, tmp_path, capsys):
        cnf = tmp_path / "cnf.json"
        cnf.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["gen-tree", "--kind", "dpll", "--cnf", str(cnf),
                  "--output", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "'clauses' and 'var_order'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"clauses": [1], "var_order": [1]}, "bad clauses [1]"),
            ({"clauses": [[1]], "var_order": 3}, "bad var_order 3"),
            ({"clauses": [[True]], "var_order": [1]}, "bad literal True"),
            ({"clauses": [[1]], "var_order": [True]}, "bad var_order [True]"),
        ],
    )
    def test_dpll_bad_clauses_or_order_exit_2(self, data, message, tmp_path, capsys):
        cnf = tmp_path / "cnf.json"
        cnf.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["gen-tree", "--kind", "dpll", "--cnf", str(cnf),
                  "--output", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestResistance:
    def test_star_values(self, star_file, tmp_path):
        code, text = run_cli(["resistance", "--tree", star_file], tmp_path)
        assert code == 0
        data = json.loads(text)
        assert data["eta_bar_root"] == pytest.approx(0.5)
        assert data["kappa"]["0"] == pytest.approx(math.sqrt(2))

    def test_unmarked_reports_infinite(self, unmarked_file, tmp_path):
        code, text = run_cli(["resistance", "--tree", unmarked_file], tmp_path)
        assert code == 0
        assert json.loads(text)["eta_bar_root"] == "inf"


class TestSpectrum:
    def test_weights_sum_to_one(self, star_file, tmp_path):
        # star_64_4 has repeated +/-1 eigenvalues, on which a Schur basis is
        # not orthonormal: there its root weights summed to 1.124 and 1.219
        big_star = tmp_path / "star64.json"
        assert main(["gen-tree", "--kind", "star", "--size", "64", "--marked", "4",
                     "--output", str(big_star)]) == 0
        for tree, eta in [(star_file, "0.5"), (str(big_star), "1"), (str(big_star), "0.25")]:
            code, text = run_cli(["spectrum", "--tree", tree, "--eta", eta], tmp_path)
            assert code == 0
            rows = json.loads(text)
            assert sum(r["weight"] for r in rows) == pytest.approx(1.0, abs=1e-10), (tree, eta)


class TestRunners:
    def test_estimate_res_json_rows(self, star_file, tmp_path):
        code, text = run_cli(
            ["estimate-res", "--tree", star_file, "--seed", "3", "--trials", "2"], tmp_path
        )
        assert code == 0
        rows = json.loads(text)
        assert len(rows) == 2
        assert set(rows[0]) == {"outcome", "walk_queries", "f_queries", "h_queries", "steps"}

    def test_csv_format(self, star_file, tmp_path):
        code, text = run_cli(
            ["estimate-res", "--tree", star_file, "--seed", "3", "--out", "csv"],
            tmp_path,
            "out.csv",
        )
        assert code == 0
        header = text.splitlines()[0]
        assert header == "outcome,walk_queries,f_queries,h_queries,steps"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-all", "--count", "4", "--seed", "11"],
            ["grover-scaling", "--sizes", "8,16", "--marked", "2", "--trials", "1"],
            ["resistance"],
        ],
        ids=["verify-all", "grover-scaling", "resistance"],
    )
    def test_csv_nested_cells_are_strict_json(self, argv, star_file, tmp_path):
        if argv == ["resistance"]:
            argv = ["resistance", "--tree", star_file]
        _, text = run_cli(argv + ["--out", "csv"], tmp_path, "out.csv")
        rows = list(csv.reader(io.StringIO(text)))
        nested = [cell for row in rows[1:] for cell in row if cell[:1] in "{["]
        assert nested
        for cell in nested:
            json.loads(cell, parse_constant=reject)
        assert not any("np." in cell for row in rows for cell in row)

    def test_find_marked_returns_marked(self, star_file, tmp_path):
        code, text = run_cli(["find-marked", "--tree", star_file, "--seed", "1"], tmp_path)
        rows = json.loads(text)
        assert rows[0]["outcome"] in (1, 2)

    def test_detect_unmarked(self, unmarked_file, tmp_path):
        code, text = run_cli(["detect", "--tree", unmarked_file, "--seed", "2"], tmp_path)
        assert json.loads(text)[0]["outcome"] is False

    def test_find_all_recovers(self, star_file, tmp_path):
        code, text = run_cli(["find-all", "--tree", star_file, "--seed", "4"], tmp_path)
        row = json.loads(text)[0]
        assert sorted(row["outcome"].split(",")) == ["1", "2"]

    @pytest.mark.parametrize(
        "command", ["estimate-res", "find-marked", "find-all", "detect", "grover-scaling"]
    )
    def test_jobs_flag_rejected(self, command, star_file, tmp_path, capsys):
        target = ["--sizes", "8,16"] if command == "grover-scaling" else ["--tree", star_file]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *target, "--jobs", "1"], tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate-res", "find-marked"])
    def test_trial_rows_do_not_depend_on_trial_count(self, command, star_file, tmp_path):
        _, two = run_cli([command, "--tree", star_file, "--seed", "5", "--trials", "2"], tmp_path, "a.json")
        _, four = run_cli([command, "--tree", star_file, "--seed", "5", "--trials", "4"], tmp_path, "b.json")
        assert json.loads(two) == json.loads(four)[:2]


class TestTrialsFlag:
    @pytest.mark.parametrize(
        "command", ["estimate-res", "find-marked", "find-all", "detect", "descent-sim", "grover-scaling"]
    )
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_below_one_rejected(self, command, trials, star_file, tmp_path, capsys):
        target = ["--sizes", "8,16"] if command == "grover-scaling" else ["--tree", star_file]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *target, "--trials", trials], tmp_path)
        assert exc.value.code == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err


class TestUsageErrors:
    """A library ValueError on user input, or a file that cannot be read or written, exits 2
    with its message, not a traceback.

    ``verify-all --count 0`` is covered by ``TestVerifyAll.test_empty_corpus_rejected``.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grover-scaling", "--sizes", "64"], "two distinct sizes"),
            (["grover-scaling", "--sizes", "8,16", "--marked", "20"], "marked count 20 outside"),
            (["gen-tree", "--kind", "star", "--size", "4", "--marked", "9"], "num_marked"),
            (["find-marked", "--tree", "SELF_LOOP"], "its own or the root's child"),
        ],
    )
    def test_value_error_exits_2(self, argv, message, tmp_path, capsys):
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps(
            {"root": 0, "vertices": [{"id": 0, "children": [0], "marked": False}]}
        ))
        argv = [str(loop) if a == "SELF_LOOP" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, tmp_path)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--gamma2", "0"),
            ("--gamma2", "-1"),
            ("--gamma2", "nan"),
            ("--gamma1", "inf"),
            ("--gamma1", "1e308"),
        ],
    )
    def test_bad_gamma_exits_2_naming_it(self, flag, value, star_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["estimate-res", "--tree", star_file, flag, value], tmp_path)
        assert exc.value.code == 2
        assert f"error: {flag[2:]} " in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_exits_2_naming_it(self, eta, star_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", "--tree", star_file, "--eta", eta], tmp_path)
        assert exc.value.code == 2
        assert "error: eta must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate-res", "resistance"])
    def test_missing_tree_file_exits_2_naming_it(self, command, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--tree", str(missing)], tmp_path)
        assert exc.value.code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "gen-tree"])
    def test_output_directory_exits_2_naming_it(self, command, star_file, tmp_path, capsys):
        argv = ["gen-tree", "--kind", "star"] if command == "gen-tree" else [command, "--tree", star_file]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path)])
        assert exc.value.code == 2
        assert str(tmp_path) in capsys.readouterr().err


class TestDescentSim:
    def test_report_fields(self, star_file, tmp_path):
        code, text = run_cli(
            ["descent-sim", "--tree", star_file, "--trials", "500", "--seed", "0"], tmp_path
        )
        assert code == 0
        data = json.loads(text)
        assert data["violated"] is False
        assert data["expected_steps_exact"] == pytest.approx(1.0)

    def test_unmarked_tree_errors(self, unmarked_file, tmp_path):
        code, text = run_cli(
            ["descent-sim", "--tree", unmarked_file, "--trials", "10", "--seed", "0"], tmp_path
        )
        assert code == 1

    def test_one_trial_is_strict_json(self, star_file, tmp_path):
        code, text = run_cli(["descent-sim", "--tree", star_file, "--trials", "1"], tmp_path)
        assert code == 0
        data = json.loads(text, parse_constant=reject)
        assert data["mc_stderr"] == "inf"


class TestVerifyAll:
    def test_small_corpus_passes(self, tmp_path):
        code, text = run_cli(["verify-all", "--count", "6", "--seed", "11"], tmp_path)
        assert code == 0
        data = json.loads(text)
        assert data["passed"] is True

    def test_fault_injection_fails_and_names_check(self, tmp_path):
        code, text = run_cli(
            ["verify-all", "--count", "4", "--seed", "11", "--fault", "kappa_perturbation"],
            tmp_path,
        )
        assert code == 1
        data = json.loads(text)
        failures = data["suites"]["kappa_identities"]["failures"]
        assert any(f["check"] == "child_sum" for f in failures)

    def test_unknown_fault_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-all", "--count", "3", "--fault", "typo"], tmp_path)
        assert exc.value.code == 2
        assert "unknown fault 'typo'" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_empty_corpus_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-all", "--count", "0", "--seed", "1"], tmp_path)
        assert exc.value.code == 2
        assert "no trees" in capsys.readouterr().err


class TestReproducibility:
    def test_spec_replay_byte_identical(self, star_file, tmp_path):
        out1 = tmp_path / "r1.json"
        spec = tmp_path / "spec.json"
        assert main([
            "estimate-res", "--tree", star_file, "--seed", "42",
            "--output", str(out1), "--save-spec", str(spec),
        ]) == 0
        first = out1.read_bytes()
        out1.unlink()
        assert main(["run", "--spec", str(spec)]) == 0
        assert out1.read_bytes() == first

    @pytest.mark.parametrize(
        "spec",
        [
            {"command": "estimate-res"},
            {"command": 1, "options": {}},
            {"command": "detect", "options": []},
            {"command": "run", "options": {}},
            [],
        ],
    )
    def test_malformed_spec_exits_2(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--spec", str(path)])
        assert exc.value.code == 2
        assert str(path) in capsys.readouterr().err

    def test_unknown_spec_key_exits_2_naming_it(self, star_file, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"command": "detect", "options": {"tree": star_file, "jobs": 2}}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--spec", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'jobs'" in err

    def test_same_seed_same_bytes(self, star_file, tmp_path):
        _, a = run_cli(["find-marked", "--tree", star_file, "--seed", "9"], tmp_path, "a.json")
        _, b = run_cli(["find-marked", "--tree", star_file, "--seed", "9"], tmp_path, "b.json")
        assert a == b

    def test_environment_is_ignored(self, star_file, tmp_path, monkeypatch):
        _, plain = run_cli(["estimate-res", "--tree", star_file], tmp_path, "a.json")
        monkeypatch.setenv("QBACKTRACK_TRIALS", "3")
        monkeypatch.setenv("QBACKTRACK_SEED", "5")
        _, with_env = run_cli(["estimate-res", "--tree", star_file], tmp_path, "b.json")
        assert with_env == plain
