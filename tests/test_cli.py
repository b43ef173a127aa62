import json

import numpy as np
import pytest

from graphbandit.cli import main


def run_cli(args):
    return main(args)


class TestSimulate:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli([
            "simulate", "--algo", "exp3", "--algo", "exp3-ip", "--K", "3",
            "--T", "60", "--runs", "2", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["algorithms"] == ["exp3", "exp3-ip"]
        assert len(meta["p_tables"]) == 2
        captured = capsys.readouterr().out
        assert "final regret" in captured

    def test_outputs_byte_identical(self, tmp_path):
        args = ["simulate", "--algo", "exp3", "--K", "2", "--T", "40", "--runs", "2", "--seed", "9"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("results.csv", "summary.csv", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_graph_file_source(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("K=3\ncomplete\n")
        code = run_cli([
            "simulate", "--algo", "exp3-dom", "--graph", str(graph_file),
            "--T", "30", "--runs", "1",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "body, line, reason",
        [
            ("edge 1 2 0.5\n", 4, "too many fields in 'edge 1 2 0.5'; --p sets the probabilities"),
            ("edge 1 2\nedge 1 2\n", 5, "duplicate edge (1, 2)"),
        ],
        ids=["edge-with-probability", "duplicate"],
    )
    def test_bad_graph_file_is_config_error_naming_the_line(self, tmp_path, capsys, body, line, reason):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("K=2\nedge 1 1\nedge 2 2\n" + body)
        code = run_cli(["simulate", "--algo", "exp3-dom", "--graph", str(graph_file), "--T", "10", "--runs", "1"])
        assert code == 2
        assert f"{graph_file}:{line}: {reason}" in capsys.readouterr().err

    def test_missing_k_is_config_error(self, capsys):
        assert run_cli(["simulate", "--algo", "exp3", "--T", "10"]) == 2
        assert "--K" in capsys.readouterr().err

    def test_uninformative_with_informed_learner_is_config_error(self):
        code = run_cli([
            "simulate", "--algo", "exp3-ip", "--K", "3", "--T", "10", "--uninformative",
        ])
        assert code == 2

    def test_bad_probability_spec(self):
        assert run_cli(["simulate", "--algo", "exp3", "--K", "3", "--T", "10", "--p", "exact:1"]) == 2

    def test_graph_file_with_probabilities_is_config_error(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("K=2\n\ncomplete 0.5\n")
        code = run_cli(["simulate", "--algo", "exp3-dom", "--graph", str(graph_file), "--T", "10", "--runs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{graph_file}:3: too many fields in 'complete 0.5'; --p sets the probabilities" in err

    @pytest.mark.parametrize("flags, code", [(["--K", "5"], 2), (["--K", "1"], 2), (["--K", "3"], 0), ([], 0)],
                             ids=["more", "fewer", "matching", "absent"])
    def test_k_must_match_a_graph_file(self, tmp_path, capsys, flags, code):
        graph_file = tmp_path / "g3.txt"
        graph_file.write_text("K=3\nedge 1 1\nedge 2 2\nedge 3 3\nedge 1 2\n")
        args = ["simulate", "--algo", "exp3", "--graph", str(graph_file), "--T", "20", "--runs", "1"]
        assert run_cli(args + flags) == code
        lines = capsys.readouterr().err.splitlines()
        if code:
            assert lines == [f"error: --K {flags[1]} disagrees with {graph_file}, which has 3 experts"]

    def test_table_adversary(self, tmp_path):
        table = tmp_path / "losses.csv"
        rows = np.random.default_rng(0).random((50, 2))
        table.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in rows))
        code = run_cli([
            "simulate", "--algo", "exp3", "--K", "2", "--T", "50", "--runs", "1",
            "--adversary", f"table:{table}",
        ])
        assert code == 0

    def test_table_with_empty_first_row_cell_is_config_error(self, tmp_path):
        table = tmp_path / "losses.csv"
        table.write_text("0.1,,0.2\n0.2,0.3,0.1\n")
        code = run_cli(["simulate", "--algo", "exp3", "--K", "3", "--T", "1", "--adversary", f"table:{table}"])
        assert code == 2

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 9.31 GiB")])
    def test_out_of_memory_exits_3_with_one_error_line(self, monkeypatch, capsys, error):
        def refuse(num_experts):
            raise error

        monkeypatch.setattr("graphbandit.cli.NominalGraph.complete", refuse)
        assert run_cli(SIMULATE + ["--K", "100000"]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: out of memory. {error}".rstrip()]

    def test_doubling_schedule_flag(self):
        code = run_cli([
            "simulate", "--algo", "exp3-gr", "--K", "2", "--T", "30", "--runs", "1",
            "--schedule", "doubling", "--epsilon", "0.5", "--uninformative",
        ])
        assert code == 0


SIMULATE = ["simulate", "--algo", "exp3", "--T", "10", "--runs", "1"]


@pytest.mark.parametrize(
    "args, reason",
    [
        (SIMULATE + ["--K", "2", "--adversary", "gap:abc"], "bad adversary spec 'gap:abc'"),
        (SIMULATE + ["--K", "2", "--adversary", "gap:0"], "need 0 < gap <= base"),
        (SIMULATE + ["--K", "2", "--adversary", "switching:0.1,0"], "period must be an integer >= 1, got 0"),
        (SIMULATE + ["--K", "2", "--adversary", "switching:0.1,x"], "bad adversary spec 'switching:0.1,x'"),
        (SIMULATE + ["--K", "0"], "--K must be >= 1, got 0"),
        (SIMULATE + ["--graph", "{missing}"], "{missing}: cannot read: No such file or directory"),
        (SIMULATE + ["--K", "2", "--adversary", "table:{missing}"], "{missing}: cannot read: No such file or directory"),
        (["dataset", "--algo", "exp3", "--data", "{missing}", "--target", "y"],
         "{missing}: cannot read: No such file or directory"),
        (SIMULATE + ["--K", "2", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["dataset", "--algo", "exp3", "--data", "{data}", "--target", "y", "--runs", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["oracle", "--draws", "0"], "--draws must be >= 1"),
        (["oracle", "--draws", "-5"], "--draws must be >= 1"),
        (["oracle", "--draws", "10", "--seed", "-1"], "--seed >= 0"),
        (["dataset", "--algo", "exp3", "--data", "{short}", "--target", "y"],
         "training prefix has 4 rows; need at least 10"),
        (["simulate", "--algo", "exp3-gr", "--K", "1", "--T", "10", "--runs", "1", "--uninformative",
          "--schedule", "doubling", "--epsilon", "0.5"], "the doubling schedule needs K >= 2"),
        (SIMULATE + ["--K", "2", "--p", "exact:1"], "bad probability generator ('exact', 1.0): expected"),
        (SIMULATE + ["--K", "2", "--p", "equal"], "bad probability spec 'equal'"),
        (SIMULATE + ["--K", "2", "--p", "equal:0.1,0.2"], "bad probability generator ('equal', 0.1, 0.2): expected"),
        (SIMULATE + ["--K", "2", "--p", "uniform:0.3"], "bad probability generator ('uniform', 0.3): expected"),
        (SIMULATE + ["--K", "2", "--p", "uniform:0.5,0.2"], "need 0 < low <= high <= 1"),
        (SIMULATE + ["--K", "2", "--p", "equal:0"], "need 0 < p <= 1, got 0.0"),
        (SIMULATE + ["--K", "2", "--p", "equal:nan"], "need 0 < p <= 1, got nan"),
        (["dataset", "--algo", "exp3", "--data", "{data}", "--target", "y", "--split", "nan"],
         "split must be in (0, 1), got nan"),
        (["dataset", "--algo", "exp3", "--data", "{data}", "--target", "y", "--split", "inf"],
         "split must be in (0, 1), got inf"),
        (["dataset", "--algo", "exp3", "--data", "{data}", "--target", "y", "--split", "0"],
         "split must be in (0, 1), got 0.0"),
        (["dataset", "--algo", "exp3", "--data", "{data}", "--target", "y", "--split", "1"],
         "split must be in (0, 1), got 1.0"),
        (SIMULATE + ["--K", "2", "--T", "200", "--adversary", "table:{data}"],
         "bad loss table: loss table has 120 rows, horizon is 200"),
        (SIMULATE + ["--K", "3", "--adversary", "table:{data}"], "bad loss table: loss table has 2 columns, graph has 3"),
    ],
    ids=["gap-nonnumeric", "gap-zero", "switching-period-zero", "switching-period-nonnumeric", "k-zero",
         "missing-graph-file", "missing-table-csv", "missing-data-csv", "simulate-negative-seed",
         "dataset-negative-seed", "oracle-zero-draws", "oracle-negative-draws", "oracle-negative-seed",
         "dataset-short-training-prefix", "gr-doubling-one-expert", "p-unknown-kind", "p-no-value",
         "p-equal-two-values", "p-uniform-one-value", "p-uniform-reversed", "p-equal-zero", "p-equal-nan",
         "split-nan", "split-inf", "split-zero", "split-one", "table-short", "table-narrow"],
)
def test_bad_command_line_input_exits_2_with_one_error_line(tmp_path, capsys, args, reason):
    missing = str(tmp_path / "missing.txt")
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "\n".join(f"{i / 120},{(i % 5) / 5}" for i in range(120)))
    short = tmp_path / "short.csv"  # 40 rows: a 10% training prefix of 4
    short.write_text("x,y\n" + "\n".join(f"{i / 40},{(i % 5) / 5}" for i in range(40)))
    code = run_cli([arg.replace("{missing}", missing).replace("{data}", str(data)).replace("{short}", str(short))
                    for arg in args])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert reason.replace("{missing}", missing) in lines[0]


ROWS = "".join(f"{i / 30:.4f},{(i % 7) / 10:.4f},{(i % 5) / 5:.4f}\n" for i in range(30))


@pytest.mark.parametrize(
    "args, body",
    [
        (["dataset", "--algo", "exp3", "--data", "{csv}", "--target", "z"], "a,b,y,z\n" + ROWS),
        (["dataset", "--algo", "exp3", "--data", "{csv}", "--target", "y"], "a,y\n" + ROWS),
        (SIMULATE + ["--K", "2", "--adversary", "table:{csv}"], "a,a\n" + "0.1,0.2\n" * 30),
        (SIMULATE + ["--K", "3", "--adversary", "table:{csv}"], "a,b\n" + ROWS),
    ],
    ids=["dataset-header-wider", "dataset-header-narrower", "table-header-repeated", "table-header-narrower"],
)
def test_header_must_name_every_column_once(tmp_path, capsys, args, body):
    path = tmp_path / "in.csv"
    path.write_text(body)
    code = run_cli([arg.replace("{csv}", str(path)) for arg in args])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "header" in lines[0]


class TestDataset:
    def test_pipeline_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = ["x1,x2,y"]
        for _ in range(150):
            a, b = rng.random(2)
            rows.append(f"{a:.4f},{b:.4f},{0.4 * a + 0.1:.4f}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows))
        out = tmp_path / "results"
        code = run_cli([
            "dataset", "--algo", "exp3-up", "--algo", "exp3-gr", "--uninformative",
            "--data", str(data), "--target", "y", "--runs", "2", "--M", "3",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert "final mse" in capsys.readouterr().out
        assert (out / "results.csv").exists()

    def test_missing_target_column(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n" + "\n".join("0.1,0.2" for _ in range(25)))
        assert run_cli(["dataset", "--algo", "exp3", "--data", str(data), "--target", "zzz"]) == 2

    def test_duplicate_header_names(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,y,y\n" + "\n".join("0.1,0.2,0.3" for _ in range(25)))
        assert run_cli(["dataset", "--algo", "exp3", "--data", str(data), "--target", "y"]) == 2

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--p", "equal:0"], "bad probability generator ('equal', 0.0)"),
            (["--graph", "{missing}"], "{missing}: cannot read"),
            (["--graph", "{graph3}"], "bad dataset bundle: 9 experts, the graph has 3"),
            (["--schedule", "bogus"], "unknown schedule 'bogus'"),
            (["--T", "0"], "horizon must be an integer >= 1, got 0"),
            (["--M", "0"], "min_observations must be an integer >= 1, got 0"),
            (["--runs", "0"], "runs must be an integer >= 1, got 0"),
            (["--xi", "0.5"], "confidence_width"),
            (["--uninformative", "--algo", "exp3-ip"], "exp3-ip needs the informative setting"),
        ],
        ids=["p", "graph-missing", "graph-three-experts", "schedule", "horizon-zero", "floor-zero", "runs-zero",
             "xi-below-one", "uninformative-exp3-ip"],
    )
    def test_flags_checked_before_the_data_is_read(self, tmp_path, monkeypatch, capsys, flags, reason):
        def refuse(*args, **kwargs):
            raise AssertionError("the data was read before every flag was checked")

        monkeypatch.setattr("graphbandit.cli.load_csv", refuse)
        monkeypatch.setattr("graphbandit.cli.train_expert_pool", refuse)
        missing, graph3 = str(tmp_path / "missing.txt"), tmp_path / "graph3.txt"
        graph3.write_text("K=3\ncomplete\n")
        flags = [flag.replace("{missing}", missing).replace("{graph3}", str(graph3)) for flag in flags]
        code = run_cli(["dataset", "--algo", "exp3", "--data", missing, "--target", "y", *flags])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and reason.replace("{missing}", missing) in lines[0]


class TestOracle:
    def test_small_suite_passes(self, capsys):
        code = run_cli(["oracle", "--draws", "40000", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all" in out and "passed" in out
        assert "FAIL" not in out
