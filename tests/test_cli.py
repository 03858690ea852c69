"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.data.adult import adult_schema
from repro.data.io import read_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestUsageErrors:
    """A rejected argument value is one line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bucketize", "--records", "100", "-l", "0"], "l must be positive, got 0"),
            (["assess", "--records", "0"], "n_records must be positive, got 0"),
            (
                ["utility", "--records", "100", "--queries", "-1"],
                "n_queries must be positive",
            ),
        ],
        ids=["bucketize-l", "assess-records", "utility-queries"],
    )
    def test_library_rejection_is_a_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"privacy-maxent: error: ReproError: {message}\n"

    @pytest.mark.parametrize("command", ["assess", "utility"])
    def test_negative_k_is_rejected_at_parse_time(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--records", "100", "--k", "-3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --k: must be non-negative, got -3" in err
        assert "-2" not in err

    def test_no_traceback_from_the_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "bucketize", "--records", "100", "-l", "0"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "l must be positive, got 0" in result.stderr
        assert "Traceback" not in result.stderr


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "adult.csv"
        code = main(["generate", str(out), "--records", "50", "--seed", "1"])
        assert code == 0
        table = read_csv(out, adult_schema())
        assert table.n_rows == 50
        assert "wrote 50 records" in capsys.readouterr().out


class TestMine:
    def test_prints_rules(self, capsys):
        code = main(
            [
                "mine",
                "--records", "200",
                "--max-antecedent", "1",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "positive" in out
        assert "=>" in out


class TestBucketize:
    def test_reports_buckets(self, capsys):
        code = main(["bucketize", "--records", "100", "-l", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "20 buckets" in out


class TestAssess:
    def test_prints_assessment_table(self, capsys):
        code = main(
            [
                "assess",
                "--records", "150",
                "--max-antecedent", "1",
                "--k", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "est_accuracy" in out
        assert "Top-(0+, 0-)" in out
        assert "Top-(5+, 5-)" in out


class TestUtility:
    def test_baseline_only(self, capsys):
        code = main(["utility", "--records", "200", "--queries", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean rel. error" in out
        assert "no knowledge" in out

    def test_with_knowledge_rows(self, capsys):
        code = main(
            [
                "utility",
                "--records", "200",
                "--queries", "5",
                "--max-antecedent", "1",
                "--k", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-(5+, 5-)" in out


class TestFigure:
    def test_unknown_figure(self, capsys):
        code = main(["figure", "99"])
        assert code == 2

    def test_figure5_small(self, capsys):
        code = main(["figure", "5", "--records", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "legend" in out


class TestIngestCommand:
    @pytest.fixture()
    def sqlite_source(self, tmp_path):
        from repro.data.adult import load_adult_synthetic
        from repro.data.connectors import table_to_sqlite

        path = tmp_path / "adult.db"
        table_to_sqlite(load_adult_synthetic(n_records=120, seed=3), path)
        return path

    QI = [
        "age", "workclass", "marital_status", "occupation",
        "relationship", "race", "sex", "native_region",
    ]

    def test_embedded_ingest_registers(self, sqlite_source, capsys):
        code = main(
            ["ingest", str(sqlite_source), "--qi", *self.QI,
             "--sa", "education", "-l", "3", "--chunk-rows", "50",
             "--embedded", "--name", "cli-test"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "120 rows" in out
        assert "chunk 2" in out  # 120 rows / 50 per chunk -> 3 chunks
        assert "registered release" in out
        assert "120 records" in out

    def test_bad_source_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["ingest", str(tmp_path / "absent.db"), "--qi", "age",
             "--sa", "education", "--embedded"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("privacy-maxent: error: ConnectorError: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_postgres_gate_names_the_extra(self, capsys):
        code = main(
            ["ingest", "dbname=nope", "--postgres", "--qi", "age",
             "--sa", "education", "--embedded"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("privacy-maxent: error: ConnectorError: ")
        assert "repro[postgres]" in err


class TestWorkloadCommand:
    def test_embedded_workload_prints_trajectory(self, capsys):
        code = main(
            ["workload", "--records", "200", "-l", "3", "--batches", "2",
             "--queries-per-batch", "8", "--knowledge-step", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Workload over" in out
        assert "Query latency by shape" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        code = main(
            ["workload", "--records", "150", "-l", "3", "--batches", "2",
             "--queries-per-batch", "6", "--knowledge-step", "0",
             "--json", "--output", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert len(report["batches"]) == 2
        printed = json.loads(
            capsys.readouterr().out.split("wrote workload report", 1)[1]
            .split("\n", 1)[1]
        )
        assert printed["total_queries"] == report["total_queries"]

    def test_service_mode_with_knowledge_is_refused(self, capsys):
        code = main(
            ["workload", "--release", "rel-x", "--knowledge-step", "2"]
        )
        assert code == 2
        assert "--knowledge-step 0" in capsys.readouterr().err
