"""Exit-code contract, CSV/JSON schemas, and round-trip precision of the CLI."""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fracbessel.cli import CSV_FIELDS, main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_half_integer_fast_path(self):
        code, out, _ = run("eval", "--s", "0.5", "--z", "1", "--method", "rearranged")
        assert code == 0
        assert "terms=1" in out
        assert "converged=true" in out
        value = float(out.split("value=")[1].split()[0])
        assert value == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)

    def test_zero_order_is_an_argument_error(self):
        code, out, err = run("eval", "--s", "0", "--z", "1")
        assert code == 1
        assert "pole" in err.lower()
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--s", "1", "--z", "nan"),
            ("--s", "inf", "--z", "1"),
            ("--s", "2.5", "--z", "1e-200"),  # prefactor overflows float64
            ("--s", "60", "--z", "1", "--method", "oracle"),
        ],
    )
    def test_library_domain_errors_exit_1(self, argv):
        code, out, err = run("eval", *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    def test_oracle_method(self):
        code, out, _ = run("eval", "--s", "2.5", "--z", "3", "--method", "oracle", "--json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["method"] == "ORACLE"
        assert row["converged"] is True

    def test_non_converged_point_exits_2_with_row(self):
        code, out, err = run("eval", "--s", "0.7", "--z", "1")
        assert code == 2
        assert "value=" in out  # last partial sum still reported
        assert "converge" in err

    def test_half_integer_m9_rejected(self):
        code, _, err = run("eval", "--s", "0.5", "--z", "1", "--method", "m9")
        assert code == 1
        assert "half-integer" in err

    def test_bad_flag_exits_1(self):
        code, _, _ = run("eval", "--s", "oops", "--z", "1")
        assert code == 1

    def test_csv_output_matches_schema(self):
        code, out, _ = run("eval", "--s", "1.5", "--z", "2", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_FIELDS
        assert len(rows) == 2


class TestTable:
    def test_grid_row_count_and_header(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            "table", "--s-list", "0.5,1.5", "--z-list", "1,2",
            "--methods", "rearranged", "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == CSV_FIELDS
        assert len(rows) == 5  # header + 2x2 grid

    def test_csv_round_trips_full_precision(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(
            "table", "--s-list", "0.7,2.5", "--z-list", "1.3",
            "--methods", "oracle", "--out", str(out_path),
        )
        from fracbessel import k_oracle

        with out_path.open() as fh:
            for row in csv.DictReader(fh):
                parsed = float(row["value"])
                assert parsed == k_oracle(float(row["s"]), float(row["z"]))

    def test_with_oracle_column(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(
            "table", "--s-list", "0.5", "--z-list", "1",
            "--methods", "rearranged", "--with-oracle", "--out", str(out_path),
        )
        with out_path.open() as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rel_err_vs_oracle"]) < 1e-9

    def test_half_integer_rows_terminate(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(
            "table", "--s-list", "0.5,1.5,2.5", "--z-list", "1",
            "--methods", "rearranged", "--out", str(out_path),
        )
        with out_path.open() as fh:
            for row in csv.DictReader(fh):
                assert row["converged"] == "true"
                assert int(row["terms"]) == int(float(row["s"]) + 0.5)

    def test_json_and_csv_encode_identical_data(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        args = ["table", "--s-list", "0.5,1.5", "--z-list", "1,2", "--methods", "rearranged,oracle", "--with-oracle"]
        run(*args, "--out", str(csv_path))
        run(*args, "--json", "--out", str(json_path))
        json_rows = json.loads(json_path.read_text())
        with csv_path.open() as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            assert float(cr["s"]) == jr["s"]
            assert float(cr["z"]) == jr["z"]
            assert cr["method"] == jr["method"]
            assert int(cr["terms"]) == jr["terms"]
            assert float(cr["value"]) == jr["value"]
            assert (cr["converged"] == "true") == jr["converged"]
            if cr["rel_err_vs_oracle"] == "":
                assert jr["rel_err_vs_oracle"] is None
            else:
                assert float(cr["rel_err_vs_oracle"]) == jr["rel_err_vs_oracle"]

    def test_oracle_runs_once_per_point(self, tmp_path, monkeypatch):
        from fracbessel import cli

        calls = []
        oracle = cli.k_oracle

        def counted(s, z):
            calls.append((s, z))
            return oracle(s, z)

        monkeypatch.setattr(cli, "k_oracle", counted)
        grid = ["--s-list", "0.5,1.3", "--z-list", "1,2", "--out", str(tmp_path / "t.csv")]
        assert run("table", *grid, "--methods", "rearranged,oracle", "--with-oracle")[0] == 0
        assert sorted(calls) == [(0.5, 1.0), (0.5, 2.0), (1.3, 1.0), (1.3, 2.0)]
        calls.clear()
        assert run("table", *grid, "--methods", "rearranged")[0] == 0
        assert calls == []

    def test_empty_grid_exits_1(self, tmp_path):
        code, _, err = run("table", "--s-list", ",", "--z-list", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_nonpositive_z_exits_1(self, tmp_path):
        for z_list in ("1,-2", "1,nan"):
            code, _, err = run("table", "--s-list", "0.5", "--z-list", z_list, "--out", str(tmp_path / "x.csv"))
            assert code == 1
            assert "positive" in err

    def test_oracle_order_limit_exits_1(self, tmp_path):
        out_path = tmp_path / "x.csv"
        code, _, err = run(
            "table", "--s-list", "0.5,60", "--z-list", "1", "--with-oracle", "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_unwritable_path_exits_1(self):
        code, _, err = run("table", "--s-list", "0.5", "--z-list", "1", "--out", "/nonexistent/dir/x.csv")
        assert code == 1
        assert "cannot write" in err


class TestConverge:
    def test_single_point_status_line(self):
        code, out, _ = run("converge", "--s-range", "0.7:0.7:1", "--z-range", "1:1:1")
        assert code == 0
        assert "s=0.69999999999999996" in out
        assert "status=" in out
        assert "terms=" in out
        assert "summary:" in out

    def test_zero_order_is_rejected_per_point(self):
        code, out, _ = run("converge", "--s-range", "0:0.5:0.5", "--z-range", "1:1:1")
        assert code == 0
        assert "s=0 z=1 status=rejected" in out
        assert "s=0.5 z=1 status=converged" in out

    def test_half_integer_rows_all_converge(self):
        code, out, _ = run("converge", "--s-range", "0.5:2.5:1", "--z-range", "0.5:1.5:0.5")
        assert code == 0
        statuses = [ln for ln in out.splitlines() if ln.startswith("s=")]
        assert statuses and all("status=converged" in ln for ln in statuses)

    @pytest.mark.parametrize(
        "s_range,z_range",
        [
            ("1:0.5:0.1", "1:2:1"),
            ("0.5:1:0", "1:2:1"),
            ("0.5:1:0.1", "1:2:-1"),
            ("junk", "1:2:1"),
            ("0.5:1:0.1", "0:2:1"),  # z grid touching zero
            ("nan:1:0.5", "1:2:1"),  # a non-finite bound or step would make an endless grid
            ("0:inf:0.5", "1:2:1"),
            ("0:1:inf", "1:2:1"),
            ("0:1e12:1", "1:2:1"),  # a finite range can still make too many points
        ],
    )
    def test_malformed_ranges_exit_1(self, s_range, z_range):
        code, _, _ = run("converge", "--s-range", s_range, "--z-range", z_range)
        assert code == 1


class TestVerify:
    def test_m4a_contains_analytic_anchor(self):
        code, out, _ = run("verify", "--identity", "m4a")
        assert code == 0
        anchor = [ln for ln in out.splitlines() if "mu=1 " in ln][0]
        lhs = float(anchor.split("lhs=")[1].split()[0])
        rhs = float(anchor.split("rhs=")[1].split()[0])
        assert lhs == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert rhs == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_m10_informational_rows_never_fail_the_run(self):
        code, out, _ = run("verify", "--identity", "m10")
        assert code == 0  # deviations are recorded, only s = 1/2 rows asserted
        assert "FAIL" in out  # the recorded deviations are visible
        asserted = [ln for ln in out.splitlines() if ln.startswith("[ASSERT]")]
        assert asserted and all(" pass" in ln for ln in asserted)

    def test_m5b_reports_both_readings(self):
        code, out, _ = run("verify", "--identity", "m5b", "--json")
        assert code == 0
        records = json.loads(out)
        x4 = [r for r in records if r["params"]["x"] == 4.0]
        assert {r["params"]["k_arg"] for r in x4} == {0.25, 0.5}
        assert all(not r["pass"] for r in x4)
        anchors = [r for r in records if r["params"]["x"] == 1.0]
        assert anchors and all(r["pass"] and r["asserted"] for r in anchors)

    def test_all_suite_passes(self):
        code, _, _ = run("verify", "--identity", "all")
        assert code == 0

    def test_unknown_identity_exits_1(self):
        code, _, _ = run("verify", "--identity", "m99")
        assert code == 1

    def test_json_mirrors_text_data(self):
        _, text_out, _ = run("verify", "--identity", "m4b")
        _, json_out, _ = run("verify", "--identity", "m4b", "--json")
        records = json.loads(json_out)
        text_lines = [ln for ln in text_out.splitlines() if "M4B" in ln]
        assert len(records) == len(text_lines)
        for rec, line in zip(records, text_lines):
            assert float(line.split("lhs=")[1].split()[0]) == rec["lhs"]
