"""Exit-code contract, CSV/JSON schemas, and round-trip precision of the CLI."""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel import (
    DomainError,
    ToleranceNotMet,
    TruncationPolicy,
    cli,
    k_oracle,
    k_series_m9,
    k_series_m10,
    k_series_rearranged,
    vk,
)
from fracbessel.cli import CSV_FIELDS, OutputRow, main


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

    def test_half_integer_m9_terminates(self):
        code, out, _ = run("eval", "--s", "0.5", "--z", "1", "--method", "m9")
        assert code == 0
        assert "terms=1" in out
        assert "converged=true" in out

    def test_bad_flag_exits_1(self):
        code, _, _ = run("eval", "--s", "oops", "--z", "1")
        assert code == 1

    def test_csv_output_matches_schema(self):
        code, out, _ = run("eval", "--s", "1.5", "--z", "2", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ",".join(rows[0]) == "s,z,method,terms,value,converged,rel_err_vs_oracle"
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

    @pytest.mark.parametrize(
        "s_list,methods,message",
        [
            ("a,b", "rearranged", "could not parse --s-list 'a,b' as comma-separated reals"),
            ("0.5", ",", "--methods produced an empty list"),
            ("0.5", "foo", "unknown method 'foo' (choose from "),
        ],
    )
    def test_malformed_flags_exit_1(self, tmp_path, s_list, methods, message):
        code, _, err = run("table", "--s-list", s_list, "--z-list", "1", "--methods", methods,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert message in err

    def test_nonpositive_z_exits_1(self, tmp_path):
        out_path = tmp_path / "x.csv"
        for methods in (("--methods", "rearranged"), ("--methods", "oracle"), ("--with-oracle",)):
            for z_list in ("1,-2", "1,nan"):
                code, _, err = run("table", "--s-list", "0.5", "--z-list", z_list, *methods, "--out", str(out_path))
                assert code == 1
                assert "positive" in err
                assert not out_path.exists()

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

    @pytest.mark.parametrize(
        "s,z,max_terms,reason,line",
        [
            ("0.5", "1", 200, "terminated", "s=0.5 z=1 status=converged terms=1 last_term=0.000e+00"),
            ("3.3", "0.1", 200, "converged",
             "s=3.2999999999999998 z=0.10000000000000001 status=converged terms=64 last_term=2.018e-10"),
            ("0.7", "1", 1, "budget", "s=0.69999999999999996 z=1 status=max-terms terms=1 last_term=3.879e-01"),
            ("0.7", "30", 200, "diverging",
             "s=0.69999999999999996 z=30 status=diverging terms=6 last_term=6.862e-10"),
        ],
    )
    def test_one_status_line_per_stop_reason(self, s, z, max_terms, reason, line):
        # terminated and converged both print "converged"; budget prints "max-terms"
        assert one_point("rearranged", float(s), float(z), max_terms).stop_reason == reason
        code, out, _ = run("converge", f"--s-range={s}:{s}:1", f"--z-range={z}:{z}:1", f"--max-terms={max_terms}")
        assert code == 0
        assert out.splitlines()[0] == line

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
            ("-1e308:1e308:1", "1:2:1"),  # hi - lo overflows to inf
            ("a:1:0.5", "1:2:1"),
        ],
    )
    def test_malformed_ranges_exit_1(self, s_range, z_range):
        code, _, err = run("converge", "--s-range", s_range, "--z-range", z_range)
        assert code == 1
        # "1:2:1" is the one well-formed z range
        assert ("--s-range" if z_range == "1:2:1" else "--z-range") in err


#: --method -> (row label, the public one-point evaluator)
PUBLIC = {
    "rearranged": ("REARRANGED", k_series_rearranged),
    "m9": ("RAW_M9", k_series_m9),
    "m10": ("M10_REG", k_series_m10),
}


def one_point(method, s, z, max_terms):
    """The public evaluator at (|s|, z)."""
    return PUBLIC[method][1](abs(s), z, TruncationPolicy(max_terms=max_terms))


def expected_table(s_list, z_list, methods, max_terms, with_oracle):
    """(exit code, rows or error line) of ``table``, one public call per point."""
    rows = []
    try:
        for s in s_list:
            for z in z_list:
                ref = k_oracle(s, z) if with_oracle or "oracle" in methods else None
                for m in methods:
                    if m == "oracle":
                        row = OutputRow(s, z, "ORACLE", 0, ref, True)
                    else:
                        approx = one_point(m, s, z, max_terms)
                        row = OutputRow(s, z, PUBLIC[m][0], approx.terms_used, approx.value, approx.converged)
                    if with_oracle:
                        row.rel_err_vs_oracle = abs(row.value - ref) / max(abs(ref), 1e-300)
                    rows.append(row)
    except DomainError as exc:
        return 1, f"error: {exc}\n"
    except ToleranceNotMet as exc:
        return 2, f"error: {exc}\n"
    return 0, rows


def expected_converge_line(s, z, max_terms):
    try:
        approx = one_point("rearranged", s, z, max_terms)
    except DomainError:
        return f"s={s:.17g} z={z:.17g} status=rejected terms=0 last_term=nan"
    status = "diverging" if approx.diverging else "converged" if approx.converged else "max-terms"
    return f"s={s:.17g} z={z:.17g} status={status} terms={approx.terms_used} last_term={approx.last_term_abs:.3e}"


#: --method -> the factor c of the argument w = c z its inner stream reads
W_PER_Z = {"rearranged": 2.0, "m9": 2.0, "m10": 1.0}


def patch_stream(monkeypatch, make):
    """Replace the library's choice of inner stream, a function of
    (alpha, w), by ``make(original)``."""
    monkeypatch.setattr(vk, "_e_values", make(vk._e_values))


#: Orders drawn for the grid commands: duplicates, negatives, zero, an order
#: below the zero-order cut, half-integers and generic orders.
ORDERS = st.sampled_from([-1.5, -0.7, 0.0, 1e-12, 0.5, 1.5, 2.5, 0.7, 1.3]) | st.floats(-3.0, 3.0)
ARGUMENTS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 6.0)


class TestGridCommands:
    """Each row of ``table`` and each line of ``converge`` is the one-point
    evaluation, and an error in a point's inner stream reaches that point."""

    @given(
        s_list=st.lists(ORDERS, min_size=1, max_size=3),
        z_list=st.lists(ARGUMENTS, min_size=1, max_size=2),
        methods=st.lists(st.sampled_from(cli._METHODS), min_size=1, max_size=3),
        max_terms=st.sampled_from([1, 2, 5, 60, 200]),
        with_oracle=st.booleans(),
        as_json=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_table_row_is_the_one_point_value(
        self, tmp_path_factory, s_list, z_list, methods, max_terms, with_oracle, as_json
    ):
        out_path = tmp_path_factory.mktemp("table") / "t.out"
        argv = ["table", f"--s-list={','.join(map(repr, s_list))}", f"--z-list={','.join(map(repr, z_list))}",
                f"--methods={','.join(methods)}", f"--max-terms={max_terms}", f"--out={out_path}"]
        code, out, err = run(*argv, *(["--with-oracle"] if with_oracle else []), *(["--json"] if as_json else []))
        want_code, want = expected_table(s_list, z_list, methods, max_terms, with_oracle)
        assert code == want_code
        if code:
            assert (out, err) == ("", want)
            assert not out_path.exists()
        else:
            encode = cli._rows_to_json if as_json else cli._rows_to_csv
            assert out_path.read_text() == encode(want)

    @given(
        s_lo=ORDERS,
        s_step=st.sampled_from([0.25, 0.5, 0.7]),
        n_s=st.integers(0, 3),
        z_lo=st.floats(0.1, 4.0),
        z_step=st.sampled_from([0.5, 1.0]),
        n_z=st.integers(0, 2),
        max_terms=st.sampled_from([1, 3, 60, 200]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_converge_line_is_the_one_point_value(self, s_lo, s_step, n_s, z_lo, z_step, n_z, max_terms):
        s_range = f"{s_lo!r}:{s_lo + n_s * s_step!r}:{s_step!r}"
        z_range = f"{z_lo!r}:{z_lo + n_z * z_step!r}:{z_step!r}"
        code, out, _ = run("converge", f"--s-range={s_range}", f"--z-range={z_range}", f"--max-terms={max_terms}")
        assert code == 0
        s_values, z_values = cli._parse_range(s_range, "s-range"), cli._parse_range(z_range, "z-range")
        lines = [ln for ln in out.splitlines() if ln.startswith("s=")]
        assert lines == [expected_converge_line(s, z, max_terms) for s in s_values for z in z_values]

    def test_long_sums_and_a_repeated_order_are_the_one_point_values(self, tmp_path):
        # the s = 3.7 sums read 231 terms at z = 16 and 322 at z = 20, and
        # the repeated order reads the same rows again
        s_list, z_list, methods = [2.2, 3.7, 3.7], [16.0, 20.0], ["rearranged", "m9"]
        out_path = tmp_path / "t.csv"
        code, _, _ = run("table", "--s-list=2.2,3.7,3.7", "--z-list=16,20", "--methods=rearranged,m9",
                         "--max-terms=1000", f"--out={out_path}")
        assert code == 0
        want_code, want = expected_table(s_list, z_list, methods, 1000, False)
        assert out_path.read_text() == cli._rows_to_csv(want)
        assert sorted(row.terms for row in want if row.s == 3.7) == [231] * 4 + [322] * 4

    @staticmethod
    def failing_at(index):
        """A stream chooser wrapper whose streams raise at ``index``."""

        def wrap(choose):
            def make(alpha, w):
                for k, value in enumerate(choose(alpha, w)):
                    if k == index:
                        raise DomainError(f"injected at E_{k}, w={w!r}")
                    yield value

            return make

        return wrap

    def test_a_stream_error_reaches_every_order_that_gets_that_far(self, monkeypatch):
        # s = 1/2, 3/2 and 5/2 end after 1, 2 and 3 terms, before index 3;
        # every generic order reads that far and is rejected
        patch_stream(monkeypatch, self.failing_at(3))
        code, out, _ = run("converge", "--s-range", "0.5:2.5:0.5", "--z-range", "1:2:1")
        assert code == 0
        status = {ln.split(" status=")[0]: ln.split("status=")[1].split()[0]
                  for ln in out.splitlines() if ln.startswith("s=")}
        assert status == {
            f"s={s} z={z}": ("rejected" if s in ("1", "2") else "converged")
            for s in ("0.5", "1", "1.5", "2", "2.5") for z in ("1", "2")
        }

    def test_a_stream_error_stays_at_its_argument(self, monkeypatch):
        # the stream at z = 1 (w = 2) raises at index 3; the one at z = 2 does not
        def failing_at_one(choose):
            def make(alpha, w):
                return self.failing_at(3)(choose)(alpha, w) if w == 2.0 else choose(alpha, w)

            return make

        patch_stream(monkeypatch, failing_at_one)
        code, out, _ = run("converge", "--s-range", "0.5:2.5:0.5", "--z-range", "1:2:1")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("s=")]
        for s in cli._parse_range("0.5:2.5:0.5", "s-range"):
            want_at_2 = expected_converge_line(s, 2.0, 200)
            assert want_at_2 in lines and "status=rejected" not in want_at_2
        assert sum("status=rejected" in ln for ln in lines) == 2

    @pytest.mark.parametrize("method", sorted(PUBLIC))
    def test_a_stream_error_fails_the_table_at_its_point(self, tmp_path, monkeypatch, method):
        patch_stream(monkeypatch, self.failing_at(3))
        out_path = tmp_path / "t.csv"
        grid = ("--z-list", "1,2", "--methods", method, "--out", str(out_path))
        code, _, _ = run("table", "--s-list", "0.5,1.5,2.5", *grid)
        assert code == 0
        with out_path.open() as fh:
            assert [row["converged"] for row in csv.DictReader(fh)] == ["true"] * 6
        out_path.unlink()
        code, out, err = run("table", "--s-list", "0.5,1.5,1.3,2.5", *grid)
        assert (code, out, err) == (1, "", f"error: injected at E_3, w={W_PER_Z[method]!r}\n")
        assert not out_path.exists()


class TestNegativeLeadingValues:
    """argparse reads a value that starts with '-' as an option; the '=' form passes it."""

    def test_s_list_with_a_negative_first_order(self, tmp_path):
        rows = {}
        for s_list in ("-1.5,2", "1.5,2"):
            out_path = tmp_path / f"{s_list}.json"
            code, _, _ = run("table", f"--s-list={s_list}", "--z-list", "1,2.5", "--methods", "rearranged,m9",
                             "--json", "--out", str(out_path))
            assert code == 0
            rows[s_list] = json.loads(out_path.read_text())
        assert [r["s"] for r in rows["-1.5,2"]] == [-1.5] * 4 + [2.0] * 4
        for neg, pos in zip(rows["-1.5,2"], rows["1.5,2"]):
            assert {**neg, "s": abs(neg["s"])} == pos

    def test_s_range_with_a_negative_start(self):
        code, out, _ = run("converge", "--s-range=-1:1:0.5", "--z-range", "1:1:1")
        assert code == 0
        assert [ln.split()[0] for ln in out.splitlines() if ln.startswith("s=")] == [
            "s=-1", "s=-0.5", "s=0", "s=0.5", "s=1"]
        assert "s=0 z=1 status=rejected" in out

    @pytest.mark.parametrize("command,flag", [("table", "--s-list"), ("converge", "--s-range")])
    def test_help_names_the_equals_form(self, command, flag):
        code, out, _ = run(command, "--help")
        assert code == 0
        assert f"{flag}=-" in "".join(out.split())  # help may wrap at any hyphen


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

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_that_is_not_positive_and_finite_exits_1(self, tol):
        # m10 applies --tol to its rows that are not forced, as every identity does
        for identity in ([], ["--identity", "m10"]):
            code, out, err = run("verify", *identity, "--tol", tol)
            assert code == 1, identity
            assert err.startswith("error: ") and "tol" in err
            assert out == ""

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

    def test_json_is_every_field_of_every_record(self):
        # one line, and each record's fields as the library gives them, floats bit for bit
        code, out, _ = run("verify", "--identity", "all", "--json")
        assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
        want = [{**rec.as_dict(), "asserted": asserted}
                for identity in ("m4a", "m4b", "m5a", "m5b", "m10")
                for rec, asserted in cli._verify_records(identity, 1e-7)]
        assert repr(json.loads(out)) == repr(want)


class TestEvalJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--s", "0.5", "--z", "1"),
            ("--s", "1.3", "--z", "2.7", "--method", "m9"),
            ("--s", "0.7", "--z", "0.3", "--method", "m10"),
            ("--s", "2.5", "--z", "3", "--method", "oracle"),
        ],
    )
    def test_json_row_is_the_text_row(self, argv):
        text_code, text, _ = run("eval", *argv)
        json_code, payload, _ = run("eval", *argv, "--json")
        assert text_code == json_code
        (row,) = json.loads(payload)
        fields = dict(pair.split("=", 1) for pair in text.split())
        assert list(fields) == [name for name, value in row.items() if value is not None]
        for name, value in fields.items():
            want = row[name]
            if isinstance(want, bool):
                assert value == ("true" if want else "false")
            elif isinstance(want, float):
                assert repr(float(value)) == repr(want), name  # 17 digits round-trip
            else:
                assert value == str(want)


class TestExitCodeMap:
    """``main`` maps every library DomainError to 1 and ToleranceNotMet to 2."""

    @pytest.mark.parametrize("error,code", [(DomainError, 1), (ToleranceNotMet, 2)])
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("k_oracle", ("eval", "--s", "1.5", "--z", "1", "--method", "oracle")),
            ("k_oracle", ("table", "--s-list", "1.5", "--z-list", "1", "--methods", "oracle")),
            ("verify_m4a", ("verify", "--identity", "m4a")),
        ],
    )
    def test_library_errors_map_to_exit_codes(self, tmp_path, monkeypatch, name, argv, error, code):
        def failing(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, name, failing)
        out_path = tmp_path / "t.csv"
        if argv[0] == "table":
            argv = (*argv, "--out", str(out_path))
        got, out, err = run(*argv)
        assert got == code
        assert err.startswith("error: injected failure")
        assert out == ""
        assert not out_path.exists()


class TestParserReuse:
    """``main`` parses every call with the one parser built at import."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--s", "0.5", "--z", "1"),
            ("--help",),
            ("eval", "--s", "0.5", "--z", "1", "--bogus"),
            ("verify", "--identity", "m5b", "--json"),
            ("table", "--s-list", "0.5,1.3", "--z-list", "1,2.5", "--methods", "rearranged,m9",
             "--json"),
        ],
        ids=["eval", "help", "bad-flag", "verify", "table"],
    )
    def test_two_calls_in_one_process_are_identical(self, tmp_path, argv):
        out_path = tmp_path / "t.json"
        if argv[0] == "table":
            argv = (*argv, "--out", str(out_path))
        results = []
        for _ in range(2):
            results.append((*run(*argv), out_path.read_bytes() if out_path.exists() else None))
        assert results[0] == results[1]
        code = results[0][0]
        assert code == (1 if "--bogus" in argv else 0)

    def test_build_parser_returns_a_fresh_working_parser(self):
        parser = cli.build_parser()
        assert parser is not cli._PARSER
        args = parser.parse_args(["eval", "--s", "0.5", "--z", "1"])
        assert (args.s, args.z, args.method, args.func) == (0.5, 1.0, "rearranged", cli._cmd_eval)


#: Any float, nan, +-inf, subnormals and huge values included, with extra
#: weight on the moderate positive values where points are evaluated.
FLOATS = st.floats() | st.floats(0.0, 10.0)
NUMBER = FLOATS.map(repr)
NUMBER_LIST = st.lists(NUMBER, min_size=1, max_size=2).map(",".join)
MAX_TERMS = st.integers(-2, 300).map(str)


def _flag(name):
    return st.booleans().map(lambda on: [name] if on else [])


@st.composite
def _range(draw):
    """lo:hi:step making at most a handful of points when it is well formed."""
    lo, step = draw(FLOATS), draw(FLOATS)
    hi = lo + draw(st.integers(-1, 2)) * step
    return f"{lo!r}:{hi!r}:{step!r}"


#: argv of the four commands; ``table`` still needs its ``--out``.
ARGV = (
    st.tuples(NUMBER, NUMBER, st.sampled_from(cli._METHODS), MAX_TERMS,
              st.sampled_from([[], ["--json"], ["--csv"]])).map(
        lambda a: ["eval", f"--s={a[0]}", f"--z={a[1]}", f"--method={a[2]}", f"--max-terms={a[3]}", *a[4]])
    | st.tuples(NUMBER_LIST, NUMBER_LIST, st.lists(st.sampled_from(cli._METHODS), min_size=1, max_size=2),
                MAX_TERMS, _flag("--with-oracle"), _flag("--json")).map(
        lambda a: ["table", f"--s-list={a[0]}", f"--z-list={a[1]}", f"--methods={','.join(a[2])}",
                   f"--max-terms={a[3]}", *a[4], *a[5]])
    | st.tuples(_range(), _range(), MAX_TERMS).map(
        lambda a: ["converge", f"--s-range={a[0]}", f"--z-range={a[1]}", f"--max-terms={a[2]}"])
    | st.tuples(st.sampled_from(["m4a", "m4b", "m5a", "m5b", "m10", "all"]), NUMBER, _flag("--json")).map(
        lambda a: ["verify", f"--identity={a[0]}", f"--tol={a[1]}", *a[2]])
)


class TestWholeDomain:
    """Any argv of the four commands: an exit code of the contract, never a raw error."""

    @pytest.fixture(scope="class")
    def out_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli") / "table.out"

    @given(argv=ARGV)
    @settings(max_examples=150, deadline=None)
    def test_exit_code_of_the_contract(self, out_path, argv):
        if argv[0] == "table":
            argv = [*argv, f"--out={out_path}"]
        code, _, _ = run(*argv)
        assert code in (0, 1, 2)
