"""CLI surface: subcommands, exit codes, JSON/CSV round-trips."""

import csv
import json
import math
import shlex
import subprocess
import sys
import typing
from fractions import Fraction as F
from pathlib import Path

import pytest

from mhlerch import cli

LN2 = 0.6931471805599453


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_eta2(capsys):
    code, data, _ = run_json(
        capsys, "eval", "--s", "2", "--w", "-1", "--alpha", "0", "--tol", "1e-12"
    )
    assert code == 0
    assert data["converged"] is True
    assert data["value_re"] == pytest.approx(-0.8224670334241132, abs=1e-12)
    assert data["value_im"] == 0.0
    assert data["error_bound"] <= 1e-12


def test_eval_log2(capsys):
    code, data, _ = run_json(capsys, "eval", "--s", "1", "--w", "-1", "--alpha", "0")
    assert code == 0
    assert data["value_re"] == pytest.approx(-LN2, abs=1e-12)


def test_eval_domain_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "eval", "--s", "2", "--w", "0.6")
    assert code == 1
    assert "Re(w)" in err


def test_eval_at_z_one_exits_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--s", "2", "--z", "1")
    assert code == 1
    assert err.startswith("mhlerch eval: error: z = 1 is the pole")
    assert "Traceback" not in err


def test_eval_w_and_z_are_exclusive(capsys):
    code, _, err = run_cli(capsys, "eval", "--s", "2", "--w", "-1", "--z", "0.5")
    assert code == 1
    code, _, err = run_cli(capsys, "eval", "--s", "2")
    assert code == 1


def test_eval_via_z(capsys):
    # --z 0.5 is the same point as --w -1
    code, via_z, _ = run_json(capsys, "eval", "--s", "3", "--z", "0.5")
    code2, via_w, _ = run_json(capsys, "eval", "--s", "3", "--w", "-1")
    assert code == code2 == 0
    assert via_z["value_re"] == pytest.approx(via_w["value_re"], abs=1e-13)


def test_eval_methods_agree(capsys):
    values = {}
    for method in ("accelerated", "direct"):
        code, data, _ = run_json(
            capsys, "eval", "--s", "2", "--w", "-0.5", "--alpha", "0.5", "--method", method
        )
        assert code == 0
        values[method] = data["value_re"]
    assert values["accelerated"] == pytest.approx(values["direct"], abs=1e-11)


def test_eval_method_euler_is_rejected(capsys):
    # The binomial double sum loses ~(2|z|)^p to rounding, so it is no
    # evaluation method: here its true error was 3.9e14 under converged: true.
    code, out, err = run_cli(capsys, "eval", "--s", "2", "--w", "-5", "--method", "euler")
    assert code == 1
    assert out == ""
    assert "invalid choice: 'euler'" in err


def test_eval_complex_arguments(capsys):
    # argparse needs the = form for values that start with '-' but are not
    # plain negative numbers
    code, data, _ = run_json(capsys, "eval", "--s", "2", "--w=-0.3,0.4", "--alpha", "0,1")
    assert code == 0
    assert data["value_im"] != 0.0


def test_eval_alpha_rat_crosscheck(capsys):
    code, data, _ = run_json(
        capsys, "eval", "--s", "2", "--w", "-1", "--alpha-rat", "1/2"
    )
    assert code == 0
    check = data["exact_crosscheck"]
    assert check["ok"] is True
    assert check["max_rel_err"] <= 1e-12


@pytest.mark.parametrize("alpha, s", [("-3/2", 2), ("-5/2", 2), ("-7/2", 4)])
def test_eval_alpha_rat_crosscheck_at_a_zero_coefficient(alpha, s):
    # At these shifts the exact c_2 is 0 (f_1 + f_2 = 0 at s = 2), so the
    # cross-check's residual there is absolute, not divided by zero.
    check = cli._exact_crosscheck(F(alpha), s)
    assert check["ok"] is True
    assert check["max_rel_err"] <= 6e-14  # measured up to 5.31e-14, at -7/2, s = 4


def test_eval_alpha_rat_crosschecks_the_peeled_shift(capsys):
    # At alpha < -1/2 the series in z is summed at alpha + K, K = floor(-alpha)
    # + 1 = 11 here, and the check reads the coefficients there: at -21/2
    # itself the float c_p cancel, off by 7.6e-10 relative.
    code, data, err = run_json(capsys, "eval", "--s", "4", "--w", "-1", "--alpha-rat=-21/2")
    assert code == 0, err
    check = data["exact_crosscheck"]
    assert check["ok"] is True
    assert check == cli._exact_crosscheck(F(1, 2), 4)
    assert check["alpha"] == "1/2"
    assert check["max_rel_err"] <= 1e-15
    assert not cli._exact_crosscheck(F(-21, 2), 4)["ok"]


@pytest.mark.parametrize(
    "argv",
    [("--w", "0.3", "--alpha-rat", "1/2"), ("--w=-0.5", "--alpha-rat", "1/2", "--method", "direct")],
    ids=["lens", "direct"],
)
def test_eval_alpha_rat_checks_nothing_where_the_defining_series_is_summed(capsys, monkeypatch, argv):
    # On the lens |w - 1| < 1 and under --method direct no coefficient of the
    # series in z is read, so none is checked, and a check that would fail
    # (rel tol 0) cannot set the exit code.
    from mhlerch import verify
    monkeypatch.setattr(verify, "COEFFICIENT_REL_TOL", 0.0)
    code, data, err = run_json(capsys, "eval", "--s", "2", *argv)
    assert code == 0, err
    assert data["converged"] is True
    assert data["exact_crosscheck"] is None


@pytest.mark.parametrize("max_terms, checked", [(5, False), (11, False), (12, True)])
def test_eval_alpha_rat_checks_the_series_in_z_only_past_the_peeled_head(capsys, max_terms, checked):
    # At -21/2 the K = 11 head terms are peeled first: up to --max-terms 11
    # no term of the series in z is summed, so no coefficient is checked.
    argv = ("eval", "--s", "2", "--w", "-1", "--alpha-rat=-21/2", "--max-terms", str(max_terms))
    code, data, _ = run_json(capsys, *argv)
    assert code == 2
    assert data["terms_used"] == max_terms and data["converged"] is False
    assert data["exact_crosscheck"] == (cli._exact_crosscheck(F(1, 2), 2) if checked else None)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_non_finite_floats_are_written_as_null(capsys, tmp_path):
    # RFC 8259 has no Infinity or NaN; a strict parser must read the output.
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "eval", "--s", "2", "--w", "-1", "--max-terms", "5", "--alpha=-10.5", "--json", str(path))
    assert code == 2
    for text in (out, path.read_text()):
        data = json.loads(text, parse_constant=_reject_constant)
        assert data["error_bound"] is None and data["converged"] is False
    payload = {"a": [math.nan, {"b": -math.inf}], "c": 1.5, "d": "inf"}
    assert cli._json_ready(payload) == {"a": [None, {"b": None}], "c": 1.5, "d": "inf"}


def test_eval_alpha_rat_failed_crosscheck_exits_2(capsys, monkeypatch):
    from mhlerch import verify
    monkeypatch.setattr(verify, "COEFFICIENT_REL_TOL", 0.0)
    code, data, _ = run_json(capsys, "eval", "--s", "2", "--w", "-1", "--alpha-rat", "1/3")
    assert data["converged"] is True
    assert data["exact_crosscheck"]["ok"] is False
    assert code == 2


def test_eval_nonconvergence_exits_2(capsys):
    code, data, _ = run_json(
        capsys, "eval", "--s", "2", "--w", "-1", "--max-terms", "5"
    )
    assert code == 2
    assert data["converged"] is False


def test_eval_invalid_shift(capsys):
    code, _, err = run_cli(capsys, "eval", "--s", "2", "--w", "-1", "--alpha", "-2")
    assert code == 1
    assert "negative integer" in err


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_two(capsys):
    code, data, _ = run_json(capsys, "zeta", "--s", "2", "--tol", "1e-12")
    assert code == 0
    assert data["value"] == pytest.approx(1.6449340668482264, abs=1e-12)
    assert data["terms_used"] <= 64


def test_zeta_three(capsys):
    code, data, _ = run_json(capsys, "zeta", "--s", "3", "--tol", "1e-12")
    assert code == 0
    assert data["value"] == pytest.approx(1.2020569031595943, abs=1e-12)


def test_zeta_pole_exits_1(capsys):
    code, _, err = run_cli(capsys, "zeta", "--s", "1")
    assert code == 1
    assert "pole" in err


def test_zeta_json_file(capsys, tmp_path):
    path = tmp_path / "zeta.json"
    code, data, _ = run_json(capsys, "zeta", "--s", "4", "--json", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == data


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_lemma_suite(capsys):
    code, reports, _ = run_json(capsys, "verify", "--suite", "lemma")
    assert code == 0
    by_name = {r["identity_name"]: r for r in reports}
    assert by_name["lemma"]["cases_run"] == 390
    assert by_name["lemma"]["cases_failed"] == 0


def test_verify_invalid_beta_exits_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "lemma", "--beta", "0")
    assert code == 1
    assert "nonpositive" in err


def test_verify_unknown_suite_exits_1(capsys):
    # --suite has no argparse choices (they would import verify for every
    # command); run_suite's ValueError names the suites, before any other check.
    names = ("lemma", "recurrences", "splitting", "proposition", "bounds", "sondow", "all")
    for extra in [(), ("--tol", "-1")]:
        code, out, err = run_cli(capsys, "verify", "--suite", "nosuch", *extra)
        assert code == 1 and out == ""
        assert err == f"mhlerch verify: error: unknown suite 'nosuch'; choose from {names}\n"


def test_verify_help_lists_the_suites(capsys):
    from mhlerch import verify

    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert "--suite {" + ",".join(verify.SUITE_NAMES + ("all",)) + "}" in out


def test_verify_json_file_and_overrides(capsys, tmp_path):
    path = tmp_path / "reports.json"
    code, reports, _ = run_json(
        capsys, "verify", "--suite", "recurrences", "--q-max", "3", "--s-max", "2",
        "--json", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text()) == reports
    by_name = {r["identity_name"]: r for r in reports}
    assert by_name["recurrence_R"]["cases_run"] == 3 * 2 * 6


@pytest.mark.parametrize(
    "argv, work",
    [
        (("zeta", "--s", "2", "--json"), "series.zeta_accelerated"),
        (("bench", "--s-list", "2", "--tol-list", "1e-4", "--csv"), "cli.bench_rows"),
        (("bench", "--s-list", "2", "--tol-list", "1e-4", "--json"), "cli.bench_rows"),
        (("eval", "--s", "2", "--w", "-1", "--json"), "series.lerch_accelerated"),
        (("verify", "--suite", "all", "--json"), "verify.run_suite"),
    ],
    ids=["zeta-json", "bench-csv", "bench-json", "eval-json", "verify-json"],
)
def test_unwritable_output_path_is_an_error_exit(capsys, monkeypatch, tmp_path, argv, work):
    # a missing directory raised FileNotFoundError out of cli.main, and the
    # path was opened only after the command had run and printed its result
    from mhlerch import series, verify

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was opened")

    module, name = work.split(".")
    monkeypatch.setattr({"cli": cli, "series": series, "verify": verify}[module], name, never)
    path = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"mhlerch {argv[0]}: error: ") and str(path) in err
    assert len(err.splitlines()) == 1
    assert not path.parent.exists()


def test_verify_sondow_suite(capsys):
    code, reports, _ = run_json(capsys, "verify", "--suite", "sondow")
    assert code == 0
    assert reports[0]["identity_name"] == "sondow_special_case"


def test_verify_failure_exits_2(capsys):
    # an unreachable comparison tolerance fails every case whose residual is
    # not exactly zero
    code, reports, _ = run_json(capsys, "verify", "--suite", "sondow", "--tol", "1e-30")
    assert code == 2
    report = reports[0]
    assert report["cases_failed"] > 0
    assert report["cases_failed"] == len(report["failing_cases"])


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_bad_tol_exits_1(capsys, tol):
    # --tol inf accepted every float residual (exit 0); nan, 0 and -1 failed
    # every case (exit 2)
    code, _, err = run_cli(capsys, "verify", "--suite", "sondow", "--tol", tol)
    assert code == 1
    assert err.startswith("mhlerch verify: error: tol must be positive and finite")
    assert "Traceback" not in err


def test_verify_empty_sweep_exits_2(capsys):
    # these overrides empty every grid but splitting's; a report of 0 cases
    # checked nothing and must not pass
    code, reports, _ = run_json(
        capsys, "verify", "--suite", "all", "--s-max", "0", "--p-max", "0", "--q-max=-1"
    )
    assert code == 2
    assert sum(report["cases_run"] == 0 for report in reports) == 12


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _read_csv_rows(text):
    """Rows of a bench CSV read back with the stdlib alone, typed by field."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    assert tuple(next(reader)) == cli.CSV_HEADER
    types = typing.get_type_hints(cli.ConvergenceRow)
    return [
        cli.ConvergenceRow(*(types[name](cell) for name, cell in zip(cli.CSV_HEADER, cells)))
        for cells in reader
    ]


def test_bench_rows_and_roundtrip(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "bench.json"
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--s-list", "1,3",
        "--tol-list", "1e-6,1e-8",
        "--max-terms", "5000",
        "--csv", str(csv_path),
        "--json", str(json_path),
    )
    assert code == 0
    rows, notes = cli.bench_rows([1, 3], [1e-6, 1e-8], 5000)
    assert out == cli.rows_to_csv(rows, notes)
    assert csv_path.read_bytes() == out.encode()  # CRLF rows, as on stdout
    assert json_path.read_bytes() == (cli.rows_to_json(rows, notes) + "\n").encode()
    assert "# s=1 omitted" in out
    assert len(rows) == 6  # 3 methods x 2 tolerances, s=1 skipped
    # exact round-trip through the stdlib readers alone
    assert _read_csv_rows(out) == rows
    data = json.loads(json_path.read_text())
    assert data["notes"] == notes
    assert [cli.ConvergenceRow(**entry) for entry in data["rows"]] == rows
    assert rows == sorted(rows, key=lambda r: (r.method, r.s, r.tol))
    assert {r.method for r in rows} == {"accelerated", "direct_alternating", "euler_transform"}
    for row in rows:
        assert row.terms <= 5000
        assert row.achieved_error <= row.tol


def test_bench_acceleration_wins_at_small_s(capsys):
    # the transformed series needs far fewer terms than the alternating
    # baseline at s = 2, 3 for tolerances <= 1e-6
    code, out, _ = run_cli(
        capsys, "bench", "--s-list", "2,3", "--tol-list", "1e-6,1e-10",
        "--max-terms", "200000",
    )
    assert code == 0
    by_key = {(r.method, r.s, r.tol): r for r in _read_csv_rows(out)}
    for s in (2, 3):
        for tol in (1e-6, 1e-10):
            accelerated = by_key[("accelerated", s, tol)]
            direct = by_key[("direct_alternating", s, tol)]
            assert accelerated.terms < direct.terms


def test_bench_rows_carry_series_points(capsys):
    rows, notes = cli.bench_rows([2], [1e-8])
    for row in rows:
        if row.method == "direct_alternating":
            assert (row.z_re, row.z_im) == (-1.0, 0.0)  # at w = -1
        else:
            assert (row.z_re, row.z_im) == (0.5, 0.0)  # at z = 1/2
    assert notes == []


def test_bench_direct_row_matches_alternating_series():
    # the baseline rows are partial sums of the boundary series at w = -1
    from mhlerch import exact
    from test_series import alternating

    rows, _ = cli.bench_rows([3], [1e-8])
    row = next(r for r in rows if r.method == "direct_alternating")
    reference = float(exact._paper_point_sum(3, cli.REFERENCE_TERMS) / (F(1, 4) - 1))
    partial = alternating(0j, 3, row.terms).real
    recomputed = abs(-partial / (1 - 2.0 ** (1 - 3)) - reference)
    assert recomputed == pytest.approx(row.achieved_error, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# parsing helpers and process-level smoke test
# ---------------------------------------------------------------------------


def test_parse_complex():
    assert cli.parse_complex("1.5") == 1.5 + 0j
    assert cli.parse_complex("-0.3,0.25") == complex(-0.3, 0.25)
    with pytest.raises(ValueError):
        cli.parse_complex("1,2,3")


def test_parse_rational():
    assert cli.parse_rational("7/3") == F(7, 3)
    assert cli.parse_rational("4") == F(4)
    with pytest.raises(ValueError):
        cli.parse_rational("1/0")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--s", "2", "--w", "-1", "--alpha-rat", "1/0"),
        ("verify", "--suite", "lemma", "--beta", "1/0"),
    ],
    ids=["alpha-rat", "beta"],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "invalid parse_rational value: '1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--s", "2", "--w", "-1", "--alpha-rat", "1e400"),
        ("eval", "--s", "400", "--w", "-1", "--alpha=0,0.5"),
        ("eval", "--s", "100", "--w=-0.5", "--alpha=-2.9999"),
        ("eval", "--s", "2", "--w=-1000", "--alpha=-120.5"),
        ("eval", "--s", "100", "--w", "0.5", "--alpha=-1.99999", "--method", "direct"),
    ],
    ids=["alpha-rat", "eval-s", "eval-peeled-s", "eval-peeled-w", "eval-direct-s"],
)
def test_overflow_is_an_error_exit(capsys, argv):
    # float(1e400 as a Fraction), the majorant's float powers at a complex
    # shift and s = 400, the
    # peeled head term (1/(alpha+3))^100, about 1e400, |w|^K = 1000^121 and
    # the direct series' tail bound 1/|alpha+2|^100, about 1e500, overflow
    # binary64; none of them divides by a power that underflowed to 0
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"mhlerch {argv[0]}: error: ")
    assert "division by zero" not in err
    assert "Traceback" not in err


def test_eval_at_large_order(capsys):
    # the majorant (p/C(alpha))^{s-1} overflowed binary64 here ("Numerical
    # result out of range", exit 1)
    code, data, _ = run_json(capsys, "eval", "--s", "150", "--w", "-1")
    assert code == 0
    assert data["converged"] is True
    assert data["value_re"] == pytest.approx(-1.0, abs=1e-12)


def test_zeta_at_large_order_converges(capsys):
    # the H_p majorant's float power overflowed binary64 here (exit 1); at
    # alpha = 0 the majorant is |c_p|, which is at most 1
    code, data, _ = run_json(capsys, "zeta", "--s", "400")
    assert code == 0
    assert data["converged"] is True and data["terms_used"] <= 45
    assert data["value"] == pytest.approx(1.0, abs=1e-12)


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mhlerch ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line


def test_importing_the_cli_loads_only_what_eval_and_zeta_run():
    # A fresh interpreter without site: verify, and the stdlib modules that
    # only verify, bench or a dataclass would need, stay unloaded.
    code = (
        "import sys, mhlerch.cli; "
        "print(sorted({'mhlerch.verify', 'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mhlerch.cli", "zeta", "--s", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1.6449340668482264, abs=1e-12)
