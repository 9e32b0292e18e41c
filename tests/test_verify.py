"""Verification harness: report plumbing, suite coverage, grid sweeps."""

import ast
import copy
import inspect
import json
import math
import pickle
import subprocess
import sys
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest

from mhlerch import errors, exact, series, verify
from mhlerch.errors import InvalidShiftError
from mhlerch.verify import VerificationReport


def test_lemma_full_grid_counts():
    report = verify.verify_lemma(q_max=12, s_max=5)
    assert report.cases_run == 13 * 5 * 6 == 390
    assert report.cases_failed == 0
    assert report.passed
    assert report.worst_residual == 0.0


def test_lemma_base_grid():
    report = verify.verify_lemma(q_max=0, s_max=5)
    assert report.passed
    assert report.cases_run == 30


def test_base_cases():
    report = verify.verify_base_cases()
    assert report.passed
    assert report.cases_run == 2 * 5 * 6


def test_recurrences():
    for report in (
        verify.verify_recurrence_L(q_max=11),
        verify.verify_recurrence_R(q_max=11),
        verify.verify_recurrence_R_base(),
    ):
        assert report.passed, report.identity_name
        assert report.worst_residual == 0.0
    assert verify.verify_recurrence_R(q_max=11).cases_run == 11 * 5 * 6


def test_splitting_full_grid():
    report = verify.verify_splitting()
    assert report.passed
    assert report.cases_run > 0


def test_splitting_pole_just_past_b_max():
    # beta + n vanishes at n = 9, one index past b_max = 8: no sum reaches it.
    report = verify.verify_splitting(betas=[F(-9)])
    assert report.passed
    assert report.cases_run == verify.verify_splitting(betas=[F(1)]).cases_run


def test_splitting_pole_inside_range_names_it():
    with pytest.raises(ZeroDivisionError, match=r"n = 2\b"):
        verify.verify_splitting(betas=[F(-2)])


def test_lemma_complex_spot():
    report = verify.verify_lemma_complex()
    assert report.passed
    assert report.worst_residual <= 1e-9


def test_proposition_oracle():
    report = verify.verify_proposition(tol=1e-10)
    assert report.passed
    assert report.cases_run == 8 * 4 * 3
    assert report.worst_residual <= 1e-10


def test_proposition_z_grid_lies_where_the_oracle_converges():
    assert all(abs(z) <= 0.4 for z in verify.DEFAULT_Z_GRID)


def test_proposition_checks_the_series_in_z_inside_the_lens(monkeypatch):
    # On the lens |w - 1| < 1 (5 of the 8 z points) lerch_accelerated sums the
    # defining series; the check must sum the series in z there too, or it
    # compares lerch_direct with itself.  A series in z off by 1e-6 must fail
    # every case.
    z_series = series._z_series

    def off(*args):
        result = z_series(*args)
        return result._replace(value=result.value + 1e-6)

    lens = [z for z in verify.DEFAULT_Z_GRID if abs(series.disk_to_half_plane(z) - 1) < 1]
    assert len(lens) == 5
    monkeypatch.setattr(series, "_z_series", off)
    report = verify.verify_proposition()
    assert report.cases_run == report.cases_failed == 8 * 4 * 3


def test_coefficient_consistency():
    report = verify.verify_coefficient_consistency(p_max=40)
    assert report.passed
    assert report.cases_run == 40 * 5 * 6
    assert report.worst_residual <= 1e-12


def test_euler_inner_consistency():
    report = verify.verify_euler_inner_sums(p_max=30)
    assert report.passed
    assert report.cases_run == 30 * 5 * 6


def test_coefficient_bound_sweep():
    report = verify.verify_coefficient_bound(p_max=200, s_max=6)
    assert report.passed
    assert report.cases_run == 200 * 6 * 4


def test_ap_bound_sweep():
    report = verify.verify_ap_bound(p_max=200, s_max=6)
    assert report.passed


def test_sondow_special_case():
    report = verify.verify_sondow_form(s_max=5, tol=1e-10)
    assert report.passed
    assert report.cases_run == 2 * 5


def test_invalid_beta_propagates():
    with pytest.raises(InvalidShiftError):
        verify.verify_lemma(q_max=2, betas=[F(0)])
    with pytest.raises(InvalidShiftError):
        verify.verify_recurrence_R(q_max=2, betas=[F(-3)])


#: The checks that read L or R from tables built once per shift.
TABLE_CHECKS = (
    verify.verify_lemma,
    verify.verify_recurrence_L,
    verify.verify_recurrence_R,
    verify.verify_recurrence_R_base,
)


@pytest.mark.parametrize("check", TABLE_CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("betas", [[F(-3)], [F(1), F(-3)]], ids=["alone", "after a valid beta"])
def test_table_checks_reject_a_pole_before_dividing_by_it(check, betas):
    # beta = -3 puts a zero at m = 3 in beta + m, and in (beta + 1) + m at m = 2
    with pytest.raises(InvalidShiftError):
        check(betas=betas)


@pytest.mark.parametrize(
    "check, override",
    [
        (verify.verify_recurrence_R, {"q_max": 0}),
        (verify.verify_recurrence_L, {"q_max": -1}),
        (verify.verify_lemma, {"s_max": 0}),
        (verify.verify_coefficient_consistency, {"p_max": 0}),
        (verify.verify_euler_inner_sums, {"s_max": 0}),
    ],
    ids=[
        "recurrence_R q_max=0", "recurrence_L q_max=-1", "lemma s_max=0",
        "coefficient_consistency p_max=0", "euler_inner_consistency s_max=0",
    ],
)
def test_an_empty_table_grid_runs_no_case_and_fails(check, override):
    report = check(**override)
    assert report.cases_run == 0
    assert not report.passed


def test_lemma_and_step_tables_match_the_public_functions():
    # The step checks read both tables to q_max + 1 at every beta and beta + 1,
    # in integers over one G: entry (q, s) is the value times G^{q+s}.
    q_max = max(verify.DEFAULT_Q_MAX, verify.DEFAULT_STEP_Q_MAX + 1)
    grid = {(q, s) for q in range(q_max + 1) for s in range(1, verify.DEFAULT_S_MAX + 1)}
    for beta in verify.DEFAULT_BETAS:
        x0, x1 = exact._Scaled(beta, 0, q_max + 1), exact._Scaled(beta + 1, -1, q_max)
        assert x0.G == x1.G
        for b, scaled in ((beta, x0), (beta + 1, x1)):
            lhs = verify._lhs_values(scaled, q_max, verify.DEFAULT_S_MAX)
            rhs = verify._rhs_values(scaled, q_max, verify.DEFAULT_S_MAX)
            assert set(lhs) == set(rhs) == grid
            for q, s in grid:
                params = exact.LemmaParams(q, s, b)
                assert all(isinstance(x, int) for x in (lhs[q, s], rhs[q, s]))
                assert lhs[q, s] == exact.lemma_lhs(params) * x0.G ** (q + s), (q, s, b)
                assert rhs[q, s] == exact.lemma_rhs(params) * x0.G ** (q + s), (q, s, b)


def test_inner_sums_match_alternating_coefficient_sum():
    # Exact x0 = alpha + 1: the items are L(p - 1, alpha + 1), the negated
    # inner sums of the series.
    for alpha in verify.DEFAULT_ALPHAS:
        for s in range(1, verify.DEFAULT_S_MAX + 1):
            lhs = exact._alternating_sums(alpha + 1, s)
            for p in range(1, verify.DEFAULT_P_MAX_INNER + 1):
                expected = exact.lemma_lhs(exact.LemmaParams(p - 1, s, alpha + 1))
                assert next(lhs) == expected, (p, alpha, s)
    # Complex x0 (the betas of verify_lemma_complex and the 1 + 0j of
    # series._euler_partial_sums): each item is the primitive over an explicit
    # power list, bit for bit.
    for x0 in (1 + 1j, 0.5 + 2j, 2.5 - 1j, 1 + 0j):
        for s in range(1, verify.DEFAULT_S_MAX + 1):
            powers = [(x0 + m) ** s for m in range(verify.DEFAULT_P_MAX_INNER)]
            items = islice(exact._alternating_sums(x0, s), len(powers))
            for q, item in enumerate(items):
                assert item == exact._alternating_sum(powers, q), (q, x0, s)


def test_the_integer_l_tables_call_no_weight_method_per_term(monkeypatch):
    # The int tables fold the signed rows by multiplying by the int weights,
    # in C: no fold term dispatches to a method of exact._Weight.
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__name__)
            return method(*args)
        return wrapper

    x0 = exact._Scaled(F(7, 3), 0, 29)
    expected = exact.lemma_lhs(exact.LemmaParams(29, 5, F(7, 3))) * x0.G ** (29 + 5)
    for name, method in list(vars(exact._Weight).items()):
        if callable(method):
            monkeypatch.setattr(exact._Weight, name, counted(method))
    table = verify._lhs_values(x0, 29, 5)
    assert len(table) == 30 * 5 and calls == []
    assert table[29, 5] == expected
    next(exact._depth_columns(x0, 1))  # the counter sees a depth-column step: its weight, two divisions
    assert calls == ["__init__", "__rtruediv__", "__rtruediv__"]


# ---------------------------------------------------------------------------
# fault injection: L and R come from independent routes, aligned by index
# ---------------------------------------------------------------------------

#: A relative error far below binary64 resolution, visible only to exact checks.
PERTURBATION = 1 + F(1, 10**30)


def _lemma_cases_at(q):
    # verify_lemma's cases at one q, in its loop order at the default grid
    return [(q, s, beta) for s in range(1, verify.DEFAULT_S_MAX + 1) for beta in verify.DEFAULT_BETAS]


def _step_cases_at(*qs):
    return [case for q in qs for case in _lemma_cases_at(q)]


def _perturb_L_at_q5(monkeypatch):
    alternating_sum = exact._alternating_sum

    def perturbed(powers, q, *combine):
        value = alternating_sum(powers, q, *combine)
        return value * PERTURBATION if q == 5 else value

    monkeypatch.setattr(exact, "_alternating_sum", perturbed)


def _perturb_R_at_n5(monkeypatch):
    depth_columns = exact._depth_columns

    def perturbed(*args):
        for n, prefactor, col in depth_columns(*args):
            yield n, prefactor * PERTURBATION if n == 5 else prefactor, col

    monkeypatch.setattr(exact, "_depth_columns", perturbed)


# A relative (not additive) error keeps L(5, beta) - L(5, beta + 1) wrong as
# well, so the q = 5 step fails too: it reads both tables at the same q.
@pytest.mark.parametrize(
    "perturb, side",
    [(_perturb_L_at_q5, "L"), (_perturb_R_at_n5, "R")],
    ids=["L at q = 5", "R at q = 5"],
)
def test_a_perturbed_side_fails_exactly_its_own_cases(monkeypatch, perturb, side):
    # each failing case is off by (PERTURBATION - 1) L(5, beta), and L = R
    worst = max(
        abs(float(exact.lemma_lhs(exact.LemmaParams(*case)) * (PERTURBATION - 1)))
        for case in _lemma_cases_at(5)
    )
    perturb(monkeypatch)
    lemma = verify.verify_lemma()
    assert lemma.failing_cases == _lemma_cases_at(5)
    assert lemma.cases_failed == 30
    assert lemma.worst_residual == worst
    step, other = verify.verify_recurrence_L(), verify.verify_recurrence_R()
    if side == "R":
        step, other = other, step
    assert step.failing_cases == _step_cases_at(4, 5)
    assert other.passed
    assert verify.verify_recurrence_R_base().passed


def test_a_corrupted_table_entry_reports_its_residual_in_true_units(monkeypatch):
    # The tables hold R(q, s) G^{q+s} as ints; doubling one entry fails that
    # one case, off by R itself, and the residual is divided back by G^{q+s}.
    q, s, beta = 3, 2, F(7, 3)
    rhs_values = verify._rhs_values

    def corrupted(x0, q_max, s_max):
        table = rhs_values(x0, q_max, s_max)
        table[q, s] *= 2
        return table

    monkeypatch.setattr(verify, "_rhs_values", corrupted)
    report = verify.verify_lemma(betas=[beta])
    assert report.failing_cases == [(q, s, beta)]
    # the same residual on the Fraction path: the kernels run on beta itself
    lhs = exact._alternating_sum([(beta + m) ** s for m in range(q + 1)], q)
    *_, (_, prefactor, col) = exact._depth_columns(beta, s - 1, 0, q)
    rhs = prefactor * col[s - 1]
    assert lhs == rhs
    assert report.worst_residual == abs(float(lhs - 2 * rhs)) == float(rhs)
    G = exact._Scaled(beta, 0, verify.DEFAULT_Q_MAX).G
    assert G > 1 and report.worst_residual != float(rhs * G ** (q + s))


def test_a_corrupted_splitting_entry_fails_exactly_the_cases_that_read_it(monkeypatch):
    # S_2^5(2) doubled in the depth column of start a = 2.  Every entry at
    # beta = 7/3 is positive, and no side reads an entry twice, so a case
    # fails iff one of its sides reads that entry.
    a0, n0, t0, beta = 2, 5, 2, F(7, 3)
    b_max, t_max = verify.DEFAULT_B_MAX, verify.DEFAULT_T_MAX
    S = {
        (a, b, t): exact.multi_sum(exact.MultiSumSpec(a, b, t, beta))
        for a in range(b_max + 1) for b in range(a, b_max + 1) for t in range(t_max + 1)
    }
    S[a0, n0, t0] *= 2
    expected, worst = [], 0
    for t in range(t_max + 1):
        for a in range(b_max):
            for b in range(a, b_max):
                for c in range(b + 1, b_max + 1):
                    reads = {(a, c, t)} | {(a, b, u) for u in range(t + 1)} | {(b + 1, c, u) for u in range(t + 1)}
                    if (a0, n0, t0) in reads:
                        expected.append(("two", a, b, c, t, beta))
                        rhs = sum(S[a, b, u] * S[b + 1, c, t - u] for u in range(t + 1))
                        worst = max(worst, abs(S[a, c, t] - rhs))
        for a in range(1, b_max):
            for b in range(a, b_max):
                reads = {(a - 1, b + 1, t)} | {(n, m, u) for n, m in ((a - 1, a - 1), (a, b), (b + 1, b + 1)) for u in range(t + 1)}
                if (a0, n0, t0) in reads:
                    expected.append(("three", a, b, t, beta))
                    rhs = sum(
                        S[a - 1, a - 1, u] * S[a, b, v] * S[b + 1, b + 1, t - u - v]
                        for u in range(t + 1) for v in range(t + 1 - u)
                    )
                    worst = max(worst, abs(S[a - 1, b + 1, t] - rhs))
    depth_columns = exact._depth_columns

    def corrupted(x0, depth, start, stop):
        for n, prefactor, col in depth_columns(x0, depth, start, stop):
            if (start, n) == (a0, n0):
                col = col[:]
                col[t0] *= 2
            yield n, prefactor, col

    monkeypatch.setattr(exact, "_depth_columns", corrupted)
    report = verify.verify_splitting(betas=[beta])
    assert report.cases_run == 740 and report.failing_cases == expected
    assert {case[0] for case in expected} == {"two", "three"}
    # in true units: the table entries are scaled by G^t
    assert report.worst_residual == float(worst) > 0
    G = exact._Scaled(beta, 0, b_max).G
    assert G > 1 and report.worst_residual != float(worst * G**t0)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_invariants_and_json():
    report = verify.verify_lemma(q_max=3, s_max=2)
    assert report.cases_failed == len(report.failing_cases)
    data = json.loads(json.dumps(report.to_dict()))
    assert set(data) == {
        "identity_name",
        "grid",
        "cases_run",
        "cases_failed",
        "worst_residual",
        "failing_cases",
    }
    assert data["identity_name"] == "lemma"
    assert data["cases_failed"] == 0
    assert data["failing_cases"] == []


def test_failing_report_shape():
    report = VerificationReport("demo", "grid", 3, 1, 0.25, [(1, F(1, 2))])
    assert not report.passed
    assert json.loads(json.dumps(report.to_dict()))["failing_cases"] == [["1", "1/2"]]
    assert not VerificationReport("demo", "empty grid").passed


def test_reports_are_values():
    # A traced benchmark pass is checked against an untraced one by repr, so
    # equal reports must print the same, as the fields they hold.
    report = VerificationReport("demo", "grid", 3, 1, 0.25, [(1, F(1, 2))])
    assert repr(report) == (
        "VerificationReport(identity_name='demo', grid_description='grid', cases_run=3, "
        "cases_failed=1, worst_residual=0.25, failing_cases=[(1, Fraction(1, 2))])"
    )
    assert repr(verify.run_suite("sondow")) == repr(verify.run_suite("sondow"))
    assert verify.run_suite("lemma", q_max=2) == verify.run_suite("lemma", q_max=2)
    assert report != VerificationReport("demo", "grid", 3, 1, 0.5, [(1, F(1, 2))])
    assert report != report.to_dict()
    # A report is a record like the others: the tuple of its fields, immutable.
    assert report == ("demo", "grid", 3, 1, 0.25, [(1, F(1, 2))])
    assert type(report._replace(cases_failed=0)) is VerificationReport
    assert report._replace(cases_failed=0).passed
    for name in report._fields:
        with pytest.raises(AttributeError):
            setattr(report, name, 0)
    assert VerificationReport("demo", "grid").failing_cases == ()
    assert copy.copy(report) == report and pickle.loads(pickle.dumps(report)) == report
    assert type(pickle.loads(pickle.dumps(report))) is VerificationReport


def test_a_nan_float_case_fails_and_is_listed():
    cases = [((1,), 0.0), ((2,), math.nan), ((3,), 0.5e-10)]
    report = verify._float_report("demo", "grid", 1e-10, iter(cases))
    assert (report.cases_run, report.cases_failed, report.failing_cases) == (3, 1, [(2,)])
    assert report.worst_residual == 0.5e-10  # a nan is never above the worst, so it never enters it
    assert not report.passed


def test_a_failed_predicate_case_has_residual_one():
    # lemma_base_cases and ap_bound yield (params, ok, True, 1): |False - True| / 1
    cases = [((1,), True, True, 1), ((2,), False, True, 1)]
    report = verify._exact_report("demo", "grid", iter(cases))
    assert (report.cases_run, report.failing_cases, report.worst_residual) == (2, [(2,)], 1.0)
    assert verify._exact_report("demo", "grid", iter(())) == VerificationReport("demo", "grid", 0, 0, 0.0, [])


def test_residual_metric():
    assert verify.float_residual(0.5, 0.9) == pytest.approx(0.4)  # absolute below 1
    assert verify.float_residual(1.5, 3.0) == pytest.approx(0.5)  # relative above 1


# ---------------------------------------------------------------------------
# suites and proof coverage
# ---------------------------------------------------------------------------


def test_run_suite_names():
    assert set(verify.SUITE_NAMES) == {
        "lemma",
        "recurrences",
        "splitting",
        "proposition",
        "bounds",
        "sondow",
    }
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_run_suite_overrides():
    reports = verify.run_suite("lemma", q_max=2, s_max=2)
    lemma = next(r for r in reports if r.identity_name == "lemma")
    assert lemma.cases_run == 3 * 2 * 6


def test_run_suite_reads_betas_once_for_every_check():
    # a generator of shifts must reach every check of the suite, not the first only
    betas = [1, F(1, 2)]
    expected = [r.to_dict() for r in verify.run_suite("all", betas=betas)]
    assert [r.to_dict() for r in verify.run_suite("all", betas=iter(betas))] == expected


#: (grid, cases_run) of every report of run_suite("all") at the default grids.
DEFAULT_GRIDS = {
    "lemma_base_cases": ("q in {0, 1}, s <= 5, 6 betas", 60),
    "lemma": ("q <= 12, s <= 5, 6 betas", 390),
    "lemma_complex_spot": ("q <= 8, s <= 4, complex betas", 108),
    "recurrence_L": ("step q <= 11, s <= 5, 6 betas", 360),
    "recurrence_R": ("step 1 <= q <= 11, s <= 5, 6 betas", 330),
    "recurrence_R_q0": ("q = 0, s <= 5, 6 betas", 30),
    "splitting": ("0 <= a <= b < c <= 8, t <= 4, 6 betas", 4440),
    "proposition_oracle": ("8 z points (|z| <= 0.4), 4 shifts, s <= 3", 96),
    "coefficient_consistency": ("p <= 40, s <= 5, 6 rational alphas", 1200),
    "euler_inner_consistency": ("p <= 30, s <= 5, 6 rational alphas", 900),
    "coefficient_bound": ("p <= 200, s <= 6, 4 shifts", 4800),
    "ap_bound": ("p <= 200, s <= 6", 1200),
    "sondow_special_case": ("s <= 5, P = 60, alpha = 0, z = 1/2", 10),
}


def test_default_grids_run_the_cases_the_benchmark_expects():
    # perfbench's verify-all workload counts one cycle of the suites against
    # its VERIFY_CASES; read here without importing the harness.
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (expected,) = [
        node.value.value
        for node in ast.parse(workloads.read_text()).body
        if isinstance(node, ast.Assign) and list(map(ast.unparse, node.targets)) == ["VERIFY_CASES"]
    ]
    assert sum(cases for _, cases in DEFAULT_GRIDS.values()) == expected == 13924


#: Each override of run_suite and the reports it moves off their defaults.
OVERRIDE_GRIDS = {
    "q_max=3": (
        {"q_max": 3},
        {
            "lemma": ("q <= 3, s <= 5, 6 betas", 120),
            "recurrence_L": ("step q <= 3, s <= 5, 6 betas", 120),
            "recurrence_R": ("step 1 <= q <= 3, s <= 5, 6 betas", 90),
        },
    ),
    "s_max=2": (
        {"s_max": 2},
        {
            "lemma_base_cases": ("q in {0, 1}, s <= 2, 6 betas", 24),
            "lemma": ("q <= 12, s <= 2, 6 betas", 156),
            "lemma_complex_spot": ("q <= 8, s <= 2, complex betas", 54),
            "recurrence_L": ("step q <= 11, s <= 2, 6 betas", 144),
            "recurrence_R": ("step 1 <= q <= 11, s <= 2, 6 betas", 132),
            "recurrence_R_q0": ("q = 0, s <= 2, 6 betas", 12),
            "proposition_oracle": ("8 z points (|z| <= 0.4), 4 shifts, s <= 2", 64),
            "coefficient_consistency": ("p <= 40, s <= 2, 6 rational alphas", 480),
            "euler_inner_consistency": ("p <= 30, s <= 2, 6 rational alphas", 360),
            "coefficient_bound": ("p <= 200, s <= 2, 4 shifts", 1600),
            "ap_bound": ("p <= 200, s <= 2", 400),
            "sondow_special_case": ("s <= 2, P = 60, alpha = 0, z = 1/2", 4),
        },
    ),
    "p_max=7": (
        {"p_max": 7},
        {
            "coefficient_consistency": ("p <= 7, s <= 5, 6 rational alphas", 210),
            "euler_inner_consistency": ("p <= 7, s <= 5, 6 rational alphas", 210),
            "coefficient_bound": ("p <= 7, s <= 6, 4 shifts", 168),
            "ap_bound": ("p <= 7, s <= 6", 42),
        },
    ),
    "tol=1e-9": ({"tol": 1e-9}, {}),
    "betas=(1/2, 2)": (
        {"betas": (F(1, 2), F(2))},
        {
            "lemma_base_cases": ("q in {0, 1}, s <= 5, 2 betas", 20),
            "lemma": ("q <= 12, s <= 5, 2 betas", 130),
            "recurrence_L": ("step q <= 11, s <= 5, 2 betas", 120),
            "recurrence_R": ("step 1 <= q <= 11, s <= 5, 2 betas", 110),
            "recurrence_R_q0": ("q = 0, s <= 5, 2 betas", 10),
            "splitting": ("0 <= a <= b < c <= 8, t <= 4, 2 betas", 1480),
        },
    ),
}


@pytest.mark.parametrize("override, moved", OVERRIDE_GRIDS.values(), ids=list(OVERRIDE_GRIDS))
def test_run_suite_routes_each_override_to_its_checks(override, moved):
    expected = [(name, *moved.get(name, grid)) for name, grid in DEFAULT_GRIDS.items()]
    reports = verify.run_suite("all", **override)
    assert [(r.identity_name, r.grid_description, r.cases_run) for r in reports] == expected
    assert all(r.passed for r in reports)


def test_run_suite_routes_tol_to_the_oracle_and_sondow_checks_only():
    # A tolerance no float check can meet fails exactly the checks it reaches;
    # lemma_complex_spot keeps its own 1e-9.
    reports = [r for suite in ("lemma", "proposition", "bounds", "sondow")
               for r in verify.run_suite(suite, tol=1e-300)]
    failed = {r.identity_name for r in reports if not r.passed}
    assert failed == {"proposition_oracle", "sondow_special_case"}


def test_every_check_parameter_is_a_run_suite_override():
    overrides = set(inspect.signature(verify.run_suite).parameters) - {"name"}
    for check in (check for checks in verify.SUITES.values() for check in checks):
        assert set(inspect.signature(check).parameters) <= overrides, check.__name__


def test_run_suite_reads_the_same_parameters_as_the_signature():
    # run_suite names a check's parameters from its code object; that holds
    # while every parameter is positional-or-keyword.
    for check in (check for checks in verify.SUITES.values() for check in checks):
        code = check.__code__
        assert code.co_varnames[: code.co_argcount] == tuple(inspect.signature(check).parameters)


PUBLIC_NAMES = {
    "DomainError", "InvalidShiftError", "PrecisionError",
    "LemmaParams", "MultiSumSpec", "coefficient_exact", "lemma_lhs", "lemma_rhs", "multi_sum",
    "SeriesResult", "ShiftParam", "disk_to_half_plane", "lerch_accelerated",
    "lerch_direct", "zeta_accelerated", "VerificationReport", "run_suite", "__version__",
}

#: Module that held each deleted name -> the names.
DELETED_NAMES = {
    exact: ("pochhammer", "binomial", "multi_sum_bruteforce", "alternating_coefficient_sum", "Rational",
            "coefficient_stream"),
    series: ("ap_coefficient", "coefficient_float", "alternating_direct", "half_plane_to_disk",
             "shift_gap", "coefficient_bound"),
    errors: ("EnumerationCapError",),
}


def test_package_resolves_the_verify_names_on_first_access():
    # In a fresh interpreter `import mhlerch` leaves verify unloaded until
    # one of its names is read; a star import then binds every public name.
    code = (
        "import sys, mhlerch; before = 'mhlerch.verify' in sys.modules; "
        "mhlerch.run_suite; print(before, 'mhlerch.verify' in sys.modules); "
        "from mhlerch import *; print(all(name in globals() for name in mhlerch.__all__))"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src})
    assert proc.stdout == "False True\nTrue\n", proc.stderr

    import mhlerch
    from mhlerch import VerificationReport as imported, run_suite

    assert run_suite is verify.run_suite and mhlerch.run_suite is verify.run_suite
    assert imported is VerificationReport and mhlerch.VerificationReport is VerificationReport
    assert {"run_suite", "VerificationReport"} <= set(mhlerch.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        mhlerch.nosuch
    with pytest.raises(ImportError):
        from mhlerch import nosuch  # noqa: F401

    # The public surface is the paper's machinery; the test-only names are gone.
    assert set(mhlerch.__all__) == PUBLIC_NAMES and len(mhlerch.__all__) == len(PUBLIC_NAMES) == 18
    for name in PUBLIC_NAMES:
        getattr(mhlerch, name)
    for module, names in DELETED_NAMES.items():
        for name in names:
            for holder in (mhlerch, module):
                with pytest.raises(AttributeError):
                    getattr(holder, name)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_run_suite_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # inf passed every float case, and nan, 0 and -1 failed every one
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify.run_suite("sondow", tol=tol)


def lemma_proof_coverage(reports):
    """Map each displayed proof identity to 'its report exists and passed'."""
    by_name = {}
    for r in reports:
        by_name.setdefault(r.identity_name, []).append(r)
    return {
        identity: (report_name in by_name and all(r.passed for r in by_name[report_name]))
        for identity, report_name in verify.LEMMA_PROOF_IDENTITIES.items()
    }


def test_every_displayed_identity_is_covered():
    reports = []
    for suite in ("lemma", "recurrences", "splitting"):
        reports.extend(verify.run_suite(suite, q_max=4, s_max=2))
    coverage = lemma_proof_coverage(reports)
    assert set(coverage) == set(verify.LEMMA_PROOF_IDENTITIES)
    assert all(coverage.values()), coverage


def test_missing_identity_fails_coverage():
    reports = [r for r in verify.run_suite("lemma", q_max=2, s_max=2)]
    coverage = lemma_proof_coverage(reports)
    # recurrence and splitting reports absent, so those identities are uncovered
    assert not coverage["R(q+1, beta) = R(q, beta) - R(q, beta+1)"]
    assert not coverage["S_a^c(t) = sum_{u+v=t} S_a^b(u) S_{b+1}^c(v)"]
    assert coverage["L(q, beta) = R(q, beta)"]
