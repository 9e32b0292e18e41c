"""Float layer: closed-form values, mpmath oracle agreement, bound contracts."""

import cmath
import copy
import math
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhlerch import cli, exact, inversion, logseries, series
from mhlerch.errors import DomainError, InvalidShiftError, PrecisionError
from mhlerch.series import SeriesResult, ShiftParam
import _reference
from test_exact import KNOWN_BERNOULLI, kernel_coefficients

mp.mp.dps = 30

LN2 = 0.6931471805599453
PI2_12 = 0.8224670334241132
DILOG_HALF = 0.5822405264650125  # pi^2/12 - ln(2)^2/2

ALPHAS_RATIONAL = [F(0), F(-1, 2), F(1, 2), F(1), F(4, 3), F(4)]
SHIFTS_MIXED = [0j, 0.5 + 0j, 1j, -0.5 + 0.5j]
#: Re(alpha) < -1/2: the series in z peels the K = floor(-Re alpha) + 1 pole terms.
SHIFTS_NEGATIVE = [-0.7 + 0j, -3.5 + 0j, -7.3 + 0.01j, -1.999 + 0j]
U = 2.0**-53  # unit roundoff of binary64


def ref_lerch(w: complex, alpha: complex, s: int) -> complex:
    """Independent oracle: sum_{n>=1} w^n/(alpha+n)^s via mpmath's lerchphi."""
    return complex(mp_lerch(w, alpha, s))


def mp_lerch(w, alpha, s: int):
    """`ref_lerch` at 30 digits, as an mpmath number."""
    return mp.mpc(w) * mp.lerchphi(mp.mpc(w), s, mp.mpc(alpha) + 1)


def oracle_error(value: complex, w, alpha, s: int) -> float:
    """|value - Li(w; alpha, s)|, the difference taken at 30 digits, so that
    neither the reference's rounding to binary64 nor the subtraction's moves
    it by u |value|."""
    return float(abs(mp.mpc(value) - mp_lerch(w, alpha, s)))


def assert_certified(result: SeriesResult, tol: float, error: float) -> None:
    """The contract of a converged result: its bound meets tol max(1, |value|)
    and covers the error."""
    assert result.converged
    assert result.error_bound <= tol * max(1.0, abs(result.value))
    assert error <= result.error_bound


def z_series(w, shift, s, tol=series.DEFAULT_TOL, max_terms=series.DEFAULT_MAX_TERMS):
    """The series in z that `lerch_accelerated` sums off the lens |w - 1| < 1,
    summed at any w of the half-plane."""
    return series._z_series(complex(w), shift.alpha, s, tol, max_terms)


def kept_key(alpha, s, factory=series._term_stream):
    """The key of (alpha, s) in `series._recorded` and `series._kept`."""
    return (factory, alpha, s, type(alpha))


def kept(alpha, s, factory=series._term_stream):
    """The `series._kept` entry of (alpha, s): (terms, extension, setup),
    `setup` the key's set-up in `_summed`; KeyError if it is not kept."""
    return series._kept[kept_key(alpha, s, factory)]


def coefficient(p, alpha, s):
    """c_p in binary64: -prefactor * col[s-1] at the p-th `exact._depth_columns`
    step, as `_term_stream` yields it."""
    *_, (_, prefactor, col) = exact._depth_columns(complex(alpha), s - 1, 1, p)
    return -prefactor * col[s - 1]


def majorant(p, alpha, s):
    """B(p) >= |c_p|: |alpha+1|^{-s} at p = 1, as `verify_coefficient_bound`
    starts, else the B(p) that `_term_stream` yields with c_{p-1}."""
    if p == 1:
        return abs(complex(alpha) + 1) ** -s
    return next(islice(series._term_stream(complex(alpha), s), p - 2, None))[1]


def alternating(alpha, s, n_terms):
    """sum_{n=1}^{N} (-1)^n/(alpha+n)^s (the n = 1 term is negative): the N-th
    partial sum of the defining series at the boundary point w = -1."""
    _, total = next(islice(series._partial_sums(-1, series._direct_terms(complex(alpha), s)), n_terms - 1, None))
    return total


# ---------------------------------------------------------------------------
# shift machinery
# ---------------------------------------------------------------------------


def test_shift_gap_values():
    # min_{n>=1} |alpha + n|, which ShiftParam checks against SHIFT_TOL
    def gap(a):
        return series._tail_gap(complex(a), 1)

    assert gap(0) == 1.0
    assert gap(-2) == 0.0
    assert gap(-2.5) == 0.5
    assert gap(1j) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert gap(-3.25) == pytest.approx(0.25, rel=1e-15)
    assert gap(0.75) == 1.75


def test_shift_gap_rejects_nonfinite():
    with pytest.raises(ValueError):
        ShiftParam(float("nan"))
    with pytest.raises(ValueError):
        ShiftParam(complex(0, float("inf")))


def tail_gap_three_candidates(alpha, n_min):
    """Oracle for `series._tail_gap`: the min of |alpha + n| over n0 =
    round(-Re alpha) clamped to >= n_min and its neighbours >= n_min."""
    n0 = max(n_min, round(-alpha.real))
    return min(abs(alpha + n) for n in (n0 - 1, n0, n0 + 1) if n >= n_min)


def _with_neighbours(x):
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


gap_reals = st.one_of(
    st.floats(-(2.0**60), 2.0**60),
    st.floats(-70.0, 10.0),  # where n_min can lie above round(-Re alpha)
    st.integers(-(2**52) + 1, 2**52 - 1).map(lambda k: k + 0.5),  # exact half-integers
    st.integers(-(2**60), 2**60).map(float).flatmap(_with_neighbours),  # integers +- 1 ulp
    st.integers(-70, 10).map(float).flatmap(_with_neighbours),
)


@settings(max_examples=500)
@given(
    re=gap_reals,
    im=st.sampled_from([0.0, 5e-324, -5e-324, 1e-12, -1e-12, 1e6, -1e6]),
    n_min=st.integers(1, 60),
)
def test_tail_gap_is_the_three_candidate_minimum(re, im, n_min):
    alpha = complex(re, im)
    assert series._tail_gap(alpha, n_min) == tail_gap_three_candidates(alpha, n_min)


def test_shift_param_band_edge_is_unchanged():
    # every float within 40 ulps of -3 +- SHIFT_TOL, and the imaginary band
    # edge, is accepted or rejected as the three-candidate gap decides
    decided = set()
    for edge in (-3 + series.SHIFT_TOL, -3 - series.SHIFT_TOL):
        alpha = edge
        for _ in range(40):
            alpha = math.nextafter(alpha, -3.0)
        candidates = []
        for _ in range(81):
            candidates.append(complex(alpha))
            alpha = math.nextafter(alpha, -2.0 if edge > -3 else -4.0)
        candidates += [complex(-3, series.SHIFT_TOL), complex(-3, math.nextafter(series.SHIFT_TOL, 1.0))]
        for alpha in candidates:
            rejected = tail_gap_three_candidates(alpha, 1) <= series.SHIFT_TOL
            decided.add(rejected)
            if rejected:
                message = f"alpha = {alpha} is within {series.SHIFT_TOL} of a negative integer"
                with pytest.raises(InvalidShiftError) as raised:
                    ShiftParam(alpha)
                assert str(raised.value) == message
            else:
                assert ShiftParam(alpha).alpha == alpha
    assert decided == {True, False}


def test_shift_param_validation():
    assert ShiftParam(0.5) == (0.5 + 0j,) and type(ShiftParam(0.5).alpha) is complex
    for bad in (-1, -2.0, -3 + 1e-13j):
        with pytest.raises(InvalidShiftError):
            ShiftParam(bad)
    # just outside the rejection band
    ShiftParam(-2 + 1e-6j)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ShiftParam(0.5),
        lambda: SeriesResult(1j, 3, 1e-13, True, "z"),
        lambda: exact.LemmaParams(2, 3, F(1, 2)),
        lambda: exact.MultiSumSpec(0, 4, 2, F(7, 3)),
        lambda: cli.ConvergenceRow("accelerated", 2, 0.5, 0.0, 1e-6, 20, 1e-7),
    ],
    ids=["ShiftParam", "SeriesResult", "LemmaParams", "MultiSumSpec", "ConvergenceRow"],
)
def test_records_are_immutable(make):
    record = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record


def test_validated_records_revalidate_on_replace():
    shift = ShiftParam(0.5)
    assert shift._replace(alpha=2) == ShiftParam(2)
    with pytest.raises(InvalidShiftError):
        shift._replace(alpha=-3)
    assert exact.LemmaParams(2, 3, 1)._replace(beta=0.5).beta == F(1, 2)
    with pytest.raises(InvalidShiftError):
        exact.LemmaParams(2, 3, 1)._replace(beta=0)
    with pytest.raises(ZeroDivisionError):
        exact.MultiSumSpec(0, 4, 2, 1)._replace(beta=-2)
    with pytest.raises(TypeError):
        ShiftParam(0.5, 1.5)


# ---------------------------------------------------------------------------
# direct series
# ---------------------------------------------------------------------------


def test_direct_at_zero():
    result = series.lerch_direct(0, ShiftParam(0j), 2)
    assert result.value == 0
    assert result.terms_used == 1
    assert result.converged
    assert result.error_bound == 0.0


def test_direct_log2():
    result = series.lerch_direct(0.5, ShiftParam(0j), 1, tol=1e-12)
    assert result.converged
    assert result.value.real == pytest.approx(LN2, abs=1e-12)


def test_direct_dilog_half():
    result = series.lerch_direct(0.5, ShiftParam(0j), 2, tol=1e-12)
    assert result.value.real == pytest.approx(DILOG_HALF, abs=1e-12)


def test_direct_domain_error():
    for w in (1.0, -1.0, 1.2, cmath.exp(0.3j)):
        with pytest.raises(DomainError):
            series.lerch_direct(w, ShiftParam(0j), 1)


def test_direct_tolerance_floor():
    with pytest.raises(PrecisionError):
        series.lerch_direct(0.5, ShiftParam(0j), 1, tol=1e-14)


def test_direct_nonconvergence_flag():
    result = series.lerch_direct(0.9, ShiftParam(0j), 1, tol=1e-12, max_terms=5)
    assert not result.converged
    assert result.terms_used == 5
    assert result.error_bound > 1e-12


def test_direct_bound_overflow_raises_overflow_error():
    # 1/gap^s, gap = |alpha + 2| = 1e-5, is about 1e500; gap**s underflowed to
    # 0 and raised ZeroDivisionError
    with pytest.raises(OverflowError):
        series.lerch_direct(0.5, ShiftParam(-2 + 1e-5), 100)


def test_direct_majorant_overflow_is_inf_not_a_raise():
    # Just off a pole at s = 100 the majorant B overflows before the term at
    # the pole is reached: the terms before it are still summed, and a call
    # that stops before it is not converged, with bound inf
    shift = ShiftParam(-2 + 1e-5)
    assert alternating(shift.alpha, 100, 1) == -(1 / (shift.alpha + 1)) ** 100
    result = series.lerch_direct(0.5, ShiftParam(-5 + 1e-5), 100, max_terms=3)
    assert (result.terms_used, result.error_bound, result.converged) == (3, math.inf, False)


def test_direct_series_is_one_generator():
    # lerch_direct and the peeled head (K = 8 here) are items of
    # _partial_sums over _direct_terms, bit for bit
    w, shift, s = -0.3 + 0.4j, ShiftParam(-7.3 + 0.01j), 3
    result = series.lerch_direct(w, shift, s)
    items = islice(series._partial_sums(w, series._direct_terms(shift.alpha, s)), result.terms_used)
    totals = [total for _, total in items]
    assert result.value == totals[-1]
    assert series.lerch_accelerated(w, shift, s, max_terms=8).value == totals[7]


def test_direct_bound_contract_vs_oracle():
    for alpha in SHIFTS_MIXED:
        shift = ShiftParam(alpha)
        for s in (1, 2, 3):
            for w in (0.5, -0.66, 0.3 + 0.4j, -0.2 - 0.5j):
                result = series.lerch_direct(w, shift, s, tol=1e-12)
                assert_certified(result, 1e-12, oracle_error(result.value, w, alpha, s))


# ---------------------------------------------------------------------------
# alternating boundary series
# ---------------------------------------------------------------------------


def test_alternating_single_term():
    for alpha in SHIFTS_MIXED:
        assert alternating(alpha, 3, 1) == -1 / (alpha + 1) ** 3


def test_alternating_log2():
    # alternating-series remainder: within 1/(N+1) of -ln 2
    value = alternating(0j, 1, 1000)
    assert abs(value.real + LN2) < 1.0 / 1001


def test_alternating_eta2():
    value = alternating(0j, 2, 2000)
    assert abs(value.real + PI2_12) < 1.0 / 2001**2


# ---------------------------------------------------------------------------
# coefficients and their majorant
# ---------------------------------------------------------------------------


def test_coefficient_float_first_index():
    for alpha in SHIFTS_MIXED:
        for s in (1, 2, 4):
            expected = -1 / (alpha + 1) ** s
            assert coefficient(1, alpha, s) == pytest.approx(expected, rel=1e-15)


def test_coefficient_float_harmonic_case():
    for p in (1, 2, 7, 20):
        assert coefficient(p, 0j, 1) == pytest.approx(-1.0 / p, rel=1e-14)


def test_coefficient_float_frozen_value():
    assert coefficient(3, 0j, 2).real == pytest.approx(-11.0 / 18.0, rel=1e-15)


def test_coefficient_float_matches_exact():
    for alpha in ALPHAS_RATIONAL:
        for s in (1, 2, 5):
            for p in (1, 5, 17, 40):
                c_exact = float(exact.coefficient_exact(p, alpha, s))
                c_float = coefficient(p, complex(alpha), s)
                assert abs(c_float - c_exact) / abs(c_exact) <= 1e-12


def complete_homogeneous(t, q):
    """h_t(1, 1/2, ..., 1/q) by Newton's identity h_k = (1/k) sum_{i<=k}
    H_q^{(i)} h_{k-i}, from the generalized harmonic numbers H_q^{(i)}."""
    power_sums = [sum(F(1, n**i) for n in range(1, q + 1)) for i in range(t + 1)]
    h = [F(1)]
    for k in range(1, t + 1):
        h.append(sum(power_sums[i] * h[k - i] for i in range(1, k + 1)) / k)
    return h[t]


def test_coefficient_bound_alpha_zero_closed_form():
    # B(p) = |c_{p-1}| = h_{s-1}(1, 1/2, ..., 1/(p-1)) / (p-1) at alpha = 0
    # (B(1) = 1): at a real shift the majorant is the previous |c_p|
    for s in (1, 2, 3, 5):
        for p in (1, 4, 30, 200):
            expected = float(complete_homogeneous(s - 1, p - 1) / (p - 1)) if p > 1 else 1.0
            assert majorant(p, 0j, s) == pytest.approx(expected, rel=1e-13)


def test_coefficient_bound_first_index():
    # B(1) = |alpha+1|^{-s} = |c_1|, and B(2), the stream's first, is |c_1|
    # at a real alpha > -1, else (1/|alpha+1| + 1/|alpha+2|)^{s-1} /
    # (|alpha+1| |alpha+2|); at -2.5, min_n |alpha+n| = 0.5 differs from |alpha+1|
    for alpha in SHIFTS_MIXED + [-2.5 + 0j]:
        a1, a2 = abs(alpha + 1), abs(alpha + 2)
        for s in (1, 2, 3):
            assert majorant(1, alpha, s) == pytest.approx(abs(coefficient(1, alpha, s)), rel=1e-14)
            if alpha.imag == 0 and alpha.real > -1:
                expected = a1**-s
            else:
                expected = (1 / a1 + 1 / a2) ** (s - 1) / (a1 * a2)
            assert majorant(2, alpha, s) == pytest.approx(expected, rel=1e-14)


def test_coefficient_bound_attained_at_s1_alpha0():
    # attained at p = 1, and at s = 1 off the real shifts alpha > -1, where
    # B(p) = |c_{p-1}| > |c_p|
    for alpha in SHIFTS_MIXED:
        for s in (1, 2, 3):
            for p in (1, 3, 10):
                attained = p == 1 or (s == 1 and not (alpha.imag == 0 and alpha.real > -1))
                c_p = abs(coefficient(p, alpha, s))
                bound = majorant(p, alpha, s)
                assert (c_p == pytest.approx(bound, rel=1e-13)) == attained


def test_coefficient_bound_validity():
    for alpha in SHIFTS_MIXED:
        for s in range(1, 7):
            for p in range(1, 61):
                c = coefficient(p, alpha, s)
                assert abs(c) <= majorant(p, alpha, s) * (1 + 1e-10)


def test_coefficient_bound_just_off_a_pole_at_large_s():
    # 1/|alpha+5| = 1e9 to the power s-1 overflows the tail ratio r_3, one index
    # before B overflows; r_p is then inf, and B(4) is still read
    for alpha, expected in ((-5 - 1e-9, 675354407565.5435), (-5 + 1e-9, 675354446375.9144)):
        assert majorant(4, alpha, 40) == pytest.approx(expected, rel=1e-12)
        assert next(islice(series._term_stream(alpha, 40), 2, None))[2] == math.inf


@example(alpha=F(-99, 100), s=8, p=1)  # 58u below |c_m| at -99/100 itself, not at float(-99/100)
@example(alpha=F(-993604, 1000000), s=9, p=21)  # |c_p| in floats was 3.5u below the exact |c_22|
@settings(max_examples=100, deadline=None)
@given(
    alpha=st.fractions(min_value=-1, max_value=60, max_denominator=100).filter(lambda a: a > -1),
    s=st.integers(1, 8),
    p=st.integers(1, 80),
)
def test_real_shift_majorant_bounds_the_exact_coefficients(alpha, s, p):
    # At a real alpha > -1, c_p < 0 and B(p+1), |c_p| inflated by its
    # rounding, bounds every later exact |c_m| at the shift the stream is
    # given, Fraction(float(alpha)); strictly, with no tolerance
    c_p, b_next, _ = next(islice(series._term_stream(complex(alpha), s), p - 1, None))
    exact_c = kernel_coefficients(F(float(alpha)), s, p + 5)  # c_1 .. c_{p+5}, one pass in Fraction
    assert c_p.real < 0 and exact_c[p - 1] < 0
    for m in range(p + 1, p + 6):
        assert F(b_next) >= abs(exact_c[m - 1])


def _majorant_ratios(alpha, s, stop):
    # B(m+1)/B(m) = m/|alpha+m+1| * (H_{m+1}/H_m)^{s-1} for m = 1 .. stop - 1,
    # with H_m = sum_{i<=m} 1/|alpha+i| summed here, apart from the series
    h = [0.0]
    for i in range(1, stop + 1):
        h.append(h[-1] + 1 / abs(alpha + i))
    return {m: m / abs(alpha + m + 1) * (h[m + 1] / h[m]) ** (s - 1) for m in range(1, stop)}


tail_shifts = st.one_of(
    # near a pole -n, off it by at least 1e-9
    st.builds(
        lambda n, d: -n + d,
        st.integers(1, 300),
        st.complex_numbers(min_magnitude=1e-9, max_magnitude=1e-3),
    ),
    st.floats(min_value=-1e3, max_value=0.0).filter(lambda a: a != round(a) or a >= 0),
    # off every pole -n by at least 1e-9, as the first branch: at alpha = -1 +
    # 3.66e-292i the test's own B(1) = |alpha + 1|^-s overflowed
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False).filter(
        lambda a: round(a.real) >= 0 or abs(a - round(a.real)) >= 1e-9
    ),
    st.floats(min_value=10.0, max_value=1e3),
)


@settings(max_examples=300)
@given(alpha=tail_shifts, p=st.integers(1, 200), s=st.integers(1, 6))
def test_tail_ratio_sup_bounds_the_majorant_ratio(alpha, p, s):
    alpha = complex(alpha)  # may lie closer to a pole than ShiftParam admits
    stream = list(islice(series._term_stream(alpha, s), 200))
    bounds = [abs(alpha + 1) ** -s] + [b_next for _, b_next, _ in stream]  # B(1) = |c_1|
    for c_p, b_p in zip((c_p for c_p, _, _ in stream), bounds):
        assert abs(c_p) <= b_p * (1 + 1e-12)
    sup = stream[p - 1][2]
    if alpha.imag == 0 and alpha.real > -1:
        # bounds[m] = B(m+1) = |c_m| inflated by its rounding, 1 + 4(m+s) 2^-52;
        # |c_m| does not increase: every ratio is <= 1 <= sup
        for m in range(1, 200):
            assert bounds[m] == abs(stream[m - 1][0]) * (1 + 4 * (m + s) * 2.0**-52)
            assert bounds[m] <= bounds[m - 1] * (1 + 1e-12)
        assert sup >= 1.0
        return
    ratios = _majorant_ratios(alpha, s, p + 401)
    for m in range(1, 200):  # bounds[m] = B(m+1), read at every other shift
        assert bounds[m] == pytest.approx(bounds[m - 1] * ratios[m], rel=1e-12)
    # the ratio bound holds for Re(alpha) >= -1, the shifts `_summed` is given;
    # allow the rounding of the sup
    if alpha.real >= -1.0:
        assert sup * (1 + 1e-12) >= max(ratios[m] for m in range(p + 1, p + 401))


# ---------------------------------------------------------------------------
# accelerated evaluator
# ---------------------------------------------------------------------------


def test_accelerated_at_zero():
    result = series.lerch_accelerated(0, ShiftParam(0j), 3)
    assert result.value == 0
    assert result.converged


def test_accelerated_log2():
    result = series.lerch_accelerated(-1, ShiftParam(0j), 1, tol=1e-12)
    assert result.converged
    assert result.value.real == pytest.approx(-LN2, abs=1e-12)


def test_accelerated_eta2():
    result = series.lerch_accelerated(-1, ShiftParam(0j), 2, tol=1e-12)
    assert result.value.real == pytest.approx(-PI2_12, abs=1e-12)


PAPER_POINT_TOLS = (1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13)


@pytest.mark.parametrize("s", range(2, 13))
def test_paper_point_certificate_against_the_exact_reference(s):
    # At w = -1, alpha = 0 (z = 1/2) the exact partial sum S of 64 terms is
    # within 2^-64 of Li(-1; 0, s), and zeta(s) = S/(2^{1-s} - 1) within 2^-63
    # of zeta(s): every converged call's error must stay within its bound.
    exact_sum = exact._paper_point_sum(s, 64)
    references = (
        (lambda tol: series.zeta_accelerated(s, tol), exact_sum / (F(2) ** (1 - s) - 1), F(1, 2**63)),
        (lambda tol: series.lerch_accelerated(-1, ShiftParam(0), s, tol), exact_sum, F(1, 2**64)),
    )
    for evaluate, reference, tail in references:
        for tol in PAPER_POINT_TOLS:
            result = evaluate(tol)
            assert result.converged and result.value.imag == 0
            assert abs(F(result.value.real) - reference) + tail <= F(result.error_bound), (tol, result)


@pytest.mark.parametrize("s", [150, 400, 1000])
def test_paper_point_at_large_order(s):
    # Li(-1; 0, s) = -1 + 2^-s - 3^-s + ... lies in (-1, -1 + 2^-s), and
    # zeta(s) in (1, 1 + 2^{1-s}); the H_p majorant overflowed at s = 400 and
    # 1000, and took 439 terms at s = 150
    for result in (series.zeta_accelerated(s, 1e-12), series.lerch_accelerated(-1, ShiftParam(0), s, 1e-12)):
        assert result.converged and result.terms_used <= 45
        assert abs(abs(result.value) - 1) + 2.0 ** (1 - s) <= result.error_bound


def test_real_shift_coefficient_overflow_raises():
    # c_1 = -(alpha+1)^{-s} = -2^1100 at alpha = -1/2: the majorant |c_p| is
    # inf, and the call raises at once instead of summing to max_terms
    with pytest.raises(OverflowError, match="c_1 overflows"):
        series.lerch_accelerated(-1, ShiftParam(-0.5), 1100)


def test_accelerated_domain_error():
    for w in (0.5, 0.6, 0.5 + 3j, 2.0):
        with pytest.raises(DomainError):
            series.lerch_accelerated(w, ShiftParam(0j), 2)


def test_accelerated_bound_contract_vs_oracle():
    # converged implies |error| <= error_bound <= tol max(1, |value|) on the
    # whole shift grid, with no allowance: the bound counts the rounding too.
    # Near a pole the value and the head hold the near-pole term, up to 1e12
    # at alpha = -1.999, s = 4; at alpha = -20.3 + 3i, w = -5, s = 1 the head
    # and |w|^K times the series in z sum to 3.5e14 in modulus against |ref|
    # = 7.8e10.
    w_points = (-1.0, -5.0, 0.3 + 2j, -0.4 - 0.4j, 0.45)
    grid = [(alpha, w) for alpha in SHIFTS_MIXED + [4 + 0j, -0.5 + 0j] + SHIFTS_NEGATIVE for w in w_points]
    grid += [(-20.3 + 3j, w) for w in w_points if abs(w) > 1]  # K = 21
    for alpha, w in grid:
        shift = ShiftParam(alpha)
        for s in (1, 2, 4):
            result = series.lerch_accelerated(w, shift, s, tol=1e-12)
            assert_certified(result, 1e-12, oracle_error(result.value, w, alpha, s))
    # Summed at alpha, this call gave error 3.6e-7 against a bound of 9.9e-13
    # (sum |c_p z^p| was 1.7e10 over 1525 terms); peeled, it needs no allowance
    w, alpha = 0.3 + 2j, -7.3 + 0.01j
    result = series.lerch_accelerated(w, ShiftParam(alpha), 1, tol=1e-12)
    assert_certified(result, 1e-12, oracle_error(result.value, w, alpha, 1))


def test_converged_bound_covers_the_rounding_of_the_value():
    # An oracle-free witness: a converged result's bound is at least u |value|,
    # the rounding of the value itself, unless the value is exact.  This call
    # (a near-pole shift on the lens, value 9.0e33, one ulp about 1e18) gave
    # error_bound 3.9e-14 after 14 terms under the absolute rule, which
    # counted no rounding.
    w, alpha = 0.3193311056306068 + 0.058120164382782905j, -4.000001035909908
    result = series.lerch_accelerated(w, ShiftParam(alpha), 6, 1e-13)
    assert result.method == "direct" and abs(result.value) > 1e33
    assert result.converged
    assert result.error_bound >= U * abs(result.value)
    assert result.error_bound <= 1e-13 * abs(result.value)


#: (alpha, w, s): complex shifts at large orders off the lens, where
#: `lerch_accelerated` sums the series in z (|z| = 1/2 and 1/5).  The golden
#: grid has s <= 5 only.
LARGE_ORDER_CELLS = [
    (alpha, w, s) for alpha in (0.5j, 0.3 + 0.4j, -0.5 + 0.2j, 2 + 1j) for w in (-1.0, -0.25) for s in (30, 50, 150)
]


def defining_sum(w, alpha, s):
    """sum_{n>=1} w^n/(alpha+n)^s at the working precision, up to the first
    term below 1e-45 max(1, |sum|): at |w| <= 1, Re(alpha) >= -1/2 and s >=
    30 each later term is at most about 0.4 times the one before it within
    the terms summed here (w = -1 takes 32 at most), so the tail is below
    1e-44 max(1, |sum|)."""
    w, alpha = mp.mpc(w), mp.mpc(alpha)
    total = mp.mpc(0)
    for n in range(1, 1000):
        term = w**n / (alpha + n) ** s
        total += term
        if abs(term) < mp.mpf(10) ** -45 * max(1, abs(total)):
            return total
    raise AssertionError("the defining series did not reach its stop")


def test_complex_shifts_at_large_orders_bound_the_error():
    # |true - value| <= error_bound on every cell, converged or not; the
    # reference is the defining series at 40 digits, cheap here as its terms
    # fall like n^-30 at w = -1 and like 4^-n at w = -0.25
    for alpha, w, s in LARGE_ORDER_CELLS:
        result = series.lerch_accelerated(w, ShiftParam(alpha), s)
        with mp.workdps(40):
            error = abs(mp.mpc(result.value) - defining_sum(w, alpha, s))
        assert error <= result.error_bound, (alpha, w, s)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
@pytest.mark.parametrize(
    "alpha, w, s",
    [cell for cell in LARGE_ORDER_CELLS if cell not in ((2 + 1j, -0.25, 30), (2 + 1j, -0.25, 50))],
    ids=lambda value: str(value),
)
def test_complex_shifts_at_large_orders_converge(alpha, w, s):
    # The rounding bound of the H majorant passes tol on these cells, though
    # the values are right (see the test above); only 2 + i at w = -0.25, s =
    # 30 and 50 converge today.
    assert series.lerch_accelerated(w, ShiftParam(alpha), s).converged


#: Shifts of the certificate property: near a pole, negative, large (nearly
#: real, so that the reference stays cheap) and complex.
certificate_shifts = st.one_of(
    st.builds(lambda k, sign, e: complex(-k + sign * 10**e), st.integers(1, 5), st.sampled_from((-1, 1)), st.floats(-6, -2)),
    st.builds(lambda k, f: complex(-k - f), st.integers(1, 5), st.floats(0.1, 0.9)),
    st.builds(lambda e, t: 10**e * cmath.exp(1j * t), st.floats(1, 3), st.floats(-0.005, 0.005)),
    st.builds(lambda x, y: complex(x, y), st.floats(-0.9, 3.0), st.sampled_from((-1, 1)).flatmap(lambda sign: st.floats(0.1, 2.0).map(lambda y: sign * y))),
)


def _route_point(route, r, t):
    # a w in the region of each route, from r, t in [0, 1]: the lens |w - 1|
    # < 1 (Re z < 0), the series in z (|z| <= 0.6 off the lens), the edge
    # |z| in [0.8, 0.95], |w| < 3/2, where the log-series is tried, and |w| >=
    # 3/2, where the inversion formula is
    if route == "inversion":
        w = cmath.rect(1.5 * 10 ** (4 * r), math.pi * (0.2 + 1.6 * t))
        return w if w.real < 0.5 else -w.conjugate()
    if route == "log":  # |w| < 3/2 there, so 0.55 < |arg z| < 1.14
        z = cmath.rect(0.8 + 0.15 * r, math.copysign(0.6 + 0.5 * abs(2 * t - 1), t - 0.5))
    elif route == "lens":
        z = cmath.rect(0.05 + 0.85 * r, math.pi * (0.5 + t))
    else:
        z = cmath.rect(0.05 + 0.55 * r, math.pi * (t - 0.5))
    return z / (z - 1)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    alpha=certificate_shifts,
    route=st.sampled_from(("lens", "z", "log", "inversion")),
    r=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1.0),
    s=st.integers(1, 6),
    tol=st.sampled_from((1e-6, 1e-10, 1e-12)),
)
@example(alpha=-4.000001035909908 + 0j, route="lens", r=0.3, t=0.5, s=6, tol=1e-12)
@example(alpha=-2.5 + 0j, route="log", r=0.5, t=0.9, s=3, tol=1e-10)
@example(alpha=0.2 + 0.7j, route="inversion", r=0.6, t=0.6, s=2, tol=1e-12)
def test_certificate_covers_the_error_on_every_route(alpha, route, r, t, s, tol):
    # |true - value| <= error_bound on every result, and converged implies
    # error_bound <= tol max(1, |value|).  The reference is mpmath.lerchphi
    # at a real shift or |w| < 1, and `_reference.lerch` at a complex shift
    # with |w| > 1, where lerchphi can be wrong (ROADMAP item 17).
    w = _route_point(route, r, t)
    result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol)
    if alpha.imag and abs(w) > 1:
        error = float(abs(mp.mpc(result.value) - _reference.lerch(w, alpha, s)))
    else:
        error = oracle_error(result.value, w, alpha, s)
    assert error <= result.error_bound
    if result.converged:
        assert result.error_bound <= tol * max(1.0, abs(result.value))


@pytest.mark.parametrize("alpha", [50 + 0j, 1000 + 0j, 1000j])
def test_accelerated_large_shift_stops_early(alpha):
    # c_p shrinks like |alpha|^-p, so a large shift needs few terms; the bound
    # used to wait for p + 2 > |alpha| (99 to 5999 terms) and underflow to 0
    shift = ShiftParam(alpha)
    for w in (-1.0, 0.4, -5.0):
        result = z_series(w, shift, 2, tol=1e-12)
        assert result.converged
        assert result.terms_used <= 10
        assert 0.0 < result.error_bound <= 1e-12 * max(1.0, abs(result.value))
        assert abs(result.value - ref_lerch(w, alpha, 2)) <= result.error_bound


@pytest.mark.parametrize("s, most", [(10, 54), (20, 78), (50, 155), (150, None), (300, None)])
def test_accelerated_large_order_stops_early(s, most):
    # The majorant through (p/C(alpha))^{s-1} took 93/175/466 terms at
    # s = 10/20/50 and overflowed binary64 from s = 150 on.
    result = series.lerch_accelerated(-1, ShiftParam(0j), s, tol=1e-12)
    assert result.converged
    assert most is None or result.terms_used <= most
    reference = -(1 - mp.mpf(2) ** (1 - s)) * mp.zeta(s)
    assert abs(result.value - complex(reference)) <= result.error_bound


def test_accelerated_agrees_with_direct_inside_disk():
    for alpha in SHIFTS_MIXED + SHIFTS_NEGATIVE:
        shift = ShiftParam(alpha)
        for s in (1, 2, 3):
            for z in (0.4, -0.4, 0.2 + 0.2j, -0.1 - 0.3j):
                w = series.disk_to_half_plane(z)
                a = z_series(w, shift, s, tol=1e-12)
                d = series.lerch_direct(w, shift, s, tol=1e-12)
                # both sum the near-pole term w^n/(alpha+n)^s, up to 1e9 at
                # alpha = -1.999, s = 3, and each bound counts its rounding
                assert abs(a.value - d.value) <= a.error_bound + d.error_bound


#: Points of the lens |w - 1| < 1, two of them near its corners e^{+-i pi/3},
#: where |w| and |z| both tend to 1.
LENS_CORNERS = (cmath.rect(0.99, math.pi / 3), cmath.rect(0.99, -math.pi / 3))
LENS_POINTS = (0.4, 0.45 - 0.1j, 0.3 + 0.5j, 0.1 - 0.2j) + LENS_CORNERS
#: Near-pole, negative, large and complex shifts.
LENS_SHIFTS = (-2 + 1e-6, -1 - 1e-4j, -3.5, -50.5, 1000, 60 + 40j, 0.5 + 2j, -0.5 + 0.5j)


def test_lens_calls_are_lerch_direct_bit_for_bit():
    # In the lens `lerch_accelerated` sums the defining series through the
    # same loop and stream as `lerch_direct`, with no peeling
    for alpha in LENS_SHIFTS:
        shift = ShiftParam(alpha)
        for w in LENS_POINTS:
            assert abs(w - 1) < 1 and w.real < 0.5
            for s in (1, 3, 6):
                for tol, max_terms in ((1e-6, 10000), (1e-12, 10000), (1e-12, 15)):
                    result = series.lerch_accelerated(w, shift, s, tol, max_terms)
                    assert result.method == "direct"
                    assert result.converged or max_terms == 15
                    assert repr(result) == repr(series.lerch_direct(w, shift, s, tol, max_terms))


def test_route_rests_on_w_alone():
    # |w| < |z| exactly when |w - 1| < 1; just inside and just outside the
    # lens near its corners e^{+-i pi/3}, and on w <= 0 and |w| >= 1
    inside = [cmath.rect(0.999, t) for t in (math.pi / 3, -math.pi / 3)] + [0.49 + 0.86j, 0.49 - 0.86j, 1e-9]
    outside = [0.49 + 0.88j, 0.49 - 0.88j, 0j, -1e-9, -0.5, 0.3 + 2j, -1 + 0.2j, -1.5]
    # Off the lens a real or a small complex shift takes the inversion formula
    # where |w| >= 3/2 (0.3 + 2i and -1.5 here), else the log-series where
    # |z| >= 0.8 and |Log w| <= pi (the first two)
    log_points = [0.49 + 0.88j, 0.49 - 0.88j]
    inversion_points = [0.3 + 2j, -1.5]
    for alpha in (0.5 + 0j, 0.5 + 1e-3j):
        shift = ShiftParam(alpha)
        for w in inside + outside:
            assert (abs(w) < abs(w / (w - 1))) == (w in inside)
            result = series.lerch_accelerated(w, shift, 2, 1e-6, 200)
            off_lens = "log" if w in log_points else "inversion" if w in inversion_points else "z"
            assert result.method == ("direct" if w in inside else off_lens)


@pytest.mark.parametrize(
    "w, alpha, s",
    [
        (0.1 - 0.2j, -2 + 1e-6, 3),
        (LENS_CORNERS[0], -1 - 1e-4j, 2),
        (0.45 - 0.1j, -3.5, 3),
        (0.3 + 0.5j, 60 + 40j, 3),
        (LENS_CORNERS[1], 0.5 + 2j, 2),
        (0.4, 1000, 1),
    ],
    ids=["near-pole", "near-pole,corner", "negative", "large", "complex,corner", "large,real"],
)
def test_lens_bound_contract_vs_oracle(w, alpha, s):
    # Within the bound, which counts the rounding of the partial sum: the
    # near-pole term, 5e16 at alpha = -2 + 1e-6, s = 3, sets its size there
    result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol=1e-12)
    assert result.method == "direct"
    assert_certified(result, 1e-12, oracle_error(result.value, w, alpha, s))


@pytest.mark.parametrize("w, tol, unpeeled, most", [(-0.5, 1e-12, 74, 52), (-0.2 - 0.1j, 1e-6, 60, 52)])
def test_peeling_skips_the_infinite_tail_ratios(w, tol, unpeeled, most):
    # Summed at alpha = -50.5, the first 48 tail ratios were inf and the bound
    # waited for them: `unpeeled` terms, counted before the series at alpha
    # was removed.  Peeled, the series in z runs at alpha + 51 = 0.5.
    alpha = -50.5 + 0j
    result = z_series(w, ShiftParam(alpha), 2, tol)
    assert result.converged
    assert result.terms_used <= most, f"{result.terms_used} terms; summed at alpha it took {unpeeled}"
    assert_certified(result, tol, oracle_error(result.value, w, alpha, 2))


@pytest.mark.parametrize(
    "w, alpha, max_terms",
    [(-1, -0.5 + 0j, 10000), (-2, -0.5 + 1j, 10000), (0j, -0.5 + 0j, 10000)],
    ids=["alpha=-1/2", "alpha=-1/2+i,|w|>1", "alpha=-1/2,w=0"],
)
def test_calls_that_are_not_peeled_sum_at_alpha(w, alpha, max_terms):
    w = complex(w)
    expected = repr(series._summed(w / (w - 1), alpha, 3, 1e-12, max_terms, x_error=series._Z_ERROR))
    assert repr(z_series(w, ShiftParam(alpha), 3, 1e-12, max_terms)) == expected


@pytest.mark.parametrize(
    "w, alpha, max_terms",
    [(0j, -3.5 + 0j, 10000), (-0.5, -7.3 + 0.01j, 8), (-2, -7.3 + 0.01j, 10000)],
    ids=["w=0", "max_terms=K", "|w|>1"],
)
def test_negative_shifts_are_peeled_at_every_w(w, alpha, max_terms):
    # K = 4 at alpha = -3.5 and 8 at -7.3 + 0.01i.  The K head terms are summed
    # directly, then the series in z at alpha + K, whose stream is kept; if
    # K >= max_terms, the first max_terms head terms with an infinite bound.
    _forget_stream()
    k = series._pole_terms(alpha)
    result = z_series(w, ShiftParam(alpha), 3, 1e-12, max_terms)
    if k >= max_terms:
        head = sum(w**n / (alpha + n) ** 3 for n in range(1, max_terms + 1))
        assert result.terms_used == max_terms and result.error_bound == math.inf
        assert not result.converged
        assert result.value == pytest.approx(head, rel=1e-14)
        assert series._recorded == series._kept == {}  # the series in z was not summed
        return
    assert result.converged
    assert list(series._recorded) == [kept_key(alpha + k, 3)] and series._kept == {}
    if w == 0:
        assert (result.value, result.terms_used, result.error_bound) == (0, k + 1, 0.0)
    assert_certified(result, 1e-12, oracle_error(result.value, w, alpha, 3))


def test_summed_is_given_re_alpha_at_least_minus_one_half(monkeypatch):
    # `_term_stream`'s tail ratio bound needs Re(alpha) >= -1; every call of
    # `_summed` must get Re(alpha) >= -1/2, or alpha = 0 from zeta, whatever
    # w, shift or max_terms.
    summed = series._summed
    seen = []

    def recorded(z, alpha, *args, **kwargs):
        seen.append(alpha)
        return summed(z, alpha, *args, **kwargs)

    monkeypatch.setattr(series, "_summed", recorded)
    shifts = [
        -3 + 1e-9, -3 - 1e-9, -1 + 1e-7j,  # near a pole
        -0.7 + 0j, -3.5 + 0j, -50.5 + 0j,  # negative
        -7.3 + 0.01j, -20.3 + 3j, -0.5 + 0.5j, -0.6 - 2j,  # complex
        -0.5 + 0j, 0j,
    ]
    summing = 0  # the calls that reach the series in z: all but K >= max_terms
    for alpha in shifts:
        shift = ShiftParam(alpha)
        k = series._pole_terms(alpha)
        for w in (0j, -0.5, 0.3 + 0.4j, -1, 1j, -5, 0.3 + 2j):  # w = 0, |w| < 1, = 1, > 1
            for s in (1, 3):
                for max_terms in (2, 3, 10000):  # max_terms <= K for K >= 3
                    z_series(w, shift, s, 1e-6, max_terms)
                    summing += k < max_terms
    for s in (2, 3, 4):
        series.zeta_accelerated(s)
    assert len(seen) == summing + 3
    assert min(alpha.real for alpha in seen) >= -0.5


@pytest.mark.parametrize(
    "alpha, k",
    [(-0.5 + 0j, 0), (-0.5 - 1e-9 + 0j, 1), (-50.5 + 0j, 51), (-50.5 + 3j, 51), (0j, 0), (-3 + 1e-9j, 4)],
)
def test_pole_terms_at_the_peeling_boundary(alpha, k):
    # K = floor(-Re alpha) + 1 below Re alpha = -1/2, else 0; Re(alpha + K) > 0
    # wherever K > 0, so the series in z runs at Re >= -1/2
    assert series._pole_terms(alpha) == k
    assert (alpha + k).real > 0 if k else alpha.real >= -0.5


def test_peeling_raises_when_w_to_the_k_overflows():
    # |w|^K = 1e363 at w = -1000, K = 121: the bound |w|^K * B would be inf or
    # nan, and the head's value nan
    with pytest.raises(OverflowError, match="overflows binary64"):
        z_series(-1000, ShiftParam(-120.5 + 0j), 2)


def test_peeled_terms_used_stays_within_max_terms():
    # K = 8 head terms at alpha = -7.3 + 0.01i.  Up to max_terms = 8 the call
    # returns the first max_terms head terms, summed as the evaluator sums
    # them, with bound inf; from 9 on it sums the series in z after them.
    w, alpha = -2 + 0j, -7.3 + 0.01j
    head, w_pow = 0j, 1 + 0j
    for max_terms in range(1, 13):
        result = z_series(w, ShiftParam(alpha), 3, 1e-12, max_terms)
        assert result.terms_used == max_terms and not result.converged
        if max_terms <= 8:
            w_pow *= w
            head += w_pow * (1 / (alpha + max_terms)) ** 3
            assert result == SeriesResult(head, max_terms, math.inf, False, "z")


def test_peeled_bound_stays_finite_when_w_to_the_k_underflows():
    # |w|^4 = 1e-800 is 0 in binary64; the truncation bound must be 0, not 0 *
    # inf = nan, and what is left is the head's rounding
    alpha = -3.5 + 0j
    result = z_series(-1e-200, ShiftParam(alpha), 2)
    assert result.converged
    assert U * abs(result.value) <= result.error_bound <= 1e-12
    assert result.value == pytest.approx(-1e-200 / (alpha + 1) ** 2, rel=4 * U)


def test_peeled_head_overflow_raises_overflow_error():
    # f = 1/(alpha + 3) is about 1e4, so f^100 overflows; (alpha + 3)^100
    # would underflow to 0 and raise ZeroDivisionError instead
    with pytest.raises(OverflowError):
        z_series(-0.5, ShiftParam(-2.9999 + 0j), 100)


def test_accelerated_nonconvergence_flag():
    result = series.lerch_accelerated(-1, ShiftParam(0j), 2, tol=1e-12, max_terms=8)
    assert not result.converged
    assert result.terms_used == 8


def test_accelerated_rejects_nonfinite():
    with pytest.raises(ValueError):
        series.lerch_accelerated(float("nan"), ShiftParam(0j), 2)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda m: series.lerch_accelerated(-1, ShiftParam(0j), 2, 1e-12, m),
        lambda m: series.lerch_direct(0.5, ShiftParam(0j), 2, 1e-12, m),
        lambda m: series.zeta_accelerated(2, 1e-12, m),
    ],
    ids=["accelerated", "direct", "zeta"],
)
def test_max_terms_must_be_an_integer(evaluate):
    for bad in (2.5, 3.0, "3", 0, -1):
        with pytest.raises(ValueError, match="max_terms"):
            evaluate(bad)
    assert evaluate(3).terms_used <= 3


# ---------------------------------------------------------------------------
# the log-series in x = Log w at real shifts, |z| >= 0.8, |Log w| <= pi
# ---------------------------------------------------------------------------


def _log_domain_point(rng):
    # w off the lens with |z| in [0.8, 0.995], |Log w| <= pi and |w| < 3/2,
    # where `lerch_accelerated` tries no inversion first
    while True:
        z = cmath.rect(rng.uniform(0.8, 0.995), rng.uniform(-math.pi, math.pi))
        w = z / (z - 1)
        if abs(w - 1) >= 1 and abs(cmath.log(w)) <= math.pi and abs(w) < series._INV_MIN_W:
            return w


def _log_grid():
    # (w, alpha, s): real shifts with a = alpha + 1 in [0.5, 4), peeled
    # negatives, and the inner sums of near-pole shifts, alpha + K with
    # a = alpha + K + 1 within 1e-6 .. 1e-2 of 1 or 2
    rng = random.Random(2029)
    grid = []
    for i in range(33):
        if i % 3 == 0:
            alpha = rng.uniform(-0.5, 3.0)
        elif i % 3 == 1:
            alpha = -rng.randint(1, 5) - rng.uniform(0.1, 0.9)
        else:
            alpha = _peeled(-rng.randint(1, 5) + rng.choice((-1, 1)) * 10 ** rng.uniform(-6, -2))
        grid.append((_log_domain_point(rng), alpha, 1 + i % 8))
    return grid


def test_log_route_certificate_against_the_oracle():
    # converged implies |error| <= error_bound <= tol max(1, |value|),
    # against `_reference.lerch` (quadrature and log-series in mpmath,
    # agreeing to 1e-25), one reference per point, with no allowance: a
    # peeled call's bound counts its head's rounding.  Unpeeled calls take
    # the route at tol 1e-6 and 1e-10, and every call converges there; at
    # 1e-13 a call may fall back to the series in z, whose rounding can pass
    # the target after a hundred terms or more, and is then not converged.
    methods = {}
    for w, alpha, s in _log_grid():
        k = series._pole_terms(complex(alpha))
        reference = _reference.lerch(w, alpha, s)
        for tol in (1e-6, 1e-10, 1e-13):
            result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol)
            methods[k > 0, result.method] = methods.get((k > 0, result.method), 0) + 1
            if not k and tol >= 1e-10:
                assert result.method == "log"
            if result.converged or tol >= 1e-10:
                assert_certified(result, tol, float(abs(mp.mpc(result.value) - reference)))
    # 32 and 1 of the 33 peeled calls (22 and 11 while the target was tol
    # itself, which |w|^K times the log-series' bound could not meet)
    assert methods[True, "log"] > methods[True, "z"]


def _complex_log_grid():
    # (w, alpha, s): for each |Im alpha| in {0.1, 0.5, 1, 2}, either sign, two
    # unpeeled shifts (Re alpha in [-1/2, 3)) and a peeled one (Re alpha < -1/2)
    rng = random.Random(2030)
    grid = []
    for b in (0.1, 0.5, 1.0, 2.0):
        for i in range(3):
            re = rng.uniform(-0.5, 3.0) if i < 2 else -rng.randint(1, 4) - rng.uniform(0.1, 0.9)
            grid.append((_log_domain_point(rng), complex(re, rng.choice((-1, 1)) * b), rng.randint(1, 6)))
    return grid


def test_complex_log_route_certificate_against_the_oracle():
    # As at real shifts: converged implies |error| <= error_bound <= tol
    # max(1, |value|) against `_reference.lerch`, one reference per point,
    # with no allowance for a peeled call's head (mpmath.lerchphi is wrong at
    # some complex shifts).  The Bernoulli coefficients grow like
    # e^{2 pi |Im alpha|} against their value, so the route takes every
    # unpeeled call with |Im alpha| <= 1/2 at tol 1e-6 and 1e-10; elsewhere
    # the call may fall back to the series in z.
    methods = {}
    for w, alpha, s in _complex_log_grid():
        k = series._pole_terms(alpha)
        reference = _reference.lerch(w, alpha, s)
        for tol in (1e-6, 1e-10, 1e-13):
            result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol)
            methods[result.method] = methods.get(result.method, 0) + 1
            if not k and abs(alpha.imag) <= 0.5 and tol >= 1e-10:
                assert result.method == "log"
            if result.converged:
                assert_certified(result, tol, float(abs(mp.mpc(result.value) - reference)))
    assert methods["log"] > methods["z"]


@pytest.mark.parametrize("w, terms", [(0.49 + 1j, 15), (0.49 + 5j, 23)])
def test_log_route_converges_at_the_open_defect_points(w, terms):
    # The series in z took 2813 terms at w = 0.49 + 1i and did not converge in
    # 10^4 at w = 0.49 + 5i (|z| = 0.9915 and 0.9995).  At 0.49 + 5i (|w| >=
    # 3/2) `lerch_accelerated` now takes the inversion formula, so the log
    # route is read through `_log_series` at both points.  15 and 23 terms, s
    # of them the head's: `_summed` stops the sum in x at tol max(1, |value|)
    # of the whole value, with the rounding it counts, and gives no share of
    # tol to the rounding in advance.
    result = logseries._log_series(w, 0.5 + 0j, 2, 1e-12, series.DEFAULT_MAX_TERMS)
    assert result.converged and result.method == "log" and result.terms_used == terms
    assert abs(result.value - ref_lerch(w, 0.5, 2)) <= result.error_bound
    routed = series.lerch_accelerated(w, ShiftParam(0.5), 2, 1e-12)
    assert routed.method == ("inversion" if abs(w) >= series._INV_MIN_W else "log")


def _bernoulli_polynomial(n, a):
    return sum(math.comb(n, k) * exact._bernoulli(k) * a ** (n - k) for k in range(n + 1))


@pytest.mark.parametrize(
    "alpha",
    [-0.5, -0.3, -0.01, 0.0, 0.3, 0.5, 0.7, 1.0, 2.6, 3.9, -0.5 + 0.1j, -0.3 - 0.5j, 0.2 + 1j, 0.7 - 0.5j, 2.6 + 2j, 1e-6 - 0.1j],
)
@pytest.mark.parametrize("s", [1, 3, 8])
def test_log_stream_majorant_and_rounding_bound_the_exact_coefficients(alpha, s):
    # At a = alpha + 1: a_m = -B_m(a)/m! Beta(m, s), Beta(m, s) = (s-1)!/(m)_s,
    # in Fraction at a real a and in mpmath at 40 digits at a complex one.
    # B(m+1) bounds |a_{m+1}|, the ratios of the yielded B stay within r_m,
    # and each a_m is within (5m + J + 6) u (e^{pi/2} KAPPA (2 pi)^-m + q_m)
    # Beta(m, s) of its exact value; at a complex a within (6m + J + 7) u
    # (KAPPA (2 pi)^-m E_m(2 pi |y|) + Q_m) Beta(m, s), E_m(t) = sum_{n<=m}
    # t^n/n!, |y|^2 <= 1/16 + (Im a)^2, Q_m = sum_{j<J} |a0 + j|^{m-1}/(m-1)!
    stream = list(islice(logseries._log_stream(alpha, s), 60))
    whole = math.floor(alpha.real) + 1 if alpha.real >= 0 else 0
    beta = [None] + [F(math.factorial(s - 1), math.prod(range(m, m + s))) for m in range(1, 62)]
    with mp.workdps(40):
        if isinstance(alpha, complex):
            exact, a, slope, start = mp.mpmathify, mp.mpc(alpha) + 1, 6, 7
            t = 2 * mp.pi * mp.sqrt(mp.mpf(1) / 16 + alpha.imag**2)
            growth = [sum(t**n / mp.factorial(n) for n in range(m + 1)) for m in range(62)]
            bernoulli = [mp.bernpoly(m, a) for m in range(62)]
        else:
            exact, a, slope, start, growth = F, F(alpha) + 1, 5, 6, [F(4.82)] * 62
            bernoulli = [_bernoulli_polynomial(m, a) for m in range(62)]
        bases = [exact(alpha) - i for i in range(whole)]
        beta = [None] + [exact(b.numerator) / b.denominator for b in beta[1:]]
        exact_a = [None] + [-bernoulli[m] / math.factorial(m) * beta[m] for m in range(1, 62)]
        for m, (a_m, b_next, ratio) in enumerate(stream, 1):
            assert exact(b_next) >= abs(exact_a[m + 1])
            for later in range(m, 59):  # B(j+1)/B(j) for j > m
                assert stream[later][1] <= stream[later - 1][1] * ratio * (1 + 1e-12)
            q_m = sum(abs(base) ** (m - 1) for base in bases) / math.factorial(m - 1)
            size = (exact(3.3) * growth[m] / exact(6.28) ** m + q_m) * beta[m]
            assert abs(exact(a_m) - exact_a[m]) <= (slope * m + whole + start) * exact(U) * size


@pytest.mark.parametrize(
    "alpha, s",
    [(-0.5, 2), (-0.4, 6), (0.0, 1), (0.5, 5), (2.7, 4), (1e-6, 8), (0.999999, 3)]
    + [(-0.5 + 0.1j, 2), (-0.4 - 0.5j, 6), (0.3 + 1j, 1), (0.5 + 2j, 5), (2.7 - 0.5j, 4), (1e-6 + 0.1j, 8), (-0.2 + 3j, 3)],
)
def test_log_head_within_its_remainders_and_rounding(alpha, s):
    # zeta(s - k, a)/k! and H_{s-1} - gamma - psi(a) at a = alpha + 1, against
    # mpmath at 40 digits: within the Euler-Maclaurin remainder plus u times
    # the stated rounding multiple, at real and complex a
    h, errors, remainders, d, d_error, d_remainder = logseries._log_head(alpha, s)
    with mp.workdps(40):
        a = mp.mpmathify(alpha) + 1
        for k, (h_k, error, remainder) in enumerate(zip(h, errors, remainders)):
            assert abs(h_k - mp.zeta(s - k, a) / mp.factorial(k)) <= remainder + U * error
        assert abs(d - (mp.harmonic(s - 1) - mp.euler - mp.digamma(a))) <= d_remainder + U * d_error


def test_bernoulli_tables_grow_safely_across_threads(monkeypatch):
    # Eight threads sum log-series at once from cleared Bernoulli caches (the
    # exact B_n and the b_{2i} read from them) and a cleared cache of the
    # signed binomial rows that sum the B_n, each to about 40 terms at
    # |Log w| = 3.11, so all three fill under them.  Each result must be the
    # serial one, the exact B_n the tabulated values, and the kept rows those
    # of `math.comb`, exactly the rows q <= n of the largest B_n read (only
    # even n are read, b_{2i} for i below the count of cached b_{2i}).  At
    # |w| = 15 `lerch_accelerated` takes the inversion formula, so the calls
    # are `_log_series`'s own.
    w = 0.49 + 15j

    def log_route(w, alpha, s, tol):
        return logseries._log_series(w, complex(alpha), s, tol, series.DEFAULT_MAX_TERMS)

    calls = [(0.1 * i, 1 + i % 4) for i in range(16)]
    expected = [repr(log_route(w, alpha, s, 1e-12)) for alpha, s in calls]
    assert all("method='log'" in result for result in expected)
    for kept in (exact._bernoulli, exact._kept_row, logseries._even_b):
        kept.cache_clear()
    _forget_stream()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(log_route, w, alpha, s, 1e-12) for alpha, s in calls * 3]
            results = [repr(future.result(timeout=120)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 3
    largest = 2 * (logseries._even_b.cache_info().currsize - 1)
    assert largest > 30 and exact._bernoulli.cache_info().currsize == largest // 2 + 1
    assert [exact._bernoulli(n) for n in range(31)] == [KNOWN_BERNOULLI.get(n, 0) for n in range(31)]
    kept = min(largest + 1, exact._KEPT_ROWS)
    assert exact._kept_row.cache_info().currsize == kept
    rows = [exact._kept_row(q) for q in range(kept)]
    assert rows == [[(-1) ** m * math.comb(q, m) for m in range(q + 1)] for q in range(kept)]
    assert exact._kept_row.cache_info().currsize == kept


@pytest.mark.parametrize("grid, index", [(_complex_log_grid, 1), (_log_grid, 5)], ids=["complex", "real"])
def test_reference_quadrature_at_w_inside_the_unit_circle(grid, index):
    # |w| = 0.917 and 0.969: ln |w| < 0 is no break point of the integral,
    # whose path starts at 0 (as the lower limit it moved the value by 2.7e-7
    # and 1.1e-12 relative).  Both reference methods of `_reference.lerch` at
    # |Log w| <= pi against a 40-digit `mpmath.nsum` of the defining series.
    w, alpha, s = grid()[index]
    assert abs(w) < 1
    with mp.workdps(_reference.DPS):
        expected = mp.nsum(lambda n: mp.mpc(w) ** n / (mp.mpmathify(alpha) + n) ** s, [1, mp.inf])
        for method in (_reference.quadrature, _reference.log_series):
            assert abs(method(w, alpha, s) - expected) <= _reference.AGREE * abs(expected)


def test_z_series_sums_the_series_in_z_alone():
    # `lerch_accelerated` orders the routes; `_z_series` takes no route
    # argument and sums the series in z even where the chain takes the
    # log-series.  The repr is the one the series in z returned when
    # `_z_series` still chose between the two.
    w = 0.49 + 0.88j  # |z| = 0.99, |Log w| = 1.07, |w| < 3/2: no inversion
    assert series.lerch_accelerated(w, ShiftParam(0.5), 2, 1e-12).method == "log"
    assert repr(z_series(w, ShiftParam(0.5), 2, 1e-12)) == (
        "SeriesResult(value=(0.062367602825632557+0.47198722924500885j), terms_used=1985,"
        " error_bound=9.99931680827018e-13, converged=True, method='z')"
    )


@pytest.mark.parametrize(
    "s, expected",
    [
        (2, "SeriesResult(value=(-7.747420986905535+9.625737664698866j), terms_used=17,"
            " error_bound=2.7801694449263204e-12, converged=True, method='log')"),
        (3, "SeriesResult(value=(16.54508448856528-32.69822560544323j), terms_used=16,"
            " error_bound=2.1126720207440696e-11, converged=True, method='log')"),
    ],
    ids=["2", "3"],
)
def test_log_series_peels_its_own_head(s, expected):
    # At alpha = -2.3 the log-series sums alpha + 3 after the K = 3 head
    # terms, which it now peels itself through `series._peeled`, the peel
    # the series in z reads.  The reprs are those the log route returned
    # when `_z_series` peeled the head and passed it in; the chain gives the
    # same.
    w = 0.49 + 0.88j
    assert series._pole_terms(-2.3 + 0j) == 3
    assert repr(logseries._log_series(w, -2.3 + 0j, s, 1e-12, series.DEFAULT_MAX_TERMS)) == expected
    assert repr(series.lerch_accelerated(w, ShiftParam(-2.3), s, 1e-12)) == expected


def test_log_route_falls_back_to_the_series_in_z():
    # Where the route cannot meet tol (too few terms left, a shift so large
    # that its rounding term alone passes tol), where the series in z needs
    # no more than s terms (s = 100 at alpha = 1/2: 1 term; the log-series
    # would take 101), where a^-s passes e^700 (alpha = -0.4, s = 1380), or
    # where the growth e^{2 pi |Im alpha|} of a complex shift's Bernoulli
    # coefficients keeps the rounding bound above tol (|Im alpha| = 3), the
    # call is the series in z's, bit for bit
    w = 0.49 + 0.88j  # |z| = 0.99, |Log w| = 1.07, |w| < 3/2: no inversion
    cases = ((0.5, 2, 3), (0.5, 6, 10), (60.0, 2, 10000), (0.5 + 3j, 2, 10000), (0.5, 100, 10000), (-0.4, 1380, 20))
    for alpha, s, max_terms in cases:
        result = series.lerch_accelerated(w, ShiftParam(alpha), s, 1e-12, max_terms)
        assert result.method == "z"
        assert repr(result) == repr(z_series(w, ShiftParam(alpha), s, 1e-12, max_terms))
    assert series.lerch_accelerated(w, ShiftParam(0.5), 2, 1e-12, 30).method == "log"
    # At a complex shift the series in z's own H majorant picks the route: at
    # alpha = 9 + 4i, s = 3, tol 1e-6 it meets tol in 12 terms, where the
    # log-series would take 44 (its q_m x^m peak near m = |alpha| |Log w| = 13)
    w = 0.3 + 1.2j  # |z| = 0.89
    result = series.lerch_accelerated(w, ShiftParam(9 + 4j), 3, 1e-6)
    assert result.method == "z" and result.terms_used == 12
    assert repr(result) == repr(z_series(w, ShiftParam(9 + 4j), 3, 1e-6))


# ---------------------------------------------------------------------------
# the inversion formula at |w| >= 3/2, against the two-method reference
# ---------------------------------------------------------------------------


def _inversion_grid():
    # (kind, w, alpha, s): small-real (0), complex (1), negative (2), large (3)
    # and near-pole (4) shifts, three of each, at |w| log-uniform in [3/2,
    # 1e6] with Re w < 1/2; the large shifts keep |Im alpha| <= 5, where the
    # quadrature needs few pieces
    rng = random.Random(2031)
    grid = []
    for i in range(15):
        kind = i % 5
        if kind == 0:
            alpha = complex(rng.uniform(-0.9, 3.0))
        elif kind == 1:
            alpha = complex(rng.uniform(-0.9, 3.0), rng.choice((-1, 1)) * rng.uniform(0.1, 2.0))
        elif kind == 2:
            alpha = complex(-rng.randint(1, 5) - rng.uniform(0.1, 0.9))
        elif kind == 3:
            alpha = 10 ** rng.uniform(1, 3) * cmath.exp(1j * rng.uniform(-0.005, 0.005))
        else:
            alpha = complex(-rng.randint(1, 5) + rng.choice((-1, 1)) * 10 ** rng.uniform(-6, -2))
        while True:
            w = cmath.rect(10 ** rng.uniform(math.log10(1.5), 6), rng.uniform(-math.pi, math.pi))
            if w.real < 0.5:
                break
        grid.append((kind, w, alpha, rng.randint(1, 6)))
    return grid


def test_inversion_certificate_against_the_reference():
    # converged implies |error| <= error_bound, against `_reference.lerch`
    # (quadrature and inversion in mpmath, agreeing to 1e-25).  The defect
    # points of the series in z (it did not converge in 10^4 terms at 100i,
    # -1e3 and -1e6, and took 2269 at -100) and a point where mpmath's
    # lerchphi is wrong must take the route; so must every grid call at tol
    # 1e-6 and 1e-10 at a small-real, complex or large shift off the 1e-2
    # neighbourhoods of the integers >= 0, and every call at a negative or
    # near-pole shift.  There the value grows like |w|^-Re(alpha) or 1/|alpha
    # + K|^s; its rounding bound, which grows with it, passed the absolute
    # tol on 18 of those 18 calls, and meets tol |value|.
    defects = [(100j, 10), (-1e3, 10), (-1e6, 10), (-100, None)]
    calls = [(w, 0.5 + 0j, 2, 1e-12, most) for w, most in defects]
    calls += [(0.3 - 40j, 0.2 + 0.7j, s, tol, None) for s in (1, 2, 3) for tol in (1e-6, 1e-12)]
    for w, alpha, s, tol, most in calls:
        result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol)
        assert result.method == "inversion"
        assert most is None or result.terms_used <= most
        assert_certified(result, tol, float(abs(mp.mpc(result.value) - _reference.lerch(w, alpha, s))))
    methods = {}
    for kind, w, alpha, s in _inversion_grid():
        reference = _reference.lerch(w, alpha, s)
        off_integers = round(alpha.real) < 0 or abs(alpha - round(alpha.real)) >= 1e-2
        for tol in (1e-6, 1e-10, 1e-12):
            result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol)
            methods[result.method] = methods.get(result.method, 0) + 1
            if kind in (2, 4) or kind in (0, 1, 3) and off_integers and tol >= 1e-10:
                assert result.method == "inversion"
            if result.method == "inversion":
                assert_certified(result, tol, float(abs(mp.mpc(result.value) - reference)))
    assert methods["inversion"] == 41  # of 45; 25 under the absolute target


@pytest.mark.parametrize(
    "w, alpha, s, tol, max_terms",
    [
        (-3, 0j, 2, 1e-12, 10000),  # alpha = 0, 1, 2: sin(pi alpha) = 0
        (0.3 + 2j, 1 + 0j, 3, 1e-10, 10000),
        (-40 + 3j, 2 + 0j, 1, 1e-6, 10000),
        (-2.5 + 1j, 2.005 + 0j, 2, 1e-12, 10000),  # within 1e-2 of an integer >= 0
        (-3, 0.5 + 60j, 2, 1e-12, 10000),  # |Im alpha| > 50
        (-2.46 + 0.3j, 0.71 + 0j, 6, 1e-12, 10000),  # bound above tol max(1, |value|)
        (-3, 500 + 1e-3j, 2, 1e-12, 10000),  # large shift near an integer
        (-1e3, 0.5 + 0j, 2, 1e-12, 3),  # max_terms reached
        (-3, 0.5 + 0j, 101, 1e-12, 10000),  # s > 100
    ],
)
def test_inversion_falls_back_bit_for_bit(w, alpha, s, tol, max_terms):
    # Where the route declines, `lerch_accelerated` returns what it returned
    # before the route existed: the log-series where |z| >= 0.8 and it takes
    # the call, else `_z_series`, bit for bit, and raises nothing the route
    # could raise
    w = complex(w)
    assert abs(w) >= series._INV_MIN_W
    assert inversion._inversion(w, alpha, s, tol, max_terms) is None
    result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol, max_terms)
    logged = abs(w) >= series._LOG_MIN_Z * abs(w - 1) and logseries._log_series(w, alpha, s, tol, max_terms)
    assert repr(result) == repr(logged or series._z_series(w, alpha, s, tol, max_terms))


@pytest.mark.parametrize(
    "w, alpha, s",
    [
        (-(2.0**53), 0j, 2),
        (-1e300, 1.0, 3),  # an integer shift: the inversion formula declines
        (-1e300, 0.3, 150),  # s > 100: the inversion formula declines
        (-1e300 + 1e300j, 1.0, 3),
        (-1e300 + 1e300j, 0.3, 150),
        (-(2.0**53), -2.3, 150),  # K = 3 head terms
    ],
)
def test_z_that_rounds_to_one_returns_unconverged(w, alpha, s):
    # z = w/(w - 1) rounds to exactly 1.0 at |w| >= 2^53.  At a real shift
    # > -1 the series in z then formed its Abel factor (1 + |z|)/|1 - z| and
    # raised ZeroDivisionError; the factor is inf there, as at a complex
    # shift.  No bound of the series in z can be finite at z = 1 (r_p >= 1),
    # so the call stops after the K head terms and one term of the series,
    # with an infinite bound.
    w = complex(w)
    assert w / (w - 1) == 1
    result = series.lerch_accelerated(w, ShiftParam(alpha), s)
    assert (result.terms_used, result.error_bound, result.converged, result.method) == (
        series._pole_terms(complex(alpha)) + 1, math.inf, False, "z"
    )
    assert math.isfinite(abs(result.value))


def test_inversion_bound_needs_every_coefficient_of_p_j_to_share_its_sign():
    # The route bounds |p_j(c)| and its rounding by p_j at t >= |c| with the
    # moduli of its coefficients, read as |p_j(t)| from the signed rows: every
    # coefficient of p_j must have the sign (-1)^j.  The rows are checked
    # against the j-th derivative of pi/sin(pi a), over j!, at a = 0.3 + 0.2i.
    a = mp.mpc(0.3, 0.2)
    with mp.workdps(30):
        c = mp.cot(mp.pi * a)
        for j in range(12):
            row = inversion._row(j)
            assert all(coefficient * (-1) ** j >= 0 for coefficient in row)
            value = mp.polyval([mp.mpf(coefficient) for coefficient in row], c) * mp.pi / mp.sin(mp.pi * a)
            derivative = mp.diff(lambda b: mp.pi / mp.sin(mp.pi * b), a, j) / mp.factorial(j)
            assert abs(value - derivative) <= 1e-13 * abs(derivative)


# ---------------------------------------------------------------------------
# kept coefficient streams: a call must give the same bits whether or not the
# stream of its (alpha, s) was kept by earlier calls
# ---------------------------------------------------------------------------


def _forget_stream():
    series._recorded.clear()
    series._kept.clear()


def _cold(call, evaluate=z_series):
    _forget_stream()
    w, alpha, s, tol, max_terms = call
    return repr(evaluate(w, ShiftParam(alpha), s, tol, max_terms))


@pytest.mark.parametrize(
    "earlier, later",
    [
        # stops inside the kept prefix, not converged, at the same bound
        ((-1, 0j, 2, 1e-12, 10000), (-1, 0j, 2, 1e-12, 8)),
        ((-0.7 + 0.3j, 1.3 + 0.7j, 3, 1e-12, 10000), (-0.7 + 0.3j, 1.3 + 0.7j, 3, 1e-6, 10000)),
        # peeled: K = 51, and the series at alpha + 51 = 0.5 is kept
        ((-2, -50.5 + 0j, 2, 1e-12, 10000), (-2, -50.5 + 0j, 2, 1e-12, 60)),
        ((-2, -50.5 + 0j, 2, 1e-12, 10000), (-1.5 + 1j, -50.5 + 0j, 2, 1e-6, 10000)),
        ((-2, 0.5 + 0j, 1, 1e-12, 10000), (0.2 + 1j, 0.5 + 0j, 1, 1e-10, 10000)),
        # keys that compare equal
        ((-1, 0.5 + 0j, 2, 1e-12, 10000), (-3 + 1j, complex(0.5, -0.0), 2, 1e-12, 10000)),
        # the later call needs more terms than are kept and extends them
        ((-0.2, 1.3 + 0.7j, 3, 1e-6, 10000), (-4 + 2j, 1.3 + 0.7j, 3, 1e-12, 10000)),
    ],
)
def test_kept_stream_gives_cold_bits(earlier, later):
    expected = _cold(later)
    _forget_stream()
    w, alpha, s, tol, max_terms = earlier
    for _ in range(2):  # the second call on the recorded key keeps its terms
        kept_by = z_series(w, ShiftParam(alpha), s, tol, max_terms)
    k = series._pole_terms(alpha)
    terms = kept(alpha + k, s)[0]
    assert len(terms) == kept_by.terms_used - k
    assert all(math.isfinite(ratio) for *_, ratio in terms)
    w, alpha, s, tol, max_terms = later
    assert repr(z_series(w, ShiftParam(alpha), s, tol, max_terms)) == expected


def test_peeled_call_keeps_the_stream_of_the_shifted_pair():
    # K = 51 at alpha = -50.5: the kept key is (alpha + 51, s), which an
    # unpeeled call at alpha = 0.5 then reads
    later = (-1, 0.5 + 0j, 2, 1e-12, 10000)
    expected = _cold(later)
    _forget_stream()
    for _ in range(2):
        peeled = z_series(-0.5, ShiftParam(-50.5 + 0j), 2)
    terms = kept(0.5 + 0j, 2)[0]
    assert len(terms) == peeled.terms_used - 51
    w, alpha, s, tol, max_terms = later
    assert repr(z_series(w, ShiftParam(alpha), s, tol, max_terms)) == expected


def test_kept_stream_interleaved_pairs_give_cold_bits():
    calls = [
        (w, alpha, s, tol, 10000)
        for w, tol in ((-1, 1e-12), (0.4 + 0.5j, 1e-6), (-6, 1e-12))
        for alpha, s in ((0.5 + 0j, 2), (-0.5 + 0.5j, 4))
    ]
    expected = [_cold(call) for call in calls]
    _forget_stream()
    got = [repr(z_series(w, ShiftParam(alpha), s, tol, max_terms)) for w, alpha, s, tol, max_terms in calls]
    assert got == expected


def test_lens_and_off_lens_calls_interleaved_on_one_pair_give_cold_bits():
    # The lens calls sum the defining series, the others the series in z, each
    # under its own key: alternating on one pair, neither evicts the other, and
    # from the second call of each kind on the terms are read from its entry.
    alpha, s = 1.3 + 0.7j, 3
    lens = [0.4, 0.3 + 0.5j, 0.45 - 0.1j, 0.1 - 0.2j]
    off_lens = [-1, -0.3 + 0.4j, -1.2 + 0.5j, -1.4]  # |z| < 0.8 and |w| < 3/2: neither inversion nor log-series
    calls = [(w, alpha, s, tol, 10000) for pair in zip(lens, off_lens) for w in pair for tol in (1e-6, 1e-12)]
    expected = [_cold(call, series.lerch_accelerated) for call in calls]
    _forget_stream()
    got = [series.lerch_accelerated(w, ShiftParam(a), s, tol, m) for w, a, s, tol, m in calls]
    assert [repr(result) for result in got] == expected
    assert [result.method for result in got] == ["direct", "direct", "z", "z"] * len(lens)
    for factory, method in ((series._direct_stream, "direct"), (series._term_stream, "z")):
        terms = kept(alpha, s, factory)[0]
        assert len(terms) == max(r.terms_used for r in got if r.method == method)


def test_zeta_and_lerch_share_the_alpha_zero_stream():
    # zeta keeps the alpha = 0 terms computed in float under its own key, and
    # the series in z at 0j its complex ones; calls that take turns on them
    # must give a cold call's bits
    calls = [(w, 0j, s, 1e-12, 10000) for s in (2, 3) for w in (-1, 0.25, -0.5 + 0.5j)]
    expected = [_cold(call) for call in calls]
    cold_zeta = {}
    for s in (2, 3):
        _forget_stream()
        cold_zeta[s] = repr(series.zeta_accelerated(s))
    got = []
    for w, alpha, s, tol, max_terms in calls:
        for _ in range(2):  # the second call keeps the zeta terms, or reads lerch's
            assert repr(series.zeta_accelerated(s, tol, max_terms)) == cold_zeta[s]
        got.append(repr(z_series(w, ShiftParam(alpha), s, tol, max_terms)))
    assert got == expected


def test_kept_stream_steps_the_kernel_once_per_term(monkeypatch):
    # A row in ascending |z| needs more terms at each point.  The first call
    # on the pair keeps nothing; the later calls extend the one kept stream,
    # so the kernel is stepped once per term of the largest of them.
    steps = []
    depth_columns = exact._depth_columns

    def counted(*args):
        for item in depth_columns(*args):
            steps.append(item[0])
            yield item

    zs = [cmath.rect(0.06 * k, 0.7 * k) for k in range(1, 11)]
    calls = [(series.disk_to_half_plane(z), 1.3 + 0.7j, 3, 1e-12, 10000) for z in zs]
    expected = [_cold(call) for call in calls]
    _forget_stream()
    monkeypatch.setattr(exact, "_depth_columns", counted)
    got = [z_series(w, ShiftParam(alpha), s, tol, max_terms) for w, alpha, s, tol, max_terms in calls]
    assert [repr(result) for result in got] == expected
    assert got[0].terms_used == 8 and max(r.terms_used for r in got[1:]) == 43
    assert len(steps) == 51


def test_kept_stream_is_dropped_when_an_extension_raises(monkeypatch):
    # A raise in the kernel step of term 20, in a first call on its key, in a
    # call on a key only recorded and in a call that extends the 5 kept terms
    # of its key: the key must be left out of both tables, not read by the
    # next call, and the entry of another key, kept before, must stay as it
    # was.
    call = (-0.7 + 0.3j, 1.3 + 0.7j, 3, 1e-12, 10000)
    expected = _cold(call)
    depth_columns = exact._depth_columns

    def interrupted(*args):
        for item in depth_columns(*args):
            if item[0] == 20:
                raise KeyboardInterrupt
            yield item

    for earlier_calls in (0, 1, 2):
        _forget_stream()
        for _ in range(2):
            z_series(-0.5, ShiftParam(0.5 + 0.1j), 3)
        other = kept(0.5 + 0.1j, 3)
        other_terms = list(other[0])
        monkeypatch.setattr(exact, "_depth_columns", interrupted)
        for _ in range(earlier_calls):  # 5 terms each, all before the raise
            assert z_series(-0.2, ShiftParam(1.3 + 0.7j), 3, 1e-6).terms_used == 5
        key = kept_key(1.3 + 0.7j, 3)
        assert (key in series._recorded, key in series._kept) == (earlier_calls == 1, earlier_calls == 2)
        if earlier_calls == 2:
            assert len(kept(1.3 + 0.7j, 3)[0]) == 5
        with pytest.raises(KeyboardInterrupt):
            z_series(-4 + 2j, ShiftParam(1.3 + 0.7j), 3)
        monkeypatch.undo()
        assert key not in series._recorded and key not in series._kept
        assert series._kept == {kept_key(0.5 + 0.1j, 3): other} and other[0] == other_terms != []
        w, alpha, s, tol, max_terms = call
        assert repr(z_series(w, ShiftParam(alpha), s, tol, max_terms)) == expected


@pytest.mark.parametrize("factory", [series._term_stream, series._direct_stream], ids=["z", "direct"])
def test_a_float_shift_does_not_read_the_terms_kept_for_an_equal_complex_one(factory):
    # (0.0, 6) == (0j, 6), but the terms of 0j are complex: read for the
    # float shift they made a sum at a real x complex.
    cold = repr(series._summed(0.5, 0.0, 6, 1e-12, 40, 1.0, factory))
    for _ in range(2):
        series._summed(0.5, 0j, 6, 1e-12, 40, 1.0, factory)
    for _ in range(2):
        assert repr(series._summed(0.5, 0.0, 6, 1e-12, 40, 1.0, factory)) == cold
    assert {type(a_p) for a_p, _, _ in kept(0.0, 6, factory)[0]} == {float}
    assert {type(a_p) for a_p, _, _ in kept(0j, 6, factory)[0]} == {complex}


def first_call_setup(factory, alpha, s):
    """The set-up `_summed` computes on a first call on (factory, alpha, s),
    restated as `summed_every_bound` forms it: |alpha + 1|^-s (inf where the
    power raises), the rounding slope less x_error, the intercept, `first`,
    the Abel test and the method."""
    try:
        first_size = abs(alpha + 1) ** -s
    except (OverflowError, ZeroDivisionError):
        first_size = math.inf
    abel = factory in (series._term_stream, series._direct_stream) and alpha.imag == 0 and alpha.real > -1
    k_a = 4.0 if alpha.imag == 0 and alpha.real > -1 else 9.25
    if factory is series._term_stream:
        rounding = k_a + 3.25, k_a * s, 1
    elif factory is series._direct_stream:
        rounding = 3.25, series._power_error(s), math.ceil(-alpha.real)
    else:
        rounding = 0.0, 0.0, 1
    return (first_size, *rounding, abel, series._METHODS[factory.__name__])


def _evaluate(w, alpha, s):  # w None: zeta(s)
    if w is None:
        return series.zeta_accelerated(s)
    return series.lerch_accelerated(w, ShiftParam(alpha), s)


def test_kept_call_reads_the_set_up_of_its_entry():
    # A set-up whose method is a sentinel, put on a kept entry, is what the
    # next call on that key returns; a first call on another key computes its
    # own.
    _forget_stream()
    alpha, s = 1.2 + 0.8j, 3
    for _ in range(2):
        assert _evaluate(-1, alpha, s).method == "z"
    terms, extension, setup = kept(alpha, s)
    series._kept[kept_key(alpha, s)] = terms, extension, setup[:-1] + ("sentinel",)
    assert _evaluate(-1, alpha, s).method == "sentinel"
    assert _evaluate(-1, alpha + 1, s).method == "z"


def test_kept_set_up_is_the_one_a_first_call_computes():
    # Each call records its key, the second keeps the set-up it computed,
    # and the third reads it there: the entry holds the first call's set-up
    # and the third call gives a first call's bits.  The keys live side by
    # side, zeta's float 0.0 next to 0j among them.
    calls = [
        # (w, alpha, s, method, the stream and the shift of the kept key)
        (-1, 0.5 + 0j, 2, "z", series._term_stream, 0.5 + 0j),  # a real alpha > -1
        (-0.6 + 0.9j, 1.2 + 0.8j, 3, "z", series._term_stream, 1.2 + 0.8j),
        (-1, -2.7 + 0j, 3, "z", series._term_stream, -2.7 + 0j + 3),  # peeled: K = 3
        (None, 0.0, 4, "z", series._term_stream, 0.0),
        (-1, 0j, 4, "z", series._term_stream, 0j),
        (0.4 + 0.1j, -2.5 + 0.1j, 3, "direct", series._direct_stream, -2.5 + 0.1j),  # the lens: first = 3
        (0.3 - 0.2j, 0.5 + 0j, 2, "direct", series._direct_stream, 0.5 + 0j),
        (-3 + 1j, 0.3 + 0j, 2, "inversion", series._direct_stream, -0.3),  # the shift -alpha, a float
        (-3 + 1j, -1.4 + 0.4j, 2, "inversion", series._direct_stream, 1.4 - 0.4j),
        (0.3 + 1.2j, 0.6 + 0j, 2, "log", logseries._log_stream, 0.6),  # |z| = 0.89; a real shift as a float
        (0.3 + 1.2j, 0.6 + 0.3j, 3, "log", logseries._log_stream, 0.6 + 0.3j),
    ]
    cold = []
    for w, alpha, s, *_ in calls:
        _forget_stream()
        cold.append(repr(_evaluate(w, alpha, s)))
    _forget_stream()
    for _ in range(2):
        for w, alpha, s, *_ in calls:
            _evaluate(w, alpha, s)
    for w, alpha, s, method, factory, shift in calls:
        assert kept(shift, s, factory)[2] == first_call_setup(factory, shift, s)
    got = [_evaluate(w, alpha, s) for w, alpha, s, *_ in calls]
    assert [repr(result) for result in got] == cold
    assert [result.method for result in got] == [method for _, _, _, method, *_ in calls]
    assert kept(0.0, 4)[2] == kept(0j, 4)[2] and kept(0.0, 4) is not kept(0j, 4)


def _rows_across_threads_give_cold_bits():
    """Four threads tabulate the same row of points at the same time, each in
    its own shuffled order, one pair after another, so they keep recording,
    reading, extending and evicting the kept entries under each other: a row
    holds points in the lens and off it.  Besides the short switch interval,
    a tracer makes a thread nap at random byte codes of `lerch_accelerated`,
    `_z_series`, the summation loop `_summed` and `_evict`, so that it can
    lose the interpreter lock between any two of them.  Every result must be
    the serial cold one, and both tables must end within their bounds."""
    rows = []
    for alpha, s in ((0.5 + 0j, 2), (1.3 + 0.7j, 3), (-0.5 + 0.5j, 4)):
        zs = [cmath.rect(0.09 * k, 0.9 * k) for k in range(1, 11)]
        rows.append([(series.disk_to_half_plane(z), alpha, s, 1e-12, 10000) for z in zs])
    assert {abs(w - 1) < 1 for row in rows for w, *_ in row} == {True, False}
    expected = {call: _cold(call, series.lerch_accelerated) for row in rows for call in row}
    barrier = threading.Barrier(4, timeout=60)
    naps = random.Random(0)
    # the nap rate at each byte code: `_evict`, short and called on a few
    # calls only, naps more often, so that the table it deletes from changes
    rates = {f.__code__: 0.003 for f in (series.lerch_accelerated, series._z_series, series._summed)}
    rates[series._evict.__code__] = 0.1

    def tracer(frame, event, arg):
        if frame.f_code not in rates:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return nap

    def nap(frame, event, arg):
        if event == "opcode" and naps.random() < rates[frame.f_code]:
            time.sleep(1e-4)
        return nap

    def run(seed):
        order = random.Random(seed)
        results = []
        try:
            for row in rows * 6:
                barrier.wait()
                for call in order.sample(row, len(row)):
                    w, alpha, s, tol, max_terms = call
                    result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol, max_terms)
                    results.append((call, repr(result)))
        except BaseException:
            barrier.abort()  # release the threads waiting for this one
            raise
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threading.settrace(tracer)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, seed) for seed in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        threading.settrace(None)
        sys.setswitchinterval(interval)
    for result in results:
        assert len(result) == 6 * sum(map(len, rows))
        for call, got in result:
            assert got == expected[call], call
    assert len(series._recorded) <= series._RECORDED_KEYS and len(series._kept) <= series._KEPT_KEYS
    assert max((len(terms) for terms, _, _ in series._kept.values()), default=0) <= series._KEPT_TERMS


def test_kept_stream_is_safe_across_threads():
    # Three pairs, each on two routes: 6 keys, all kept within the bounds.
    _rows_across_threads_give_cold_bits()


def test_evictions_racing_across_threads_give_cold_bits(monkeypatch):
    # With both bounds at 2, the 6 keys evict each other on almost every
    # call, so evictions race each other and the calls that pop and put back
    # the entries they delete.
    monkeypatch.setattr(series, "_RECORDED_KEYS", 2)
    monkeypatch.setattr(series, "_KEPT_KEYS", 2)
    _rows_across_threads_give_cold_bits()


def _count_kernel_steps(monkeypatch):
    """Count the terms each stream computes, by key: `exact._depth_columns`
    steps of the series in z and `series._direct_terms` terms of the
    defining series, keyed by (method, shift, s)."""
    steps = {}
    depth_columns, direct_terms = exact._depth_columns, series._direct_terms

    def counted(key, items):
        for item in items:
            steps[key] = steps.get(key, 0) + 1
            yield item

    monkeypatch.setattr(exact, "_depth_columns", lambda x0, t: counted(("z", x0, t + 1), depth_columns(x0, t)))
    monkeypatch.setattr(series, "_direct_terms", lambda a, s: counted(("direct", a, s), direct_terms(a, s)))
    return steps


def test_rows_of_nine_pairs_taking_turns_keep_every_stream(monkeypatch):
    # Rows of 9 pairs take turns over two passes, each row with points in the
    # lens and off it: 18 keys, more than `eval-shared-shift`'s 16.  Each key
    # computes the terms of its first call, then, kept, each term once.
    pairs = [(complex(0.3 * i, (i % 3 - 1) * 0.7), 1 + i % 6) for i in range(9)]
    zs = [cmath.rect(0.055 * k, 1.9 * k) for k in range(1, 11)]
    row = [series.disk_to_half_plane(z) for z in zs]
    assert {abs(w - 1) < 1 for w in row} == {True, False}
    calls = [(w, alpha, s, 1e-12, 10000) for _ in range(2) for alpha, s in pairs for w in row]
    expected = [_cold(call, series.lerch_accelerated) for call in calls]
    _forget_stream()
    steps = _count_kernel_steps(monkeypatch)
    got = [series.lerch_accelerated(w, ShiftParam(alpha), s, tol, m) for w, alpha, s, tol, m in calls]
    monkeypatch.undo()
    assert [repr(result) for result in got] == expected
    terms = {}
    for (_, alpha, s, _, _), result in zip(calls, got):
        terms.setdefault((result.method, alpha, s), []).append(result.terms_used)
    assert len(terms) == 18
    assert steps == {key: used[0] + max(used[1:]) for key, used in terms.items()}


def test_zeta_between_distinct_pairs_sums_its_kept_terms(monkeypatch):
    # Each zeta(s) call comes after 20 calls on pairs never seen again, as on
    # `eval-scattered`; from its third call on, zeta computes no term.
    zeta_tols = (1e-6, 1e-12, 1e-10, 1e-12)
    cold = {}
    for tol in zeta_tols:
        _forget_stream()
        cold[tol] = repr(series.zeta_accelerated(4, tol))
    _forget_stream()
    steps = _count_kernel_steps(monkeypatch)
    zeta_steps, zeta_terms = [], []
    for k, tol in enumerate(zeta_tols):
        for i in range(20):
            z_series(-0.5 + 0.1j * i, ShiftParam(1 + k + 0.01j * i), 3)
        before = steps.get(("z", 0.0, 4), 0)
        result = series.zeta_accelerated(4, tol)
        assert repr(result) == cold[tol]
        zeta_steps.append(steps.get(("z", 0.0, 4), 0) - before)
        zeta_terms.append(result.terms_used)
    monkeypatch.undo()
    assert zeta_terms == [20, 39, 33, 39]
    assert zeta_steps == [20, 39, 0, 0]


def test_recorded_keys_and_kept_terms_stay_within_their_bounds():
    # 1,000 distinct pairs, each called twice so that its terms are kept, and
    # 1,000 more keys seen once: the oldest keys are forgotten, and an entry
    # of more than `_KEPT_TERMS` terms (every tenth pair, at z = 0.95) is not
    # put back.
    _forget_stream()
    for i in range(1000):
        alpha = complex(0.5 + 0.003 * i, 0.2)
        w = -19 if i % 10 == 0 else -1
        first, later = (z_series(w, ShiftParam(alpha), 3) for _ in range(2))
        z_series(-1, ShiftParam(alpha), 4)  # seen once
        assert repr(first) == repr(later)
        assert len(series._recorded) <= series._RECORDED_KEYS and len(series._kept) <= series._KEPT_KEYS
        assert max((len(terms) for terms, _, _ in series._kept.values()), default=0) <= series._KEPT_TERMS
        if w == -1:
            assert len(kept(alpha, 3)[0]) == later.terms_used  # the latest pair stays kept
        else:
            assert later.terms_used > series._KEPT_TERMS and kept_key(alpha, 3) not in series._kept
    assert len(series._recorded) == series._RECORDED_KEYS and len(series._kept) == series._KEPT_KEYS

# ---------------------------------------------------------------------------
# stopping rule: `_summed` tests the numerator of its bound first, which must
# give every result the whole bound formed on every term gave
# ---------------------------------------------------------------------------


def summed_every_bound(x, alpha, s, tol, max_terms, mult=1.0, factory=series._term_stream, head=0.0, fixed=0.0, carried=0.0, x_error=0.0, used=0):
    """Oracle for `series._summed`: its loop over an unkept stream, with the
    truncation bound formed in full on every term against the target as the
    loop reads it: the geometric bound where rho < 1, and where that is above
    the target at a real alpha > -1, the smaller of it and the
    summation-by-parts bound y (1 + |x|)/|1 - x|, its factor taken >= 1.
    |V| = |head + mult * sum| is read at the checkpoints and wherever the
    numerator meets the last target, the rounding is added once the
    truncation bound meets the target, with `carried` in units of |mult *
    sum| and no per-term multiples on the log stream, and the sum stops
    unconverged where the rounding alone passes it.  It returns the route's
    value head + mult * sum (the sum itself at head 0 and mult 1.0) and its
    terms, the `used` before the sum plus the sum's own."""
    method = series._METHODS[factory.__name__]
    max_terms -= used
    abel = factory in (series._term_stream, series._direct_stream) and alpha.imag == 0 and alpha.real > -1
    direct = factory is series._direct_stream
    ax = abs(x)
    scale = abs(mult)
    total = 0.0
    x_pow = 1.0
    ax_pow = scale * ax
    moment = last = 0.0
    try:
        size = scale * abs(alpha + 1) ** -s * ax
    except (OverflowError, ZeroDivisionError):
        size = math.inf
    modulus = abs(head) + size
    target = tol * max(1.0, modulus)
    first = math.ceil(-alpha.real) if direct else 1
    check = min(first if first > 1 else series._CHECKPOINT, max_terms)
    k_a = 4.0 if alpha.imag == 0 and alpha.real > -1 else 9.25
    slope = 3.25 + x_error + (0.0 if direct else k_a)
    intercept = series._power_error(s) if direct else k_a * s
    if factory is logseries._log_stream:
        slope = intercept = 0.0
    for p, (a_p, b_next, ratio) in enumerate(factory(alpha, s), 1):
        x_pow *= x
        total += a_p * x_pow
        ax_pow *= ax
        y = b_next * ax_pow
        size += y
        if y <= target or p >= check:
            if p >= check:
                if p == first:
                    size = y + scale * series._direct_size(alpha, s, ax, p)
                moment += (p + 1) * (size - last)
                last = size
                check = min(max(2 * p, series._CHECKPOINT), max_terms)
            modulus = abs(head + mult * total) if head else scale * abs(total)
            target = tol * max(1.0, modulus)
        rho = ax * ratio
        bound = y / (1.0 - rho) if rho < 1.0 else math.inf
        if abel and bound > target:
            bound = min(bound, y * max(1.0, (1.0 + ax) / abs(1.0 - x)))
        rounding = 0.0
        if bound <= target or p >= max_terms:
            sizes, weighted = size, moment + (p + 1) * (size - last)
            if p < first:
                sizes = y + scale * series._direct_size(alpha, s, ax, p)
                weighted = (p + 1) * sizes
            rounding = series._U * (slope * weighted + intercept * sizes + (p + carried) * (scale * abs(total)) + modulus) + fixed
        bound += rounding
        if bound <= target or p >= max_terms or rounding > target:
            value = head + mult * total if head or mult != 1.0 else total
            return SeriesResult(value, used + p, bound, bound <= target < math.inf, method)


def _outcome(summed, *args):
    # the repr tells -0.0 from 0.0 and shows a nan; a raise is its type
    try:
        return repr(summed(*args))
    except ArithmeticError as error:
        return type(error).__name__


def assert_same_stop(x, alpha, s, tol, max_terms, mult, factory, *rounding):
    args = (x, alpha, s, tol, max_terms, mult, factory) + rounding
    assert _outcome(series._summed, *args) == _outcome(summed_every_bound, *args)


def _peeled(alpha):
    # alpha + K, K = floor(-Re alpha) + 1, as `_z_series` sums it
    return alpha + series._pole_terms(alpha)


summed_points = st.one_of(
    st.sampled_from([0j, 0.0, 0.5, -0.999, 0.999j]),
    st.builds(
        lambda r, theta: r * cmath.exp(1j * theta),
        st.floats(0.0, 0.999),
        st.floats(-math.pi, math.pi),
    ),
)
summed_shifts = st.one_of(
    st.sampled_from([0.0, 0j]),
    st.floats(-0.5, 60.0),
    st.builds(complex, st.floats(-0.5, 60.0), st.floats(-60.0, 60.0)),
    st.sampled_from([1e3 + 0j, 1e6 + 0j, 1e3j, 1e6 + 1e6j]),
    st.builds(complex, st.floats(-60.0, -0.5, exclude_max=True), st.floats(-5.0, 5.0)).map(_peeled),
)


summed_mults = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e300]), st.floats(0.0, 1e300), st.complex_numbers(max_magnitude=1e6)
)
summed_heads = st.one_of(st.just(0.0), st.complex_numbers(max_magnitude=1e20))
summed_fixed = st.one_of(st.just(0.0), st.floats(0.0, 1e-6))


@settings(max_examples=400, deadline=None)
@given(
    x=summed_points,
    alpha=summed_shifts,
    s=st.integers(1, 8),
    tol=st.floats(series.MIN_TOL, 1.0),
    max_terms=st.integers(1, 60),
    mult=summed_mults,
    factory=st.sampled_from([series._term_stream, series._direct_stream]),
    head=summed_heads,
    fixed=summed_fixed,
    carried=st.floats(0.0, 100.0),
    x_error=st.sampled_from([0.0, series._Z_ERROR, 5.0]),
)
def test_numerator_first_stop_gives_every_bound_results(x, alpha, s, tol, max_terms, mult, factory, head, fixed, carried, x_error):
    # the target tol max(1, |head + mult * sum|) and the rounding counted, on
    # the series in z and the defining series
    assert_same_stop(x, alpha, s, tol, max_terms, mult, factory, head, fixed, carried, x_error)


@settings(max_examples=200, deadline=None)
@given(
    x=st.builds(cmath.rect, st.floats(math.log(2), math.pi), st.floats(-math.pi, math.pi)),
    alpha=st.one_of(
        st.floats(-0.5, 4.0),
        st.builds(complex, st.floats(-0.5, 4.0), st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0))),
    ),
    s=st.integers(1, 8),
    tol=st.floats(series.MIN_TOL, 1.0),
    max_terms=st.integers(1, 60),
    mult=summed_mults,
    head=summed_heads,
    fixed=summed_fixed,
    carried=st.floats(0.0, 100.0),
)
def test_numerator_first_stop_on_the_log_stream(x, alpha, s, tol, max_terms, mult, head, fixed, carried):
    # x = Log w off the lens, |x| in [log 2, pi], at real and complex shifts,
    # with the log-series' head, multiplier and rounding; its terms are
    # neither one-signed nor monotone, so no summation-by-parts bound is taken
    assert_same_stop(x, alpha, s, tol, max_terms, mult, logseries._log_stream, head, fixed, carried, 0.0)


@pytest.mark.parametrize("x", [0.5, 0j])
def test_numerator_first_stop_off_a_pole(x):
    # B(n+1) = inf just off the pole -5 at s = 100: the numerator is inf (nan
    # at x = 0), so the call runs to max_terms with an infinite (nan) bound
    assert_same_stop(x, -5 + 1e-5, 100, 1e-12, 3, 1.0, series._direct_stream)


@pytest.mark.parametrize("max_terms", [1, 2, 60])
def test_numerator_first_stop_with_rho_at_least_one(max_terms):
    # r_1 > 1/0.9 at alpha = 0.1j and at alpha = 0, s = 8 (about (1 + 1/(3 *
    # 1.5))^7): rho >= 1 on the first terms.  With scale 0 the numerator is 0
    # <= tol from the first term on, yet at the complex shift the sum must go
    # on until rho < 1 (or stop at max_terms); at the real one the summation
    # by parts bound, 0, needs no rho < 1.
    for alpha in (0.1j, 0.0):
        for scale in (0.0, 1.0):
            assert_same_stop(0.9, alpha, 8, 1e-12, max_terms, scale, series._term_stream)
    assert series._summed(0.9, 0.1j, 8, 1e-12, 1, 0.0).error_bound == math.inf
    assert series._summed(0.9, 0.1j, 8, 1e-12, 60, 0.0).converged
    assert series._summed(0.9, 0.0, 8, 1e-12, 1, 0.0)[1:] == (1, 0.0, True, "z")


@pytest.mark.parametrize(
    "x, alpha, s, factory",
    [(-0.6, 0j, 3, series._term_stream), (0.4 + 0.3j, -2.5 + 1j, 2, series._direct_stream), (0.5, 0.0, 6, series._term_stream)],
)
def test_numerator_first_stop_at_a_tol_equal_to_the_bound(x, alpha, s, factory):
    # tol set to the very bound the loop returns at 1e-9: it converges there
    result = summed_every_bound(x, alpha, s, 1e-9, 10000, 1.0, factory)
    tol = result.error_bound
    assert_same_stop(x, alpha, s, tol, 10000, 1.0, factory)
    assert series._summed(x, alpha, s, tol, 10000, 1.0, factory) == result


@pytest.mark.parametrize("used", [0, 1, 7])
def test_numerator_first_stop_counts_the_terms_used_before_the_sum(used):
    # A route that spent `used` of its max_terms before the sum leaves the
    # sum the rest (30 - used: the sum at x = 0.9 stops there, unconverged),
    # and the result counts both
    args = (0.9, 0.5 + 0.1j, 3, 1e-12, 30, 2.0 - 1j, series._term_stream, 0.5j, 1e-15, 3.0, 6.0)
    result = series._summed(*args, used=used)
    assert repr(result) == repr(summed_every_bound(*args, used=used))
    rest = series._summed(*args[:4], 30 - used, *args[5:])
    assert result == rest._replace(terms_used=used + rest.terms_used) and result.terms_used == 30


# ---------------------------------------------------------------------------
# binomial double-sum form
# ---------------------------------------------------------------------------


def test_euler_eta2_at_half():
    value = next(islice(series._euler_partial_sums(2), 59, None))
    assert value.real == pytest.approx(-PI2_12, abs=1e-12)


def test_euler_partial_sums_stable_at_half():
    # Each inner sum cancels terms of size ~2^p, and z^p = 2^{-p} offsets
    # that: every partial sum stays within a few ulps of the exact one.
    for s in range(1, 9):
        exact_total = F(0)
        sums = series._euler_partial_sums(s)
        for P in range(1, 61):
            exact_total -= exact.lemma_lhs(exact.LemmaParams(P - 1, s, 1)) / 2**P
            value = next(sums)
            assert value.imag == 0.0
            assert abs(F(value.real) - exact_total) <= F(1e-15) * abs(exact_total), (s, P)


# ---------------------------------------------------------------------------
# zeta series
# ---------------------------------------------------------------------------


def test_zeta_two():
    result = series.zeta_accelerated(2, tol=1e-12)
    assert result.converged
    assert result.terms_used <= 64
    assert result.value.real == pytest.approx(1.6449340668482264, abs=1e-12)


def test_zeta_three():
    result = series.zeta_accelerated(3, tol=1e-12)
    assert result.value.real == pytest.approx(1.2020569031595943, abs=1e-12)


def test_zeta_first_term():
    # a_1 = 1 for every depth, so the p = 1 term is a_1/(1*2) = 1/2
    for s in (2, 3, 5):
        assert -exact.coefficient_exact(1, 0, s) == 1
        truncated = series.zeta_accelerated(s, tol=1e-12, max_terms=1)
        assert not truncated.converged
        assert truncated.value.real * (1 - 2.0 ** (1 - s)) == 0.5


def test_zeta_pole_rejected():
    for s in (1, 0, -3):
        with pytest.raises(DomainError):
            series.zeta_accelerated(s)


def test_zeta_bound_contract_vs_oracle():
    for s in range(2, 9):
        for tol in (1e-6, 1e-10, 1e-12):
            result = series.zeta_accelerated(s, tol=tol)
            assert_certified(result, tol, float(abs(mp.mpf(result.value.real) - mp.zeta(s))))


def test_zeta_matches_lerch_at_minus_one():
    for s in (2, 3, 5):
        eta = -series.lerch_accelerated(-1, ShiftParam(0j), s, tol=1e-12).value.real
        zeta = series.zeta_accelerated(s, tol=1e-12).value.real
        assert eta / (1 - 2.0 ** (1 - s)) == pytest.approx(zeta, rel=1e-12)


# ---------------------------------------------------------------------------
# tuple-harmonic coefficients a_p = -p c_p at alpha = 0
# ---------------------------------------------------------------------------


def test_ap_depth_zero():
    for p in (1, 5, 100):
        assert -p * exact.coefficient_exact(p, 0, 1) == 1


def test_ap_harmonic_number():
    assert -3 * exact.coefficient_exact(3, 0, 2) == F(11, 6)


def test_ap_depth_two():
    # 1 + 1/2 + 1/4
    assert -2 * exact.coefficient_exact(2, 0, 3) == F(7, 4)


def test_ap_matches_exact_multi_sum():
    for s in (2, 3, 5):
        for p in (1, 4, 11):
            expected = exact.multi_sum(exact.MultiSumSpec(1, p, s - 1, F(0)))
            assert -p * exact.coefficient_exact(p, 0, s) == expected


# ---------------------------------------------------------------------------
# domain mapping properties
# ---------------------------------------------------------------------------

half_plane_points = st.builds(
    complex,
    st.floats(min_value=-50.0, max_value=0.499, allow_nan=False),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
disk_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)


@given(w=half_plane_points)
def test_half_plane_maps_into_disk(w):
    assert abs(w / (w - 1)) < 1.0


@settings(max_examples=200)
@given(z=disk_points)
def test_disk_maps_into_half_plane(z):
    assert series.disk_to_half_plane(z).real < 0.5


def test_disk_to_half_plane_rejects_the_pole():
    with pytest.raises(DomainError):
        series.disk_to_half_plane(1)


@given(w=half_plane_points)
def test_mapping_round_trip(w):
    back = series.disk_to_half_plane(w / (w - 1))
    assert abs(back - w) <= 1e-9 * (1 + abs(w))


def test_series_result_contract():
    for tol in (1e-6, 1e-10, 1e-12):
        for result in (
            series.lerch_accelerated(-1, ShiftParam(0.5 + 0j), 2, tol=tol),
            series.lerch_direct(0.4 - 0.3j, ShiftParam(1j), 3, tol=tol),
            series.zeta_accelerated(4, tol=tol),
        ):
            assert isinstance(result, SeriesResult)
            assert result.converged
            assert result.error_bound <= tol * max(1.0, abs(result.value))
            assert result.terms_used <= series.DEFAULT_MAX_TERMS
