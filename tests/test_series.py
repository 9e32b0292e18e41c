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
from hypothesis import given, settings
from hypothesis import strategies as st

from mhlerch import cli, exact, series
from mhlerch.errors import DomainError, InvalidShiftError, PrecisionError
from mhlerch.series import SeriesResult, ShiftParam

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
    value = mp.mpc(w) * mp.lerchphi(mp.mpc(w), s, mp.mpc(alpha) + 1)
    return complex(value)


def z_series(w, shift, s, tol=series.DEFAULT_TOL, max_terms=series.DEFAULT_MAX_TERMS):
    """The series in z that `lerch_accelerated` sums off the lens |w - 1| < 1,
    summed at any w of the half-plane."""
    return series._z_series(complex(w), shift.alpha, s, tol, max_terms)


def kept_key(alpha, s, factory=series._term_stream):
    """The key of (alpha, s) in `series._kept_streams`."""
    return (factory, alpha, s, type(alpha))


def kept(alpha, s, factory=series._term_stream):
    """The `_kept_streams` entry of (alpha, s): None while the key is only
    recorded, else (terms, extension); KeyError if it is not recorded."""
    return series._kept_streams[kept_key(alpha, s, factory)]


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
                assert result.converged
                assert abs(result.value - ref_lerch(w, alpha, s)) <= result.error_bound + 1e-15


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


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.fractions(min_value=-1, max_value=60, max_denominator=100).filter(lambda a: a > -1),
    s=st.integers(1, 8),
    p=st.integers(1, 80),
)
def test_real_shift_majorant_bounds_the_exact_coefficients(alpha, s, p):
    # At a real alpha > -1, c_p < 0 and B(p+1) = |c_p| bounds every later |c_m|
    c_p, b_next, _ = next(islice(series._term_stream(complex(alpha), s), p - 1, None))
    assert c_p.real < 0 and exact.coefficient_exact(p, alpha, s) < 0
    for m in range(p + 1, p + 6):
        assert F(b_next) >= abs(exact.coefficient_exact(m, alpha, s))


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
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False).filter(
        lambda a: a.imag != 0 or a.real != round(a.real) or a.real >= 0
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
        # bounds[m] = B(m+1) = |c_m|, which does not increase: every ratio is <= 1 <= sup
        for m in range(1, 200):
            assert bounds[m] == abs(stream[m - 1][0])
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


def _peeled_abs_terms(w, alpha, s, terms):
    # sum_{n<=K} |w|^n/|alpha+n|^s + |w|^K sum_{p<=P-K} |c_p(alpha+K) z^p|, P = terms:
    # P u times it bounds the rounding of a peeled call's head and partial sum
    k = series._pole_terms(alpha)
    az = abs(w / (w - 1))
    stream = islice(series._term_stream(alpha + k, s), terms - k)
    head = sum(abs(w) ** n / abs(alpha + n) ** s for n in range(1, k + 1))
    return head + abs(w) ** k * sum(abs(c_p) * az**p for p, (c_p, _, _) in enumerate(stream, 1))


def test_accelerated_bound_contract_vs_oracle():
    # The certificate must cover the true error on the whole shift grid, up to
    # the rounding each branch states: it bounds truncation only.
    w_points = (-1.0, -5.0, 0.3 + 2j, -0.4 - 0.4j, 0.45)
    grid = [(alpha, w) for alpha in SHIFTS_MIXED + [4 + 0j, -0.5 + 0j] + SHIFTS_NEGATIVE for w in w_points]
    grid += [(-20.3 + 3j, w) for w in w_points if abs(w) > 1]  # K = 21
    for alpha, w in grid:
        shift = ShiftParam(alpha)
        for s in (1, 2, 4):
            result = series.lerch_accelerated(w, shift, s, tol=1e-12)
            assert result.converged
            ref = ref_lerch(w, alpha, s)
            if alpha.real >= -0.5:
                rounding = 1e-15  # every |c_p z^p| and the value are O(1)
            elif abs(w) <= 1:
                # peeled, or summed by the defining series in the lens
                # (w = 0.45): the head or the sum holds the near-pole term's
                # size, up to 1e12 at alpha = -1.999, s = 4; measured at most
                # 3.5 u |ref|
                rounding = 16 * U * abs(ref)
            else:
                # peeled, the head and |w|^K times the series in z at alpha + K
                # sum to 3.5e14 in absolute value against |ref| = 7.8e10 at
                # alpha = -20.3 + 3i, w = -5, s = 1 (error 0.07): the
                # recursive-sum rounding that the bound does not count
                # (ROADMAP item 2); the excess measured at most 0.017 of it
                terms = result.terms_used
                rounding = terms * U * _peeled_abs_terms(w, alpha, s, terms)
            assert abs(result.value - ref) <= result.error_bound + rounding
    # Summed at alpha, this call gave error 3.6e-7 against a bound of 9.9e-13
    # (sum |c_p z^p| was 1.7e10 over 1525 terms); peeled, it needs no allowance
    w, alpha = 0.3 + 2j, -7.3 + 0.01j
    result = series.lerch_accelerated(w, ShiftParam(alpha), 1, tol=1e-12)
    assert result.converged
    assert abs(result.value - ref_lerch(w, alpha, 1)) <= result.error_bound


@pytest.mark.parametrize("alpha", [50 + 0j, 1000 + 0j, 1000j])
def test_accelerated_large_shift_stops_early(alpha):
    # c_p shrinks like |alpha|^-p, so a large shift needs few terms; the bound
    # used to wait for p + 2 > |alpha| (99 to 5999 terms) and underflow to 0
    shift = ShiftParam(alpha)
    for w in (-1.0, 0.4, -5.0):
        result = z_series(w, shift, 2, tol=1e-12)
        assert result.converged
        assert result.terms_used <= 10
        assert 0.0 < result.error_bound <= 1e-12
        ref = ref_lerch(w, alpha, 2)
        assert abs(result.value - ref) <= result.error_bound + 8 * 2.0**-53 * abs(ref)


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
                # alpha = -1.999, s = 3, each with its own rounding: measured
                # at most 4.7 u |d| beyond the bounds
                rounding = 16 * U * abs(d.value) if alpha.real < -0.5 else 0.0
                assert abs(a.value - d.value) <= 10 * (a.error_bound + d.error_bound) + rounding


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
    outside = [0.49 + 0.88j, 0.49 - 0.88j, 0j, -1e-9, -0.5, 0.3 + 2j, -1 + 0.2j]
    shift = ShiftParam(0.5 + 0j)
    for w in inside + outside:
        assert (abs(w) < abs(w / (w - 1))) == (w in inside)
        result = series.lerch_accelerated(w, shift, 2, 1e-6, 200)
        assert result.method == ("direct" if w in inside else "z")


def _direct_abs_terms(w, alpha, s, terms):
    # sum_{n<=N} |w|^n/|alpha+n|^s, N = terms: N u times it bounds the
    # rounding of the partial sum
    return sum(abs(w) ** n / abs(alpha + n) ** s for n in range(1, terms + 1))


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
    # Within the bound plus the rounding of the partial sum, which the bound
    # does not count: the near-pole term, 5e16 at alpha = -2 + 1e-6, s = 3,
    # sets the size of the rounding there
    result = series.lerch_accelerated(w, ShiftParam(alpha), s, tol=1e-12)
    assert result.converged and result.method == "direct"
    rounding = result.terms_used * U * _direct_abs_terms(w, alpha, s, result.terms_used)
    assert abs(result.value - ref_lerch(w, alpha, s)) <= result.error_bound + rounding


@pytest.mark.parametrize("w, tol, unpeeled, most", [(-0.5, 1e-12, 74, 52), (-0.2 - 0.1j, 1e-6, 60, 52)])
def test_peeling_skips_the_infinite_tail_ratios(w, tol, unpeeled, most):
    # Summed at alpha = -50.5, the first 48 tail ratios were inf and the bound
    # waited for them: `unpeeled` terms, counted before the series at alpha
    # was removed.  Peeled, the series in z runs at alpha + 51 = 0.5.
    alpha = -50.5 + 0j
    result = z_series(w, ShiftParam(alpha), 2, tol)
    assert result.converged
    assert result.terms_used <= most, f"{result.terms_used} terms; summed at alpha it took {unpeeled}"
    ref = ref_lerch(w, alpha, 2)
    assert abs(result.value - ref) <= result.error_bound + 16 * U * abs(ref)


@pytest.mark.parametrize(
    "w, alpha, max_terms",
    [(-1, -0.5 + 0j, 10000), (-2, -0.5 + 1j, 10000), (0j, -0.5 + 0j, 10000)],
    ids=["alpha=-1/2", "alpha=-1/2+i,|w|>1", "alpha=-1/2,w=0"],
)
def test_calls_that_are_not_peeled_sum_at_alpha(w, alpha, max_terms):
    w = complex(w)
    expected = repr(series._summed(w / (w - 1), alpha, 3, 1e-12, max_terms))
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
        assert series._kept_streams == {}  # the series in z was not summed
        return
    assert result.converged
    assert list(series._kept_streams) == [kept_key(alpha + k, 3)]
    if w == 0:
        assert (result.value, result.terms_used, result.error_bound) == (0, k + 1, 0.0)
    ref = ref_lerch(w, alpha, 3)
    rounding = result.terms_used * U * _peeled_abs_terms(w, alpha, 3, result.terms_used)
    assert abs(result.value - ref) <= result.error_bound + rounding


def test_summed_is_given_re_alpha_at_least_minus_one_half(monkeypatch):
    # `_term_stream`'s tail ratio bound needs Re(alpha) >= -1; every call of
    # `_summed` must get Re(alpha) >= -1/2, or alpha = 0 from zeta, whatever
    # w, shift or max_terms.
    summed = series._summed
    seen = []

    def recorded(z, alpha, *args):
        seen.append(alpha)
        return summed(z, alpha, *args)

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
    # |w|^4 = 1e-800 is 0 in binary64; the bound must be 0, not 0 * inf = nan
    alpha = -3.5 + 0j
    result = z_series(-1e-200, ShiftParam(alpha), 2)
    assert result.converged
    assert result.error_bound == 0.0
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
# kept coefficient streams: a call must give the same bits whether or not the
# stream of its (alpha, s) was kept by earlier calls
# ---------------------------------------------------------------------------


def _forget_stream():
    with series._kept_lock:
        series._kept_streams.clear()
        series._kept_count[0] = 0


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
    terms, _ = kept(alpha + k, s)
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
    terms, _ = kept(0.5 + 0j, 2)
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
    off_lens = [-1, -0.3 + 0.4j, 0.3 + 2j, -5]
    calls = [(w, alpha, s, tol, 10000) for pair in zip(lens, off_lens) for w in pair for tol in (1e-6, 1e-12)]
    expected = [_cold(call, series.lerch_accelerated) for call in calls]
    _forget_stream()
    got = [series.lerch_accelerated(w, ShiftParam(a), s, tol, m) for w, a, s, tol, m in calls]
    assert [repr(result) for result in got] == expected
    assert [result.method for result in got] == ["direct", "direct", "z", "z"] * len(lens)
    for factory, method in ((series._direct_stream, "direct"), (series._term_stream, "z")):
        terms, _ = kept(alpha, s, factory)
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
    # A raise in the kernel step of term 20 ends the kept generator after the
    # last kept term; the entry must be dropped, not read by the next call.
    call = (-0.7 + 0.3j, 1.3 + 0.7j, 3, 1e-12, 10000)
    expected = _cold(call)
    depth_columns = exact._depth_columns

    def interrupted(*args):
        for item in depth_columns(*args):
            if item[0] == 20:
                raise KeyboardInterrupt
            yield item

    _forget_stream()
    z_series(-4 + 2j, ShiftParam(1.3 + 0.7j), 3)
    monkeypatch.setattr(exact, "_depth_columns", interrupted)
    with pytest.raises(KeyboardInterrupt):
        z_series(-4 + 2j, ShiftParam(1.3 + 0.7j), 3)
    monkeypatch.undo()
    assert kept_key(1.3 + 0.7j, 3) not in series._kept_streams
    assert series._kept_count == [0]
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


def test_kept_stream_is_safe_across_threads():
    # Four threads tabulate the same row of points at the same time, each in
    # its own shuffled order, one pair after another, so they keep recording,
    # reading and extending the kept entries under each other: a row holds
    # points in the lens and off it.  Besides the short switch interval, a
    # tracer makes a thread nap at random byte codes of `lerch_accelerated`,
    # `_z_series` and the summation loop `_summed`, so that it can lose the
    # interpreter lock between any two of them.  Every result must be the
    # serial cold one.
    rows = []
    for alpha, s in ((0.5 + 0j, 2), (1.3 + 0.7j, 3), (-0.5 + 0.5j, 4)):
        zs = [cmath.rect(0.09 * k, 0.9 * k) for k in range(1, 11)]
        rows.append([(series.disk_to_half_plane(z), alpha, s, 1e-12, 10000) for z in zs])
    assert {abs(w - 1) < 1 for row in rows for w, *_ in row} == {True, False}
    expected = {call: _cold(call, series.lerch_accelerated) for row in rows for call in row}
    barrier = threading.Barrier(4, timeout=60)
    naps = random.Random(0)
    codes = (series.lerch_accelerated.__code__, series._z_series.__code__, series._summed.__code__)

    def tracer(frame, event, arg):
        if frame.f_code not in codes:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return nap

    def nap(frame, event, arg):
        if event == "opcode" and naps.random() < 0.003:
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
    # 1,000 distinct pairs, each called twice so that its terms are kept:
    # the oldest keys are forgotten, and the oldest kept terms dropped.
    _forget_stream()
    for i in range(1000):
        alpha = complex(0.5 + 0.003 * i, 0.2)
        first, later = (z_series(-1, ShiftParam(alpha), 3) for _ in range(2))
        assert repr(first) == repr(later)
        entries = list(series._kept_streams.values())
        kept_terms = sum(len(entry[0]) for entry in entries if entry)
        assert len(entries) <= series._RECORDED_KEYS
        assert series._kept_count == [kept_terms] and kept_terms <= series._KEPT_TERMS
        assert len(kept(alpha, 3)[0]) == later.terms_used  # the latest pair stays kept
    assert len(series._kept_streams) == series._RECORDED_KEYS
    assert series._KEPT_TERMS - later.terms_used < series._kept_count[0]

# ---------------------------------------------------------------------------
# stopping rule: `_summed` tests the numerator of its bound first, which must
# give every result the whole bound formed on every term gave
# ---------------------------------------------------------------------------


def summed_every_bound(x, alpha, s, tol, max_terms, scale, factory):
    """Oracle for `series._summed`: its loop over an unkept stream, with the
    bound formed in full on every term: the geometric bound where rho < 1,
    and where that is > tol at a real alpha > -1, the smaller of it and the
    summation-by-parts bound y (1 + |x|)/|1 - x|, its factor taken >= 1."""
    method = series._METHODS[factory]
    abel = alpha.imag == 0 and alpha.real > -1
    ax = abs(x)
    total = 0.0
    x_pow = 1.0
    ax_pow = ax
    for p, (a_p, b_next, ratio) in enumerate(factory(alpha, s), 1):
        x_pow *= x
        ax_pow *= ax
        total += a_p * x_pow
        rho = ax * ratio
        y = scale * b_next * ax_pow
        bound = y / (1.0 - rho) if rho < 1.0 else math.inf
        if abel and bound > tol:
            bound = min(bound, y * max(1.0, (1.0 + ax) / abs(1.0 - x)))
        if bound <= tol:
            return SeriesResult(total, p, bound, True, method)
        if p >= max_terms:
            return SeriesResult(total, p, bound, False, method)


def _outcome(summed, *args):
    # the repr tells -0.0 from 0.0 and shows a nan; a raise is its type
    try:
        return repr(summed(*args))
    except ArithmeticError as error:
        return type(error).__name__


def assert_same_stop(x, alpha, s, tol, max_terms, scale, factory):
    args = (x, alpha, s, tol, max_terms, scale, factory)
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


@settings(max_examples=400)
@given(
    x=summed_points,
    alpha=summed_shifts,
    s=st.integers(1, 8),
    tol=st.floats(series.MIN_TOL, 1.0),
    max_terms=st.integers(1, 60),
    scale=st.one_of(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0.0, 1e300)),
    factory=st.sampled_from([series._term_stream, series._direct_stream]),
)
def test_numerator_first_stop_gives_every_bound_results(x, alpha, s, tol, max_terms, scale, factory):
    assert_same_stop(x, alpha, s, tol, max_terms, scale, factory)


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
            assert result.converged
            assert result.error_bound <= tol
            err = abs(result.value.real - float(mp.zeta(s)))
            assert err <= result.error_bound


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
            assert result.error_bound <= tol
            assert result.terms_used <= series.DEFAULT_MAX_TERMS
