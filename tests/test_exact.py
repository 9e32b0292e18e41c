"""Exact-rational kernel: oracle agreement, identities, frozen values."""

import math
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhlerch import exact, verify
from mhlerch.errors import InvalidShiftError

BETAS = [F(1), F(1, 2), F(3, 2), F(2), F(7, 3), F(5)]
ALPHAS = [b - 1 for b in BETAS]

# small rationals avoiding nonpositive integers (valid betas)
rationals = st.fractions(min_value=F(-9, 2), max_value=F(9), max_denominator=4).filter(
    lambda x: not (x.denominator == 1 and x <= 0)
)


# ---------------------------------------------------------------------------
# reference oracles, written independently of the depth-column recurrence
# ---------------------------------------------------------------------------


def pochhammer(x, p):
    """Rising product x (x+1) ... (x+p-1); the empty product (p = 0) is 1."""
    out = F(1)
    for j in range(p):
        out *= F(x) + j
    return out


def multi_sum_bruteforce(spec):
    """S_a^b(t) by explicit enumeration of all nondecreasing tuples."""
    f = {n: 1 / (spec.beta + n) for n in range(spec.a, spec.b + 1)}
    total = F(0)
    for tup in combinations_with_replacement(range(spec.a, spec.b + 1), spec.t):
        term = F(1)
        for i in tup:
            term *= f[i]
        total += term
    return total


def test_pochhammer_empty_product():
    assert pochhammer(F(7, 3), 0) == 1


def test_pochhammer_factorial():
    assert pochhammer(1, 3) == 6
    assert pochhammer(1, 6) == math.factorial(6)


def test_pochhammer_half():
    # (1/2)(3/2)(5/2)
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2) == F(15, 8)


def test_pochhammer_crossing_zero():
    # (-2)(-1)(0)(1): any x is allowed, including ones that zero the product
    assert pochhammer(F(-2), 4) == 0


@given(x=rationals, p=st.integers(min_value=0, max_value=12))
def test_pochhammer_recurrence(x, p):
    assert pochhammer(x, p + 1) == pochhammer(x, p) * (x + p)


# ---------------------------------------------------------------------------
# multiple harmonic sums
# ---------------------------------------------------------------------------


def test_multi_sum_depth_zero_is_one():
    for beta in BETAS:
        assert exact.multi_sum(exact.MultiSumSpec(0, 3, 0, beta)) == 1


def test_multi_sum_two_terms():
    # f_0 + f_1 at beta = 1
    assert exact.multi_sum(exact.MultiSumSpec(0, 1, 1, F(1))) == F(3, 2)


def test_multi_sum_single_index_squares():
    # only tuple is (0, 0): f_0^2 = (1/2)^2
    assert exact.multi_sum(exact.MultiSumSpec(0, 0, 2, F(2))) == F(1, 4)


def test_bruteforce_single_tuple():
    assert multi_sum_bruteforce(exact.MultiSumSpec(1, 1, 3, F(1, 2))) == F(8, 27)


def test_bruteforce_six_tuples():
    # (0,0) (0,1) (0,2) (1,1) (1,2) (2,2) with f = (1, 1/2, 1/3)
    assert multi_sum_bruteforce(exact.MultiSumSpec(0, 2, 2, F(1))) == F(85, 36)


def test_bruteforce_depth_zero():
    assert multi_sum_bruteforce(exact.MultiSumSpec(2, 5, 0, F(1))) == 1


def test_multi_sum_matches_bruteforce_grid():
    for beta in BETAS:
        for a in range(3):
            for b in range(a, a + 4):
                for t in range(5):
                    spec = exact.MultiSumSpec(a, b, t, beta)
                    assert exact.multi_sum(spec) == multi_sum_bruteforce(spec)


@settings(max_examples=60)
@given(
    beta=rationals,
    a=st.integers(min_value=0, max_value=4),
    width=st.integers(min_value=0, max_value=5),
    t=st.integers(min_value=0, max_value=4),
)
def test_multi_sum_matches_bruteforce_random(beta, a, width, t):
    b = a + width
    if beta.denominator == 1 and a <= -beta <= b:
        return  # spec constructor rejects vanishing denominators
    spec = exact.MultiSumSpec(a, b, t, beta)
    assert exact.multi_sum(spec) == multi_sum_bruteforce(spec)


def test_multi_sum_spec_validation():
    with pytest.raises(ValueError):
        exact.MultiSumSpec(3, 2, 1, F(1))
    with pytest.raises(ValueError):
        exact.MultiSumSpec(0, 2, -1, F(1))
    with pytest.raises(ZeroDivisionError):
        exact.MultiSumSpec(0, 3, 1, F(-2))


# ---------------------------------------------------------------------------
# the binomial identity L = R and its recurrences
# ---------------------------------------------------------------------------


def test_lemma_lhs_base():
    for beta in BETAS:
        for s in range(1, 4):
            assert exact.lemma_lhs(exact.LemmaParams(0, s, beta)) == 1 / beta**s


def test_lemma_lhs_small():
    assert exact.lemma_lhs(exact.LemmaParams(1, 1, F(1))) == F(1, 2)
    assert exact.lemma_lhs(exact.LemmaParams(2, 1, F(1))) == F(1, 3)


def test_lemma_rhs_base():
    for beta in BETAS:
        for s in range(1, 4):
            assert exact.lemma_rhs(exact.LemmaParams(0, s, beta)) == 1 / beta**s


def test_lemma_rhs_small():
    assert exact.lemma_rhs(exact.LemmaParams(2, 1, F(1))) == F(1, 3)
    # 1/(beta (beta+1)) * (1/beta + 1/(beta+1)) at beta = 1
    assert exact.lemma_rhs(exact.LemmaParams(1, 2, F(1))) == F(3, 4)


def test_lemma_identity_grid():
    for q in range(9):
        for s in range(1, 5):
            for beta in BETAS:
                params = exact.LemmaParams(q, s, beta)
                assert exact.lemma_lhs(params) == exact.lemma_rhs(params)


def test_lhs_recurrence():
    for q in range(6):
        for s in (1, 3):
            for beta in (F(1), F(1, 2), F(7, 3)):
                step = exact.lemma_lhs(exact.LemmaParams(q, s, beta)) - exact.lemma_lhs(
                    exact.LemmaParams(q, s, beta + 1)
                )
                assert exact.lemma_lhs(exact.LemmaParams(q + 1, s, beta)) == step


def test_rhs_recurrence():
    # R(2, 1) = 1/3 = R(1, 1) - R(1, 2) = 1/2 - 1/6 at s = 1
    assert exact.lemma_rhs(exact.LemmaParams(1, 1, F(1))) == F(1, 2)
    assert exact.lemma_rhs(exact.LemmaParams(1, 1, F(2))) == F(1, 6)
    assert exact.lemma_rhs(exact.LemmaParams(2, 1, F(1))) == F(1, 3)
    for q in range(1, 6):
        for s in (1, 2, 4):
            for beta in (F(1), F(3, 2)):
                step = exact.lemma_rhs(exact.LemmaParams(q, s, beta)) - exact.lemma_rhs(
                    exact.LemmaParams(q, s, beta + 1)
                )
                assert exact.lemma_rhs(exact.LemmaParams(q + 1, s, beta)) == step


def test_rhs_telescopes_at_s1():
    # at s = 1, R(q, beta) = q!/(beta)_{q+1} exactly
    for q in range(8):
        for beta in BETAS:
            expected = F(math.factorial(q)) / pochhammer(beta, q + 1)
            assert exact.lemma_rhs(exact.LemmaParams(q, 1, beta)) == expected


def test_lemma_params_validation():
    with pytest.raises(ValueError):
        exact.LemmaParams(-1, 1, F(1))
    with pytest.raises(ValueError):
        exact.LemmaParams(0, 0, F(1))
    for bad in (F(0), F(-1), F(-3)):
        with pytest.raises(InvalidShiftError):
            exact.LemmaParams(0, 1, bad)
    exact.LemmaParams(0, 1, F(-1, 2))  # non-integer negatives are fine


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: exact.LemmaParams(2.5, 2, 1), "q"),
        (lambda: exact.LemmaParams(2, 2.5, 1), "s"),
        (lambda: exact.LemmaParams(F(2), 2, 1), "q"),
        (lambda: exact.MultiSumSpec(0.5, 2, 1, 1), "a"),
        (lambda: exact.MultiSumSpec(0, 2.5, 1, 1), "b"),
        (lambda: exact.MultiSumSpec(0, 2, 1.0, 1), "t"),
    ],
    ids=["LemmaParams.q", "LemmaParams.s", "LemmaParams.q-Fraction", "MultiSumSpec.a",
         "MultiSumSpec.b", "MultiSumSpec.t"],
)
def test_non_integer_indices_are_rejected_at_construction(make, name):
    # Accepted before, they failed later inside a sum with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make()


@settings(max_examples=40)
@given(
    beta=rationals,
    q=st.integers(min_value=0, max_value=8),
    s=st.integers(min_value=1, max_value=4),
)
def test_lemma_identity_random(beta, q, s):
    params = exact.LemmaParams(q, s, beta)
    assert exact.lemma_lhs(params) == exact.lemma_rhs(params)


# ---------------------------------------------------------------------------
# splitting identities
# ---------------------------------------------------------------------------


def test_splitting_two_part_example():
    # S_0^1(1) = 3/2 = S_0^0(1) + S_1^1(1) = 1 + 1/2 at beta = 1
    beta = F(1)
    assert exact.multi_sum(exact.MultiSumSpec(0, 1, 1, beta)) == F(3, 2)
    total = exact.multi_sum(exact.MultiSumSpec(0, 0, 1, beta)) + exact.multi_sum(
        exact.MultiSumSpec(1, 1, 1, beta)
    )
    assert total == F(3, 2)


def test_splitting_two_part_grid():
    def S(a, b, t, beta):
        return exact.multi_sum(exact.MultiSumSpec(a, b, t, beta))

    for beta in (F(1), F(1, 2), F(7, 3)):
        for t in range(4):
            for a in range(3):
                for b in range(a, 4):
                    for c in range(b + 1, 6):
                        split = sum(
                            S(a, b, u, beta) * S(b + 1, c, t - u, beta) for u in range(t + 1)
                        )
                        assert S(a, c, t, beta) == split


def test_splitting_three_part_grid():
    def S(a, b, t, beta):
        return exact.multi_sum(exact.MultiSumSpec(a, b, t, beta))

    for beta in (F(1), F(3, 2)):
        for t in range(4):
            for a in range(1, 4):
                for b in range(a, 5):
                    f_lo = 1 / (beta + a - 1)
                    f_hi = 1 / (beta + b + 1)
                    total = F(0)
                    for u in range(t + 1):
                        for v in range(t + 1 - u):
                            w = t - u - v
                            total += f_lo**u * S(a, b, v, beta) * f_hi**w
                    assert S(a - 1, b + 1, t, beta) == total


# ---------------------------------------------------------------------------
# series coefficients
# ---------------------------------------------------------------------------


def test_coefficient_first_index():
    for alpha in ALPHAS:
        for s in range(1, 5):
            assert exact.coefficient_exact(1, alpha, s) == -1 / (alpha + 1) ** s


def test_coefficient_s1_is_harmonic():
    for p in range(1, 12):
        assert exact.coefficient_exact(p, 0, 1) == F(-1, p)


def test_coefficient_frozen_value():
    # -(1/3)(1 + 1/2 + 1/3)
    assert exact.coefficient_exact(3, 0, 2) == F(-11, 18)


def test_coefficient_strictly_negative():
    for alpha in ALPHAS:
        for s in range(1, 5):
            for p in range(1, 15):
                assert exact.coefficient_exact(p, alpha, s) < 0


def test_coefficient_vs_bruteforce():
    for alpha in (F(0), F(1, 2), F(4, 3)):
        for s in range(1, 5):
            for p in range(1, 8):
                pref = F(math.factorial(p - 1)) / pochhammer(alpha + 1, p)
                expected = -pref * multi_sum_bruteforce(
                    exact.MultiSumSpec(1, p, s - 1, alpha)
                )
                assert exact.coefficient_exact(p, alpha, s) == expected


def test_alternating_sum_equals_coefficient():
    # the exact shadow of the L = R identity inside the transformed series
    for alpha in ALPHAS:
        for s in range(1, 5):
            for p in range(1, 13):
                lhs = exact.lemma_lhs(exact.LemmaParams(p - 1, s, alpha + 1))
                assert -lhs == exact.coefficient_exact(p, alpha, s)


def test_coefficient_exact_takes_a_float_alpha_exactly():
    # 0.1 + 1 rounds in binary64; Fraction(0.1) + 1 does not.
    for s in (1, 3):
        expected = kernel_coefficients(F(0.1), s, 6)
        assert [exact.coefficient_exact(p, 0.1, s) for p in range(1, 7)] == expected


def test_coefficient_invalid_alpha():
    for bad in (F(-1), F(-2), F(-7)):
        with pytest.raises(InvalidShiftError):
            exact.coefficient_exact(2, bad, 2)
    with pytest.raises(ValueError):
        exact.coefficient_exact(0, F(0), 2)


# ---------------------------------------------------------------------------
# the integer path against the Fraction kernels
# ---------------------------------------------------------------------------

def kernel_coefficients(alpha, s, p_max):
    """c_1 .. c_{p_max} from the kernel run on the Fraction alpha itself."""
    return [-prefactor * col[s - 1] for _, prefactor, col in exact._depth_columns(alpha, s - 1, 1, p_max)]


# Shifts with denominators up to 50 and numerators up to 10^4, negative
# non-integers included; a nonpositive integer is no valid beta.
wide_rationals = st.builds(
    F, st.integers(min_value=-10**4, max_value=10**4), st.integers(min_value=1, max_value=50)
).filter(lambda x: not (x.denominator == 1 and x <= 0))


@settings(max_examples=80, deadline=None)
@given(
    beta=wide_rationals,
    q=st.integers(min_value=0, max_value=15),
    s=st.integers(min_value=1, max_value=5),
    t=st.integers(min_value=0, max_value=4),
    a=st.integers(min_value=0, max_value=12),
    width=st.integers(min_value=0, max_value=12),
)
def test_integer_path_matches_the_fraction_kernels(beta, q, s, t, a, width):
    # The public functions run the kernels on exact._Scaled; run on Fraction
    # inputs directly, the same kernels are the oracle.  L and R share one set
    # of weights, so the identity alone would not see a wrong beta in both.
    b = min(a + width, 12)
    *_, (_, _, col) = exact._depth_columns(beta, t, a, b)
    assert exact.multi_sum(exact.MultiSumSpec(a, b, t, beta)) == col[t]

    params = exact.LemmaParams(q, s, beta)
    powers = [(beta + m) ** s for m in range(q + 1)]
    assert exact.lemma_lhs(params) == exact._alternating_sum(powers, q)
    *_, (_, prefactor, col) = exact._depth_columns(beta, s - 1, 0, q)
    assert exact.lemma_rhs(params) == prefactor * col[s - 1]

    alpha = beta - 1
    assert exact.coefficient_exact(q + 1, alpha, s) == kernel_coefficients(alpha, s, q + 1)[q]


def _alternating_loop(powers, q):
    """L(q, x0) term by term from m = 0, each term (-1)^m C(q, m) / powers[m]."""
    total = 0
    for m in range(q + 1):
        total = total + (-1) ** m * math.comb(q, m) / powers[m]
    return total


def test_alternating_sum_is_the_term_by_term_loop_bit_for_bit():
    # The fold over the signed rows against the loop, in every number type the
    # package sums it in, for q past the kept rows; the rows grow from none.
    exact._kept_row.cache_clear()
    q_top = 70
    assert verify.SONDOW_P - 1 < exact._KEPT_ROWS <= q_top
    x0s = [0.5, 1 + 0j, *verify.LEMMA_COMPLEX_BETAS, F(7, 3), exact._Scaled(F(7, 3), 0, q_top)]
    power_lists = [[(x0 + m) ** s for m in range(q_top + 1)] for x0 in x0s for s in (1, 3)]
    power_lists += [[exact._Weight(m**k) for m in range(q_top + 1)] for k in (0, 5)]  # _bernoulli's
    for powers in power_lists:
        for q in range(q_top + 1):
            value, expected = exact._alternating_sum(powers, q), _alternating_loop(powers, q)
            assert (type(value), repr(value)) == (type(expected), repr(expected)), (q, powers[1])
    assert exact._kept_row.cache_info().currsize == exact._KEPT_ROWS
    powers = [(1 + 0j + m) ** 2 for m in range(201)]
    assert repr(exact._alternating_sum(powers, 200)) == repr(_alternating_loop(powers, 200))
    assert exact._kept_row.cache_info().currsize == exact._KEPT_ROWS


def test_coefficient_exact_at_p_130():
    # One pass over a G of 130 factors, past the grids of the checks above.
    for alpha in (F(0), F(-1, 2), F(4, 3)):
        for s in (1, 3):
            expected = kernel_coefficients(alpha, s, 130)
            assert exact.coefficient_exact(130, alpha, s) == expected[129], (alpha, s)


def test_paper_point_sum_is_the_partial_sum_of_the_exact_coefficients():
    # sum_{p<=P} c_p 2^{-p} at alpha = 0, term by term from coefficient_exact
    for s in (1, 2, 5):
        for p_max in (1, 2, 9):
            expected = sum(exact.coefficient_exact(p, 0, s) / 2**p for p in range(1, p_max + 1))
            assert exact._paper_point_sum(s, p_max) == expected


def test_paper_point_sum_tail_is_at_most_two_to_the_minus_p():
    # s = 1: c_p = -1/p, and the series sums to -ln 2; 2^-p_max bounds the tail
    for p_max in (1, 5, 20, 40):
        tail = abs(exact._paper_point_sum(1, p_max) + F(math.log(2)))
        assert tail <= F(1, 2**p_max) + F(2**-53)  # log(2) rounded once
    for s in (2, 8):  # the tails past 20 and 40 terms nest
        assert abs(exact._paper_point_sum(s, 40) - exact._paper_point_sum(s, 20)) <= F(1, 2**20)


#: B_0 .. B_30 at even n (with B_1 = -1/2), from the standard tables.
KNOWN_BERNOULLI = {
    0: F(1), 1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30), 10: F(5, 66),
    12: F(-691, 2730), 14: F(7, 6), 16: F(-3617, 510), 18: F(43867, 798), 20: F(-174611, 330),
    22: F(854513, 138), 24: F(-236364091, 2730), 26: F(8553103, 6), 28: F(-23749461029, 870),
    30: F(8615841276005, 14322),
}


def test_bernoulli_numbers_match_the_tables():
    for n in range(31):
        assert exact._bernoulli(n) == KNOWN_BERNOULLI.get(n, 0), n


@pytest.mark.parametrize("a", [F(0), F(1, 3), F(-7, 4), F(5, 2), F(10**6 + 1, 10**6)])
def test_bernoulli_polynomial_step(a):
    # B_n(a) = sum_k C(n, k) B_k a^{n-k} satisfies B_n(a + 1) - B_n(a) = n a^{n-1}
    def polynomial(n, y):
        return sum(math.comb(n, k) * exact._bernoulli(k) * y ** (n - k) for k in range(n + 1))

    for n in range(1, 25):
        assert polynomial(n, a + 1) - polynomial(n, a) == n * a ** (n - 1)
