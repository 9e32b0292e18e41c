"""The log-series about w = 1 in binary64, for `series.lerch_accelerated` off
the lens where |z| >= 0.8 and |Log w| <= pi: there the series in z =
w/(w-1) converges like |z|^p and needs hundreds of terms or more, while
with x = Log w and a = alpha + 1 (Erdelyi, HTF I, 1.11(8))

    Li(w; alpha, s) = w^{1-a} [sum_{k>=0, k!=s-1} zeta(s-k, a) x^k/k!
                      + (H_{s-1} - gamma - psi(a) - log(-x)) x^{s-1}/(s-1)!],

whose terms shrink like (|x|/(2 pi))^k, zeta(-n, a) = -B_{n+1}(a)/(n+1).
`_log_head` gives the first s coefficients by Euler-Maclaurin, the third
term stream `_log_stream` the rest, summed in x by `series._summed`, whose
counted loop stops it as it stops every route, and `_log_series` the value
with that loop's certified bound, or None where the bound cannot meet tol and
the series in z is summed instead.  a may be complex,
of imaginary part b: the bound on B_m(a)/m! then carries the partial
exponential sum_{j<=m} (2 pi |b|)^j/j!, and the route's rounding bound
grows like e^{|b| |x|}, so it meets tol only at moderate |b|.  Where a
real and a complex a need different rounding multiples, each docstring
states both; a real a is summed in real arithmetic.
`series.lerch_accelerated`, the one place that orders the routes, imports
this module on the first call that tries the log-series, so `import
mhlerch.cli` does not load it.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import cache
from itertools import count, islice
from typing import Iterator, Optional, Tuple

from . import exact
from .series import _EPS, _POWI_MAX, _U, SeriesResult, _peeled, _pole_terms, _summed, _term_stream

#: |B_m(y)| <= 2 zeta(m) m!/(2 pi)^m <= KAPPA m!/(2 pi)^m on [0, 1] for every
#: m >= 1 (at m = 1, |y - 1/2| <= 1/2 <= KAPPA/(2 pi)); KAPPA > pi^2/3 and
#: TWO_PI_LOW < 2 pi leave room for the rounding of the powers formed from them.
_KAPPA = 3.3
_TWO_PI_LOW = 6.28
_TWO_PI_HIGH = 6.2832
#: e^{pi/2} rounded up: the bound on the sum of |terms| of `_log_stream`'s
#: Bernoulli convolution at a real a, in units of KAPPA (2 pi)^-m.
_CONVOLUTION_GROWTH = 4.82

@cache
def _even_b(i: int) -> float:
    """b_{2i} = B_{2i}/(2i)!, `exact._bernoulli` rounded once to binary64."""
    return float(exact._bernoulli(2 * i) / math.factorial(2 * i))


def _log_stream(alpha, s: int) -> Iterator[Tuple[complex, float, float]]:
    """Yield (a_m, B(m+1), r_m) for m = 1, 2, ...: the coefficients of x^m in
    (s-1)! times the Bernoulli part of the log-series of `_log_series` at
    a = alpha + 1, Re alpha >= -1/2, alpha a float or a complex of nonzero
    imaginary part b,

        a_m = zeta(1 - m, a) (m-1)! (s-1)!/(m+s-1)! = -beta_m(a) Beta(m, s),
        beta_m = B_m/m!,  Beta(m, s) = (s-1)!/(m)_s = (m-1)! (s-1)!/(m+s-1)!,

    with B(m+1) >= |a_{m+1}| and r_m >= sup_{j>m} B(j+1)/B(j).  Beta(1, s)
    = 1/s, and Beta(m+1, s) = Beta(m, s) m/(m+s) is carried by product.

    beta_m(a) is taken at exact points only.  From Re alpha >= 0, a = a0 + J
    with a0 = alpha - floor(Re alpha) and J = floor(Re alpha) + 1, and
    B_m(y + 1) = B_m(y) + m y^{m-1} gives beta_m(a) = beta_m(a0) + q_m,
    q_m = sum_{j<J} (a0 + j)^{m-1}/(m-1)!, at the bases a0 + j = alpha - i,
    exact.  At Re alpha < 0, a = 1 - (-alpha) and J = 0.  B_m(1 - y) =
    (-1)^m B_m(y) brings Re a0 to Re y0 = min(Re a0, 1 - Re a0) (or
    -Re alpha), in [0, 1/2] and exact, and beta_m(y0) is the convolution
    sum_i b_i t_{m-i} about the centre 0 (Re y0 <= 1/4) or 1/2, t_n = y^n/n!,
    y = y0 - centre, |Re y| <= 1/4, |Im y| = |b|, with b_i the Bernoulli
    numbers B_i(centre)/i!: b_0 = 1, b_1 = -1/2 or 0, and at even i, b_i or
    (2^{1-i} - 1) b_i.  Each |b_i| <= KAPPA (2 pi)^-i and b_0 = 1 <= KAPPA,
    so the terms sum in modulus to at most G_m = KAPPA (2 pi)^-m
    E_m(2 pi |y|), E_m(t) = sum_{n<=m} t^n/n!: at most e^{pi/2} KAPPA
    (2 pi)^-m at b = 0.

    Majorant: |beta_m(a0)| <= c_m = KAPPA (2 pi)^-m E_m(2 pi |b|).  At b = 0
    that is the bound on [0, 1]; else beta_m(y0 + ib) = sum_j beta_{m-j}(y0)
    (ib)^j/j! at y0 = Re a0 in [0, 1], each |beta_{m-j}(y0)| <= KAPPA
    (2 pi)^{j-m}.  So |a_m| <= M_m = (c_m + Q_m) Beta(m, s), Q_m = sum_{j<J}
    |a0 + j|^{m-1}/(m-1)! (= q_m at b = 0).  B(m+1) is M_{m+1} computed
    with KAPPA and 2 pi |b| (as TWO_PI_HIGH |b|) rounded up and 2 pi down
    (c_m is one product per step, E_m 3 roundings a step), times 1 + 2(4m +
    J + 2) u at b = 0 and 1 + 2(9m + J + 2) u else, exact in binary64: Q and
    Beta carry 2 roundings a step each (Q 4 at b != 0: its product and
    division and the 2u of the hypot |a0 + j| in each power), so the
    computed M is within gamma_{4m+J+2} (gamma_{9m+J+2}) of one built from
    the exact E, Q and Beta, and the factor covers that and its own
    product's rounding.  Ratio: c_{j+1}/c_j = E_{j+1}/(2 pi E_j) <= (1 +
    2 pi |b|/(j+1))/(2 pi), as t^{j+1}/(j+1)! <= t/(j+1) E_j(t); Q_{j+1}/Q_j
    <= max |a0 + j|/j = |alpha|/j; and Beta(j+1, s)/Beta(j, s) = j/(j+s).
    So M_{j+1}/M_j <= max((1 + 2 pi |b|/(j+1))/(2 pi), |alpha|/(j+s)),
    which decreases in j: r_m = max((1 + TWO_PI_HIGH |b|/(m+2))/TWO_PI_LOW,
    |alpha|/(m+s)) (no second term where J = 0).  The terms are neither
    one-signed nor monotone, so `series._summed` takes no summation-by-parts
    bound on them; it counts no rounding per term either (`_log_series`
    counts it a priori), and its first size |alpha + 1|^-s |x| is here only
    the first target's estimate.
    """
    b = alpha.imag
    if alpha.real < 0:
        y0, reflect, bases = -alpha, True, []
    else:
        whole = math.floor(alpha.real)
        a0 = alpha - whole
        bases = [alpha - i for i in range(whole, -1, -1)]
        reflect = a0.real > 0.5
        y0 = 1.0 - a0 if reflect else a0
    centred = y0.real > 0.25
    y, b_odd = (y0 - 0.5, 0.0) if centred else (y0, -0.5)
    evens = []  # b_{2i} about the centre, i = 0, 1, ...
    powers = [1.0]  # t_n = y^n/n!
    ratio_c = 1.0 / _TWO_PI_LOW
    c = _KAPPA * ratio_c  # KAPPA (2 pi)^-m
    t = _TWO_PI_HIGH * abs(b)
    t_power, e_sum = t, 1.0 + t  # t^m/m! and E_m(t), 0 and 1 at b = 0
    moduli = [abs(base) for base in bases]
    top = moduli[-1] if bases else 0.0  # |alpha|
    q = float(len(bases))
    ratios = sizes = [1.0] * len(bases)  # (a0 + j)^{m-1}/(m-1)! and its modulus
    beta_ms = 1.0 / s  # Beta(m, s)
    slack, step = 1.0 + (len(bases) + 2) * _EPS, (9 if b else 4) * _EPS
    for m in count(1):
        i = m // 2
        if len(evens) == i:
            evens.append((2.0 ** (1 - 2 * i) - 1.0) * _even_b(i) if centred else _even_b(i))
        powers.append(powers[-1] * y / m)
        beta_m = sum(map(operator.mul, evens, powers[m::-2])) + b_odd * powers[m - 1]  # beta_m(y0)
        if reflect and m % 2:
            beta_m = -beta_m
        a_m = -(beta_m + q) * beta_ms
        ratios = [r * base / m for r, base in zip(ratios, bases)]
        q = sum(ratios)
        beta_ms = beta_ms * m / (m + s)
        c *= ratio_c
        slack += step
        if not b:
            yield a_m, (c + q) * beta_ms * slack, max(ratio_c, top / (m + s))
            continue
        sizes = [r * modulus / m for r, modulus in zip(sizes, moduli)]
        t_power *= t / (m + 1)
        e_sum += t_power
        yield a_m, (c * e_sum + sum(sizes)) * beta_ms * slack, max(ratio_c * (1.0 + t / (m + 2)), top / (m + s))


#: Euler-Maclaurin in `_log_head`: N terms summed directly, N the least with
#: a + N >= _EM_START, then the corrections B_2 .. B_{2J}, J = _EM_TERMS.
_EM_START = 10.0
_EM_TERMS = 6

_EULER_GAMMA = 0.5772156649015329


def _log_head(alpha, s: int):
    """The x-free part of the log-series at a = alpha + 1, Re alpha >= -1/2,
    alpha a float or a complex of nonzero imaginary part (then s <=
    `series._POWI_MAX`): (h, errors, remainders, d, d_error, d_remainder),
    with h[k] = zeta(s-k, a)/k! for k = 0 .. s-2 and d = psi(s) - psi(a) =
    H_{s-1} - gamma - psi(a).

    By Euler-Maclaurin at X = a + N, Re X >= 10, J = 6:

        zeta(m, a) = sum_{n<N} (a+n)^-m + X^{1-m}/(m-1) + X^-m/2
                     + sum_{j<=J} b_{2j} (m)_{2j-1} X^{1-m-2j} + R,
        psi(a) = log X - 1/(2X) - sum_{j<=J} B_{2j}/(2j X^{2j}) - sum_{n<N} 1/(a+n) + R',

    b_i = B_i/i!.  At a real X > 0 every derivative of (X + t)^-m and of
    log(X + t) keeps one sign, so each remainder has the sign of the first
    omitted term and is at most its modulus: |R| <= |b_14| (m)_13 X^{-m-13},
    |R'| <= |B_14|/(14 X^14).  At a complex X that argument fails.  There
    R is the first omitted term, b_14 f^(13)(X) for f(t) = (X + t)^-m (and
    1/(X + t) for R'), plus the Euler-Maclaurin remainder of order 14,
    int_0^inf B~_14(t)/14! f^(14)(t) dt with the periodic |B~_14| <= |B_14|.
    As |X + t| >= Re X + t, both are at most the real expressions with Re X
    for X (int_0^inf (Re X + t)^{-m-14} dt = (Re X)^{-m-13}/(m+13)), so |R|
    and |R'| are at most twice them.  `remainders` and `d_remainder` are
    these over k!.

    `errors` and `d_error` bound the rounding of each value in units of
    u = 2^-53, relative to the sum of the moduli of its parts.  At a real
    a: (a + n)^-m and X^-m are one power of a rounded base, m + 2
    roundings, and X^{1-m}/(m-1) 2 more; a correction starts at m + 8 and
    takes 7 more a step (the product by the int and by 1/X^2, itself 5
    roundings), so 7J more in all; the sum of the N + J + 2 parts adds
    N + J + 2, and 1/k! k.  So errors[k] = (m + N + J + 6 + k) (size +
    corrections) + 7J corrections, over k!.  Each part of d (1/(a+n), log X
    with X's rounding, 1/(2X), a correction, H_{s-1} summed from 1/i,
    gamma) is within 7J + 3 or s + 1 roundings, and its sums add N + J + 6:
    d_error = (N + 8J + s + 10) times the sum of their moduli, plus 1 for
    log X's absolute error.  At a complex a, a sum or a product by a real
    rounds by u, a complex product by sqrt(5) u, a reciprocal (CPython
    divides by Smith's method) by 5u, cmath.log by 3u, and c^-m, m <=
    `_POWI_MAX`, is 1/c^m with c^m by binary powering: (m-1) sqrt(5) u, m u
    from the base's rounding and 5u, at most 3.25m + 3.  Then 1/X is within
    6u, 1/X^2 14.25u; X^{1-m}/(m-1) is within 3.25m + 7.25, a correction starts at
    3.25m + 14.25 and takes 17.5 a step: errors[k] = (3.25m + N + J + 10 +
    k) (size + corrections) + 17.5J corrections, over k!.  In d a
    correction is within 16.5J + 1 roundings and every other part within 6
    or s + 1, and the sums add N + J + 6: d_error = (N + J + s + 12) times
    the sum of the moduli, plus 1, plus 17J times the corrections' moduli.
    """
    real = not alpha.imag
    n = max(0, math.ceil(_EM_START - 1.0 - alpha.real))
    big = alpha + (n + 1)
    inv = 1.0 / big
    inv2 = inv * inv
    b = [_even_b(j) for j in range(_EM_TERMS + 2)]
    bases = [alpha + i for i in range(1, n + 1)]  # a + j, j < N
    reciprocals = [1.0 / base for base in bases]
    direct = sum(reciprocals)
    correction = correction_size = 0.0
    power = 1.0
    for j in range(1, _EM_TERMS + 1):
        power *= inv2
        term = b[j] * math.factorial(2 * j - 1) * power
        correction += term
        correction_size += abs(term)
    harmonic = sum(1.0 / i for i in range(1, s))
    log_big = math.log(big) if real else cmath.log(big)
    d = harmonic - _EULER_GAMMA - (log_big - 0.5 * inv - correction - direct)
    direct_size = direct if real else sum(map(abs, reciprocals))
    d_size = harmonic + _EULER_GAMMA + abs(log_big) + 0.5 * abs(inv) + correction_size + direct_size + 1.0
    omitted = abs(b[_EM_TERMS + 1])  # |b_14|, twice it at a complex a
    if real:
        d_error = (n + 8 * _EM_TERMS + s + 10) * d_size
        d_remainder = omitted * math.factorial(2 * _EM_TERMS + 1) * power * inv2
        slope, start, growth = 1, 6, 7
    else:
        omitted *= 2.0
        d_error = (n + _EM_TERMS + s + 12) * d_size + 17 * _EM_TERMS * correction_size
        d_remainder = omitted * math.factorial(2 * _EM_TERMS + 1) * big.real ** (-2 * _EM_TERMS - 2)
        slope, start, growth = 3.25, 10, 17.5
    h, errors, remainders = [0.0] * (s - 1), [0.0] * (s - 1), [0.0] * (s - 1)
    factorial = 1.0  # 1/k!
    for k in range(s - 1):
        m = s - k
        x_power = big**-m
        parts = [base**-m for base in bases]
        lead = big * x_power / (m - 1)
        value = sum(parts) + lead + 0.5 * x_power
        size = value if real else sum(map(abs, parts)) + abs(lead) + 0.5 * abs(x_power)
        corrections = 0.0
        step = m * x_power * inv  # (m)_{2j-1} X^{1-m-2j}
        for j in range(1, _EM_TERMS + 1):
            term = b[j] * step
            value += term
            corrections += abs(term)
            step *= (m + 2 * j - 1) * (m + 2 * j) * inv2
        if not real:  # (m)_13 (Re X)^{-m-13}
            step = math.prod(range(m, m + 2 * _EM_TERMS + 1)) * big.real ** (-m - 2 * _EM_TERMS - 1)
        h[k] = value * factorial
        errors[k] = ((slope * m + n + _EM_TERMS + start + k) * (size + corrections) + growth * _EM_TERMS * corrections) * factorial
        remainders[k] = omitted * step * factorial
        factorial /= k + 1
    return h, errors, remainders, d, d_error, d_remainder


def _z_meets(alpha: complex, s: int, az: float, target: float, n: int) -> bool:
    """Whether the majorant B(p+1) of the series in z at alpha, as
    `series._term_stream` yields it, times |z|^{p+1} falls to `target` for
    some p < n.  An estimate that picks the route at a complex shift, not a
    bound."""
    power = az
    for _, b_next, _ in islice(_term_stream(alpha, s), n - 1):
        power *= az
        if b_next * power <= target:
            return True
    return False


def _log_series(w: complex, alpha: complex, s: int, tol: float, max_terms: int) -> Optional[SeriesResult]:
    """Li(w; alpha, s) = head + w^K Li(w; alpha + K, s), the third route of
    `series.lerch_accelerated`, with the K = `series._pole_terms(alpha)` head
    terms, w^K and their rounding from `series._peeled`, by the log-series
    in x = Log w (Erdelyi, HTF I, 1.11(8)) where |x| <= pi < 2 pi, at a =
    alpha + K + 1 (Re a >= 1/2), real or complex:

        Li = w^{1-a} [sum_{j<=s-2} zeta(s-j, a) x^j/j!
                      + x^{s-1} (H_{s-1} - gamma - psi(a) - log(-x) + T)/(s-1)!],
        T = sum_{m>=1} a_m x^m,

    a_m from `_log_stream` (zeta(1-m, a) = -B_m(a)/m), summed by
    `series._summed`, the rest from `_log_head`, and w^{1-a} =
    e^{-(alpha+K) x}.  Returns None, and the caller sums the series in z,
    where |x| > pi, where `max_terms` is reached (the s head coefficients
    count as terms, after the K of the head), where an exponent passes 700
    (a^-s or the e^{|(alpha+K) x|} of the bound), at a complex a where s >
    `series._POWI_MAX` (see `_log_head`): these tests come before the peel.
    After it, None where the bound cannot meet tol and where the series in z
    (at z = w/(w-1)) likely needs at most s terms.  At a real a its
    coefficients do not increase from |c_1| = a^-s, and summation by parts
    bounds its tail after s terms by |c_1| |z|^{s+1} (1 + |z|)/|1 - z|.  At a
    complex a, where that bound does not hold, `_z_meets` estimates by the
    majorant that `series._term_stream` yields whether the series in z meets
    tol within N = s + 2 ceil(|alpha + K| |x|) terms, a few more than the
    log-series needs before its terms q_m x^m, which peak near m = |alpha +
    K| |x|, fall off; it only picks the route, and the certificate is the
    route's own.  Both estimates read
    the target tol max(1, |head|).

    V = H + M T, with H = head + w^K e^{-(alpha+K) x} times the bracket at T
    = 0 (by Horner's rule) and M = w^K e^{-(alpha+K) x} x^{s-1}/(s-1)!:
    `series._summed` sums T with that head and multiplier, and returns the
    route's result: V, its terms (the K and the s head coefficients first),
    bound and `converged`.  It is handed the rounding of everything
    but T's running sum and M T as `fixed`: `head_error`, the rounding of the
    peeled head (`series._peeled` derives it), the Euler-Maclaurin
    remainders, the rounding of H, and the a-priori count (ii) of the terms
    of T.  The sum is tried only where `fixed` is below tol max(1, |H| -
    R), R = |M| Q/s >= |M T| (Q as below, |a_m| <= (G_m + Q_m)/(m s)),
    so that the target is not above the one at V.

    `fixed`, in units of U = |w^K e^{-(alpha+K) x}| (`unit`), is
    `head_error`/U plus the Euler-Maclaurin remainders of `_log_head` times
    |x|^j, plus u = 2^-53 times

        sum_j e_j |x|^j + |x|^{s-1}/(s-1)! (J + 19) Q/s
        + (4 |(alpha+K) x| + 2.25K + 5.25) |h0| + |H|/U,

    h0 the bracket at T = 0, at a real a, and J + 20 and 5.25 for J + 19 and
    4 at a complex a, with J and G_m, Q_m, M_m as in `_log_stream`, and Q =
    sum_m (G_m + Q_m) |x|^m, rho = |x|/(2 pi): Q = e^{pi/2} KAPPA rho/(1 -
    rho) + |x| sum_{j<J} e^{(a0+j)|x|} at a real a, and at a complex one
    KAPPA (rho + e^{Y|x|} - 1)/(1 - rho) + |x| sum_{j<J} e^{|a0+j| |x|}, Y
    = (1/16 + b^2)^{1/2} >= |y|, b = Im a, as sum_{m>=1} rho^m E_m(2 pi Y)
    = (rho + e^{Y|x|} - 1)/(1 - rho).  `_summed` adds u (P + `carried`) |M
    T| and u |V|, with `carried` = 4 |(alpha+K) x| + 2.25K + 6.25s + 3 (5.25
    for 4 at a complex a).  The multiples, to first order in u (each
    constant is rounded up, which covers the second order): a complex
    product rounds by at most sqrt(5) u, a sum by u, cmath.log and cmath.exp
    by 3u, so x = Log w is within 3u |x| and moves the j-th term by 3j u.
    (i) e_j = `_log_head`'s error of the coefficient of x^j plus 6.25j + 3.25
        times its modulus: Horner's rule carries it through j products and
        sums, 3.25(j+1), and x's rounding adds 3j.  At j = s-1 the
        coefficient is (d - log(-x))/(s-1)!, whose log, sums and division,
        Horner's rule and the derivative of x^{s-1} log(-x) give (7s +
        6)(|d| + |log(-x)| + 1) more.
    (ii) a_m is within (5m + J + 6) u (G_m + Q_m) Beta(m, s) (the
        convolution 3m + 4 roundings, q 2m + J, Beta 2m - 1); at a complex a
        within (6m + J + 7) u: t_n takes a complex product and a division a
        step, so the convolution is within 3.75m + 6, q 3.25m + J.  x^m adds
        sqrt(5) m u |a_m x^m|, the product u, x's rounding 3m u; the partial
        sums T_1 .. T_P add u sum_i |T_i| <= u (P |T| + sum_m (m-1) |a_m x^m|).
        As Beta(m, s) <= 1/(m s), all but P |T| add to at most (J + 19) Q/s
        (J + 20 at a complex a); `_summed` counts P |M T|.
    (iii) e^{-(alpha+K) x}: the rounding of its argument and of x give 4
        |(alpha+K) x| u (5.25, with the complex product, at a complex a),
        exp 3u; w^K (K - 1) sqrt(5) u and its product with e^{-(alpha+K) x}
        one more: 4 |(alpha+K) x| + 2.25K + 3 in all.  H adds the product by
        h0, 2.25, and the sum with the head, u |H|.  x^{s-1}/(s-1)! takes a
        product, a division and x's 3u a step, 6.25(s - 1), and M and M T one
        product each: `carried`.
    """
    x = cmath.log(w)
    k = _pole_terms(alpha)
    shift = alpha + k
    real = not shift.imag
    if real:
        shift = shift.real
    ax = abs(x)
    # log |c_1| = log |a|^-s; below 700, no a^-m in `_log_head` overflows
    lift = -s * (math.log1p(shift) if real else math.log(abs(shift + 1)))
    reach = (abs(shift.real) + abs(shift.imag)) * ax  # >= |(alpha+K) x|, and the exponent of `bases`
    if ax > math.pi or max_terms <= k + s or reach > 700.0 or lift > 700.0 or s > _POWI_MAX and not real:
        return None
    head, w_pow, head_error = _peeled(w, alpha, s, k, max_terms) if k else (0.0, 1.0, 0.0)
    z = w / (w - 1)
    az = abs(z)
    scale = abs(w_pow)
    target = tol * max(1.0, abs(head))
    if real:
        if lift + (s + 1) * math.log(az) + math.log(scale * (1.0 + az) / abs(1.0 - z)) <= math.log(target):
            return None
    elif _z_meets(shift, s, az, target * (1.0 - az) / scale, s + 2 * math.ceil(abs(shift) * ax)):
        return None
    factor = cmath.exp(-shift * x)
    unit = scale * abs(factor)
    x_top, x_power = 1.0, 1.0  # |x|^{s-1}/(s-1)! and x^{s-1}/(s-1)!
    for i in range(1, s):
        x_top *= ax / i
        x_power *= x / i
    whole = math.floor(shift.real) + 1 if shift.real >= 0 else 0
    rho = ax / _TWO_PI_LOW
    if real:  # sum_{j<J} e^{(a0+j)|x|}
        bases = math.exp(shift * ax) * (1.0 - math.exp(-whole * ax)) / (1.0 - math.exp(-ax))
        q_size = _CONVOLUTION_GROWTH * _KAPPA * rho / (1.0 - rho)
    else:  # sum_{j<J} e^{|a0+j||x|}, and |y| <= (1/16 + b^2)^{1/2}
        bases = sum(math.exp(abs(shift - i) * ax) for i in range(whole))
        q_size = _KAPPA * (rho + math.expm1(math.sqrt(0.0625 + shift.imag**2) * ax)) / (1.0 - rho)
    q_size += ax * bases
    fixed = head_error + _U * unit * x_top * (whole + (19 if real else 20)) * q_size / s
    if not fixed < target:
        return None
    h, errors, remainders, d, d_error, d_remainder = _log_head(shift, s)
    log_x = cmath.log(-x)
    error = (d_error + (7 * s + 6) * (abs(d) + abs(log_x) + 1.0)) * x_top
    remainder = d_remainder * x_top
    ax_j = 1.0
    for j, (h_j, error_j, remainder_j) in enumerate(zip(h, errors, remainders)):
        error += (error_j + (6.25 * j + 3.25) * abs(h_j)) * ax_j
        remainder += remainder_j * ax_j
        ax_j *= ax
    top = (d - log_x) * (1 / math.factorial(s - 1))
    for coefficient in reversed(h):
        top = top * x + coefficient
    outer = w_pow * factor
    outer_error = (4 if real else 5.25) * abs(shift * x) + 2.25 * k + 3  # in u, relative
    head += outer * top
    fixed += unit * (remainder + _U * (error + (outer_error + 2.25) * abs(top))) + _U * abs(head)
    if not fixed < tol * max(1.0, abs(head) - unit * x_top * q_size / s):
        return None
    mult = outer * x_power
    result = _summed(x, shift, s, tol, max_terms, mult, _log_stream, head, fixed, outer_error + 6.25 * s, used=k + s)
    return result if result.converged else None
