"""The log-series about w = 1 in binary64, for `series.lerch_accelerated` at
a real shift off the lens where |z| >= 0.8 and |Log w| <= pi: there the
series in z = w/(w-1) converges like |z|^p and needs hundreds of terms or
more, while with x = Log w and a = alpha + 1 (Erdelyi, HTF I, 1.11(8))

    Li(w; alpha, s) = w^{1-a} [sum_{k>=0, k!=s-1} zeta(s-k, a) x^k/k!
                      + (H_{s-1} - gamma - psi(a) - log(-x)) x^{s-1}/(s-1)!],

whose terms shrink like (|x|/(2 pi))^k, zeta(-n, a) = -B_{n+1}(a)/(n+1).
`_log_head` gives the first s coefficients by Euler-Maclaurin, the third
term stream `_log_stream` the rest, summed in x by `series._summed`, and
`_log_series` the value with a certified bound, or None where that bound
cannot meet tol and the series in z is summed instead.  `series._z_series`
imports this module on the first call that tries the log-series, so
`import mhlerch.cli` does not load it.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import count
from typing import Iterator, Optional, Tuple

from . import exact
from .series import _EPS, _U, SeriesResult, _summed

#: |B_m(y)| <= 2 zeta(m) m!/(2 pi)^m <= KAPPA m!/(2 pi)^m on [0, 1] for every
#: m >= 1 (at m = 1, |y - 1/2| <= 1/2 <= KAPPA/(2 pi)); KAPPA > pi^2/3 and
#: TWO_PI_LOW < 2 pi leave room for the rounding of the powers formed from them.
_KAPPA = 3.3
_TWO_PI_LOW = 6.28
#: e^{pi/2} rounded up: the bound on the sum of |terms| of `_log_stream`'s
#: Bernoulli convolution, in units of KAPPA (2 pi)^-m.
_CONVOLUTION_GROWTH = 4.82

#: One tuple of b_{2i} = B_{2i}/(2i)! in binary64, i = 0, 1, ..., which
#: `_even_bernoulli` replaces in place as it grows.
_even_b = [()]


def _even_bernoulli(n: int) -> tuple:
    """At least n + 1 values b_{2i} = B_{2i}/(2i)!, i = 0, 1, ..., each
    `exact._bernoulli` rounded once; the table grows 8 values past n.  Each
    caller reads the tuple it got, so a thread that stores a shorter one
    later costs only a rebuild."""
    table = _even_b[0]
    if len(table) <= n:
        table = _even_b[0] = tuple(float(exact._bernoulli(2 * i) / math.factorial(2 * i)) for i in range(n + 8))
    return table


def _log_stream(alpha: float, s: int) -> Iterator[Tuple[float, float, float]]:
    """Yield (a_m, B(m+1), r_m) for m = 1, 2, ...: the coefficients of x^m in
    (s-1)! times the Bernoulli part of the log-series of `_log_series` at
    a = alpha + 1, alpha >= -1/2 real,

        a_m = zeta(1 - m, a) (m-1)! (s-1)!/(m+s-1)! = -beta_m(a) Beta(m, s),
        beta_m = B_m/m!,  Beta(m, s) = (s-1)!/(m)_s = (m-1)! (s-1)!/(m+s-1)!,

    with B(m+1) >= |a_{m+1}| and r_m >= sup_{j>m} B(j+1)/B(j).  Beta(1, s)
    = 1/s, and Beta(m+1, s) = Beta(m, s) m/(m+s) is carried by product.

    beta_m(a) is taken at exact points only.  From alpha >= 0, a = a0 + J
    with a0 = alpha - floor(alpha) and J = floor(alpha) + 1, and
    B_m(y + 1) = B_m(y) + m y^{m-1} gives beta_m(a) = beta_m(a0) + q_m,
    q_m = sum_{j<J} (a0 + j)^{m-1}/(m-1)!, at the bases a0 + j = alpha - i,
    exact.  At alpha < 0, a = 1 - (-alpha) and J = 0.  B_m(1 - y) =
    (-1)^m B_m(y) brings a0 to y0 = min(a0, 1 - a0) (or -alpha), in [0, 1/2]
    and exact, and beta_m(y0) is the convolution sum_i b_i t_{m-i} about the
    centre 0 (y0 <= 1/4) or 1/2, t_n = y^n/n!, y = y0 - centre, |y| <= 1/4,
    with b_i the Bernoulli numbers B_i(centre)/i!: b_0 = 1, b_1 = -1/2 or 0,
    and at even i, b_i or (2^{1-i} - 1) b_i.  Each |b_i| <= KAPPA (2 pi)^-i,
    so the terms sum in modulus to at most KAPPA (2 pi)^-m e^{2 pi/4}:
    e^{pi/2} times the bound below on the value.

    Majorant: |beta_m(a0)| <= c_m = KAPPA (2 pi)^-m, so |a_m| <= M_m =
    (c_m + q_m) Beta(m, s).  B(m+1) is M_{m+1} computed with KAPPA rounded up
    and 2 pi down (c_m is one product per step), times 1 + 2(4m + J + 2) u,
    exact in binary64: q and Beta carry 2 roundings a step each, so the
    computed M is within gamma_{4m+J+2} of one built from the exact q and
    Beta, and the factor covers that and its own product's rounding.  Ratio:
    c_{j+1}/c_j = 1/(2 pi), q_{j+1}/q_j <= max (a0 + j)/j = alpha/j, and
    Beta(j+1, s)/Beta(j, s) = j/(j+s),
    so M_{j+1}/M_j <= max(1/(2 pi), alpha/(j+s)), which decreases in j:
    r_m = max(1/TWO_PI_LOW, alpha/(m+s)).  The terms are neither one-signed
    nor monotone, so `series._summed` takes no summation-by-parts bound on them.
    """
    if alpha < 0:
        y0, reflect, bases = -alpha, True, []
    else:
        whole = math.floor(alpha)
        a0 = alpha - whole
        bases = [alpha - i for i in range(whole, -1, -1)]
        reflect = a0 > 0.5
        y0 = 1.0 - a0 if reflect else a0
    centred = y0 > 0.25
    y, b_odd = (y0 - 0.5, 0.0) if centred else (y0, -0.5)
    evens = ()
    powers = [1.0]  # t_n = y^n/n!
    ratio_c = 1.0 / _TWO_PI_LOW
    c = _KAPPA * ratio_c
    q = float(len(bases))
    ratios = [1.0] * len(bases)  # (a0 + j)^{m-1}/(m-1)!
    beta_ms = 1.0 / s  # Beta(m, s)
    slack = 1.0 + (len(bases) + 2) * _EPS
    for m in count(1):
        if len(evens) <= m // 2:
            evens = _even_bernoulli(m // 2)
            if centred:
                evens = [(2.0 ** (1 - 2 * i) - 1.0) * b for i, b in enumerate(evens)]
        powers.append(powers[-1] * y / m)
        beta_m = sum(map(operator.mul, evens, powers[m::-2])) + b_odd * powers[m - 1]  # beta_m(y0)
        if reflect and m % 2:
            beta_m = -beta_m
        a_m = -(beta_m + q) * beta_ms
        ratios = [r * base / m for r, base in zip(ratios, bases)]
        q = sum(ratios)
        beta_ms = beta_ms * m / (m + s)
        c *= ratio_c
        slack += 4 * _EPS
        yield a_m, (c + q) * beta_ms * slack, max(ratio_c, alpha / (m + s))


#: Euler-Maclaurin in `_log_head`: N terms summed directly, N the least with
#: a + N >= _EM_START, then the corrections B_2 .. B_{2J}, J = _EM_TERMS.
_EM_START = 10.0
_EM_TERMS = 6

_EULER_GAMMA = 0.5772156649015329


def _log_head(alpha: float, s: int):
    """The x-free part of the log-series at a = alpha + 1, alpha >= -1/2 real:
    (h, errors, remainders, d, d_error, d_remainder), with h[k] = zeta(s-k, a)/k!
    for k = 0 .. s-2 and d = psi(s) - psi(a) = H_{s-1} - gamma - psi(a).

    By Euler-Maclaurin at X = a + N >= 10, J = 6:

        zeta(m, a) = sum_{n<N} (a+n)^-m + X^{1-m}/(m-1) + X^-m/2
                     + sum_{j<=J} b_{2j} (m)_{2j-1} X^{1-m-2j} + R,
        psi(a) = log X - 1/(2X) - sum_{j<=J} B_{2j}/(2j X^{2j}) - sum_{n<N} 1/(a+n) + R',

    b_i = B_i/i!.  At a real X > 0 every derivative of (X + t)^-m and of
    log(X + t) keeps one sign, so each remainder has the sign of the first
    omitted term and is at most its modulus: |R| <= |b_14| (m)_13 X^{-m-13},
    |R'| <= |B_14|/(14 X^14); `remainders` and `d_remainder` are these over k!.

    `errors` and `d_error` bound the rounding of each value in units of
    u = 2^-53, relative to the sum of the moduli of its parts.  (a + n)^-m
    and X^-m are one power of a rounded base, m + 2 roundings, and
    X^{1-m}/(m-1) 2 more; a correction starts at m + 8 and takes 7 more a
    step (the product by the int and by 1/X^2, itself 5 roundings), so 7J
    more in all; the sum of the N + J + 2 parts adds N + J + 2, and 1/k! k.
    So errors[k] = (m + N + J + 6 + k) (size + corrections) + 7J corrections,
    over k!.  Each part of d (1/(a+n), log X with X's rounding, 1/(2X), a
    correction, H_{s-1} summed from 1/i, gamma) is within 7J + 3 or s + 1
    roundings, and its sums add N + J + 6: d_error = (N + 8J + s + 10)
    times the sum of their moduli, plus 1 for log X's absolute error.
    """
    n = max(0, math.ceil(_EM_START - 1.0 - alpha))
    big = alpha + (n + 1)
    inv = 1.0 / big
    inv2 = inv * inv
    b = _even_bernoulli(_EM_TERMS + 1)
    bases = [alpha + i for i in range(1, n + 1)]  # a + j, j < N
    direct = sum(1.0 / base for base in bases)
    correction = correction_size = 0.0
    power = 1.0
    for j in range(1, _EM_TERMS + 1):
        power *= inv2
        term = b[j] * math.factorial(2 * j - 1) * power
        correction += term
        correction_size += abs(term)
    harmonic = sum(1.0 / i for i in range(1, s))
    log_big = math.log(big)
    d = harmonic - _EULER_GAMMA - (log_big - 0.5 * inv - correction - direct)
    d_size = harmonic + _EULER_GAMMA + log_big + 0.5 * inv + correction_size + direct + 1.0
    d_error = (n + 8 * _EM_TERMS + s + 10) * d_size
    d_remainder = abs(b[_EM_TERMS + 1]) * math.factorial(2 * _EM_TERMS + 1) * power * inv2
    h, errors, remainders = [0.0] * (s - 1), [0.0] * (s - 1), [0.0] * (s - 1)
    factorial = 1.0  # 1/k!
    for k in range(s - 1):
        m = s - k
        x_power = big**-m
        value = sum(base**-m for base in bases) + big * x_power / (m - 1) + 0.5 * x_power
        size = value
        corrections = 0.0
        step = m * x_power * inv  # (m)_{2j-1} X^{1-m-2j}
        for j in range(1, _EM_TERMS + 1):
            term = b[j] * step
            value += term
            corrections += abs(term)
            step *= (m + 2 * j - 1) * (m + 2 * j) * inv2
        h[k] = value * factorial
        errors[k] = ((m + n + _EM_TERMS + 6 + k) * (size + corrections) + 7 * _EM_TERMS * corrections) * factorial
        remainders[k] = abs(b[_EM_TERMS + 1]) * step * factorial
        factorial /= k + 1
    return h, errors, remainders, d, d_error, d_remainder


def _log_series(
    w: complex, z: complex, alpha: complex, s: int, tol: float, max_terms: int, k: int, scale: float
) -> Optional[SeriesResult]:
    """Li(w; alpha + K, s), K = k the head terms `series._z_series` peeled, by the
    log-series in x = Log w (Erdelyi, HTF I, 1.11(8)) where |x| <= pi < 2 pi,
    at a real alpha and a = alpha + K + 1:

        Li = w^{1-a} [sum_{j<=s-2} zeta(s-j, a) x^j/j!
                      + x^{s-1} (H_{s-1} - gamma - psi(a) - log(-x) + T)/(s-1)!],
        T = sum_{m>=1} a_m x^m,

    a_m from `_log_stream` (zeta(1-m, a) = -B_m(a)/m), summed by
    `series._summed`, the rest from `_log_head`, and w^{1-a} =
    e^{-(alpha+K) x}.  Returns None where |x| > pi, where the bound cannot
    meet tol or `max_terms` is reached (the s head coefficients count as
    terms, after the K of the head), and where the series in z (at z) needs
    at most s terms: at the real alpha + K > -1 its coefficients do not
    increase from |c_1| = (alpha+K+1)^-s, and summation by parts bounds its
    tail after s terms by |c_1| |z|^{s+1} (1 + |z|)/|1 - z|.  The caller
    then sums the series in z.  `scale` = |w^K| multiplies the bound, as in
    `series._summed`; the rounding of the peeled head is not counted, as on
    the series in z (ROADMAP item 1b).

    error_bound, in units of |w^K e^{-(alpha+K) x}| times the bracket, is the
    sum of the truncation bound of `_summed` (at scale |x|^{s-1}/(s-1)!), the
    Euler-Maclaurin remainders of `_log_head` times |x|^j, and u = 2^-53 times

        sum_j e_j |x|^j + |x|^{s-1}/(s-1)! ((J + 19) Q/s + (P + 7s) |T|)
        + (4 |(alpha+K) x| + 3K + 10) |value| / |w^K e^{-(alpha+K) x}|,

    with P the stream's terms, J and c_m, q_m, M_m as in `_log_stream`, and
    Q = e^{pi/2} KAPPA rho/(1 - rho) + |x| sum_{j<J} e^{(a0+j)|x|},
    rho = |x|/(2 pi), which bounds sum_m (e^{pi/2} c_m + q_m) |x|^m.  The
    multiples, to first order in u (each constant is rounded up, which
    covers the second order): a complex product rounds by at most sqrt(5) u,
    a sum by u, cmath.log and cmath.exp by 3u, so x = Log w is within 3u |x|
    and moves the j-th term by 3j u.
    (i) e_j = `_log_head`'s error of the coefficient of x^j plus 6.25j + 3.25
        times its modulus: Horner's rule carries it through j products and
        sums, 3.25(j+1), and x's rounding adds 3j.  At j = s-1 the
        coefficient is (d - log(-x) + T)/(s-1)!, whose log, sums and
        division, Horner's rule and the derivative of x^{s-1} log(-x) give
        (7s + 6)(|d| + |log(-x)| + 1) more.
    (ii) a_m is within (5m + J + 6) u (e^{pi/2} c_m + q_m) Beta(m, s) (the
        convolution 3m + 4 roundings, q 2m + J, Beta 2m - 1); x^m adds
        sqrt(5) m u |a_m x^m|, the product u, x's rounding 3m u; the partial
        sums T_1 .. T_P add u sum_i |T_i| <= u (P |T| + sum_m (m-1) |a_m x^m|).
        As Beta(m, s) <= 1/(m s), these add to at most (J + 19) Q/s and
        P |T|.  Horner's rule carries T through s - 1 products: 7s |T|.
    (iii) e^{-(alpha+K) x}: the rounding of its argument and of x give
        4 |(alpha+K) x| u, exp 3u, the products by it and by w^K (with the
        sqrt(5)(K - 1) u of w^K) and the sum with the head the rest.
    """
    x = cmath.log(w)
    shift = (alpha + k).real
    ax, az = abs(x), abs(z)
    lift = -s * math.log1p(shift)  # log |c_1| = log a^-s; below 700, no a^-m in `_log_head` overflows
    if ax > math.pi or max_terms <= k + s or shift * ax > 700.0 or lift > 700.0:
        return None
    if lift + (s + 1) * math.log(az) + math.log(scale * (1.0 + az) / abs(1.0 - z)) <= math.log(tol):
        return None
    factor = cmath.exp(-shift * x)
    unit = scale * abs(factor)
    x_top = 1.0  # |x|^{s-1}/(s-1)!
    for i in range(1, s):
        x_top *= ax / i
    whole = math.floor(shift) + 1 if shift >= 0 else 0
    rho = ax / _TWO_PI_LOW
    bases = math.exp(shift * ax) * (1.0 - math.exp(-whole * ax)) / (1.0 - math.exp(-ax))
    q_size = _CONVOLUTION_GROWTH * _KAPPA * rho / (1.0 - rho) + ax * bases
    fixed = _U * unit * x_top * (whole + 19) * q_size / s
    if not fixed < tol:
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
    fixed += unit * (remainder + _U * error)
    if not fixed < tol:
        return None
    # half the rest for the truncation, half for the rounding that grows with the terms
    inner = _summed(x, shift, s, (tol - fixed) / 2, max_terms - k - s, unit * x_top, _log_stream)
    if not inner.converged:
        return None
    top = (d - log_x + inner.value) * (1 / math.factorial(s - 1))
    for coefficient in reversed(h):
        top = top * x + coefficient
    value = factor * top
    terms = inner.terms_used
    rounding = unit * x_top * (terms + 7 * s) * abs(inner.value)
    rounding += (4 * abs(shift * x) + 3 * k + 10) * scale * abs(value)
    bound = inner.error_bound + fixed + _U * rounding
    if not bound <= tol:
        return None
    return SeriesResult(value, s + terms, bound, True, "log")
