"""The inversion formula in binary64, for `series.lerch_accelerated` at |w| >=
3/2: there the series in z = w/(w-1) converges like |z|^p with |z| -> 1 as
|w| -> infinity on Re w < 1/2, while with L = Log(-w) (Apostol, Pacific J.
Math. 1, 1951; Erdelyi, HTF I, 1.11)

    Li(w; alpha, s) = T_s(w, alpha) - alpha^-s - (-1)^s Li(1/w; -alpha, s),
    T_s(w, alpha) = (-1)^{s-1}/(s-1)! d^{s-1}/dalpha^{s-1} [pi e^{-alpha L}/sin(pi alpha)],

and the sum in 1/w converges like |w|^-n.  T_s is the two-sided sum
sum_{n in Z} w^n/(n + alpha)^s continued analytically, alpha^-s its n = 0
term and the sum in 1/w its n <= -1 half.  This is the form w T_s(w, a) -
(-1)^s w Li(1/w; -a, s), a = alpha + 1, with the first term (-alpha)^-s/w of
the sum in 1/w taken out: its shift -alpha, like the argument of e^{-alpha L},
is then exact, and no product by w is formed.  It holds for every alpha off
the integers, Re alpha < 0 included, so nothing is peeled.

`_inversion` gives the value with the certified bound of `series._summed`,
which stops the sum in 1/w as it stops every route, or None where it cannot
(see there) and the caller tries the log-series, then the series in z.
`series.lerch_accelerated`, the one place that orders the routes, imports
this module on the first call at |w| >= 3/2, so `import mhlerch.cli` does
not load it.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import Optional

from .series import _POWI_MAX, _U, SeriesResult, _direct_stream, _summed, _tail_gap

#: A shift closer than this to a non-negative integer is declined: the n = 0
#: term alpha^-s (at alpha = 0 a pole), or the term n = -alpha of the sum in
#: 1/w, cancels against the pole of T_s there.
_NEAR_INTEGER = 1e-2

#: A shift with |Im alpha| above this is declined: pi/sin(pi alpha) and
#: e^{-alpha L} stay finite only to |Im alpha| of a few hundred.
_MAX_IMAG = 50.0


@cache
def _polynomial(j: int) -> tuple:
    """The integer coefficients of p_j, lowest power first, where the j-th
    derivative of pi/sin(pi alpha) is pi/sin(pi alpha) * pi^j p_j(cot(pi alpha)):
    p_0 = 1, p_{j+1} = -c p_j - (1 + c^2) p_j', and every coefficient of p_j
    has the sign (-1)^j."""
    if not j:
        return (1,)
    p = (0, *_polynomial(j - 1), 0, 0)  # the coefficient of c^k at p[k + 1]
    # c^k of p_j: -k times c^{k-1} of p_{j-1} (-c p - c^2 p'), -(k + 1) times c^{k+1} (-p')
    return tuple(-k * p[k] - (k + 1) * p[k + 2] for k in range(len(p) - 2))


@cache
def _row(j: int) -> tuple:
    """The coefficients of pi^j p_j(c)/j!, highest power first: each an exact
    integer times pi^j/j! formed in binary64, within (0.4j + 6) u (see
    `_inversion`)."""
    weight = math.pi**j / math.factorial(j)
    return tuple(weight * coefficient for coefficient in reversed(_polynomial(j)))


def _inversion(w: complex, alpha: complex, s: int, tol: float, max_terms: int) -> Optional[SeriesResult]:
    """Li(w; alpha, s) by the inversion formula, at checked arguments with
    Re w < 1/2 and |w| >= 3/2 (so |L| >= ln 3/2), and `method` "inversion";
    None where alpha is within `_NEAR_INTEGER` of a non-negative integer,
    where |Im alpha| > `_MAX_IMAG`, where s > `series._POWI_MAX` (the
    complex power alpha ** -s then leaves binary powering, and the
    coefficients of the polynomials below grow past what is tabulated),
    where any part is not finite or overflows, where the sum in 1/w reaches
    `max_terms` (alpha^-s counts as its first term), or where the bound
    cannot meet tol.

    T_s is formed exactly at f = alpha - n0, n0 = round(Re alpha) (exact by
    Sterbenz), theta = pi f: sin(pi alpha) = (-1)^{n0} sin(theta) and
    cot(pi alpha) = cot(theta) = c.  With S = (-1)^{n0} pi/sin(theta) and C =
    pi c, the j-th derivative of pi/sin(pi alpha) is S P_j(C), P_0 = 1,
    P_{j+1} = -C P_j - (pi^2 + C^2) P_j' (as S' = -S C and C' = -(pi^2 +
    C^2)), and P_j(C) = pi^j p_j(c) with p_j from `_row`.  By Leibniz,

        T_s = (-1)^{s-1} E S D,  E = e^{-alpha L},
        D = sum_{j<s} [pi^j p_j(c)/j!] (-L)^{s-1-j}/(s-1-j)!,

    each bracket by Horner's rule from `_row`.  The value is V = H + (-1)^{s-1}
    sum, H = T_s - alpha^-s, and the sum in 1/w is `series._summed` over
    `series._direct_stream` at x = 1/w and the shift -alpha, with head H and
    multiplier (-1)^{s-1}, exact: its result, V with its terms, bound and
    `converged`, is the route's, its method renamed.

    error_bound is `_summed`'s truncation bound plus the rounding, to first order in
    u = 2^-53 (each constant is rounded up, which covers the second order and
    the rounding of the bound itself).  A sum rounds by u, a product of
    complex numbers by sqrt(5) u, a complex reciprocal or quotient by 5u,
    cmath.sin, cmath.cos and cmath.exp by 5u relative (componentwise, and
    |sin x cosh y|^2 + |cos x sinh y|^2 = |sin(x + iy)|^2, as for cos), and
    the real functions by 2u.  L is within 7u |L|: ln |w| is within 2.01u +
    2u ln |w| and ln |w| >= 0.405, arg(-w) within 2u.  pi in binary64 is
    within 0.36u of pi, so theta is within 1.36u |theta|.  With A the sum
    D formed at t = |c| + 2 dc (dc below) and |L|, with the moduli of the
    coefficients, and A' the same with the derivative of each polynomial:

    (i) 1/w, and the sum in 1/w: x within 5u (`_summed`'s `x_error`), so
        x^n within 5n u; `_summed` counts the rest as on every
        `_direct_stream`: x^n, a term (1/(n - alpha))^s within
        `series._power_error(s)` u (8.25s at s <= `_POWI_MAX`, which also
        covers the (2s + 1) u of a real alpha), its product, the running sum
        and the final sum with H, u |V|.
    (ii) alpha^-s: 1/alpha^s with alpha^s by binary powering, (2.25s + 3) u
        (a real power 2u), and 4u |alpha^-s| more for the final sums.
    (iii) E: the argument -alpha L is within 7u |alpha L| from L and 2.25u
        from its product, and exp adds 5u: relative (9.25 |alpha L| + 5) u.
    (iv) S: relative 1.36u |theta| |c| from theta (d sin = cos d theta),
        5u from sin, 5u from the quotient and 0.36u from pi, 10.5 in all.
        c: dc = (1.36 |theta| (1 + |c|^2) + 15 |c|) u absolute, from
        d cot = -(1 + cot^2) d theta, and cos, sin and their quotient.
    (v) D: each coefficient within (0.4j + 6) u of pi^j p_j(c)/j! (pi^j
        0.36j + 2, j!, the quotient, the integer and the product one each),
        Horner's rule at c within 3.25j u of the sum of the moduli (a product
        and a sum a step), and (-L)^k/k! within 10.25k u (7k from L, 3.25k
        from the k products and divisions); the product of the two adds
        2.25u and the sum over j (s - 1) u.  With k = s - 1 - j that is at
        most (11.25(s - 1) + 8.25) u <= (15(s - 1) + 9) u of A.  The error dc of
        c moves each p_j by at most sum_k |p_jk| ((|c| + dc)^k - |c|^k) <=
        dc p~_j'(t), t = |c| + 2 dc >= |c| + dc, p~_j the polynomial of the
        |p_jk|, whose derivative does not decrease on t >= 0: dc A'.
    (vi) T = (-1)^{s-1} E S D: two products, 4.5u, and |D| <= A; H = T -
        alpha^-s one sum, within the 2u |T| <= 2u |E S| A and 4u
        |alpha^-s| counted.  An E that underflows moves T by at most
        2^-1074 |S| A more, far below any tol accepted.

    So H is within `fixed` = u ((2.25s + 7) |alpha^-s| + (15s + 16 + 9.25
    |alpha L| + 1.36 |theta| |c|) |E S| A) + dc |E S| A', which `_summed`
    adds to its bound.  The sum is tried only where `fixed` is below tol
    max(1, |H| - R), R = (1/g)^s |x|/(1 - |x|) >= the sum's modulus, g =
    min_{n >= 1} |n - alpha|, so that the target is not above the one at V.
    """
    n0 = round(alpha.real)
    f = alpha - n0
    if n0 >= 0 and abs(f) < _NEAR_INTEGER or abs(alpha.imag) > _MAX_IMAG or s > _POWI_MAX or max_terms < 2:
        return None
    real = not alpha.imag
    if real:
        alpha, f = alpha.real, f.real
    theta = math.pi * f
    sin, cos = (math.sin(theta), math.cos(theta)) if real else (cmath.sin(theta), cmath.cos(theta))
    big_s = (-math.pi if n0 % 2 else math.pi) / sin
    c = cos / sin
    log_w = cmath.log(-w)
    try:
        e = cmath.exp(-alpha * log_w)
        pole = alpha**-s
    except (OverflowError, ZeroDivisionError):
        return None
    abs_theta, abs_c, abs_l = abs(theta), abs(c), abs(log_w)
    dc = (1.36 * abs_theta * (1.0 + abs_c * abs_c) + 15.0 * abs_c) * _U
    t = abs_c + 2.0 * dc
    ell, ell_size = [1.0], [1.0]  # (-L)^k/k! and |L|^k/k!
    for k in range(1, s):
        ell.append(ell[-1] * -log_w / k)
        ell_size.append(ell_size[-1] * abs_l / k)
    d = size = slope = 0.0
    for j in range(s):
        value = at_t = slope_t = 0.0
        for coefficient in _row(j):
            value = value * c + coefficient
            slope_t = slope_t * t + at_t
            at_t = at_t * t + coefficient
        d += value * ell[s - 1 - j]
        size += abs(at_t) * ell_size[s - 1 - j]
        slope += abs(slope_t) * ell_size[s - 1 - j]
    multiple = 15 * s + 16 + 9.25 * abs(alpha) * abs_l + 1.36 * abs_theta * abs_c
    fixed = abs(e * big_s) * (multiple * _U * size + dc * slope)
    fixed += (2.25 * s + 7) * _U * abs(pole)
    x = 1 / w
    ax = abs(x)
    sign = 1.0 if s % 2 else -1.0
    head = sign * (e * big_s * d) - pole  # T - alpha^-s
    reach = (1.0 / _tail_gap(-alpha, 1)) ** s * ax / (1.0 - ax)
    if not fixed < tol * max(1.0, abs(head) - reach):  # nan too
        return None
    try:
        result = _summed(x, -alpha, s, tol, max_terms, sign, _direct_stream, head, fixed, 0.0, 5.0, used=1)
    except OverflowError:
        return None
    return result._replace(method="inversion") if result.converged else None
