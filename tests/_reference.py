"""High-precision reference values of Li(w; alpha, s) = sum_{n>=1} w^n/(alpha+n)^s
for the tests, from mpmath alone.

Each value is computed by two independent methods, at DPS digits, and the two
must agree to AGREE relative; where they do not, `lerch` raises
AssertionError, so the test that asked fails rather than skips the point.
Every method first brings the shift to Re(alpha + K) > 0 by the shift relation
Li(w; alpha, s) = sum_{n<=K} w^n/(alpha+n)^s + w^K Li(w; alpha+K, s), K =
floor(-Re alpha) + 1 at Re alpha < 0, so that a = alpha + K + 1 has Re a > 1:

- `quadrature`: w/Gamma(s) int_0^inf t^{s-1} e^{-a t}/(1 - w e^{-t}) dt
  (Erdelyi, HTF I, 1.11(3)), valid for Re a > 0 and w off [1, inf); at Re a
  > 1 it decays at least like e^{-t}.
- `log_series`: w^{1-a} [sum_{k>=0, k!=s-1} zeta(s-k, a) x^k/k! + (H_{s-1} -
  gamma - psi(a) - log(-x)) x^{s-1}/(s-1)!], x = Log w (Erdelyi, HTF I,
  1.11(8)), for |x| < 2 pi, with zeta(-n, a) = -B_{n+1}(a)/(n+1).
- `inversion`: Li(w; alpha, s) = w T_s(w, a) - (-1)^s w Li(1/w; -a, s),
  T_s(w, a) = (-1)^{s-1}/(s-1)! d^{s-1}/da^{s-1} [pi e^{-a L}/sin(pi a)],
  L = Log(-w) (Apostol, Pacific J. Math. 1, 1951), the derivative by mpmath
  `diff` and the sum in 1/w term by term, for |w| > 1; a must not be an
  integer.

`lerch` pairs the quadrature with the log-series where |Log w| <= pi (at |w| >
1 only at moderate shifts, see there) and with the inversion formula
elsewhere.  `mpmath.lerchphi` is not used: at w = 0.3 -
40i, alpha = 0.2 + 0.7i it is off by 0.44-1.17 relative at s = 1-3, and at w =
-4.2277-7.2517i, alpha = 0.0496+2i, s = 2 by about 0.5.
"""

from __future__ import annotations

import mpmath as mp

#: Working digits of both methods.
DPS = 40
#: The relative agreement the two methods must reach.
AGREE = mp.mpf("1e-25")
#: Above this (|alpha| + 1) |Log w|, `lerch` takes the inversion formula at |w| > 1.
LOG_REACH = 40


def _peeled(w, alpha, s: int):
    """(K, sum_{n<=K} w^n/(alpha+n)^s) of the shift relation, K the least that
    brings Re(alpha + K) above 0."""
    k = int(mp.floor(-mp.re(alpha))) + 1 if mp.re(alpha) < 0 else 0
    return k, mp.fsum(w**n / (alpha + n) ** s for n in range(1, k + 1))


def quadrature(w, alpha, s: int):
    """Li(w; alpha, s) by the integral, at the current mpmath precision."""
    w, alpha = mp.mpmathify(w), mp.mpmathify(alpha)
    k, head = _peeled(w, alpha, s)
    a = alpha + k + 1
    # break the path where the factors change scale: the decay e^{-Re a t},
    # the turn of 1/(1 - w e^{-t}) at t = ln |w| where |w| > 1, and each
    # period of e^{-i Im(a) t}; only the points of [0, end] are kept
    end = (mp.mpf(DPS + 10) * mp.log(10) + (s - 1) * mp.log(DPS + s)) / mp.re(a) + max(0, mp.log(abs(w)))
    points = {mp.mpf(0), mp.log(abs(w)), end}
    points.update(mp.mpf(c) / mp.re(a) for c in (0.5, 2, 8, 32))
    period = 2 * mp.pi / abs(mp.im(a)) if mp.im(a) else end
    points.update(period * i for i in range(1, int(end / period)))
    points = sorted(p for p in points if 0 <= p <= end) + [mp.inf]
    integral = mp.quad(lambda t: t ** (s - 1) * mp.exp(-a * t) / (1 - w * mp.exp(-t)), points)
    return head + w**k * w * integral / mp.gamma(s)


def log_series(w, alpha, s: int):
    """Li(w; alpha, s) by the log-series in x = Log w, at the current mpmath
    precision, for |x| < 2 pi.  Its terms shrink like (|x|/(2 pi))^k after a
    peak near k = |a x|; where they cancel, the sum is formed again with the
    digits they lose added."""
    w, alpha = mp.mpmathify(w), mp.mpmathify(alpha)
    return _cancelling(_log_parts, w, alpha, s)


def _log_parts(w, alpha, s: int):
    # the head of the shift relation and the terms of the log-series at alpha + K
    k, head = _peeled(w, alpha, s)
    a = alpha + k + 1
    x = mp.log(w)
    factor = w**k * mp.exp((1 - a) * x)
    parts = [head, factor * (mp.harmonic(s - 1) - mp.euler - mp.digamma(a) - mp.log(-x)) * x ** (s - 1) / mp.factorial(s - 1)]
    tiny = mp.mpf(10) ** (-mp.mp.dps - 10)
    total, small = mp.fsum(parts), 0
    for j in range(100000):
        if j == s - 1:
            continue
        n = s - j  # zeta(n, a), n <= 0 below
        coefficient = mp.zeta(n, a) if n > 1 else -mp.bernpoly(1 - n, a) / (1 - n)
        parts.append(factor * coefficient * x**j / mp.factorial(j))
        total += parts[-1]
        small = small + 1 if j > s and abs(parts[-1]) <= tiny * abs(total) else 0
        if small == 3:
            return parts
    raise ArithmeticError(f"the log-series did not converge at w = {w}")


def _cancelling(parts_of, *args):
    """The sum of the list `parts_of(*args)`, at the current mpmath precision;
    where its parts cancel, formed again with the digits they lose added,
    until at most 5 of the current precision's digits are lost (four tries:
    a sum formed with too few digits understates what it loses)."""
    digits = mp.mp.dps
    for _ in range(4):
        with mp.workdps(digits):
            parts = parts_of(*args)
            value = mp.fsum(parts)
        lost = int(mp.log10(max(map(abs, parts)) / abs(value))) if value else digits
        if lost < digits - mp.mp.dps + 5:
            break
        digits = mp.mp.dps + lost + 5
    return +value


def inversion(w, alpha, s: int):
    """Li(w; alpha, s) by the inversion formula, at the current mpmath
    precision, for |w| > 1 and a = alpha + 1 not an integer.  Where w T_s and
    the sum in 1/w cancel, it is formed again with the digits they lose added."""
    w, alpha = mp.mpmathify(w), mp.mpmathify(alpha)
    return _cancelling(_inversion_parts, w, alpha, s)


def _inversion_parts(w, alpha, s: int):
    # w T_s(w, a) and (-1)^s w Li(1/w; -a, s), a = alpha + 1
    a = alpha + 1
    log_w = mp.log(-w)
    t_s = mp.diff(lambda b: mp.pi * mp.exp(-b * log_w) / mp.sin(mp.pi * b), a, s - 1)
    t_s *= (-1) ** (s - 1) / mp.factorial(s - 1)
    x = 1 / w
    total, power = mp.mpc(0), mp.mpc(1)
    tiny = mp.mpf(10) ** (-mp.mp.dps - 10)
    for n in range(1, 100000):
        power *= x
        term = power / (n - a) ** s
        total += term
        if n > abs(a) + 1 and abs(term) <= tiny * abs(total):
            break
    else:
        raise ArithmeticError(f"the sum in 1/w did not converge at w = {w}")
    return [w * t_s, -((-1) ** s) * w * total]


def lerch(w, alpha, s: int):
    """Li(w; alpha, s) at |Log w| <= pi or |w| > 1, by the quadrature and by
    the log-series (|Log w| <= pi) or the inversion formula (elsewhere), at DPS
    digits; the two must agree to AGREE relative.  At |w| > 1 the log-series
    is taken only where (|alpha| + 1) |Log w| <= LOG_REACH: its terms peak near
    k = |a Log w| and cancel by about that over ln 10 digits (at alpha =
    585.9 - 34.1i, |w| = 2.65, retries up to 219 digits did not recover them
    in 78 s).  Returned as an mpmath complex, the second method's value."""
    with mp.workdps(DPS):
        by_quadrature = quadrature(w, alpha, s)
        x = abs(mp.log(mp.mpmathify(w)))
        near = x <= mp.pi and (abs(w) <= 1 or (abs(alpha) + 1) * x <= LOG_REACH)
        name, method = ("log-series", log_series) if near else ("inversion", inversion)
        value = method(w, alpha, s)
        if not abs(by_quadrature - value) <= AGREE * abs(value):
            raise AssertionError(
                f"reference methods disagree at w = {w}, alpha = {alpha}, s = {s}: "
                f"{by_quadrature} by quadrature, {value} by the {name}"
            )
        return mp.mpc(value)
