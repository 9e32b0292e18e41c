"""High-precision reference values of Li(w; alpha, s) = sum_{n>=1} w^n/(alpha+n)^s
at |w| > 1 for the tests, from mpmath alone.

Each value is computed by two independent methods, at DPS digits, and the two
must agree to AGREE relative; where they do not, `lerch` raises
AssertionError, so the test that asked fails rather than skips the point:

- `quadrature`: w/Gamma(s) int_0^inf t^{s-1} e^{-a t}/(1 - w e^{-t}) dt,
  a = alpha + 1 (Erdelyi, HTF I, 1.11(3)), valid for Re a > 0 and w off
  [1, inf).  At Re alpha < 0 the shift relation Li(w; alpha, s) =
  sum_{n<=K} w^n/(alpha+n)^s + w^K Li(w; alpha+K, s) first brings the
  integral to Re a > 1, where it decays at least like e^{-t}.
- `inversion`: Li(w; alpha, s) = w T_s(w, a) - (-1)^s w Li(1/w; -a, s),
  T_s(w, a) = (-1)^{s-1}/(s-1)! d^{s-1}/da^{s-1} [pi e^{-a L}/sin(pi a)],
  L = Log(-w) (Apostol, Pacific J. Math. 1, 1951), the derivative by mpmath
  `diff` and the sum in 1/w term by term; a must not be an integer.

`mpmath.lerchphi` is not used: at w = 0.3 - 40i, alpha = 0.2 + 0.7i it is off
by 0.44-1.17 relative at s = 1-3.
"""

from __future__ import annotations

import mpmath as mp

#: Working digits of both methods.
DPS = 40
#: The relative agreement the two methods must reach.
AGREE = mp.mpf("1e-25")


def quadrature(w, alpha, s: int):
    """Li(w; alpha, s) by the integral, at the current mpmath precision."""
    w, alpha = mp.mpmathify(w), mp.mpmathify(alpha)
    k = int(mp.floor(-mp.re(alpha))) + 1 if mp.re(alpha) < 0 else 0
    a = alpha + k + 1
    # break the path where the factors change scale: the decay e^{-Re a t},
    # the turn of 1/(1 - w e^{-t}) at t = ln |w|, and each period of e^{-i Im(a) t}
    end = (mp.mpf(DPS + 10) * mp.log(10) + (s - 1) * mp.log(DPS + s)) / mp.re(a) + mp.log(abs(w))
    points = {mp.mpf(0), mp.log(abs(w)), end}
    points.update(mp.mpf(c) / mp.re(a) for c in (0.5, 2, 8, 32) if c / mp.re(a) < end)
    period = 2 * mp.pi / abs(mp.im(a)) if mp.im(a) else end
    points.update(period * i for i in range(1, int(end / period)))
    points = sorted(p for p in points if p <= end) + [mp.inf]
    integral = mp.quad(lambda t: t ** (s - 1) * mp.exp(-a * t) / (1 - w * mp.exp(-t)), points)
    head = mp.fsum(w**n / (alpha + n) ** s for n in range(1, k + 1))
    return head + w**k * w * integral / mp.gamma(s)


def inversion(w, alpha, s: int):
    """Li(w; alpha, s) by the inversion formula, at the current mpmath
    precision, for |w| > 1 and a = alpha + 1 not an integer.  Where w T_s and
    the sum in 1/w cancel, it is formed again with the digits they lose added."""
    w, alpha = mp.mpmathify(w), mp.mpmathify(alpha)
    digits = mp.mp.dps
    for _ in range(2):
        with mp.workdps(digits):
            whole, half = _inversion_parts(w, alpha, s)
            value = whole - half
        lost = int(mp.log10(max(abs(whole), abs(half)) / abs(value))) if value else digits
        if lost < 5:
            break
        digits = mp.mp.dps + lost + 5
    return +value


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
    return w * t_s, (-1) ** s * w * total


def lerch(w, alpha, s: int):
    """Li(w; alpha, s) at |w| > 1 by both methods at DPS digits, which must
    agree to AGREE relative; returned as an mpmath complex."""
    with mp.workdps(DPS):
        by_quadrature = quadrature(w, alpha, s)
        by_inversion = inversion(w, alpha, s)
        if not abs(by_quadrature - by_inversion) <= AGREE * abs(by_inversion):
            raise AssertionError(
                f"reference methods disagree at w = {w}, alpha = {alpha}, s = {s}: "
                f"{by_quadrature} by quadrature, {by_inversion} by inversion"
            )
        return mp.mpc(by_inversion)
