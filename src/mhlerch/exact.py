"""Exact-rational kernel for the combinatorial identities behind the
accelerated series.

Every value in this module is exact, so equality checks are bit-exact.  The
central object is the multiple harmonic sum over nondecreasing index tuples,

    S_a^b(t) = sum_{a <= i_1 <= ... <= i_t <= b}  prod_{r=1}^{t} 1/(beta + i_r),
    S_a^b(0) = 1,

together with the two sides of the alternating binomial identity it resolves:

    L(q, beta) = sum_{m=0}^{q} C(q, m) (-1)^m / (beta + m)^s,
    R(q, beta) = q! / (beta)_{q+1} * S_0^q(s - 1),

where (x)_p is the rising product x (x+1) ... (x+p-1).  The coefficient of
z^p in the half-plane power series of the shifted polylogarithm is the same
object reindexed (beta = alpha + 1, q = p - 1):

    c_p = -(p-1)! / (alpha+1)_p * S_1^p(s - 1)   with f_i = 1/(alpha + i).

S_a^b(t) is never expanded tuple by tuple here; it is built by the triangular
recurrence

    S_a^n(t) = S_a^{n-1}(t) + f_n * S_a^n(t - 1),

which costs O((b - a + 1) * t) multiplications.  `_depth_columns` is the only
place in the package where this recurrence is written, and `_alternating_sum`
the only place where L is summed: the exact, series and verify layers call
them, with exact integers, float or complex numbers (the tests also with
`Fraction`, as an oracle), and `cli` reaches them through `series` and
`verify`.  One depth-column pass to q holds S_0^n(t) for every n <= q and
t <= depth, so it gives R at every (n, s <= depth + 1); `_alternating_sum`
takes the powers (beta + m)^s from its caller, and `_alternating_sums` yields
L at q = 0, 1, ... from one list of them.

The exact values are computed in Python integers over one denominator per
shift.  For beta = num/den and indices lo .. hi, `_Scaled` holds
G = lcm_{lo <= n <= hi} |num + n den| and the integer weights
w_n = G/(beta + n) = den G/(num + n den).  Run on it, `_depth_columns` yields
col[t] = S_lo^n(t) G^t and a prefactor scaled by G^{n-lo+1}, and
`_alternating_sum` yields L(q, beta) G^s, all as ints, with the code of both
kernels unchanged.  The public functions build one `Fraction` per value they
return; `verify` compares the integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional, Union

from .errors import InvalidShiftError

RationalLike = Union[Fraction, int]


def _check_count(value: int, name: str, low: int = 1) -> None:
    # A float index passes a comparison but is never met by a loop's integers.
    if not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_beta(beta: Fraction) -> None:
    # beta must avoid {0, -1, -2, ...}: there the denominators beta + m vanish.
    if beta.denominator == 1 and beta <= 0:
        raise InvalidShiftError(f"beta = {beta} is a nonpositive integer")


class LemmaParams(namedtuple("LemmaParams", "q s beta")):
    """Grid point (q, s, beta) for the alternating binomial identity."""

    __slots__ = ()

    def __new__(cls, q: int, s: int, beta: RationalLike):
        beta = Fraction(beta)
        _check_count(q, "q", 0)
        _check_count(s, "s")
        _check_beta(beta)
        return tuple.__new__(cls, (q, s, beta))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too


class MultiSumSpec(namedtuple("MultiSumSpec", "a b t beta")):
    """Index range [a, b], depth t and shift beta of a multiple harmonic sum."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, t: int, beta: RationalLike):
        beta = Fraction(beta)
        _check_count(a, "a", 0)
        _check_count(b, "b", a)
        _check_count(t, "t", 0)
        if beta.denominator == 1 and a <= -beta <= b:
            raise ZeroDivisionError(f"beta + n vanishes at n = {-beta} in [{a}, {b}]")
        return tuple.__new__(cls, (a, b, t, beta))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too


class _Weight:
    """The int (G/(beta + n))^e: `c / self` is c/(beta + n)^e scaled by G^e,
    and `self ** s` is the weight of (beta + n)^(e s)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __rtruediv__(self, c: int) -> int:
        return c * self.value

    def __pow__(self, s: int) -> "_Weight":
        return _Weight(self.value**s)


class _Scaled:
    """The shift beta = num/den on the indices lo .. hi, scaled by
    G = lcm_{lo <= n <= hi} |num + n den|: `self + n` is the `_Weight`
    w_n = G/(beta + n) = den G/(num + n den), so the kernels run on it in
    integers.  An index outside lo .. hi is a KeyError, as G need not be a
    multiple of its factor; beta + n = 0 in range raises ZeroDivisionError."""

    __slots__ = ("G", "_weights")

    def __init__(self, beta: Fraction, lo: int, hi: int):
        num, den = beta.numerator, beta.denominator
        factors = {n: num + n * den for n in range(lo, hi + 1)}
        self.G = math.lcm(*factors.values())
        self._weights = {n: _Weight(den * self.G // f) for n, f in factors.items()}

    def __add__(self, n: int) -> _Weight:
        return self._weights[n]


def _depth_columns(x0, depth: int, n0: int = 1, stop: Optional[int] = None):
    """Yield (n, prefactor, col) for n = n0, n0 + 1, ..., stop (without end
    when `stop` is None), in the number type of x0 (float, complex, Fraction,
    or for a `_Scaled` ints, scaled as the module docstring says):

        col[t]    = S_{n0}^n(t) with f_i = 1/(x0 + i),   t = 0 .. depth,
        prefactor = (n - n0)! / (x0 + n0)_{n - n0 + 1}.

    So R(q, beta) = prefactor * col[s - 1] at (x0, n0, n) = (beta, 0, q), and
    c_p = -prefactor * col[s - 1] at (alpha, 1, p).  `col` is one list updated
    in place; copy it to keep a value.  The weight at n is computed only when
    item n is asked for, so a pole of 1/(x0 + n) past the last index taken is
    never reached.  The loop is written out here, not composed from smaller
    generators, because the float evaluators step it once for each term they
    do not keep: the series in z of `series.lerch_accelerated` and
    `series.zeta_accelerated` keep the streams of recently repeated (alpha, s)
    pairs and step it only past their kept terms (see `series._summed`).
    """
    col = [1] + [0] * depth
    prefactor = 1
    depths = range(1, depth + 1)
    for n in count(n0) if stop is None else range(n0, stop + 1):
        d = x0 + n
        f_n = 1 / d
        prefactor *= (n - n0 or 1) / d
        below = 1
        for t in depths:
            below = col[t] = col[t] + f_n * below
        yield n, prefactor, col


def _alternating_sum(powers, q: int):
    """L(q, x0) = sum_{m=0}^{q} C(q, m) (-1)^m / powers[m], where powers[m] is
    (x0 + m)^s in the number type of x0 for m = 0 .. q, as `_alternating_sums`
    grows it and `lemma_lhs` builds it.  `series` sums it at x0 = 1 + 0j only:
    complex, as a float or int x0 rounds otherwise past 2^53."""
    total = 0
    sign = 1
    for m in range(q + 1):
        total += sign * math.comb(q, m) / powers[m]
        sign = -sign
    return total


def _alternating_sums(x0, s: int) -> Iterator:
    """Yield L(q, x0) = `_alternating_sum(powers, q)` for q = 0, 1, ..., from
    one power list grown by (x0 + q)^s per item."""
    powers = []
    for q in count():
        powers.append((x0 + q) ** s)
        yield _alternating_sum(powers, q)


def multi_sum(spec: MultiSumSpec) -> Fraction:
    """S_a^b(t), exactly, via the triangular recurrence (never by enumeration)."""
    x0 = _Scaled(spec.beta, spec.a, spec.b)
    *_, (_, _, col) = _depth_columns(x0, spec.t, spec.a, spec.b)
    return Fraction(col[spec.t], x0.G**spec.t)


def lemma_lhs(params: LemmaParams) -> Fraction:
    """L(q, beta) = sum_{m=0}^{q} C(q, m) (-1)^m / (beta + m)^s."""
    x0 = _Scaled(params.beta, 0, params.q)
    powers = [(x0 + m) ** params.s for m in range(params.q + 1)]
    return Fraction(_alternating_sum(powers, params.q), x0.G**params.s)


def lemma_rhs(params: LemmaParams) -> Fraction:
    """R(q, beta) = q! / (beta)_{q+1} * S_0^q(s - 1).

    The depth-(s-1) sum degenerates to 1 at s = 1, so a single formula covers
    all s >= 1.
    """
    q, s = params.q, params.s
    x0 = _Scaled(params.beta, 0, q)
    *_, (_, prefactor, col) = _depth_columns(x0, s - 1, 0, q)
    return Fraction(prefactor * col[s - 1], x0.G ** (q + s))


def coefficient_exact(p: int, alpha: RationalLike, s: int) -> Fraction:
    """Exact coefficient of z^p in the half-plane series:

        c_p = -(p-1)! / (alpha+1)_p * S_1^p(s - 1) = -R(p - 1, alpha + 1),

    with f_i = 1/(alpha + i): one `lemma_rhs` value, one depth-column pass to
    p and one `Fraction`.  A float alpha is taken exactly.  Strictly negative
    for rational alpha > -1.
    """
    _check_count(p, "p")
    return -lemma_rhs(LemmaParams(p - 1, s, Fraction(alpha) + 1))


def _paper_point_sum(s: int, p_max: int) -> Fraction:
    """sum_{p <= p_max} c_p 2^{-p} at alpha = 0, exactly: the series in z at the
    paper's point w = -1, z = 1/2, whose sum is Li(-1; 0, s) = -(1 - 2^{1-s}) zeta(s).

    At alpha = 0, |c_p| <= 1: (p-1)!/(1)_p = 1/p, and S_1^p(s-1) <= p, as
    h_t(1, x_2..x_p) = sum_{k<=t} h_k(x_2..x_p) <= prod_{2<=i<=p} 1/(1 - 1/i)
    = p for the complete homogeneous h_k at x_i = 1/i.  So the tail past
    p_max is at most 2^{-p_max}.  One `_depth_columns` pass on `_Scaled`,
    summed in integers by Horner's rule over the one denominator G^{s-1} (2G)^{p_max}.
    """
    x0 = _Scaled(Fraction(0), 1, p_max)
    t = s - 1
    base = 2 * x0.G
    total = 0
    for _, prefactor, col in _depth_columns(x0, t, 1, p_max):
        total = total * base + prefactor * col[t]
    return -Fraction(total, x0.G**t * base**p_max)
