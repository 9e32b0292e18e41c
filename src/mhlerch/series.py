"""Floating-point (complex binary64) evaluation of the shifted polylogarithm

    Li(w; alpha, s) = sum_{n>=1} w^n / (alpha + n)^s,

on the half-plane Re(w) < 1/2 via the power series in z = w/(w-1),

    Li(w; alpha, s) = sum_{p>=1} c_p z^p,
    c_p = -(p-1)!/(alpha+1)_p * S_1^p(s-1),  f_i = 1/(alpha + i),

which `lerch_accelerated` sums as the last of four routes; it returns the
result of the first route that takes the call, in this order: the defining
series on the lens |w-1| < 1, where it converges faster; the inversion
formula (module `inversion`) where |w| >= 3/2, whose sum in 1/w converges
like |w|^-n; the log-series in x = Log w about w = 1 (module `logseries`;
Erdelyi, HTF I, 1.11(8)) where |z| >= 0.8 and |Log w| <= pi, whose terms
shrink like (|x|/(2 pi))^k (at a complex shift its rounding bound grows like
e^{|Im alpha| |x|}); and the series in z (`_z_series`), which takes every
call the others pass on, each of them where its bound cannot meet tol.
Plus, at alpha = 0, z = 1/2, the binomial double-sum form and the
accelerated zeta(s) series.  The defining series at the boundary point w=-1
is read only by `cli.bench_rows`, as its slow baseline.

Every evaluator returns an a-posteriori error bound, absolute, that counts
the rounding of the value as well as the truncation of its series, and stops
once that bound is at most tol max(1, |value|): relative to the value where
|value| > 1, where an absolute tol would ask for digits binary64 does not
hold.  One loop, `_summed`,
sums the three series, from `_term_stream`, `_direct_stream` (in w, and in 1/w
for the inversion formula) and `logseries._log_stream`, and is the one
stopping rule of every route: each caller hands it the rest of its value as a
head, the multiplier of the sum and the rounding of its own parts, and gets
back its whole result, the one place a `SeriesResult` is built; one more,
`_partial_sums`, yields unbounded partial sums.  The inversion formula (module
`inversion`, imported on first use) adds to its sum in 1/w a closed form, the
derivative of pi e^{-alpha L}/sin(pi alpha), L = Log(-w), whose rounding it
bounds by u times multiples of its moduli.  The log-series (module
`logseries`, imported on first use) bounds its truncation by a Bernoulli
majorant, its Euler-Maclaurin head by the first omitted term (twice it at a
complex shift), and the rounding of its terms a priori by u times a multiple
of the sum of their majorants.  The series in z
is bounded through a coefficient majorant B that does not increase in p (see
`_term_stream`), each inflated by its rounding: at a real alpha > -1, B(p+1)
= |c_p| itself; at a complex one, with a = Re(alpha) > -1,

    |c_m| <= B(p+1) = |p!/(alpha+1)_{p+1}| h_{s-1}(1/(a+1), .., 1/(a+p+1))

for every m > p, h_{s-1} the complete homogeneous polynomial: |c_{p+1}| at
the real shift a, with the modulus of the complex prefactor for the real one.
At a real alpha > -1 `_summed` also bounds the tail of the first two series by
summation by parts.  The factorial/Pochhammer ratio is carried
multiplicatively: both factors overflow binary64 near p ~ 170 while their
ratio stays O(1/p) for small shifts.  The series in z and the log-series sum a
negative shift at alpha + K, K = `_pole_terms(alpha)`, after the K head terms
`_peeled` sums, by the shift relation (Erdelyi, HTF I, 1.11)

    Li(w; alpha, s) = sum_{n<=K} w^n/(alpha+n)^s + w^K Li(w; alpha+K, s).

Contract: binary64 throughout; tolerances below 1e-13 are rejected;
`converged` means error_bound <= tol max(1, |value|), and |true - value| <=
error_bound holds on every result.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Tuple

from . import exact
from .errors import DomainError, InvalidShiftError, PrecisionError

#: A shift closer than this to a forbidden negative integer is rejected;
#: bounds and coefficients blow up near one.
SHIFT_TOL = 1e-12

#: Tolerances below this cannot be certified in binary64.
MIN_TOL = 1e-13

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 10000

_FLOAT_MAX = sys.float_info.max
_U = 2.0**-53  # the unit roundoff of binary64
_EPS = 2.0**-52  # 2u, the spacing of binary64 numbers in [1, 2)
_ETA = 2.0**-1072  # four subnormal units 2^-1074: `_summed`'s absolute rounding per unit of its counts
_FLOOR_AT = 2.0**-900  # times |mult| + 1: where `_summed`'s bound numerator lies below it, the floor is added

#: CPython raises a complex number to an integer power n with |n| <= _POWI_MAX
#: by binary powering, and to a larger one by exp(n log).
_POWI_MAX = 100


def _checked(w, s: int, tol: float, max_terms: int) -> Tuple[complex, float]:
    """The argument checks of every evaluator, in one order: w finite (as
    `disk_to_half_plane` checks z), s an integer >= 1, tol positive and finite
    (`ValueError`) and at least `MIN_TOL` (`PrecisionError`), and max_terms an
    integer >= 1; returns w as a complex and tol as a float."""
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"w must be finite, got {w}")
    if not (type(s) is int and s >= 1):  # the common case without a call
        exact._check_count(s, "order s")
    tol = float(tol)
    if not MIN_TOL <= tol < math.inf:  # nan too
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tol}")
        raise PrecisionError(f"tolerance {tol} is below the binary64 floor {MIN_TOL}")
    if not (type(max_terms) is int and max_terms >= 1):
        exact._check_count(max_terms, "max_terms")
    return w, tol


def _tail_gap(alpha: complex, n_min: int) -> float:
    # min over n >= n_min of |alpha + n|, at the one candidate n0 = max(n_min, round(-Re alpha)):
    # Re alpha + round(-Re alpha) is exact (Sterbenz), any other n has |Re alpha + n| >= 1/2.
    return abs(alpha + max(n_min, round(-alpha.real)))


class ShiftParam(namedtuple("ShiftParam", "alpha")):
    """Validated complex shift alpha, farther than SHIFT_TOL from every pole -n."""

    __slots__ = ()

    def __new__(cls, alpha):
        alpha = complex(alpha)  # finite, as `_checked` checks w
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError(f"alpha must be finite, got {alpha}")
        # every pole -n, n >= 1, is farther than 1/2 from Re(alpha) > -1/2
        if alpha.real <= -0.5 and _tail_gap(alpha, 1) <= SHIFT_TOL:
            raise InvalidShiftError(f"alpha = {alpha} is within {SHIFT_TOL} of a negative integer")
        return tuple.__new__(cls, (alpha,))

    # `_replace(alpha=...)` builds through `__new__`, so it validates.
    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))


class SeriesResult(NamedTuple):
    """Value of a truncated series with its certificate.

    `error_bound` is absolute: it bounds |true - value|, the truncation of
    the series and the rounding of the value both.  `converged` means
    `error_bound <= tol * max(1, |value|)` for the requested tol, so the
    tolerance is absolute where |value| <= 1 and relative above;
    `terms_used` never exceeds the configured max-terms.  `method` is the
    series summed: "z", "direct" (the defining series), "log" (the
    log-series in Log w) or "inversion" (the inversion formula, its sum in
    1/w).
    """

    value: complex
    terms_used: int
    error_bound: float
    converged: bool
    method: str


#: Builds a `SeriesResult` from a tuple of its fields, without the Python frame
#: of the NamedTuple's own __new__: the evaluators return one per call.
_result = partial(tuple.__new__, SeriesResult)


def disk_to_half_plane(z: complex) -> complex:
    """w = -z/(1-z), the inverse of z = w/(w-1): the unit disk onto Re(w) < 1/2."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z}")
    if z == 1:
        raise DomainError("z = 1 is the pole of w = -z/(1-z)")
    return -z / (1 - z)


def lerch_direct(
    w: complex,
    shift: ShiftParam,
    s: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Partial sums of the defining series sum_{n>=1} w^n/(alpha+n)^s, |w| < 1,
    by `_summed` over `_direct_stream`.  Stops once the geometric tail bound

        |w|^{N+1} (1/min_{n>N} |alpha + n|)^s / (1 - |w|)

    (or, at a real alpha > -1, the summation-by-parts bound of `_summed`)
    plus the rounding `_summed` counts is at most tol max(1, |value|), or
    with converged = False at `max_terms` or once the rounding alone passes
    that target.
    """
    w, tol = _checked(w, s, tol, max_terms)
    aw = abs(w)
    if aw >= 1.0:
        raise DomainError(f"|w| must be < 1 for the direct series, got |w| = {aw}")
    return _summed(w, shift.alpha, s, tol, max_terms, 1.0, _direct_stream)


def _direct_terms(alpha, s: int) -> Iterator[complex]:
    """The terms a_n = (1/(alpha+n))^s, n >= 1, of the defining series; a term
    too large for binary64 raises `OverflowError`, never divides by 0."""
    return ((1 / (alpha + n)) ** s for n in count(1))


def _direct_stream(alpha, s: int) -> Iterator[Tuple[complex, float, float]]:
    """Yield (a_n, B(n+1), 1.0) for n = 1, 2, ..., a_n from `_direct_terms`
    and B(n+1) = (1/min_{m>n} |alpha + m|)^s >= |a_m| for every m > n.

    |alpha + m|^2 = (m + Re(alpha))^2 + Im(alpha)^2 does not decrease from
    m >= -Re(alpha) on, so from there the min is |alpha + n + 1|.  B does not
    increase, so 1 bounds its ratios.  Where B overflows, just off a pole, B
    and the ratio are inf; the term at that pole raises once it is reached.
    """
    monotone_from = -alpha.real
    for m, a_n in enumerate(_direct_terms(alpha, s), 2):
        gap = abs(alpha + m) if m >= monotone_from else _tail_gap(alpha, m)
        try:
            b_next, ratio = (1.0 / gap) ** s, 1.0
        except OverflowError:
            b_next = ratio = math.inf
        yield a_n, b_next, ratio


def _partial_sums(x, terms: Iterable[complex]) -> Iterator[Tuple[complex, complex]]:
    """Yield (x^N, sum_{n=1}^{N} a_n x^n) for N = 1, 2, ..., a_n read from
    `terms`: the one unkept, unbounded and unstopped partial-sum loop."""
    total = 0j
    x_pow = 1 + 0j
    for a_n in terms:
        x_pow *= x
        total += x_pow * a_n
        yield x_pow, total


def _term_stream(alpha: complex, s: int) -> Iterator[Tuple[complex, float, float]]:
    """Yield (c_p, B(p+1), 1.0) for p = 1, 2, ..., at Re(alpha) > -1, one
    `exact._depth_columns` step each, with B(p+1) >= |c_m| for every m > p
    and B(p+1) <= B(p), so that 1.0 bounds every ratio B(m+1)/B(m).  Where
    rounding would make the computed B increase, the previous B is yielded
    again: it bounds every later |c_m| as well.  A B too large for binary64
    raises `OverflowError` (at a real shift, where B is |c_p|, a c_p too large
    raises); at Re(alpha) >= 0, where every complex shift is summed, B <= 1.

    At a real alpha > -1, B(p+1) = |c_p| (1 + 4(p+s) 2^-52).  c_p = -R(p-1, alpha+1)
    and R(q+1, beta) = R(q, beta) - R(q, beta+1) give c_{p+1} - c_p = R(p-1, alpha+2)
    > 0, and c_p < 0 (every R at a shift > 0 is positive): the exact |c_p| does
    not increase in p.  The factor covers the rounding of the computed c_p,
    with u = 2^-53: every f_i and every term of the column is positive, so
    each rounding moves it relatively.  d = alpha + n, f_n = 1/d and
    (n-1)/d take one rounding each and the prefactor's product one more, 3 a
    step; the column entry of depth t after n steps carries at most
    e(t, n) = n - 1 + 4t, as e(t, n) <= max(e(t, n-1), e(t-1, n) + 3) + 1
    (f_n, its product, the sum); c_p = -prefactor * col[t] adds one.  So
    |c_p| <= |computed c_p| / (1 - g u), g = 4p + 4t <= 4(p+s) - 4, and the
    factor 1 + 2 * 4(p+s) u, exact in binary64, covers that and its own
    product's rounding for p + s < 2^24.

    At a complex alpha, with a = Re(alpha) > -1 and t = s - 1,

        B(p+1) = |P_{p+1}| h_t(1/(a+1), .., 1/(a+p+1)),  P_{p+1} = P_p p/(alpha+p+1),

    P_p = (p-1)!/(alpha+1)_p the prefactor of the p-th step and h_t the
    complete homogeneous polynomial, whose value is the depth-t entry of a
    second `_depth_columns` pass at a, in real arithmetic and one index
    ahead.  As |f_i| = 1/|alpha+i| <= 1/(a+i), B(m) >= |P_m| h_t(|f_1|, ..,
    |f_m|) >= |c_m|, the first of these the quantity against which `_summed`
    counts the rounding of c_m.  And as |alpha+m+1| >= a+m+1, B(m+1)/B(m) =
    m/|alpha+m+1| h_t(..m+1)/h_t(..m) <= |c_{m+1}(a)|/|c_m(a)| <= 1, the
    real case at a: B does not increase, so B(p+1) bounds every later |c_m|.
    Its rounding, derived as at a real shift: the complex P_p is within
    8.25p u of its value (see `_summed`); its modulus, alpha + p + 1, that
    modulus, the quotient p/|alpha+p+1| and their product add 5u; the real
    column entry after p + 1 steps carries p + 4t; the product B one more.
    So g = 9.25p + 4s + 2, and the factor 1 + 2(9.25p + 4s + 3) u covers g
    and its own product's rounding; 1 + (10p + 4s + 3) 2^-52, taken instead,
    is larger and exact in binary64.
    """
    t = s - 1
    real = alpha.imag == 0 and alpha.real > -1
    if real:
        inflate, step, ahead = 1.0 + 4 * s * _EPS, 4 * _EPS, repeat(None)
    else:
        inflate, step = 1.0 + (4 * s + 3) * _EPS, 10 * _EPS
        ahead = islice(exact._depth_columns(alpha.real, t), 1, None)
    last = _FLOAT_MAX
    for (p, prefactor, col), later in zip(exact._depth_columns(alpha, t), ahead):
        c_p = -prefactor * col[t]
        inflate += step
        b_next = (-c_p.real if real else abs(prefactor) * p / abs(alpha + (p + 1)) * later[2][t]) * inflate
        if not b_next <= last:  # rounding, or an overflow
            if not b_next <= _FLOAT_MAX:  # inf, or nan past an inf
                raise OverflowError(f"c_{p} overflows binary64 at alpha = {alpha}, s = {s}")
            b_next = last
        last = b_next
        yield c_p, b_next, 1.0


#: The series each stream sums, by the stream's name, as `SeriesResult.method`
#: names it; `_log_stream` is in `logseries`, imported on the first call that
#: tries the log-series.  `inversion` names its results "inversion" itself.
_METHODS = {"_term_stream": "z", "_direct_stream": "direct", "_log_stream": "log"}

#: Bound on the keys `_recorded` holds.  On `eval-scattered` only the 11 zeta
#: keys repeat, each once per 111-call pass; every call records at most one
#: key, so at most 2 * 110 others come between two calls on one of them, and
#: 256 keeps each recorded while the ~100 keys a pass never repeats age out.
_RECORDED_KEYS = 256

#: Bound on the entries `_kept` holds.  The keys each workload repeats, as
#: measured: 16 on `eval-shared-shift` (8 pairs, each on two routes), the 11
#: zeta keys of `eval-scattered` and 30 on `verify-all`; 32 holds each.
_KEPT_KEYS = 32

#: Bound on the terms a kept entry holds after its call.  The most terms a key
#: of those workloads keeps is 46 on `eval-shared-shift`, 41 on
#: `eval-scattered` (zeta at s = 12) and 60 on `verify-all`; 128 holds each.
_KEPT_TERMS = 128

#: Keys (factory, alpha, s, type(alpha)) seen once, oldest first, -> True.
_recorded = {}

#: Kept keys -> (terms, extension, setup), least recently used first, with
#: `extension` = `_appended(terms, factory(alpha, s))`, len(terms) items on,
#: and `setup` the key's set-up in `_summed`.  Both tables are changed in
#: place, each change one dict operation, which the GIL makes atomic.
_kept = {}


def _appended(terms: list, stream: Iterator) -> Iterator:
    """Yield the items of `stream`, each appended to `terms` first."""
    for term in stream:
        terms.append(term)
        yield term


def _evict(table: dict, bound: int) -> None:
    """Delete the oldest keys of `table` until it holds at most `bound`.  Another
    thread may change the table meanwhile: a step that finds it changed
    (`RuntimeError`) or its key gone (`KeyError`) is tried again."""
    while len(table) > bound:
        try:
            del table[next(iter(table), None)]
        except (RuntimeError, KeyError):
            pass


def _power_error(s: int) -> float:
    """A multiple of u |a_n| that bounds the rounding of a_n = (1/(alpha+n))^s
    as `_direct_terms` forms it: alpha + n rounds by u, the complex
    reciprocal by 5u (CPython divides by Smith's method), so the base is
    within 6u and its s-th power within 6s u of the exact one; for s <=
    `_POWI_MAX` CPython powers by binary powering, s - 1 products of
    sqrt(5) u each: 8.25s in all.  Above it takes exp(s log): the modulus
    is within (s + 2) u of the rounded one and the phase s arg within (3 pi
    s + 1) u, so with the base's 6s, 23s covers it."""
    return 8.25 * s if s <= _POWI_MAX else 23.0 * s


def _direct_size(alpha, s: int, ax: float, n: int) -> float:
    """sum_{m<=n} (1/|alpha+m|)^s ax^m, the moduli of the first n terms of the
    defining series at |w| = ax; inf where a modulus overflows binary64."""
    total, power = 0.0, 1.0
    try:
        for m in range(1, n + 1):
            power *= ax
            total += (1.0 / abs(alpha + m)) ** s * power
    except OverflowError:
        return math.inf
    return total


#: `_summed` reads |V| and closes a block of its index-weighted size sum at
#: _CHECKPOINT terms and at every doubling of the term count after it.
_CHECKPOINT = 64


def _abel_factor(x, ax: float, holds: bool) -> float:
    """(1 + |x|)/|1 - x|, at least 1: the factor of `_summed`'s Abel bound;
    inf where that bound does not hold or x rounds to 1, as z does at
    |w| >= 2^53."""
    gap = abs(1.0 - x)
    abel = (1.0 + ax) / gap if holds and gap else math.inf
    return abel if abel > 1.0 else 1.0


def _summed(
    x, alpha, s: int, tol: float, max_terms: int, mult=1.0, factory=_term_stream,
    head=0.0, fixed=0.0, carried=0.0, x_error=0.0, used=0,
) -> SeriesResult:
    """Sum a_p x^p over the kept stream `factory(alpha, s)` of (a_p, B(p+1), r_p),
    a majorant B(m) >= |a_m| and r_p >= sup_{m>p} B(m+1)/B(m), until the
    bound meets the target, and return the route's result: its value V
    below, its terms (the `used` it spent before the sum, within
    `max_terms`, plus the sum's own), the bound, `converged` and the method
    the stream names.  x = z for
    `_term_stream` (at Re(alpha) > -1, as its majorant needs), x = w for
    `_direct_stream` (x = 1/w, at the shift -alpha, for `inversion._inversion`),
    x = Log w for `logseries._log_stream`.

    The sum enters the caller's value V = head + mult * sum (the sum itself
    where head is 0 and mult is 1.0), and the bound is
    |mult| times the tail bound B(P+1) |x|^{P+1} / (1 - |x| r_P), plus the
    rounding, against the target tol max(1, |V|).  That is the one stopping
    rule: every route (the lens, the series in z, zeta, the log-series and
    the inversion formula) returns the result this loop builds.

    At a real alpha > -1 the terms a_m of the first two streams (the Abel
    test of the set-up below) are one-signed and |a_m| does not increase,
    and each B(P+1) bounds every later |a_m|, so summation by parts (Abel)
    also bounds the tail: with X_m = sum_{P<k<=m} x^k,
    |X_m| <= |x|^{P+1} (1 + |x|)/|1 - x|,
    sum_{m>P} a_m x^m = sum_{m>P} (a_m - a_{m+1}) X_m (+ the limit of a_m
    times that of X_m), and the |differences| (and that limit) add up to
    |a_{P+1}| <= B(P+1).  The smaller of the two bounds is taken.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    3.3), to first order in u = 2^-53; each multiple is rounded up, which
    covers the second order.  A complex product rounds by sqrt(5) u, a sum
    by u.  Term m is within (k_a (m + s) + 2.25 m + x_error m) u of its
    majorant: x^m by m - 1 products and a_m x^m by one, 2.25m; x within
    x_error u of the caller's exact point moves x^m by x_error m u; and a_m:

    - on `_term_stream` within 9.25(m + s) u of |prefactor_m| h_{s-1}(|f_1|,
      .., |f_m|) <= B(m), k_a = 9.25: alpha + n rounds by u, f_n and (n -
      1)/d by 5u more, so the prefactor takes 8.25u a step; the depth-t
      column entry after n steps is within e(t, n) = n - 1 + 9.25t, as
      e(t, n) <= max(e(t, n-1), e(t-1, n) + 8.25) + 1 (f_n, its product,
      the sum); c_m = -prefactor col[t] adds 2.25.  At a real alpha > -1,
      4(m + s) u of |c_m|, k_a = 4 (derived in `_term_stream`).
    - on `_direct_stream` within `_power_error(s)` u |a_m|, m-free.
    - on `logseries._log_stream` the caller counts the rounding of a_m x^m,
      and the (m - 1) |a_m x^m| of the running sum below, a priori in
      `fixed`: slope = intercept = 0 (its caller passes no x_error).

    The running sum adds u |T_i| at its i-th term, T_i the partial sum, and
    |T_i| <= |T_P| + sum_{i<m<=P} |a_m x^m|: at most u (P |T_P| + sum_m (m -
    1) |a_m x^m|) in all.  So the rounding is at most u (slope W + intercept
    S + (P + carried) |mult T_P| + |V|) + fixed, with S = |mult| sum_{m<=P}
    B(m) |x|^m and W >= |mult| sum_{m<=P} m B(m) |x|^m; slope = k_a + 3.25 +
    x_error on `_term_stream` and 3.25 + x_error on `_direct_stream`;
    intercept = k_a s or `_power_error(s)`; `carried` the caller's rounding
    of mult and of its product with the sum, relative, so that it moves the
    computed mult * T_P by at most carried u |mult T_P| to first order;
    `fixed` the caller's other rounding (absolute); and u |V| for the sum
    with head.  S is one running sum of the numerators y = |mult| B(p+1)
    |x|^{p+1} the loop forms anyway (one add a term), started at |mult|
    |alpha + 1|^-s |x|: the first term's modulus on the first two streams
    (a_1 = (alpha+1)^-s), and on the log stream, where S is not read, only
    the first target's estimate.  W closes a block of S
    at each checkpoint (p = 64, 128, ...), weighted by the block's last index
    + 1, and weighs the open block by P + 1: W <= |mult| sum_m (2m + 1)
    B(m) |x|^m + 64 S, and W = (P + 1) S below 64 terms.  On
    `_direct_stream`, B(p+1) is the
    size of the pole term on every p + 1 < -Re(alpha), where the min in it
    is taken over a pole that lies ahead; so at `first` = ceil(-Re(alpha)),
    from where B(m) = (1/|alpha + m|)^s, and at any stop before it, S reads
    the moduli of the terms up to there from `_direct_size` instead.  The
    loop stops with converged = False once the rounding alone passes the
    target.

    These counts are relative, and hold while every result lies in the
    normal range, above 2^-1022.  Below it, gradual underflow rounds a real
    product or quotient by an absolute error of at most 2^-1075, half a
    subnormal unit, and a sum or difference not at all, as it is exact there
    (Higham, 2nd ed., ch. 2): a complex product, one difference of two real
    products per part, by at most sqrt(2) 2^-1074, so each unit of the
    counts by at most eta = 4 * 2^-1074 = `_ETA`.  To first order, and where the factors that
    carry such an error on into a term have modulus at most 1 (x^m at |x| <=
    1; on `_term_stream` the steps (n - 1)/|alpha + n| and |f_n| past n = 1 at
    Re(alpha) > -1, while the entries f_1^t at n = 1 lie below the normal
    range only where |f_1| < 1), term m is off by at most eta (slope m +
    intercept) past an underflow, the P terms summed by eta P (slope P +
    intercept), and the product with mult and the sum with head by 2 eta.
    The numerator y = B(P+1) |x|^{P+1} is off by at most eta |mult| (slope
    (P + 1) + intercept), so it is raised by that before the tail bound is
    formed, and the rounding by eta (|mult| P (slope P + intercept) + 2);
    neither where x = 0 or mult = 0, as every term or the product is then an
    exact 0.  Both are added only where y < (|mult| + 1) 2^-900
    (`_FLOOR_AT`): at a larger y, with fewer than 2^118 units, each is under
    2^-54 of y and of the bound, under the rounding of the bound itself, so
    a call away from the subnormal range pays one comparison a stop (forming
    the floor at every stop took 6% off `eval-shared-shift` op/s, CPython
    3.11 on a 2-core x86-64 host).  So the floor moves only a bound near the
    subnormal range: at alpha = 2 and 2 + i, w = -1, s = 1000, where
    c_1 = -(alpha + 1)^-1000 rounds to 0, the bound is about 2^-1058
    instead of 0, and |V| itself is below 2^-1500.

    The target starts at tol max(1, |head| + |mult a_1 x|), an estimate of
    |V|, and reads |V| at the checkpoints and wherever the bound is formed.
    Each term forms only the numerator y and tests it against the last
    target; y / (1 - rho) and, where that is above the target, the Abel
    bound are formed only once y <= target or p = max_terms, and the
    rounding only once the smaller meets the target (or p = max_terms);
    where the rounding then tips a geometric bound at or below the target
    above it, the Abel bound is formed there too, and the smaller taken.  The
    Abel factor (`_abel_factor`) is formed once, at the first stop that reads
    it.  At 0 <= rho < 1 the rounded quotient is >= y, the Abel factor is
    taken >= 1, and a nan y fails both tests, so no bound below the target is
    skipped while the target is read.  An infinite |V| never converges.

    The stream depends on (factory, alpha, s) only, and so does the set-up
    of a call: the first term's size |alpha + 1|^-s (inf where the float
    power raises), the stream's rounding multiples (slope less x_error, and
    intercept), `first`, the Abel test (a real alpha > -1 on the first two
    streams) and the method.  Two tables keep the streams of the recently
    repeated keys: `_recorded` the keys seen once, and `_kept` the kept
    entries, least recently used first, so rows of points at several shifts,
    and lens and off-lens calls on one pair, do not evict each other.  A
    first call on a key computes its set-up, keeps nothing and records the
    key after its sum: on `eval-scattered`, a new pair almost every call,
    keeping them added 7.5-9.2% to peak memory and took 1.3-5.0% off op/s.
    A call on a recorded key takes it out of `_recorded` and keeps (terms,
    extension, set-up): its terms, the generator that computed them and the
    set-up it computed; from then on each call reads the set-up there, sums
    the kept terms, and past them steps the kept generator and appends: no
    term is computed twice.  A call owns its entry: it pops the entry from
    `_kept`, so no other call reads or steps it, and puts it back after the
    sum, unless the entry then holds more than `_KEPT_TERMS` terms; anything
    raised in the sum (an `OverflowError` of a term, an interrupt) leaves
    the key out of both tables.  Past `_RECORDED_KEYS` or `_KEPT_KEYS`,
    `_evict` deletes the oldest keys.  Every change is one dict operation,
    atomic under the GIL, so calls in several threads need no lock.  A race
    can only lose an entry: two calls on one key at once find it kept in one
    of them and not in the other, which sums a fresh stream, and the later
    put-back wins; an eviction can delete an entry just put back.  A lost
    entry's terms are computed again by a later call, never read by two
    calls at once, and each is a function of the key alone, so every result
    is bit for bit a first call's.  Worst-case memory between calls,
    measured with `tracemalloc` on CPython 3.11 x86-64: 256 recorded keys at
    about 140 bytes (35 kB), and 32 kept entries, each 128 terms at about
    155 bytes, its set-up, about 170 bytes, and its generators, about 1.5 kB
    plus 40 bytes per unit of s: 0.73 MB in all at s <= 10.  During a call
    its own entry may grow to `max_terms` terms.
    """
    max_terms -= used
    ax = abs(x)
    total = 0.0
    x_pow = 1.0
    scale = abs(mult)
    ax_pow = scale * ax  # scale |x|^p
    floor_at = (scale + 1.0) * _FLOOR_AT if ax and scale else 0.0  # x = 0 or mult = 0: an exact 0
    abel = None  # formed at the first stop that reads it
    moment = last = 0.0
    key = (factory, alpha, s, type(alpha))  # 0.0 == 0j; their terms differ in type
    entry = _kept.pop(key, None)  # the call owns a kept entry until it puts it back
    if entry:
        terms, extension, (first_size, base, intercept, first, holds, method) = entry
        stream = chain(terms, extension)
    else:  # the set-up of the key, which a kept entry holds
        try:  # |a_1| = |alpha + 1|^-s on the first two streams; on the log stream only an estimate
            first_size = abs(alpha + 1) ** -s
        except (OverflowError, ZeroDivisionError):
            first_size = math.inf
        if factory is _term_stream:
            holds = alpha.imag == 0 and alpha.real > -1  # the Abel test
            k_a = 4.0 if holds else 9.25
            base, intercept, first = k_a + 3.25, k_a * s, 1
        elif factory is _direct_stream:
            holds = alpha.imag == 0 and alpha.real > -1
            base, intercept, first = 3.25, _power_error(s), math.ceil(-alpha.real)
        else:  # `logseries._log_stream`: its caller counts the rounding of its terms in `fixed`
            holds = False
            base = intercept = 0.0
            first = 1
        method = _METHODS[factory.__name__]
        stream = factory(alpha, s)
        if _recorded.pop(key, False):  # seen once: keep the terms and the set-up from this call on
            terms = []
            stream = _appended(terms, stream)
            entry = terms, stream, (first_size, base, intercept, first, holds, method)
    size = scale * first_size * ax if first_size < math.inf else first_size  # inf, where inf * 0 is nan
    modulus = abs(head) + size if head else size  # the first target reads this estimate of |V|
    target = tol * modulus if modulus > 1.0 else tol
    slope = base + x_error
    check = first if first > 1 else _CHECKPOINT
    if check > max_terms:
        check = max_terms
    for p, (a_p, b_next, ratio) in enumerate(stream, 1):
        x_pow *= x
        total += a_p * x_pow
        ax_pow *= ax
        y = b_next * ax_pow
        size += y
        if y <= target or p >= check:
            if p >= check:
                if p == first:
                    size = y + scale * _direct_size(alpha, s, ax, p)
                moment += (p + 1) * (size - last)
                last = size
                check = min(max(2 * p, _CHECKPOINT), max_terms)
            partial = scale * abs(total)
            modulus = abs(head + mult * total) if head else partial
            target = tol * modulus if modulus > 1.0 else tol
            if y > target and p < max_terms:
                continue
            if y < floor_at:  # B(p+1) |x|^{p+1} past an underflow
                y += _ETA * scale * (slope * (p + 1) + intercept)
            rho = ax * ratio
            bound = y / (1.0 - rho) if rho < 1.0 else math.inf
            if bound > target:
                abel = abel or _abel_factor(x, ax, holds)
                if y * abel < bound:
                    bound = y * abel
                if bound > target and p < max_terms:
                    continue
            if p < first:  # sizes past `first` are not read yet
                size = y + scale * _direct_size(alpha, s, ax, p)
                moment = last = 0.0
            weighted = moment + (p + 1) * (size - last)  # >= the sum of index times term size
            rounding = _U * (slope * weighted + intercept * size + (p + carried) * partial + modulus) + fixed
            if y < floor_at:
                rounding += _ETA * (scale * p * (slope * p + intercept) + 2)
            if bound + rounding > target:  # the rounding tips the geometric bound: the Abel bound may not
                abel = abel or _abel_factor(x, ax, holds)
                if y * abel < bound:
                    bound = y * abel
            bound += rounding
            if bound <= target or p >= max_terms or rounding > target:
                break
    if entry is None:  # a first call records its key after the sum, so a raise leaves it out
        _recorded[key] = True
        if len(_recorded) > _RECORDED_KEYS:
            _evict(_recorded, _RECORDED_KEYS)
    elif len(terms) <= _KEPT_TERMS:
        _kept[key] = entry
        if len(_kept) > _KEPT_KEYS:
            _evict(_kept, _KEPT_KEYS)
    value = head + mult * total if head or mult != 1.0 else total
    return _result((value, used + p, bound, bound <= target < math.inf, method))


def lerch_accelerated(
    w: complex,
    shift: ShiftParam,
    s: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Evaluate Li(w; alpha, s) for Re(w) < 1/2 by the first of these four
    routes that takes the call, tried in this order, which only this
    function states:

    1. on the lens |w - 1| < 1, the defining series, as `lerch_direct` sums
       it (a shift near a pole needs no peeling there);
    2. where |w| >= `_INV_MIN_W` = 3/2, the inversion formula
       (`inversion._inversion`), which returns None, and so passes the call
       on, where alpha is within 1e-2 of an integer >= 0, |Im alpha| > 50,
       s > `_POWI_MAX`, `max_terms` is reached or its bound cannot meet tol;
    3. where |z| >= `_LOG_MIN_Z` = 0.8, the log-series in x = Log w
       (`logseries._log_series`), which passes the call on where |Log w| >
       pi, `max_terms` is reached or its bound cannot meet tol, and where
       the series in z likely needs few terms;
    4. the series in z = w/(w-1) (`_z_series`), which takes every call left.

    Each route module is imported after its route's domain test, on the
    first call that gets there, so `import mhlerch.cli` loads neither.
    Routes 3 and 4 each peel the same K = `_pole_terms(alpha)` head terms
    (`_peeled`) where K > 0.  A call that routes 2 and 3 pass on is
    bit for bit what route 4 alone returns.

    |z| = |w|/|w - 1|, so |w| < |z| exactly when |w - 1| < 1: the lens is
    where the defining series converges faster.  Every w <= 0 and every
    |w| >= 1 lies off it.  The series in z converges like |z|^p, the
    log-series like (|x|/(2 pi))^k, and the inversion formula's sum in 1/w
    like |w|^-n.

    Every route bounds the truncation and the rounding of its value in
    `error_bound` (absolute), and converges once that bound is at most tol
    max(1, |value|).  Near a pole, where the value reaches 1e33, the
    tolerance is then relative to it; a tol below what binary64 can certify
    for a call returns converged = False, not an exception.
    """
    w, tol = _checked(w, s, tol, max_terms)
    if w.real >= 0.5:
        raise DomainError(f"Re(w) must be < 1/2, got Re(w) = {w.real}")
    alpha = shift.alpha
    gap = abs(w - 1)
    if gap < 1.0:
        return _summed(w, alpha, s, tol, max_terms, 1.0, _direct_stream)
    if (aw := abs(w)) >= _INV_MIN_W:
        from .inversion import _inversion

        if inverted := _inversion(w, alpha, s, tol, max_terms):
            return inverted
    if aw >= _LOG_MIN_Z * gap:
        from .logseries import _log_series

        if logged := _log_series(w, alpha, s, tol, max_terms):
            return logged
    return _z_series(w, alpha, s, tol, max_terms)


def _pole_terms(alpha: complex) -> int:
    """K = floor(-Re alpha) + 1, the head terms `_peeled` peels so that the
    series in z and the log-series run at Re(alpha + K) > 0; 0 where
    Re(alpha) >= -1/2 at a real shift and where Re(alpha) >= 0 at a complex
    one.  A complex shift with -1/2 <= Re(alpha) < 0 is peeled too: the
    majorant of `_term_stream` there reads 1/(Re(alpha) + 1) for |f_1|, too
    large by the factor |alpha + 1|/(Re(alpha) + 1) at each of the s - 1
    depths."""
    return math.floor(-alpha.real) + 1 if alpha.real < -0.5 or alpha.real < 0 and alpha.imag else 0


def _peeled(w: complex, alpha: complex, s: int, k: int, max_terms: int) -> Tuple[complex, complex, float]:
    """(head, w^K, its rounding) for the K = k >= 1 head terms of the shift
    relation, which `_z_series` and `logseries._log_series` both read: head
    = sum_{n<=K} w^n (1/(alpha+n))^s, the K-th partial sum of
    `_partial_sums` over `_direct_terms`, and a bound on its rounding, (3.25K
    + `_power_error(s)`) u times the sum of the moduli of its terms (each
    w^n by n - 1 products, a_n, its product and the running sum).  Where K
    >= `max_terms`, the first `max_terms` head terms, their power of w and
    an infinite rounding: no term is left for a bound.  Where |w|^K
    overflows binary64, `OverflowError`."""
    w_pow, head = next(islice(_partial_sums(w, _direct_terms(alpha, s)), min(k, max_terms) - 1, None))
    if k >= max_terms:
        return head, w_pow, math.inf
    if not math.isfinite(abs(w_pow)):
        raise OverflowError(f"|w|^K overflows binary64 at |w| = {abs(w)}, K = {k}")
    return head, w_pow, _U * (3.25 * k + _power_error(s)) * _direct_size(alpha, s, abs(w), k)


def _z_series(w: complex, alpha: complex, s: int, tol: float, max_terms: int) -> SeriesResult:
    """Li(w; alpha, s) through the series in z = w/(w-1) alone, at checked
    arguments with Re(w) < 1/2 (|z| < 1 exactly on that half-plane): the
    last route of `lerch_accelerated`, and the series that `verify`'s
    `proposition` check sums directly.

    Pole peeling: where `_pole_terms(alpha)` = K > 0 (Re(alpha) < -1/2, or
    Re(alpha) < 0 at a complex shift), the K head terms of the shift
    relation come from `_peeled`, then the series in z at alpha+K is summed,
    where Re(alpha+K) > 0 and no f_i is near a pole.  `terms_used` counts
    both; the stream is kept under (alpha+K, s).  If K >= `max_terms`, the
    first `max_terms` head terms are returned with bound inf.  Where z
    rounds to 1 (|w| >= 2^53) no bound can be finite: rho = |z| = 1 below,
    and the summation-by-parts factor (1 + |z|)/|1 - z| is inf; so `_summed`
    is given K + 1 terms, and the call returns converged = False after one
    term of the series in z.

    Stopping rule: after P terms the tail is at most B(P+1) |z|^{P+1} /
    (1 - rho), rho = |z|, with B the majorant `_term_stream` yields, which
    bounds every later |c_p| (|c_P| at a real shift, where the summation by
    parts bound of `_summed` may be the smaller; at a complex one the
    modulus of the prefactor times h_{s-1} at Re(alpha)).  The bound is this
    one, times |w|^K for a peeled call, plus the rounding that `_summed`
    counts (z = w/(w-1) is within `_Z_ERROR` u of its exact value: w - 1
    rounds by u, the quotient by 5u), and convergence is declared once it is
    <= tol max(1, |value|).
    A peeled call's head adds the rounding `_peeled` bounds, and w^K, by K -
    1 products, and its product with the sum in z 2.25K u times |w^K T|, T
    that sum (`_summed`'s `carried`); both enter `_summed`'s test.
    """
    z = w / (w - 1)
    head, w_pow, fixed = _peeled(w, alpha, s, k, max_terms) if (k := _pole_terms(alpha)) else (0.0, 1.0, 0.0)
    if k >= max_terms:
        return SeriesResult(head, max_terms, fixed, False, "z")
    if z == 1:
        max_terms = k + 1
    return _summed(z, alpha + k if k else alpha, s, tol, max_terms, w_pow, _term_stream, head, fixed, 2.25 * k, _Z_ERROR, used=k)


#: z = w/(w-1) is within _Z_ERROR u of its exact value, relative.
_Z_ERROR = 6.0

#: The inversion formula is tried at |w| >= _INV_MIN_W, where its sum in 1/w
#: converges like |w|^-n.  On `eval-scattered` inputs it takes less time than
#: the series in z or the log-series from |w| of about 1.25 on; at 3/2 every
#: |z| <= 0.6 (|w| <= 1.5) stays on the series in z.
_INV_MIN_W = 1.5

#: The log-series is tried at |z| >= _LOG_MIN_Z (|w| >= _LOG_MIN_Z |w - 1|),
#: where the series in z converges like 0.8^p or slower: 62 terms to shrink
#: by 1e-6.
_LOG_MIN_Z = 0.8

def _euler_partial_sums(s: int) -> Iterator[complex]:
    """Yield sum_{p<=P} 2^{-p} sum_{m<p} C(p-1, m) (-1)^{m+1}/(m+1)^s, P = 1, 2, ...:
    the series at alpha = 0, z = 1/2, each inner sum computed independently.  Its
    rounding grows like u (2|z|)^P, so it is summed at z = 1/2 only."""
    return (total for _, total in _partial_sums(0.5, (-a for a in exact._alternating_sums(1 + 0j, s))))


def zeta_accelerated(
    s: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """zeta(s) for integer s >= 2 from the tuple-harmonic series at z = 1/2:

        zeta(s) = 1/(1 - 2^{1-s}) * sum_{p>=1} a_p / (p 2^p),

    the alpha = 0 (a float), w = -1 sum of `_z_series` (c_p = -a_p/p)
    times -1/(1 - 2^{1-s}), with its bound times 1/(1 - 2^{1-s}), plus the
    rounding of that factor and of its product with the sum, and stopped at
    tol max(1, zeta(s)) as `_summed` stops.
    """
    if not isinstance(s, int) or s < 2:
        raise DomainError(f"zeta series needs integer s >= 2, got {s!r} (s = 1 is the pole)")
    _, tol = _checked(0.5, s, tol, max_terms)
    factor = 1.0 / (1.0 - 2.0 ** (1 - s))  # within 2u: 1 - 2^{1-s} and the quotient
    return _summed(0.5, 0.0, s, tol, max_terms, -factor, _term_stream, 0j, 0.0, 3.0)
