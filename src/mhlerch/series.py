"""Floating-point (complex binary64) evaluation of the shifted polylogarithm

    Li(w; alpha, s) = sum_{n>=1} w^n / (alpha + n)^s,

on the half-plane Re(w) < 1/2 via the power series in z = w/(w-1),

    Li(w; alpha, s) = sum_{p>=1} c_p z^p,
    c_p = -(p-1)!/(alpha+1)_p * S_1^p(s-1),  f_i = 1/(alpha + i),

and via the defining series on the lens |w - 1| < 1, where it converges
faster; plus, at alpha = 0, z = 1/2, the binomial double-sum form and the
accelerated zeta(s) series.  The defining series at the boundary point
w = -1 is read only by `cli.bench_rows`, as its slow baseline.

Every evaluator returns an a-posteriori error bound.  One loop, `_summed`,
sums both series, from `_term_stream` and `_direct_stream`; one more,
`_partial_sums`, yields unbounded partial sums.  The series in z
is bounded through the coefficient majorant

    |c_p| <= B(p) = (p-1)!/(|alpha+1| ... |alpha+p|) * H_p^{s-1},
    H_p = sum_{i<=p} 1/|alpha+i|,

where H_p grows like ln p (see `_term_stream`).  The factorial/Pochhammer
ratio is carried multiplicatively: both factors overflow binary64 near p ~ 170
while their ratio stays O(1/p) for small shifts.  Negative shifts are summed
at alpha + K, K = `_pole_terms(alpha)`, by the shift relation (Erdelyi, HTF I, 1.11)

    Li(w; alpha, s) = sum_{n<=K} w^n/(alpha+n)^s + w^K Li(w; alpha+K, s).

Contract: binary64 throughout; tolerances below 1e-13 are rejected.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from itertools import chain, count, islice
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


def _require_finite(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z}")
    return z


def _check_tolerance(tol: float) -> float:
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if tol < MIN_TOL:
        raise PrecisionError(f"tolerance {tol} is below the binary64 floor {MIN_TOL}")
    return tol


def _tail_gap(alpha: complex, n_min: int) -> float:
    # min over n >= n_min of |alpha + n|, at the one candidate n0 = max(n_min, round(-Re alpha)):
    # Re alpha + round(-Re alpha) is exact (Sterbenz), any other n has |Re alpha + n| >= 1/2.
    return abs(alpha + max(n_min, round(-alpha.real)))


class ShiftParam(namedtuple("ShiftParam", "alpha")):
    """Validated complex shift alpha, farther than SHIFT_TOL from every pole -n."""

    __slots__ = ()

    def __new__(cls, alpha):
        alpha = _require_finite(alpha, "alpha")
        if _tail_gap(alpha, 1) <= SHIFT_TOL:
            raise InvalidShiftError(f"alpha = {alpha} is within {SHIFT_TOL} of a negative integer")
        return tuple.__new__(cls, (alpha,))

    # `_replace(alpha=...)` builds through `__new__`, so it validates.
    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))


class SeriesResult(NamedTuple):
    """Value of a truncated series with its certificate.

    `converged` implies `error_bound <= ` the requested tolerance;
    `terms_used` never exceeds the configured max-terms.  `method` is the
    series summed: "z" or "direct" (the defining series).
    """

    value: complex
    terms_used: int
    error_bound: float
    converged: bool
    method: str


def disk_to_half_plane(z: complex) -> complex:
    """w = -z/(1-z), the inverse of z = w/(w-1): the unit disk onto Re(w) < 1/2."""
    z = _require_finite(z, "z")
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

    falls below `tol`, or at `max_terms` with converged = False.
    """
    w = _require_finite(w, "w")
    exact._check_count(s, "order s")
    tol = _check_tolerance(tol)
    exact._check_count(max_terms, "max_terms")
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
    """Yield (c_p, B(p+1), r_p) for p = 1, 2, ..., one `exact._depth_columns`
    step each, with H_p and |alpha+p+1|, |alpha+p+2| carried: B(p+1) =
    |prefactor_p| * p/|alpha+p+1| * H_{p+1}^{s-1}.

    |c_p| <= B(p): every monomial of the complete homogeneous polynomial
    S_1^p(s-1) appears in H_p^{s-1} = (sum |f_i|)^{s-1}.  B(1) = |alpha+1|^{-s}.

    For Re(alpha) >= -1, r_p = (1 + 1/(|alpha+p+2| H_{p+1}))^{s-1} bounds
    sup_{m > p} B(m+1)/B(m).  That ratio is (m/|alpha+m+1|) * (1 + |f_{m+1}|/
    H_m)^{s-1}.  As |alpha+m+1| >= m+1+Re(alpha) >= m, the first factor is <= 1.
    |alpha+n|^2 = (n+Re(alpha))^2 + Im(alpha)^2 increases in n >= p+2 >
    -Re(alpha), so |f_{m+1}| <= 1/|alpha+p+2|, and H_m >= H_{p+1}.
    """
    t = s - 1
    h = 1.0 / abs(alpha + 1)
    abs_next = abs(alpha + 2)
    for p, prefactor, col in exact._depth_columns(alpha, t):
        abs_after = abs(alpha + (p + 2))
        h_next = h + 1.0 / abs_next
        try:
            ratio = (1.0 + 1.0 / (abs_after * h_next)) ** t
        except OverflowError:  # near the pole -(p+2); only `_summed` reads r_p, at Re(alpha) >= -1/2
            ratio = math.inf
        yield -prefactor * col[t], abs(prefactor) * p / abs_next * h_next**t, ratio
        h, abs_next = h_next, abs_after


#: The series each stream sums, as `SeriesResult.method` names it.
_METHODS = {_term_stream: "z", _direct_stream: "direct"}

#: Bound on the keys `_kept_streams` records.  On `eval-scattered` only the 11
#: zeta keys repeat, each once per 111-call pass; every call records at most
#: one key, so at most 2 * 110 others come between two calls on one of them,
#: and 256 keeps each recorded while the ~100 keys a pass never repeats age
#: out.  `eval-shared-shift` has 16 live keys: 8 pairs, each on two routes.
_RECORDED_KEYS = 256

#: Bound on the terms the kept entries hold between calls, in all.  Warm, the
#: 16 keys of `eval-shared-shift` hold 578 terms, the 11 zeta keys of
#: `eval-scattered` 530 (38 at s = 2 to 59 at s = 12), and the 30 keys that
#: `verify-all` repeats 1225; 2048 holds each of them with room to spare.
_KEPT_TERMS = 2048

#: (factory, alpha, s, type(alpha)) -> None (recorded) or (terms, extension)
#: (kept), least recently used first, with `extension` =
#: `_appended(terms, factory(alpha, s))`, len(terms) items on; and the number
#: of terms kept in all.  Both are changed in place, under `_kept_lock`.
_kept_streams = {}
_kept_count = [0]
_kept_lock = threading.Lock()


def _appended(terms: list, stream: Iterator) -> Iterator:
    """Yield the items of `stream`, each appended to `terms` first."""
    for term in stream:
        terms.append(term)
        yield term


def _trim() -> None:
    """Forget the least recently used key past `_RECORDED_KEYS`, then drop the
    terms of the least recently used kept entries, their keys still recorded,
    until at most `_KEPT_TERMS` terms are kept.  `_summed` calls it past either bound."""
    if len(_kept_streams) > _RECORDED_KEYS:  # a call records at most one key
        entry = _kept_streams.pop(next(iter(_kept_streams)))
        if entry:
            _kept_count[0] -= len(entry[0])
    if _kept_count[0] > _KEPT_TERMS:
        for key, entry in _kept_streams.items():
            if entry:
                _kept_streams[key] = None
                _kept_count[0] -= len(entry[0])
                if _kept_count[0] <= _KEPT_TERMS:
                    break


def _summed(x, alpha, s: int, tol: float, max_terms: int, scale=1.0, factory=_term_stream) -> SeriesResult:
    """Sum a_p x^p over the kept stream `factory(alpha, s)` of (a_p, B(p+1), r_p),
    B(p+1) >= |a_m| for m > p and r_p >= sup_{m>p} B(m+1)/B(m), until `scale`
    times the tail bound B(P+1) |x|^{P+1} / (1 - |x| r_P) is <= tol; the value
    is unscaled.  x = z for `_term_stream` (at Re(alpha) >= -1, as its ratio
    needs), x = w for `_direct_stream`.

    The stream depends on (factory, alpha, s) only, and `_kept_streams` keeps
    the streams of the recently repeated keys, least recently used first, so
    rows of points at several shifts, and lens and off-lens calls on one pair,
    do not evict each other.  A first call on a key records it and keeps
    nothing: on `eval-scattered`, a new pair almost every call, keeping them
    added 7.5-9.2% to peak memory and took 1.3-5.0% off op/s.  A later call
    on a key still recorded keeps its terms and the generator that computed
    them; from then on each call sums the kept terms, and past them steps the
    kept generator and appends: no term is computed twice.  After each call
    `_trim` bounds the keys by `_RECORDED_KEYS` and the kept terms by
    `_KEPT_TERMS`, so an entry of more terms than that is dropped after its
    call.  Worst-case memory between calls, measured on CPython 3.11 x86-64:
    256 keys at about 155 bytes (40 kB), 2048 terms at about 155 bytes (317
    kB), and the generators of each kept entry (at most 256), about 1.5 kB
    plus 40 bytes per unit of s: 0.85 MB in all at s <= 10.  During a call its
    own entry may grow to `max_terms` terms.  Anything raised under
    `_kept_lock` (an `OverflowError` of a term, an interrupt) drops the key.
    Every result is bit for bit a first call's.

    Each term forms only the bound's numerator y = scale B(p+1) |x|^{p+1}, and
    y / (1 - rho) only once y <= tol or p = max_terms.  No stop moves: at 0 <=
    rho < 1 the rounded quotient is >= y, and a nan y fails both tests.
    """
    ax = abs(x)
    total = 0.0
    x_pow = 1.0
    ax_pow = ax
    key = (factory, alpha, s, type(alpha))  # 0.0 == 0j; their terms differ in type
    with _kept_lock:
        entry = _kept_streams.pop(key, False)
        if entry is None:  # recorded: keep the terms from this call on
            terms = []
            entry = terms, _appended(terms, factory(alpha, s))
        _kept_streams[key] = entry or None  # a first call (False) records the key only
        kept = len(entry[0]) if entry else 0
        try:
            for p, (a_p, b_next, ratio) in enumerate(chain(*entry) if entry else factory(alpha, s), 1):
                x_pow *= x
                ax_pow *= ax
                total += a_p * x_pow
                y = scale * b_next * ax_pow
                if y <= tol or p >= max_terms:
                    rho = ax * ratio
                    bound = y / (1.0 - rho) if rho < 1.0 else math.inf
                    if bound <= tol or p >= max_terms:
                        break
        except BaseException:
            del _kept_streams[key]
            _kept_count[0] -= kept
            raise
        if entry:
            _kept_count[0] += len(entry[0]) - kept
        if len(_kept_streams) > _RECORDED_KEYS or _kept_count[0] > _KEPT_TERMS:
            _trim()
    return SeriesResult(total, p, bound, bound <= tol, _METHODS[factory])


def lerch_accelerated(
    w: complex,
    shift: ShiftParam,
    s: int,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Evaluate Li(w; alpha, s) for Re(w) < 1/2: on the lens |w - 1| < 1 by
    the defining series, as `lerch_direct` sums it (a shift near a pole needs
    no peeling there); elsewhere by the series in z = w/(w-1), `_z_series`.

    |z| = |w|/|w - 1|, so |w| < |z| exactly when |w - 1| < 1: the lens is
    where the defining series converges faster.  Every w <= 0 and every
    |w| >= 1 lies off it.
    """
    w = _require_finite(w, "w")
    exact._check_count(s, "order s")
    tol = _check_tolerance(tol)
    exact._check_count(max_terms, "max_terms")
    if w.real >= 0.5:
        raise DomainError(f"Re(w) must be < 1/2, got Re(w) = {w.real}")
    if abs(w - 1) < 1.0:
        return _summed(w, shift.alpha, s, tol, max_terms, 1.0, _direct_stream)
    return _z_series(w, shift.alpha, s, tol, max_terms)


def _pole_terms(alpha: complex) -> int:
    """K = floor(-Re alpha) + 1, the head terms `_z_series` peels so that the
    series in z runs at Re(alpha + K) > 0; 0 where Re(alpha) >= -1/2."""
    return math.floor(-alpha.real) + 1 if alpha.real < -0.5 else 0


def _z_series(w: complex, alpha: complex, s: int, tol: float, max_terms: int) -> SeriesResult:
    """Li(w; alpha, s) through the series in z = w/(w-1), at checked arguments
    with Re(w) < 1/2 (|z| < 1 exactly on that half-plane).

    Pole peeling: if Re(alpha) < -1/2, the K = `_pole_terms(alpha)` head terms
    w^n (1/(alpha+n))^s of the shift relation are the K-th partial sum of
    `_partial_sums` over `_direct_terms`, then the series in z at alpha+K is
    summed, where Re(alpha+K) > 0 and no f_i is near a pole.  `terms_used`
    counts both; the stream is kept under (alpha+K, s).  If K >= `max_terms`,
    the first `max_terms` head terms are returned with bound inf.

    Stopping rule: after P terms the tail is at most B(P+1) |z|^{P+1} /
    (1 - rho), rho = |z| * sup_{p > P} B(p+1)/B(p), with B(p) = (p-1)!/
    prod_{j<=p}|alpha+j| * H_p^{s-1} the majorant `_term_stream` yields
    (H_p = sum_{i<=p} 1/|alpha+i|, growing like ln p) and the sup bounded as
    in `_term_stream`.  Convergence is declared once this bound, times |w|^K
    for a peeled call, is <= tol; while rho >= 1 more terms are added.
    """
    z = w / (w - 1)
    if k := _pole_terms(alpha):
        w_pow, head = next(islice(_partial_sums(w, _direct_terms(alpha, s)), min(k, max_terms) - 1, None))
        if k >= max_terms:
            return SeriesResult(head, max_terms, math.inf, False, "z")
        if not math.isfinite(abs(w_pow)):
            raise OverflowError(f"|w|^K overflows binary64 at |w| = {abs(w)}, K = {k}")
        inner = _summed(z, alpha + k, s, tol, max_terms - k, abs(w_pow))
        return inner._replace(value=head + w_pow * inner.value, terms_used=k + inner.terms_used)
    return _summed(z, alpha, s, tol, max_terms)


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
    times -1/(1 - 2^{1-s}), with its bound times 1/(1 - 2^{1-s}).
    """
    if not isinstance(s, int) or s < 2:
        raise DomainError(f"zeta series needs integer s >= 2, got {s!r} (s = 1 is the pole)")
    tol = _check_tolerance(tol)
    exact._check_count(max_terms, "max_terms")
    factor = 1.0 / (1.0 - 2.0 ** (1 - s))
    result = _summed(0.5, 0.0, s, tol, max_terms, factor)
    return result._replace(value=complex(-factor * result.value.real))
