"""Property harness binding the exact and float layers.

Each `verify_*` operation sweeps one identity, recurrence or bound over a
desk-scale parameter grid and returns a `VerificationReport`, which one fold,
`_exact_report` or `_float_report`, builds from the cases it yields.
Exact-rational checks demand bit-exact equality (residual 0) of integers: the
kernels run on `exact._Scaled`, and both sides of an identity carry the same
power of the shift's one denominator G, which a failing case divides back out.
Floating-point checks use an absolute residual for values of magnitude <= 1
and a relative one otherwise.

`LEMMA_PROOF_IDENTITIES` names every displayed identity of the combinatorial
proof and the report that exercises it, so a dropped check fails the
completeness meta-test rather than silently narrowing coverage.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import exact, series
from .series import ShiftParam

#: Rational shift grid: integer and non-integer, sub-unit and super-unit.
DEFAULT_BETAS: Tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 3),
    Fraction(5),
)
DEFAULT_ALPHAS: Tuple[Fraction, ...] = tuple(b - 1 for b in DEFAULT_BETAS)

#: Shift grid for float checks (real, rational and genuinely complex).
DEFAULT_SHIFTS: Tuple[complex, ...] = (0j, 0.5 + 0j, 1j, -0.5 + 0.5j)

#: Eight evaluation points with |z| <= 0.4 (real, imaginary and mixed).
DEFAULT_Z_GRID: Tuple[complex, ...] = (
    0.4 + 0j,
    -0.4 + 0j,
    0.3j,
    -0.25j,
    0.2 + 0.2j,
    -0.3 + 0.1j,
    0.25 - 0.28j,
    -0.15 - 0.35j,
)

DEFAULT_Q_MAX = 12
DEFAULT_STEP_Q_MAX = 11
DEFAULT_S_MAX = 5
DEFAULT_B_MAX = 8
DEFAULT_T_MAX = 4
DEFAULT_P_MAX_EXACT = 40
DEFAULT_P_MAX_INNER = 30
DEFAULT_P_MAX_FLOAT = 200
DEFAULT_FLOAT_TOL = 1e-10
SONDOW_P = 60
LEMMA_COMPLEX_Q = 8
#: The complex betas and the tolerance of `lemma_complex_spot`; the relative
#: tolerance of the float c_p against the exact ones; the relative slack of
#: |c_p| over its majorant B(p); the tolerance asked of the evaluators.
LEMMA_COMPLEX_BETAS: Tuple[complex, ...] = (1 + 1j, 0.5 + 2j, 2.5 - 1j)
LEMMA_COMPLEX_TOL = 1e-9
COEFFICIENT_REL_TOL = 1e-12
COEFFICIENT_BOUND_SLACK = 1e-10
EVALUATOR_TOL = 1e-12

#: Displayed identities of the combinatorial proof -> report that checks them.
LEMMA_PROOF_IDENTITIES: Dict[str, str] = {
    "L(q, beta) = R(q, beta)": "lemma",
    "L(0, beta) = R(0, beta)": "lemma_base_cases",
    "L(1, beta) = R(1, beta)": "lemma_base_cases",
    "L(q+1, beta) = L(q, beta) - L(q, beta+1)": "recurrence_L",
    "R(q+1, beta) = R(q, beta) - R(q, beta+1)": "recurrence_R",
    "S_a^c(t) = sum_{u+v=t} S_a^b(u) S_{b+1}^c(v)": "splitting",
    "S_{a-1}^{b+1}(t) = sum_{u+v+w=t} f_{a-1}^u S_a^b(v) f_{b+1}^w": "splitting",
}


class VerificationReport(NamedTuple):
    """Outcome of sweeping one identity over a grid; one that ran no case fails."""

    identity_name: str
    grid_description: str
    cases_run: int = 0
    cases_failed: int = 0
    worst_residual: float = 0.0
    failing_cases: Sequence[tuple] = ()

    @property
    def passed(self) -> bool:
        return self.cases_run > 0 and self.cases_failed == 0

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "grid": self.grid_description,
            "cases_run": self.cases_run,
            "cases_failed": self.cases_failed,
            "worst_residual": self.worst_residual,
            "failing_cases": [[str(x) for x in case] for case in self.failing_cases],
        }


def _exact_report(name: str, grid: str, cases: Iterable[tuple]) -> VerificationReport:
    """The report of exact cases (params, lhs, rhs, scale), each passing when
    lhs == rhs.  A pass has residual 0, so only a failure moves the worst, and
    only a failure pays for the subtraction.  Sides read from integer tables
    are the values times `scale`: the residual is divided back to true units."""
    failing, worst, run = [], 0.0, 0
    for run, (params, lhs, rhs, scale) in enumerate(cases, 1):
        if lhs != rhs:
            failing.append(params)
            worst = max(worst, abs(float((lhs - rhs) / scale)))
    return VerificationReport(name, grid, run, len(failing), worst, failing)


def _float_report(name: str, grid: str, tol: float, cases: Iterable[tuple]) -> VerificationReport:
    """The report of float cases (params, residual), each passing when
    residual <= tol, so a nan fails; every residual but a nan moves the worst."""
    failing, worst, run = [], 0.0, 0
    for run, (params, residual) in enumerate(cases, 1):
        if residual > worst:
            worst = residual
        if not residual <= tol:
            failing.append(params)
    return VerificationReport(name, grid, run, len(failing), worst, failing)


def float_residual(value: complex, reference: complex) -> float:
    """Absolute difference for |reference| <= 1, relative otherwise."""
    diff = abs(value - reference)
    magnitude = abs(reference)
    return diff if magnitude <= 1.0 else diff / magnitude


def _rationals(values: Optional[Iterable], default: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    return default if values is None else tuple(Fraction(v) for v in values)


def _lhs_values(x0: exact._Scaled, q_max: int, s_max: int) -> Dict[Tuple[int, int], int]:
    """{(q, s): L(q, beta) G^{q+s}} for q <= q_max, 1 <= s <= s_max, where x0
    is beta with its G: per s, `exact._alternating_sums` folds every q by
    multiplying the signed rows by one list of the int weights (G/(beta + m))^s,
    as floats fold by dividing by the powers (beta + m)^s."""
    G_powers = [x0.G**q for q in range(q_max + 1)]
    return {
        (q, s): lhs * G_powers[q]
        for s in range(1, s_max + 1)
        for q, lhs in zip(range(q_max + 1), exact._alternating_sums(x0, s))
    }


def _rhs_values(x0, q_max: int, s_max: int) -> Dict[Tuple[int, int], object]:
    """{(q, s): R(q, beta)} for q <= q_max, 1 <= s <= s_max, from one
    depth-column pass, in the number type of x0: for a `_Scaled` beta the
    values are ints scaled by G^{q+s} (the column at q holds S_0^q(s - 1)
    G^{s-1}, the prefactor is scaled by G^{q+1}); a float or complex beta
    gives R itself."""
    return {
        (q, s): prefactor * col[s - 1]
        for q, prefactor, col in exact._depth_columns(x0, s_max - 1, 0, q_max)
        for s in range(1, s_max + 1)
    }


# ---------------------------------------------------------------------------
# exact-layer identities
# ---------------------------------------------------------------------------


def verify_lemma(
    q_max: int = DEFAULT_Q_MAX,
    s_max: int = DEFAULT_S_MAX,
    betas: Optional[Iterable[Fraction]] = None,
) -> VerificationReport:
    """L(q, beta) = R(q, beta) exactly on the full (q, s, beta) grid."""
    betas = _rationals(betas, DEFAULT_BETAS)
    tables = []
    for beta in betas:
        exact._check_beta(beta)
        x0 = exact._Scaled(beta, 0, q_max)
        tables.append((beta, x0.G, _lhs_values(x0, q_max, s_max), _rhs_values(x0, q_max, s_max)))
    cases = (
        ((q, s, beta), L[q, s], R[q, s], G ** (q + s))
        for q in range(q_max + 1) for s in range(1, s_max + 1) for beta, G, L, R in tables
    )
    return _exact_report("lemma", f"q <= {q_max}, s <= {s_max}, {len(betas)} betas", cases)


def verify_base_cases(
    s_max: int = DEFAULT_S_MAX,
    betas: Optional[Iterable[Fraction]] = None,
) -> VerificationReport:
    """The q = 0 and q = 1 base cases, including the displayed middle form

        L(1, beta) = 1/beta^s - 1/(beta+1)^s
                   = 1/(beta (beta+1)) * sum_{u+v=s-1} beta^{-u} (beta+1)^{-v}.
    """
    betas = _rationals(betas, DEFAULT_BETAS)

    def cases():  # a chain of equalities is one predicate: it fails with residual 1
        for s in range(1, s_max + 1):
            for beta in betas:
                p0 = exact.LemmaParams(0, s, beta)  # validates beta before any division
                closed0 = 1 / beta**s
                yield (0, s, beta), exact.lemma_lhs(p0) == closed0 == exact.lemma_rhs(p0), True, 1

                p1 = exact.LemmaParams(1, s, beta)
                difference = 1 / beta**s - 1 / (beta + 1) ** s
                middle = sum(
                    (beta**-u * (beta + 1) ** -v for u in range(s) for v in [s - 1 - u]),
                    Fraction(0),
                ) / (beta * (beta + 1))
                ok1 = exact.lemma_lhs(p1) == difference == middle == exact.lemma_rhs(p1)
                yield (1, s, beta), ok1, True, 1

    return _exact_report("lemma_base_cases", f"q in {{0, 1}}, s <= {s_max}, {len(betas)} betas", cases())


def _step_check(
    name: str, grid: str, side_values, q_lo: int, q_max: int, s_max: int, betas: Tuple[Fraction, ...],
) -> VerificationReport:
    """side(q+1, beta) = side(q, beta) - side(q, beta+1) exactly, for
    q_lo <= q <= q_max, read from two tables `side_values(x0, q_max + 1, s_max)`
    per beta, one of beta and one of beta + 1, over one G: beta's on the
    indices 0 .. q_max + 2, which are beta + 1's on -1 .. q_max + 1.  Entry
    (q, s) is scaled by G^{q+s}, so the difference is multiplied by G."""
    tables = []
    for beta in betas:
        exact._check_beta(beta)
        x0 = exact._Scaled(beta, 0, q_max + 2)
        x1 = exact._Scaled(beta + 1, -1, q_max + 1)
        tables.append((beta, x0.G, side_values(x0, q_max + 1, s_max), side_values(x1, q_max + 1, s_max)))
    cases = (
        ((q, s, beta), here[q + 1, s], G * (here[q, s] - there[q, s]), G ** (q + 1 + s))
        for q in range(q_lo, q_max + 1) for s in range(1, s_max + 1) for beta, G, here, there in tables
    )
    return _exact_report(name, grid, cases)


def verify_recurrence_L(
    q_max: int = DEFAULT_STEP_Q_MAX,
    s_max: int = DEFAULT_S_MAX,
    betas: Optional[Iterable[Fraction]] = None,
) -> VerificationReport:
    """L(q+1, beta) = L(q, beta) - L(q, beta+1) exactly, for 0 <= q <= q_max."""
    betas = _rationals(betas, DEFAULT_BETAS)
    grid = f"step q <= {q_max}, s <= {s_max}, {len(betas)} betas"
    return _step_check("recurrence_L", grid, _lhs_values, 0, q_max, s_max, betas)


def verify_recurrence_R(
    q_max: int = DEFAULT_STEP_Q_MAX,
    s_max: int = DEFAULT_S_MAX,
    betas: Optional[Iterable[Fraction]] = None,
) -> VerificationReport:
    """R(q+1, beta) = R(q, beta) - R(q, beta+1) exactly, for 1 <= q <= q_max.

    The q = 0 step also holds but is asserted separately by
    `verify_recurrence_R_base` (the recurrence is only claimed from q = 1).
    """
    betas = _rationals(betas, DEFAULT_BETAS)
    grid = f"step 1 <= q <= {q_max}, s <= {s_max}, {len(betas)} betas"
    return _step_check("recurrence_R", grid, _rhs_values, 1, q_max, s_max, betas)


def verify_recurrence_R_base(
    s_max: int = DEFAULT_S_MAX,
    betas: Optional[Iterable[Fraction]] = None,
) -> VerificationReport:
    """R(1, beta) = R(0, beta) - R(0, beta+1): the unclaimed q = 0 step."""
    betas = _rationals(betas, DEFAULT_BETAS)
    grid = f"q = 0, s <= {s_max}, {len(betas)} betas"
    return _step_check("recurrence_R_q0", grid, _rhs_values, 0, 0, s_max, betas)


def verify_splitting(betas: Optional[Iterable[Fraction]] = None) -> VerificationReport:
    """Both block-splitting identities of the multiple harmonic sum, exactly:

        S_a^c(t) = sum_{u+v=t} S_a^b(u) S_{b+1}^c(v)          (0 <= a <= b < c)
        S_{a-1}^{b+1}(t) = sum_{u+v+w=t} f_{a-1}^u S_a^b(v) f_{b+1}^w   (1 <= a <= b)

    Each beta gets one table of S_a^b(t) for 0 <= a <= b <= b_max = `DEFAULT_B_MAX`,
    t <= t_max = `DEFAULT_T_MAX`, one depth column per start a, in integers over
    the G of beta on 0 .. b_max: S[a][b] is the tuple of S_a^b(t) over t
    (S[a][b] for b < a is unused), and f_n^u = 1/(beta + n)^u is its entry
    S[n][n][u].  Each sum over u + v = k is one dot product of a column with
    the reversed head of another.  Both sides of each identity at depth t are
    scaled by G^t.  ZeroDivisionError names an n in [0, b_max] at which
    beta + n vanishes.
    """
    b_max, t_max = DEFAULT_B_MAX, DEFAULT_T_MAX
    betas = _rationals(betas, DEFAULT_BETAS)

    def cases():
        for beta in betas:
            exact.MultiSumSpec(0, b_max, t_max, beta)  # rejects a pole before any table work
            x0 = exact._Scaled(beta, 0, b_max)
            S = [
                [()] * a + [tuple(col) for _, _, col in exact._depth_columns(x0, t_max, a, b_max)]
                for a in range(b_max + 1)
            ]
            for t in range(t_max + 1):
                scale = x0.G**t
                for a in range(b_max):
                    S_a = S[a]
                    for b in range(a, b_max):
                        S_ab, S_next = S_a[b], S[b + 1]
                        for c in range(b + 1, b_max + 1):
                            rhs = sum(map(mul, S_ab, S_next[c][t::-1]))
                            yield ("two", a, b, c, t, beta), S_a[c][t], rhs, scale
                for a in range(1, b_max):
                    f_lo = S[a - 1][a - 1]
                    for b in range(a, b_max):
                        inner, f_hi = S[a][b], S[b + 1][b + 1]
                        rhs = 0
                        for u in range(t + 1):
                            rhs += f_lo[u] * sum(map(mul, inner, f_hi[t - u :: -1]))
                        yield ("three", a, b, t, beta), S[a - 1][b + 1][t], rhs, scale

    grid = f"0 <= a <= b < c <= {b_max}, t <= {t_max}, {len(betas)} betas"
    return _exact_report("splitting", grid, cases())


# ---------------------------------------------------------------------------
# float-layer checks
# ---------------------------------------------------------------------------


def verify_lemma_complex(s_max: int = 4) -> VerificationReport:
    """Floating-point spot check of L = R at the complex `LEMMA_COMPLEX_BETAS`,
    q <= `LEMMA_COMPLEX_Q`, to `LEMMA_COMPLEX_TOL`.

    The exact layer only covers rational beta; this closes the gap.  q stays
    small because the alternating sum loses ~2^q of precision to cancellation.
    """
    def cases():
        for beta in LEMMA_COMPLEX_BETAS:
            lhs = {s: exact._alternating_sums(beta, s) for s in range(1, s_max + 1)}
            rhs = _rhs_values(beta, LEMMA_COMPLEX_Q, s_max)
            for q in range(LEMMA_COMPLEX_Q + 1):
                for s in range(1, s_max + 1):
                    yield (q, s, beta), float_residual(next(lhs[s]), rhs[q, s])

    grid = f"q <= {LEMMA_COMPLEX_Q}, s <= {s_max}, complex betas"
    return _float_report("lemma_complex_spot", grid, LEMMA_COMPLEX_TOL, cases())


def verify_proposition(s_max: int = 3, tol: float = DEFAULT_FLOAT_TOL) -> VerificationReport:
    """The series in z against the direct-series oracle at w = -z/(1-z), for
    z in `DEFAULT_Z_GRID` and alpha in `DEFAULT_SHIFTS`.

    Every z has |z| <= 0.4, so the direct series converges comfortably (|w| < 1).
    The series in z is summed by `series._z_series`, not `lerch_accelerated`:
    on the lens |w - 1| < 1 that sums the defining series, and the check would
    compare `lerch_direct` with itself.
    """
    def cases():
        for shift in map(ShiftParam, DEFAULT_SHIFTS):
            for s in range(1, s_max + 1):
                for z in DEFAULT_Z_GRID:
                    w = series.disk_to_half_plane(z)
                    in_z = series._z_series(w, shift.alpha, s, EVALUATOR_TOL, series.DEFAULT_MAX_TERMS)
                    direct = series.lerch_direct(w, shift, s, tol=EVALUATOR_TOL)
                    yield (z, shift.alpha, s), abs(in_z.value - direct.value)

    grid = f"{len(DEFAULT_Z_GRID)} z points (|z| <= 0.4), {len(DEFAULT_SHIFTS)} shifts, s <= {s_max}"
    return _float_report("proposition_oracle", grid, tol, cases())


def _coefficient_report(
    name: str, grid: str, side_values, alphas: Iterable[Fraction], orders: range, p_max: int,
) -> VerificationReport:
    """The report `name` on `grid` of c_p = -side(p - 1, alpha + 1) against the
    float c_p that `series._summed` sums, from `series._term_stream`, to a
    relative `COEFFICIENT_REL_TOL` (absolute where c_p = 0), one case (p,
    alpha, s) per p <= p_max, alpha and s in orders.  Each alpha has one table `side_values(x0, p_max - 1,
    max(orders))` over the G of x0 = alpha + 1 on 0 .. p_max - 1: c_p is
    entry (p - 1, s) over G^{p-1+s}, one int / int, correctly rounded as
    float(Fraction) is; the powers of G are taken once per alpha."""
    s_top = max(orders, default=0)  # an empty grid runs no case

    def cases():
        for alpha in alphas:
            shift = ShiftParam(complex(float(alpha)))
            x0 = exact._Scaled(alpha + 1, 0, p_max - 1)
            table = side_values(x0, p_max - 1, s_top)
            G_powers = [x0.G**k for k in range(p_max + s_top)]
            for s in orders:
                float_stream = series._term_stream(shift.alpha, s)
                for p, (c_float, _, _) in zip(range(1, p_max + 1), float_stream):
                    c_exact = -table[p - 1, s] / G_powers[p - 1 + s]
                    error = abs(c_float - c_exact)
                    yield (p, alpha, s), error / abs(c_exact) if c_exact else error

    return _float_report(name, grid, COEFFICIENT_REL_TOL, cases())


def verify_coefficient_consistency(
    p_max: int = DEFAULT_P_MAX_EXACT, s_max: int = DEFAULT_S_MAX
) -> VerificationReport:
    """The float c_p against the product form -R(p - 1, alpha + 1) of
    `_rhs_values`, at `DEFAULT_ALPHAS`."""
    grid = f"p <= {p_max}, s <= {s_max}, {len(DEFAULT_ALPHAS)} rational alphas"
    orders = range(1, s_max + 1)
    return _coefficient_report("coefficient_consistency", grid, _rhs_values, DEFAULT_ALPHAS, orders, p_max)


def verify_euler_inner_sums(
    p_max: int = DEFAULT_P_MAX_INNER, s_max: int = DEFAULT_S_MAX
) -> VerificationReport:
    """The float c_p against the inner binomial sums -L(p - 1, alpha + 1) of
    `_lhs_values`, at `DEFAULT_ALPHAS`: the numeric shadow of L = R.  L is
    exact, as the alternating route loses ~2^p of binary64 precision to
    cancellation, which would swamp a 1e-12 comparison by p ~ 20."""
    grid = f"p <= {p_max}, s <= {s_max}, {len(DEFAULT_ALPHAS)} rational alphas"
    orders = range(1, s_max + 1)
    return _coefficient_report("euler_inner_consistency", grid, _lhs_values, DEFAULT_ALPHAS, orders, p_max)


def verify_coefficient_bound(p_max: int = DEFAULT_P_MAX_FLOAT, s_max: int = 6) -> VerificationReport:
    """|c_p| <= coefficient majorant B(p) * (1 + `COEFFICIENT_BOUND_SLACK`)
    across `DEFAULT_SHIFTS`: B(1) = |alpha+1|^{-s}, and B(p + 1) is read with
    c_p from the series' own term stream.  At the real shifts alpha > -1,
    where B(p + 1) = |c_p|, this tests |c_{p+1}| <= |c_p|."""
    def cases():
        for shift in map(ShiftParam, DEFAULT_SHIFTS):
            for s in range(1, s_max + 1):
                bound = abs(shift.alpha + 1) ** -s
                for p, (c_p, b_next, _) in zip(range(1, p_max + 1), series._term_stream(shift.alpha, s)):
                    excess = abs(c_p) / bound - 1.0 if bound > 0 else math.inf
                    yield (p, shift.alpha, s), max(excess, 0.0)
                    bound = b_next

    grid = f"p <= {p_max}, s <= {s_max}, {len(DEFAULT_SHIFTS)} shifts"
    return _float_report("coefficient_bound", grid, COEFFICIENT_BOUND_SLACK, cases())


def verify_ap_bound(p_max: int = DEFAULT_P_MAX_FLOAT, s_max: int = 6) -> VerificationReport:
    """0 < a_p <= (1 + ln p)^{s-1}, and a_p nondecreasing in p."""
    def cases():  # each case is one predicate: it fails with residual 1
        for s in range(1, s_max + 1):
            previous = 0.0
            for p, _, col in exact._depth_columns(0, s - 1, 1, p_max):
                a_p = col[s - 1]
                yield (p, s), 0.0 < a_p <= (1.0 + math.log(p)) ** (s - 1) and a_p >= previous, True, 1
                previous = a_p

    return _exact_report("ap_bound", f"p <= {p_max}, s <= {s_max}", cases())


def verify_sondow_form(
    s_max: int = DEFAULT_S_MAX,
    tol: float = DEFAULT_FLOAT_TOL,
) -> VerificationReport:
    """The alpha = 0, z = 1/2 special case: the binomial double sum to
    p = `SONDOW_P` agrees with the accelerated evaluator at w = -1 and with
    -(1 - 2^{1-s}) zeta(s) (with -ln 2 as the s = 1 reference)."""
    def cases():
        for s in range(1, s_max + 1):
            euler = next(islice(series._euler_partial_sums(s), SONDOW_P - 1, None))
            accelerated = series.lerch_accelerated(-1.0, ShiftParam(0j), s, tol=EVALUATOR_TOL)
            yield ("euler=accel", s), float_residual(euler, accelerated.value)
            if s == 1:
                reference = -math.log(2.0)
            else:
                zeta = series.zeta_accelerated(s, tol=EVALUATOR_TOL)
                reference = -(1.0 - 2.0 ** (1 - s)) * zeta.value.real
            yield ("euler=zeta-ref", s), float_residual(euler, reference)

    grid = f"s <= {s_max}, P = {SONDOW_P}, alpha = 0, z = 1/2"
    return _float_report("sondow_special_case", grid, tol, cases())


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

#: Each suite's checks, in report order.  Every parameter of a check is a
#: `run_suite` override; an override not given leaves the check's own default.
SUITES: Dict[str, Tuple[Callable[..., VerificationReport], ...]] = {
    "lemma": (verify_base_cases, verify_lemma, verify_lemma_complex),
    "recurrences": (verify_recurrence_L, verify_recurrence_R, verify_recurrence_R_base),
    "splitting": (verify_splitting,),
    "proposition": (verify_proposition, verify_coefficient_consistency, verify_euler_inner_sums),
    "bounds": (verify_coefficient_bound, verify_ap_bound),
    "sondow": (verify_sondow_form,),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    q_max: Optional[int] = None,
    s_max: Optional[int] = None,
    p_max: Optional[int] = None,
    betas: Optional[Iterable[Fraction]] = None,
    tol: Optional[float] = None,
) -> List[VerificationReport]:
    """Run one named suite, passing each check the given overrides that its
    code object names as parameters; a given tol must be > 0 and finite."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if betas is not None:
        betas = tuple(betas)  # every check of the suite reads the shifts
    given = dict(q_max=q_max, s_max=s_max, p_max=p_max, betas=betas, tol=tol)
    given = {key: value for key, value in given.items() if value is not None}
    if name == "all":
        return [report for suite in SUITES for report in run_suite(suite, **given)]
    return [
        check(**{k: given[k] for k in check.__code__.co_varnames[: check.__code__.co_argcount] if k in given})
        for check in SUITES[name]
    ]
