"""Command-line front end: evaluation, zeta, identity verification, and
convergence benchmarking with machine-readable (JSON/CSV) output.

Exit codes: 0 success, 1 usage/domain error, 2 non-convergence or
verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from . import exact, series
from .series import SeriesResult, ShiftParam

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

#: Terms of the exact benchmark reference: its tail is at most 2^-64.
REFERENCE_TERMS = 64
#: `eval --alpha-rat` checks the float c_p against the exact ones for p <= CROSSCHECK_P.
CROSSCHECK_P = 20


class ConvergenceRow(NamedTuple):
    """One (method, s, tolerance) benchmark outcome."""

    method: str
    s: int
    z_re: float
    z_im: float
    tol: float
    terms: int
    achieved_error: float


CSV_HEADER = ConvergenceRow._fields


def rows_to_csv(rows: Sequence[ConvergenceRow], notes: Sequence[str] = ()) -> str:
    # csv writes a float as str(x), the shortest repr that reads back exactly.
    import csv  # only `bench` writes CSV
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for note in notes:
        out.write(f"# {note}\r\n")
    writer.writerows(rows)
    return out.getvalue()


def _json_ready(value):
    """`value` with every non-finite float, at any depth, replaced by None:
    JSON (RFC 8259) has no token for inf or nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    return value


def rows_to_json(rows: Sequence[ConvergenceRow], notes: Sequence[str] = ()) -> str:
    return json.dumps(_json_ready({"notes": list(notes), "rows": [r._asdict() for r in rows]}), indent=2)


def parse_complex(text: str) -> complex:
    """'RE' or 'RE,IM' -> complex."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def parse_rational(text: str) -> Fraction:
    """'P/Q' or 'P' -> Fraction (exact); 'P/0' is a ValueError (usage error)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _parse_float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mhlerch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol",
            type=float,
            default=series.DEFAULT_TOL,
            help="converged means error_bound <= tol * max(1, |value|); error_bound is absolute and counts "
            "rounding as well as truncation; tol >= 1e-13 (default %(default)s)",
        )
        p.add_argument("--max-terms", type=int, default=series.DEFAULT_MAX_TERMS)
        p.add_argument("--json", metavar="PATH", help="also write the JSON output to PATH")

    p_eval = sub.add_parser("eval", help="evaluate the shifted polylogarithm")
    p_eval.add_argument("--s", type=int, required=True)
    point = p_eval.add_mutually_exclusive_group(required=True)
    point.add_argument("--w", type=parse_complex, help="argument w (RE or RE,IM)")
    point.add_argument("--z", type=parse_complex, help="series variable z = w/(w-1)")
    shift_group = p_eval.add_mutually_exclusive_group()
    shift_group.add_argument("--alpha", type=parse_complex, default=0j)
    shift_group.add_argument(
        "--alpha-rat",
        type=parse_rational,
        help="exact rational shift P/Q; cross-checks the coefficients of the series in z where it is summed",
    )
    p_eval.add_argument("--method", choices=("accelerated", "direct"), default="accelerated")
    common(p_eval)

    p_zeta = sub.add_parser("zeta", help="evaluate zeta(s), s >= 2")
    p_zeta.add_argument("--s", type=int, required=True)
    common(p_zeta)

    p_verify = sub.add_parser("verify", help="run identity/bound verification suites")
    suites = "{lemma,recurrences,splitting,proposition,bounds,sondow,all}"  # not `choices`: no verify import
    p_verify.add_argument("--suite", default="all", metavar=suites, help="suite to run (default: all)")
    p_verify.add_argument("--q-max", type=int, default=None)
    p_verify.add_argument("--s-max", type=int, default=None)
    p_verify.add_argument("--p-max", type=int, default=None)
    p_verify.add_argument(
        "--beta",
        type=parse_rational,
        action="append",
        default=None,
        help="rational beta grid point (repeatable); default is the built-in grid",
    )
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--json", metavar="PATH")

    p_bench = sub.add_parser("bench", help="terms-to-tolerance comparison of the methods")
    p_bench.add_argument("--s-list", type=_parse_int_list, default=[2, 3, 4])
    p_bench.add_argument("--tol-list", type=_parse_float_list, default=[1e-6, 1e-10])
    p_bench.add_argument("--max-terms", type=int, default=series.DEFAULT_MAX_TERMS)
    p_bench.add_argument("--csv", metavar="PATH", help="also write the CSV to PATH")
    p_bench.add_argument("--json", metavar="PATH", help="also write the rows as JSON to PATH")

    return parser


def _result_payload(result: SeriesResult) -> dict:
    return {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "terms_used": result.terms_used,
        "error_bound": result.error_bound,
        "converged": result.converged,
    }


def _exact_crosscheck(alpha: Fraction, s: int) -> dict:
    """Compare the float c_p that `series._term_stream` yields at alpha with
    the exact c_p = -R(p - 1, alpha + 1); the dict names alpha.  `eval` runs
    it only where the series in z was summed, at the shift `series._z_series`
    sums it, alpha + `series._pole_terms(alpha)`, and exits 2 when it fails."""
    from . import verify
    p_max = CROSSCHECK_P
    report = verify._coefficient_report(
        "exact_crosscheck", f"p <= {p_max}, s = {s}", verify._rhs_values, (alpha,), range(s, s + 1), p_max
    )
    return {"alpha": str(alpha), "p_max": p_max, "max_rel_err": report.worst_residual, "ok": report.passed}


def _emit_json(payload, out: Optional[TextIO]) -> None:
    text = json.dumps(_json_ready(payload), indent=2)
    print(text)
    if out:
        out.write(text + "\n")


def cmd_eval(args, outputs: Dict[str, TextIO]) -> int:
    shift = ShiftParam(args.alpha if args.alpha_rat is None else float(args.alpha_rat))
    w = args.w if args.w is not None else series.disk_to_half_plane(args.z)
    evaluate = series.lerch_direct if args.method == "direct" else series.lerch_accelerated
    result = evaluate(w, shift, args.s, args.tol, args.max_terms)

    payload = _result_payload(result)
    passed = result.converged
    if args.alpha_rat is not None:  # the coefficients of the series in z, if any was summed
        k = series._pole_terms(shift.alpha)
        check = None
        if result.method == "z" and result.terms_used > k:  # not the K peeled head terms alone
            check = _exact_crosscheck(args.alpha_rat + k, args.s)
            passed = passed and check["ok"]
        payload["exact_crosscheck"] = check
    _emit_json(payload, outputs.get("json"))
    return EXIT_OK if passed else EXIT_NOT_CONVERGED


def cmd_zeta(args, outputs: Dict[str, TextIO]) -> int:
    result = series.zeta_accelerated(args.s, args.tol, args.max_terms)
    certificate = {k: v for k, v in _result_payload(result).items() if not k.startswith("value_")}
    payload = {"s": args.s, "value": result.value.real, **certificate}
    _emit_json(payload, outputs.get("json"))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_verify(args, outputs: Dict[str, TextIO]) -> int:
    from . import verify
    given = dict(q_max=args.q_max, s_max=args.s_max, p_max=args.p_max, betas=args.beta, tol=args.tol)
    reports = verify.run_suite(args.suite, **given)
    _emit_json([r.to_dict() for r in reports], outputs.get("json"))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NOT_CONVERGED


def _terms_to_reach(
    partial_sums: Iterable[complex], scale: float, reference: float, tol: float, max_terms: int
) -> Tuple[int, float]:
    """(n, error) at the first of the first `max_terms` partial sums whose
    scaled real part lies within tol of the reference, else at the last."""
    for n, total in enumerate(islice(partial_sums, max_terms), 1):
        error = abs(scale * total.real - reference)
        if error <= tol:
            break
    return n, error


def _compensated_sums(terms: Iterable[float]) -> Iterator[float]:
    """Yield the running sums of `terms` by Neumaier's compensated summation:
    each within about 2u |sum| (to first order) of the exact partial sum of
    the terms as given, where a plain running sum drifts by up to u per term."""
    total = compensation = 0.0
    for term in terms:
        following = total + term
        if abs(total) >= abs(term):
            compensation += (total - following) + term
        else:
            compensation += (term - following) + total
        total = following
        yield total + compensation


def bench_rows(
    s_list: Sequence[int],
    tol_list: Sequence[float],
    max_terms: int = series.DEFAULT_MAX_TERMS,
) -> Tuple[List[ConvergenceRow], List[str]]:
    """Terms needed per method to reach each tolerance on zeta(s).

    `accelerated` stops by its own a-posteriori rule, at error_bound <= tol
    max(1, zeta(s)), so its achieved_error may exceed tol by up to the factor
    zeta(s) <= 1.65; the other two methods
    count partial-sum terms until the error measured against the reference
    first falls below the tolerance (capped at `max_terms`, in which case the
    row's achieved_error exceeds its tol).  Their partial sums, scaled by
    -1/(1 - 2^{1-s}), are the binomial double sum `series._euler_partial_sums`
    (alpha = 0, z = 1/2) and the defining series at w = -1, alpha = 0: the
    terms of `series._direct_terms`, signed and summed by `_compensated_sums`,
    as a plain running sum over 10^5 terms drifts by about 4e-14, enough to
    move the count at s = 2, tol 1e-10.  The reference is the exact partial
    sum `exact._paper_point_sum(s, REFERENCE_TERMS)`, so scaled and rounded
    once to binary64: its tail is at most 2^-63 after scaling.
    """
    rows: List[ConvergenceRow] = []
    notes: List[str] = []
    for s in s_list:
        if s < 2:
            notes.append(f"s={s} omitted: zeta(s) series needs s >= 2 (s = 1 is the pole)")
            continue
        scale = -1.0 / (1.0 - 2.0 ** (1 - s))
        reference = float(exact._paper_point_sum(s, REFERENCE_TERMS) / (Fraction(2) ** (1 - s) - 1))
        for tol in tol_list:
            accelerated = series.zeta_accelerated(s, tol, max_terms)
            rows.append(
                ConvergenceRow(
                    "accelerated", s, 0.5, 0.0, tol,
                    accelerated.terms_used, abs(accelerated.value.real - reference),
                )
            )
            euler = series._euler_partial_sums(s)
            p, error = _terms_to_reach(euler, scale, reference, tol, max_terms)
            rows.append(ConvergenceRow("euler_transform", s, 0.5, 0.0, tol, p, error))
            signed = (-term if n % 2 else term for n, term in enumerate(series._direct_terms(0.0, s), 1))
            alternating = _compensated_sums(signed)
            n, error = _terms_to_reach(alternating, scale, reference, tol, max_terms)
            rows.append(ConvergenceRow("direct_alternating", s, -1.0, 0.0, tol, n, error))

    rows.sort(key=lambda r: (r.method, r.s, r.tol))
    return rows, notes


def cmd_bench(args, outputs: Dict[str, TextIO]) -> int:
    rows, notes = bench_rows(args.s_list, args.tol_list, args.max_terms)
    text = rows_to_csv(rows, notes)
    sys.stdout.write(text)
    if "csv" in outputs:
        outputs["csv"].write(text)
    if "json" in outputs:
        outputs["json"].write(rows_to_json(rows, notes) + "\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {"eval": cmd_eval, "zeta": cmd_zeta, "verify": cmd_verify, "bench": cmd_bench}
    try:
        with contextlib.ExitStack() as stack:
            # Every output path is opened before the command runs, as a shell
            # redirection is: one that cannot be written fails first.
            outputs = {
                kind: stack.enter_context(open(path, "w", newline="" if kind == "csv" else None))
                for kind in ("csv", "json")
                if (path := getattr(args, kind, None))
            }
            return handlers[args.command](args, outputs)
    except (ValueError, OverflowError, ZeroDivisionError, OSError) as exc:
        # ValueError covers mhlerch's DomainError, InvalidShiftError, PrecisionError;
        # OSError an output path that cannot be written
        print(f"mhlerch {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
