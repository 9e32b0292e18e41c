"""Golden grid: recorded outputs of every layer, compared bit for bit.

`golden_grid.json` holds the outputs of the functions below on fixed grids.
The test only reads the file; it never rewrites it.  A change that moves
recorded outputs on purpose re-records the grid with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the file from the current code and prints every key that
moved, grouped by function and shift, so the change can state each group and
why.  The `coefficient_stream`, `shift_gap`, `coefficient_float`,
`coefficient_bound` and `alternating_direct` keys name values the package no
longer exports; they are computed here from the private generators, through
the helpers of `test_exact` and `test_series`.  Floats are stored
as `float.hex`, complex numbers as a pair of them, `Fraction`s as `"F:"` plus
their `str` and integers as JSON integers, so a change of value or of type
shows.  Every entry must match exactly.
"""

import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from mhlerch import cli, exact, series, verify
from mhlerch.series import ShiftParam
from test_exact import kernel_coefficients
from test_series import alternating, coefficient, majorant

GRID_PATH = Path(__file__).with_name("golden_grid.json")

BETAS = (F(1), F(1, 2), F(7, 3), F(-5, 2))
ALPHAS = (F(0), F(1, 2), F(-1, 3), F(4), F(-7, 2))
SHIFTS = (0j, 0.5 + 0j, 1j, -0.5 + 0.5j, -7.3 + 0.01j, 3 - 2j, -1.999)
GAP_ALPHAS = SHIFTS + (-0.5, -1.5, -2.7, 1e6, -1000.4, -0.999999, -3 + 1e-9j, -2.0)
W_GRID = (-1.0, 0.4, -0.3 + 0.4j, -5.0, 0.3 + 2j, 0.45 - 0.1j)

#: Position of the shift (alpha or beta) among the words of each function's
#: keys; the summary of a re-recording groups moved keys by it.
SHIFT_WORD = {
    "multi_sum": 4, "lemma_lhs": 3, "lemma_rhs": 3, "coefficient_stream": 1, "coefficient_exact": 2,
    "shift_gap": 1, "_term_stream": 1, "coefficient_float": 2, "coefficient_bound": 2,
    "lerch_accelerated": 2, "lerch_direct": 2, "alternating_direct": 1,
}

CLI_COMMANDS = (
    ("eval", "--s", "2", "--w", "-1"),
    ("eval", "--s", "1", "--w", "-1", "--alpha", "0"),
    ("eval", "--s", "3", "--w=-0.3,0.4", "--alpha", "0,1"),
    ("eval", "--s", "3", "--w=-0.3,0.4", "--alpha", "0,1", "--method", "direct"),
    ("eval", "--s", "2", "--z", "0.5", "--tol", "1e-13"),
    ("eval", "--s", "4", "--w=0.3,2", "--alpha=-0.5,0.5", "--max-terms", "12"),
    ("eval", "--s", "2", "--w", "-1", "--alpha-rat", "1/2"),
    ("eval", "--s", "3", "--w=-2", "--alpha-rat=-1/3"),
    ("eval", "--s", "5", "--z=-0.4", "--alpha-rat", "7/3", "--tol", "1e-10"),
    ("eval", "--s", "2", "--w", "-1", "--alpha-rat=-3/2"),
    ("zeta", "--s", "2"),
    ("zeta", "--s", "3", "--tol", "1e-12"),
    ("zeta", "--s", "6", "--tol", "1e-13"),
    ("zeta", "--s", "5", "--max-terms", "10"),
    ("verify", "--suite", "bounds"),
    ("bench",),
    ("bench", "--s-list", "1,2,5", "--tol-list", "1e-4,1e-8"),
)


def encode(value):
    """JSON form that keeps every bit and the type of a result."""
    if isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, complex):
        return [float.hex(value.real), float.hex(value.imag)]
    if isinstance(value, F):
        return f"F:{value}"
    # The records are tuples: they are encoded before the plain tuples.
    if isinstance(value, series.SeriesResult):
        return encode([value.value, value.terms_used, value.error_bound, value.converged])
    if isinstance(value, cli.ConvergenceRow):
        return encode(list(value))
    if isinstance(value, verify.VerificationReport):
        return encode(value.to_dict())
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _exact_layer():
    out = {}
    for beta in BETAS:
        for a in (0, 1, 3):
            for b in (a, a + 2, a + 6):
                for t in (0, 1, 2, 4):
                    spec = exact.MultiSumSpec(a, b, t, beta)
                    out[f"multi_sum {a} {b} {t} {beta}"] = exact.multi_sum(spec)
        for q in (0, 1, 3, 7):
            for s in (1, 2, 4):
                params = exact.LemmaParams(q, s, beta)
                out[f"lemma_lhs {q} {s} {beta}"] = exact.lemma_lhs(params)
                out[f"lemma_rhs {q} {s} {beta}"] = exact.lemma_rhs(params)
    for alpha in ALPHAS:
        for s in (1, 2, 3, 5):
            out[f"coefficient_stream {alpha} {s}"] = kernel_coefficients(alpha, s, 12)
            for p in (1, 2, 5, 9):
                out[f"coefficient_exact {p} {alpha} {s}"] = exact.coefficient_exact(p, alpha, s)
    return out


def _series_layer():
    out = {}
    for alpha in GAP_ALPHAS:
        out[f"shift_gap {alpha}"] = series._tail_gap(complex(alpha), 1)
    for alpha in SHIFTS:
        shift = ShiftParam(alpha)
        in_domain = shift.alpha.real > -1  # of `_term_stream`, which the majorant keys read
        for s in range(1, 6):
            if in_domain:
                stream = series._term_stream(shift.alpha, s)
                out[f"_term_stream {alpha} {s}"] = [next(stream) for _ in range(30)]
            for p in (1, 2, 5, 17, 60):
                out[f"coefficient_float {p} {alpha} {s}"] = coefficient(p, alpha, s)
                if in_domain:
                    out[f"coefficient_bound {p} {alpha} {s}"] = majorant(p, alpha, s)
            for w in W_GRID:
                for tol, max_terms in ((1e-8, 10000), (1e-12, 10000), (1e-13, 15)):
                    out[f"lerch_accelerated {w} {alpha} {s} {tol} {max_terms}"] = (
                        series.lerch_accelerated(w, shift, s, tol, max_terms)
                    )
                    if abs(w) < 1:
                        out[f"lerch_direct {w} {alpha} {s} {tol} {max_terms}"] = (
                            series.lerch_direct(w, shift, s, tol, max_terms)
                        )
            for n_terms in (1, 7, 60):
                out[f"alternating_direct {alpha} {s} {n_terms}"] = alternating(alpha, s, n_terms)
    for s in range(2, 9):
        for tol, max_terms in ((1e-6, 10000), (1e-10, 10000), (1e-13, 10000), (1e-12, 8)):
            out[f"zeta_accelerated {s} {tol} {max_terms}"] = series.zeta_accelerated(s, tol, max_terms)
    return out


def _verify_layer():
    small = (F(1), F(-7, 2))
    return {
        "run_suite all": [r.to_dict() for r in verify.run_suite("all")],
        "verify_lemma_complex default": verify.verify_lemma_complex(),
        "verify_ap_bound default": verify.verify_ap_bound(),
        "verify_ap_bound small": verify.verify_ap_bound(p_max=7, s_max=3),
        "verify_recurrence_L small": verify.verify_recurrence_L(4, 3, small),
        "verify_recurrence_R small": verify.verify_recurrence_R(4, 3, small),
        "verify_recurrence_R_base small": verify.verify_recurrence_R_base(3, small),
        "verify_splitting small": verify.verify_splitting(small),
        "verify_splitting pole past b_max": verify.verify_splitting(betas=[F(-9)]),
    }


def _cli_layer():
    rows, notes = cli.bench_rows([1, 2, 3, 4, 5, 6], [1e-6, 1e-10])
    out = {"bench_rows": [rows, notes]}
    for argv in CLI_COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(argv))
        out["main " + " ".join(argv)] = [code, stdout.getvalue()]
    return out


LAYERS = {"exact": _exact_layer, "series": _series_layer, "verify": _verify_layer, "cli": _cli_layer}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GRID_PATH.read_text())


@pytest.mark.parametrize("layer", list(LAYERS))
def test_golden_grid(golden, layer):
    recorded = golden[layer]
    current = {k: encode(v) for k, v in LAYERS[layer]().items()}
    assert current.keys() == recorded.keys()
    mismatched = [key for key, value in recorded.items() if value != current[key]]
    assert not mismatched, f"{len(mismatched)} of {len(recorded)} differ, first: {mismatched[:5]}"


def rerecord():
    """Rewrite `golden_grid.json` from the current code and print, layer by
    layer, every key that moved (or is new), grouped by function and shift."""
    grid = json.loads(GRID_PATH.read_text())
    for layer, build in LAYERS.items():
        recorded = grid.get(layer, {})
        current = {k: encode(v) for k, v in build().items()}
        groups = {}
        for key, value in current.items():
            if recorded.get(key) == value:
                continue
            function, *args = key.split(" ")
            at = SHIFT_WORD.get(function)
            groups.setdefault((function, args[at - 1] if at else "-"), []).append(key)
        gone = recorded.keys() - current.keys()
        moved = sum(map(len, groups.values()))
        print(f"{layer}: {moved} of {len(current)} entries moved or new, {len(gone)} gone")
        for (function, shift), keys in groups.items():
            print(f"  {function}, shift {shift}: {len(keys)}")
            for key in keys:
                print(f"    {key}")
        for key in sorted(gone):
            print(f"  gone: {key}")
        grid[layer] = current
    GRID_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(layer)}: {{\n"
            + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
            + "\n}"
            for layer, entries in grid.items()
        )
        + "\n}\n"
    )


if __name__ == "__main__":
    rerecord()
