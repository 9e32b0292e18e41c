"""Seeded workloads of the mhlerch benchmark.

Each workload is a closed loop with one caller and no threads.  It turns its
seed into a sequence of passes; `inputs(k)` builds pass k (the same seed gives
the same passes) and `run` executes one pass through the public functions of
mhlerch, timing every operation.  Inputs are built before a pass is timed, and
all checking happens after the timed region.

The program is imported from the `src` directory next to this benchmark and
from nowhere else.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mhlerch  # noqa: E402
from mhlerch import cli, exact, series, verify  # noqa: E402

if Path(mhlerch.__file__).resolve().parent != SRC / "mhlerch":
    raise ImportError(f"mhlerch was imported from {mhlerch.__file__}, not from {SRC}")

#: The four layers that hold work (`errors` holds none), in tracing order.
LAYERS = (exact, series, verify, cli)

#: Functions whose arguments and results the traced run keeps.
WATCHED = ("series.lerch_accelerated", "series.zeta_accelerated", "verify.run_suite", "cli.main")

TOLS = (1e-6, 1e-10, 1e-12)
SHIFT_KINDS = ("small-real", "small-complex", "negative", "large", "near-pole")

#: |z| cells of the scattered workload; every shift kind gets one point per
#: cell in every pass, so 80% of points have |z| <= 0.8, 15% lie in
#: 0.8-0.95 and 5% in 0.95-0.995.
Z_CELLS = tuple((0.05 * i, 0.05 * (i + 1)) for i in range(16)) + (
    (0.80, 0.85),
    (0.85, 0.90),
    (0.90, 0.95),
    (0.95, 0.995),
)

#: Size of the seeded sample checked against mpmath; one reference costs
#: 50-250 ms, so checking every point would dominate the run.
REFERENCE_SAMPLE = {"eval-scattered": 40, "eval-shared-shift": 16}

REFERENCE_DPS = 30

#: Cases in one cycle of the six suites at their default grids.
VERIFY_CASES = 13924


def strata(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi), shuffled.

    Stratifying keeps the mix of cheap and costly inputs the same from seed to
    seed, which keeps the timings steady across seeds.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def balanced(rng: random.Random, levels: Sequence, n: int) -> list:
    """n draws that use every level equally often, up to a random remainder."""
    pool = list(levels) * (n // len(levels)) + rng.sample(list(levels), n % len(levels))
    rng.shuffle(pool)
    return pool


def make_shifts(rng: random.Random, kind: str, n: int) -> List[complex]:
    if kind == "small-real":
        return [complex(x, 0.0) for x in strata(rng, n, -0.9, 3.0)]
    if kind == "small-complex":
        ims = strata(rng, n, 0.1, 2.0)
        return [complex(x, y * rng.choice((-1, 1))) for x, y in zip(strata(rng, n, -0.9, 3.0), ims)]
    if kind == "negative":
        return [complex(-(k + f), 0.0) for k, f in zip(balanced(rng, range(1, 6), n), strata(rng, n, 0.1, 0.9))]
    if kind == "large":
        return [10**e * cmath.exp(1j * rng.uniform(-math.pi / 3, math.pi / 3)) for e in strata(rng, n, 1.0, 3.0)]
    if kind == "near-pole":
        return [
            complex(-k + rng.choice((-1, 1)) * 10**e, 0.0)
            for k, e in zip(balanced(rng, range(1, 6), n), strata(rng, n, -6.0, -2.0))
        ]
    raise ValueError(kind)


@dataclass(frozen=True)
class EvalOp:
    """One evaluator call: `kind` is a shift kind, "shared" or "zeta"."""

    kind: str
    w: complex
    alpha: complex
    s: int
    tol: float
    abs_z: float


def point(rng: random.Random, abs_z: float) -> Tuple[complex, float]:
    z = cmath.rect(abs_z, rng.uniform(-math.pi, math.pi))
    return z / (z - 1), abs_z


@dataclass
class Pass:
    inputs: list
    outputs: list
    latencies: Sequence[float]
    wall: float
    #: Index of the pass in the run.
    k: int
    #: Factor that brings the pass's times to the reference machine speed.
    scale: float = 1.0


@dataclass
class Verdict:
    """Outcome of checking a run's outputs.

    `attempted` counts the operations whose outputs were checked against a
    reference and `failed` those that failed a check.  `correct` is False when
    a run-level invariant broke (an operation raised on valid input, tracing
    changed a result, the verify grid changed size), which makes the run's
    timings meaningless.
    """

    attempted: int
    failed: int
    correct: bool
    notes: Dict[str, object]
    layer: Dict[str, float]


class Workload:
    name = ""
    #: A run ends only after a whole number of cycles of this many passes.
    cycle = 1
    #: Whether an operation starts a process, so that its time is scaled by
    #: the time a fresh interpreter takes rather than by the calibration loop.
    starts_processes = False

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def inputs(self, k: int) -> list:
        raise NotImplementedError

    def run(self, inputs: list) -> Tuple[list, Sequence[float]]:
        raise NotImplementedError

    def compact(self, p: Pass) -> None:
        """Called on every pass once it ran; drops what `check` does not need
        from passes after the first, so the memory the benchmark holds does
        not grow with the length of the run."""

    def latencies(self, passes: Sequence[Pass]) -> List[float]:
        """The latencies the percentiles are taken over, at reference speed."""
        return sorted(x * p.scale for p in passes for x in p.latencies)

    def pass_inputs(self, p: Pass) -> list:
        return p.inputs if p.inputs is not None else self.inputs(p.k)

    def run_in_process(self, inputs: list) -> Tuple[list, Sequence[float]]:
        """The pass the traced run compares with and without tracing."""
        return self.run(inputs)

    def shares(self, passes: Sequence[Pass]) -> Dict[str, float]:
        return {}

    def peak_rss_kib(self, passes: Sequence[Pass]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, passes: Sequence[Pass], tracer=None) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# evaluator workloads
# ---------------------------------------------------------------------------


def timed_each(items: Sequence, fn) -> Tuple[list, Sequence[float]]:
    """fn applied to each item in turn: (results, seconds each took)."""
    outputs, latencies = [], array("d")
    for item in items:
        t0 = time.perf_counter()
        out = fn(item)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies


def evaluate(op: EvalOp):
    if op.kind == "zeta":
        r = series.zeta_accelerated(op.s, op.tol)
    else:
        r = series.lerch_accelerated(op.w, series.ShiftParam(op.alpha), op.s, op.tol)
    return r.value, r.terms_used, r.error_bound, r.converged


def evaluate_or_error(op: EvalOp):
    try:
        return evaluate(op)
    except Exception as exc:  # counted as a failed operation
        return exc


def partial_sum(op: EvalOp, terms: int) -> complex:
    """The series summed to at most `terms` terms (it may stop earlier once its
    own bound falls below the binary64 floor)."""
    if op.kind == "zeta":
        return series.zeta_accelerated(op.s, series.MIN_TOL, terms).value
    return series.lerch_accelerated(op.w, series.ShiftParam(op.alpha), op.s, series.MIN_TOL, terms).value


def reference(op: EvalOp):
    """mpmath value at REFERENCE_DPS digits: Li(w; alpha, s) = w Phi(w, s, alpha + 1)."""
    import mpmath

    mpmath.mp.dps = REFERENCE_DPS
    if op.kind == "zeta":
        return mpmath.zeta(op.s)
    w = mpmath.mpc(op.w)
    return w * mpmath.lerchphi(w, op.s, mpmath.mpc(op.alpha) + 1)


def input_shares(ops: Sequence[EvalOp]) -> Dict[str, float]:
    """Measured shares of the properties an optimisation may depend on."""
    seen, reused = set(), 0
    for op in ops:
        key = (op.alpha, op.s)
        reused += key in seen
        seen.add(key)
    n = len(ops)
    return {
        "shift_reuse_share": reused / n,
        "edge_share": sum(op.abs_z > 0.9 for op in ops) / n,
        "large_shift_share": sum(op.kind == "large" for op in ops) / n,
        "near_pole_share": sum(op.kind == "near-pole" for op in ops) / n,
    }


class EvalWorkload(Workload):
    def run(self, ops):
        return timed_each(ops, evaluate_or_error)

    def shares(self, passes):
        return input_shares([op for p in passes for op in self.pass_inputs(p)])

    @staticmethod
    def problems(outputs: list) -> list:
        return [out for out in outputs if isinstance(out, Exception) or not out[3] or not cmath.isfinite(out[0])]

    def compact(self, p):
        if p.k:
            p.outputs = self.problems(p.outputs)
            p.inputs = None

    def check(self, passes, tracer=None):
        import mpmath

        problems = [out for p in passes for out in self.problems(p.outputs)]
        raised = [out for out in problems if isinstance(out, Exception)]
        results = [out for out in problems if not isinstance(out, Exception)]
        nonconverged = sum(not out[3] for out in results)
        finite = all(cmath.isfinite(out[0]) for out in results if out[3])

        # The sample comes from the first pass, which every run executes, so
        # it depends on the seed alone.
        rng = random.Random(f"{self.name}:{self.seed}:sample")
        sample = rng.sample(list(zip(passes[0].inputs, passes[0].outputs)), REFERENCE_SAMPLE[self.name])
        failed, violations, by_kind = 0, 0, {}
        minimal_terms = used_terms = 0
        for op, out in sample:
            kind = by_kind.setdefault(op.kind, [0, 0])
            kind[0] += 1
            if isinstance(out, Exception) or not out[3]:
                failed += 1
                kind[1] += 1
                continue
            value, terms, bound, _ = out
            ref = reference(op)
            error = abs(mpmath.mpc(value) - ref)
            if error > bound + abs(ref) * mpmath.mpf(10) ** (5 - REFERENCE_DPS):
                violations += 1
                failed += 1
                kind[1] += 1
            elif tracer is not None and error <= op.tol:
                minimal_terms += self.minimal_terms(op, ref, terms)
                used_terms += terms

        layer = {}
        if tracer is not None:
            layer = {
                "series.cert_violations": violations,
                "series.stop_efficiency": minimal_terms / used_terms if used_terms else 0.0,
            }
        notes = {
            "operations": sum(len(p.latencies) for p in passes),
            "raised": len(raised),
            "nonconverged": nonconverged,
            "sample": len(sample),
            "cert_violations": violations,
            "sample_failed_by_kind": {k: f"{v[1]}/{v[0]}" for k, v in sorted(by_kind.items())},
        }
        if raised:
            notes["first_raise"] = repr(raised[0])
        return Verdict(len(sample), failed, not raised and finite, notes, layer)

    @staticmethod
    def minimal_terms(op: EvalOp, ref, terms: int) -> int:
        """Fewest terms whose partial sum is within tol of the reference
        (binary search; the error decreases with the number of terms)."""
        import mpmath

        lo, hi = 1, terms
        while lo < hi:
            mid = (lo + hi) // 2
            if abs(mpmath.mpc(partial_sum(op, mid)) - ref) <= op.tol:
                hi = mid
            else:
                lo = mid + 1
        return lo


class EvalScattered(EvalWorkload):
    """Distinct (alpha, s) pairs over the whole domain, plus ~10% zeta calls."""

    name = "eval-scattered"

    def inputs(self, k):
        rng = self.rng(k)
        ops = []
        n = len(Z_CELLS)
        for kind in SHIFT_KINDS:
            shifts = make_shifts(rng, kind, n)
            orders = balanced(rng, range(1, 7), n)
            tols = balanced(rng, TOLS, n)
            for (lo, hi), alpha, s, tol in zip(Z_CELLS, shifts, orders, tols):
                w, abs_z = point(rng, rng.uniform(lo, hi))
                ops.append(EvalOp(kind, w, alpha, s, tol, abs_z))
        for s in range(2, 13):
            ops.append(EvalOp("zeta", -1 + 0j, 0j, s, rng.choice(TOLS), 0.5))
        rng.shuffle(ops)
        return ops


class EvalSharedShift(EvalWorkload):
    """Eight (alpha, s) pairs; each pass tabulates 100 points per pair in a row."""

    name = "eval-shared-shift"
    POINTS_PER_PAIR = 100

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng("pairs")
        # Pair i has a fixed order and its shift in the i-th eighth of
        # Re alpha in [0, 3], complex for odd i, so the cost of a pass
        # hardly depends on the seed.
        self.pairs = [
            (complex(3 * (i + rng.random()) / 8, (i % 2) * rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)), s)
            for i, s in enumerate((1, 2, 3, 4, 5, 6, 2, 3))
        ]

    def inputs(self, k):
        rng = self.rng(k)
        ops = []
        for alpha, s in self.pairs:
            for abs_z in sorted(strata(rng, self.POINTS_PER_PAIR, 0.0, 0.6)):
                w, _ = point(rng, abs_z)
                ops.append(EvalOp("shared", w, alpha, s, 1e-12, abs_z))
        return ops


# ---------------------------------------------------------------------------
# verification workload
# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    """Every suite at its default grid, one call per pass, in a seeded order
    per cycle.  `splitting` (most of the time) is called once for each half
    of its default shifts, which runs the same cases in two calls.  A cycle
    is then seven calls; with an odd number, the median falls in the middle
    of the `proposition` calls, not between two groups of calls that take
    different times, where it would jump from one group to the other."""

    name = "verify-all"
    CALLS = tuple((name, None) for name in verify.SUITE_NAMES if name != "splitting") + tuple(
        ("splitting", half) for half in (verify.DEFAULT_BETAS[:3], verify.DEFAULT_BETAS[3:])
    )
    cycle = len(CALLS)

    def inputs(self, k):
        calls = list(self.CALLS)
        self.rng(k // self.cycle).shuffle(calls)
        return [calls[k % self.cycle]]

    def run(self, calls):
        return timed_each(calls, lambda call: verify.run_suite(call[0], betas=call[1]))

    def latencies(self, passes):
        """Each call's median over the run, once per call of a cycle.

        The calls repeat every cycle, and `proposition`, in the middle, is
        only 1.3x faster than `recurrences`.  Pooled, the calls the
        calibration did not follow would cross between the two and move the
        median; the median of each call does not move that way."""
        by_call: Dict[tuple, List[float]] = {}
        for p in passes:
            by_call.setdefault(p.inputs[0], []).append(p.latencies[0] * p.scale)
        return sorted(statistics.median(times) for times in by_call.values())

    def check(self, passes, tracer=None):
        first: Dict[tuple, list] = {}
        deterministic = True
        attempted = failed = 0
        for p in passes:
            for call, reports in zip(p.inputs, p.outputs):
                dicts = [r.to_dict() for r in reports]
                deterministic &= first.setdefault(call, dicts) == dicts
                attempted += sum(r.cases_run for r in reports)
                failed += sum(r.cases_failed for r in reports)
        cases = sum(r["cases_run"] for dicts in first.values() for r in dicts)
        notes = {"suite_calls": len(passes), "cases_per_cycle": cases}
        return Verdict(attempted, failed, cases == VERIFY_CASES and deterministic, notes, {})


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _arg(x: complex) -> str:
    return f"{x.real!r},{x.imag!r}"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv: List[str], timeout: float = 60.0) -> Tuple[int, str, int]:
    """Run a fresh interpreter to completion: (exit code, output, peak RSS KiB).

    `os.wait4` reaps the child so its own resource usage can be read; a timer
    kills it if it outlives `timeout`.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def main_in_process(argv: List[str]) -> Tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class CliOneshot(Workload):
    """Fresh `python -m mhlerch.cli` processes, one per pass, in cycles of 2
    `eval`, 2 `zeta` and 1 `verify --suite lemma`.  `verify` is the slowest,
    so with a fifth of the commands it holds the 90th percentile well inside
    its own share rather than at the edge of the cheaper commands.

    An input is (argv, op), where op is the evaluator call the command stands
    for, or None for `verify`.
    """

    name = "cli-oneshot"
    cycle = 5
    starts_processes = True

    def inputs(self, k):
        return [self.commands(k // self.cycle)[k % self.cycle]]

    def commands(self, block: int) -> list:
        rng = self.rng(block)
        commands = []
        kinds = ("small-real", "small-complex")
        for kind, abs_z in zip(balanced(rng, kinds, 2), strata(rng, 2, 0.0, 0.8)):
            w, _ = point(rng, abs_z)
            op = EvalOp(kind, w, make_shifts(rng, kind, 1)[0], rng.randint(1, 6), rng.choice(TOLS[1:]), abs_z)
            argv = ["eval", "--s", str(op.s), f"--w={_arg(op.w)}", f"--alpha={_arg(op.alpha)}", "--tol", repr(op.tol)]
            commands.append((argv, op))
        for s in rng.sample(range(2, 13), 2):
            op = EvalOp("zeta", -1 + 0j, 0j, s, rng.choice(TOLS), 0.5)
            commands.append((["zeta", "--s", str(s), "--tol", repr(op.tol)], op))
        commands.append((["verify", "--suite", "lemma"], None))
        rng.shuffle(commands)
        return commands

    def run(self, commands):
        return timed_each([["-m", "mhlerch.cli", *argv] for argv, _ in commands], run_process)

    def run_in_process(self, commands):
        return timed_each([argv for argv, _ in commands], main_in_process)

    def peak_rss_kib(self, passes):
        return max(out[2] for p in passes for out in p.outputs)

    def shares(self, passes):
        return input_shares([op for p in passes for _, op in p.inputs if op is not None])

    @staticmethod
    def expected(argv: List[str], op):
        """What the command must print, computed through the library API."""
        if op is None:
            return [r.to_dict() for r in verify.run_suite(argv[2])]
        value, terms, bound, converged = evaluate(op)
        result = {"terms_used": terms, "error_bound": bound, "converged": converged}
        if op.kind == "zeta":
            return {"s": op.s, "value": value.real, **result}
        return {"value_re": value.real, "value_im": value.imag, **result}

    def check(self, passes, tracer=None):
        attempted = failed = 0
        mismatches = []
        cache: Dict[Tuple[str, ...], Tuple[str, object]] = {}
        for p in passes:
            for (argv, op), (code, text, *_) in zip(p.inputs, p.outputs):
                key = tuple(argv)
                if key not in cache:
                    cache[key] = (main_in_process(argv)[1], json.loads(json.dumps(self.expected(argv, op))))
                in_process, expected = cache[key]
                try:
                    ok = code == 0 and text == in_process and json.loads(text) == expected
                except json.JSONDecodeError:
                    ok = False
                attempted += 1
                if not ok:
                    failed += 1
                    mismatches.append(" ".join(argv))
        notes = {"invocations": attempted, "mismatches": mismatches[:3]}
        return Verdict(attempted, failed, True, notes, {})


WORKLOADS = {w.name: w for w in (EvalScattered, EvalSharedShift, VerifyAll, CliOneshot)}
