"""Benchmark of mhlerch: certified evaluation, identity verification and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Workloads: eval-scattered, eval-shared-shift, verify-all, cli-oneshot (see
README.md next to this file).  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
over the same inputs and reports per-layer metrics.  Every run checks the
program's outputs.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}

The program is imported from `src/` next to this directory; without it the
run fails at import and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
#: Cores this process may use when it starts, as `nproc` counts them.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

#: Fresh interpreters started per probed figure.
PROBES = 10

SETUP_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); import workloads; "
    "workloads.WORKLOADS[{name!r}]({seed}).inputs(0); print('ready', flush=True)"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mhlerch.cli; "
    "print(time.perf_counter() - t)"
)

#: Seconds the calibration loop takes at the reference machine speed, about
#: its time on the quiet 2-core machine the benchmark was built on.  Every
#: end-to-end time is scaled by REFERENCE_CALIBRATION_S over the calibration
#: measured next to it; see `calibration_s`.
REFERENCE_CALIBRATION_S = 0.0011

#: Seconds a fresh interpreter takes to run `pass` at the reference speed.
#: `cli-oneshot` is scaled by this instead: its time is mostly process
#: start-up, which follows the kernel more than the interpreter's speed.
REFERENCE_FLOOR_S = 0.060

#: name -> unit of every metric; the names and units in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "op_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "exact.multi_sum.calls": "count",
    "exact.multi_sum.self_s": "s",
    "exact.lemma_lhs.self_s": "s",
    "exact.lemma_rhs.self_s": "s",
    "exact.coefficient_stream.self_s": "s",
    "exact.alternating_coefficient_sum.self_s": "s",
    "series.lerch_accelerated.calls": "count",
    "series.lerch_accelerated.self_s": "s",
    "series.lerch_accelerated.us_per_term": "us",
    "series.lerch_accelerated.terms_mean": "count",
    "series.stop_efficiency": "ratio",
    "series.nonconverged": "count",
    "series.cert_violations": "count",
    "series.zeta_accelerated.terms_mean": "count",
    "series.zeta_accelerated.self_s": "s",
    "series.lerch_direct.self_s": "s",
    "verify.lemma.s": "s",
    "verify.recurrences.s": "s",
    "verify.splitting.s": "s",
    "verify.proposition.s": "s",
    "verify.bounds.s": "s",
    "verify.sondow.s": "s",
    "verify.cases_run": "count",
    "verify.cases_failed": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace_overhead": "ratio",
}


def reference_work():
    """A fixed piece of the kind of interpreted work mhlerch does: complex
    float arithmetic, lists and dicts, as in `series`, and Fraction sums, as
    in `exact`."""
    coefficients, buckets = [], {}
    for n in range(1, 1200):
        c = complex(math.cos(n), math.sin(n)) / n
        coefficients.append(c)
        buckets[n % 97] = buckets.get(n % 97, 0) + c
    w, power, acc = 0.3 + 0.2j, 1, 0j
    for c in coefficients:
        power *= w
        acc += c * power
    f = Fraction(0)
    for n in range(1, 150):
        f += Fraction(1 if n % 2 else -1, n * n)
    return acc, f


def calibration_s() -> float:
    """Seconds `reference_work` takes now: the fastest of three tries, since
    an interruption only adds time.

    The shared host this benchmark was built on changes its speed by up to
    2x for seconds to minutes, for all code alike, and a slow spell can last
    a whole run.  A time measured next to a calibration and multiplied by
    REFERENCE_CALIBRATION_S / calibration_s() cancels that drift: it is the
    time the same work takes when the calibration takes its reference time.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def slowness(workload) -> float:
    """How many times slower than at the reference speed the machine runs
    the kind of work `workload` does, now."""
    if workload.starts_processes:
        t0 = time.perf_counter()
        workloads.run_process(["-c", "pass"])
        return (time.perf_counter() - t0) / REFERENCE_FLOOR_S
    return calibration_s() / REFERENCE_CALIBRATION_S


def fresh_process_ms(code: str) -> float:
    """Median wall time of PROBES fresh interpreters running `code`."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_ms() -> float:
    """Median time to import mhlerch.cli in a fresh interpreter."""
    times = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=workloads.child_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times) * 1e3


def setup_probe(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the first timed operation:
    the import of mhlerch and the building of the first inputs."""
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), name=name, seed=seed)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(interpreter_ms: float) -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "commit": git_commit(),
        "cli.interpreter_ms": interpreter_ms,
    }


def timed_passes(workload, seconds: float, runner, tracer=None, probe=None, calibrate=False):
    """Run whole passes until `seconds` have elapsed.

    With a tracer, every pass runs twice on the same inputs, once traced and
    once not, alternating which goes first.  `probe`, if given, is called
    between passes PROBES times spread over the run.  With `calibrate`, the
    machine's `slowness` is measured before every pass and after the last,
    and each pass gets the scale of the two measures around it.  Returns (untraced, traced,
    whether tracing left every output unchanged).
    """
    untraced, traced = [], []
    calibrations = []
    identical = True
    start = time.perf_counter()
    deadline = start + seconds
    probes = 0
    k = 0
    while k % workload.cycle or time.perf_counter() < deadline:
        if probe is not None and probes < PROBES and time.perf_counter() >= start + probes * seconds / PROBES:
            probe()
            probes += 1
        inputs = workload.inputs(k)
        if calibrate:
            calibrations.append(slowness(workload))
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        for on in order:
            t0 = time.perf_counter()
            if on:
                with tracer:
                    outputs, latencies = runner(inputs)
            else:
                outputs, latencies = runner(inputs)
            wall = time.perf_counter() - t0
            (traced if on else untraced).append(workloads.Pass(inputs, outputs, latencies, wall, k))
        if tracer is not None:
            identical &= repr(untraced[-1].outputs) == repr(traced[-1].outputs)
        for p in untraced[-1:] + traced[-1:]:
            workload.compact(p)
        k += 1
    while probe is not None and probes < PROBES:
        probe()
        probes += 1
    if calibrate:
        calibrations.append(slowness(workload))
        for p, before, after in zip(untraced, calibrations, calibrations[1:]):
            p.scale = 2 / (before + after)
    return untraced, traced, identical


def end_to_end(name: str, seed: int, seconds: float):
    setup_probe(name, seed)  # writes the byte-code caches
    setups = []

    def probe():
        before = calibration_s()
        elapsed = setup_probe(name, seed)
        setups.append(elapsed * 2 * REFERENCE_CALIBRATION_S / (before + calibration_s()))

    workload = workloads.WORKLOADS[name](seed)
    passes, _, _ = timed_passes(workload, seconds, workload.run, probe=probe, calibrate=True)
    peak_kib = workload.peak_rss_kib(passes)
    verdict = workload.check(passes)
    latencies = workload.latencies(passes)
    # Operations per second of each cycle; their median is not moved by the
    # few passes the calibration did not follow.
    cycles = {}
    for p in passes:
        ops_wall = cycles.setdefault(p.k // workload.cycle, [0, 0.0])
        ops_wall[0] += len(p.latencies)
        ops_wall[1] += p.wall * p.scale
    metrics = {
        # the median of the faster half: the probes least slowed by the disk
        # and by process start-up, which the calibration does not follow
        "setup_s": statistics.median(sorted(setups)[: PROBES // 2]),
        "op_per_s": statistics.median(ops / wall for ops, wall in cycles.values()),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mib": peak_kib / 1024,
    }
    detail = {
        "passes": len(passes),
        "operations_timed": sum(len(p.latencies) for p in passes),
        "speed_scale_median": statistics.median(p.scale for p in passes),
        "speed_scale_range": [min(p.scale for p in passes), max(p.scale for p in passes)],
        **workload.shares(passes),
        **named_metrics(workload, passes),
    }
    return metrics, verdict, detail


def named_metrics(workload, passes) -> dict:
    """The workload-specific metrics quoted in the project's roadmap."""
    name = workload.name
    lat = [x * p.scale * 1e3 for p in passes for x in p.latencies]
    if name.startswith("eval-"):
        out = {
            "eval_per_s": len(lat) / sum(p.wall * p.scale for p in passes),
            "eval_us_p50": statistics.median(lat) * 1e3,
            "eval_us_p99": statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3,
        }
        zeta = [
            x * p.scale * 1e6
            for p in passes
            for op, x in zip(workload.pass_inputs(p), p.latencies)
            if op.kind == "zeta"
        ]
        if zeta:
            out["zeta_us_p50"] = statistics.median(zeta)
        return out
    if name == "verify-all":
        calls = {}
        for p in passes:
            calls.setdefault(p.inputs[0], []).append(p.wall * p.scale)
        return {"verify_s": sum(statistics.median(walls) for walls in calls.values())}
    return {
        "cli_ms_p50": statistics.median(lat),
        "cli_ms_p75": statistics.quantiles(lat, n=4, method="inclusive")[2],
    }


def per_layer(name: str, seed: int, seconds: float):
    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer(workloads.LAYERS, workloads.WATCHED)
    untraced, traced, identical = timed_passes(workload, seconds, workload.run_in_process, tracer)
    verdict = workload.check(traced, tracer)
    verdict.correct &= identical
    cycles = len(traced) / workload.cycle
    spans = tracer.self_times()

    # Counts come from the first cycle of passes, traced once more, so they
    # depend on the seed and the program alone and repeat exactly.
    counter = tracing.Tracer(workloads.LAYERS, workloads.WATCHED)
    with counter:
        for k in range(workload.cycle):
            workload.run_in_process(workload.inputs(k))
    counts = counter.self_times()

    def self_s(fn):
        return spans.get(fn, (0, 0.0))[1] / cycles

    def results(trace, fn):
        return [call[2] for call in trace.calls[fn]]

    def terms_mean(fn):
        found = results(counter, fn)
        return sum(r.terms_used for r in found) / len(found) if found else 0.0

    timed_terms = sum(r.terms_used for r in results(tracer, "series.lerch_accelerated"))
    evaluated = results(counter, "series.lerch_accelerated") + results(counter, "series.zeta_accelerated")
    reports = [r for found in results(counter, "verify.run_suite") for r in found]
    suite_s = {}
    for args, _, _, span in tracer.calls["verify.run_suite"]:
        suite_s[args[0]] = suite_s.get(args[0], 0.0) + tracer.duration(span) / cycles
    mains = [tracer.duration(span) for *_, span in tracer.calls["cli.main"]]

    metrics = {
        "exact.multi_sum.calls": counts.get("exact.multi_sum", (0, 0.0))[0],
        "exact.multi_sum.self_s": self_s("exact.multi_sum"),
        "exact.lemma_lhs.self_s": self_s("exact.lemma_lhs"),
        "exact.lemma_rhs.self_s": self_s("exact.lemma_rhs"),
        "exact.coefficient_stream.self_s": self_s("exact.coefficient_stream"),
        "exact.alternating_coefficient_sum.self_s": self_s("exact.alternating_coefficient_sum"),
        "series.lerch_accelerated.calls": len(results(counter, "series.lerch_accelerated")),
        "series.lerch_accelerated.self_s": self_s("series.lerch_accelerated"),
        "series.lerch_accelerated.us_per_term": (
            spans["series.lerch_accelerated"][1] * 1e6 / timed_terms if timed_terms else 0.0
        ),
        "series.lerch_accelerated.terms_mean": terms_mean("series.lerch_accelerated"),
        "series.stop_efficiency": 0.0,
        "series.nonconverged": sum(not r.converged for r in evaluated),
        "series.cert_violations": 0,
        "series.zeta_accelerated.terms_mean": terms_mean("series.zeta_accelerated"),
        "series.zeta_accelerated.self_s": self_s("series.zeta_accelerated"),
        "series.lerch_direct.self_s": self_s("series.lerch_direct"),
        **{f"verify.{suite}.s": suite_s.get(suite, 0.0) for suite in workloads.verify.SUITE_NAMES},
        "verify.cases_run": sum(r.cases_run for r in reports),
        "verify.cases_failed": sum(r.cases_failed for r in reports),
        "cli.interpreter_ms": fresh_process_ms("pass"),
        "cli.import_ms": import_ms(),
        "cli.main_ms": statistics.mean(mains) * 1e3 if mains else 0.0,
        "trace_overhead": sum(p.wall for p in traced) / sum(p.wall for p in untraced),
    }
    metrics.update(verdict.layer)
    detail = {"passes": len(traced), "spans": len(tracer.start), "traced_identical": identical}
    return metrics, verdict, detail


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, verdict, detail = per_layer(name, seed, seconds)
        units = PER_LAYER
        detail["env"] = environment(metrics["cli.interpreter_ms"])
    else:
        metrics, verdict, detail = end_to_end(name, seed, seconds)
        units = END_TO_END
        detail["env"] = environment(fresh_process_ms("pass"))
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    for key, value in {**detail, **verdict.notes}.items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    for key, value in metrics.items():
        print(f"{name:18} {key:42} {value:.6g} {units[key]}")
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                return 1
        return 0

    if hasattr(os, "sched_setaffinity"):
        # One core for the run and the processes it starts, so that the
        # calibration measures the core the work runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
