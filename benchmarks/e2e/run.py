"""End-to-end ledger: one workload, one run, every metric by name.

    python3 benchmarks/e2e/run.py --workload serve_steady --seed 0 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 0
    python3 benchmarks/e2e/run.py --workload serve_steady --trace 1     # per-layer run
    python3 benchmarks/e2e/run.py noise --sets 3 --runs 5               # noise study

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result (raw quartiles, digests, errors)
goes to ``benchmarks/results/e2e/result-<workload>-seed<k>-trace<t>.json``
and, traced, the spans to ``spans-<workload>-seed<k>.json`` (``--scale 1``
only).  The exit code is 1 when any operation failed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "benchmarks", "results", "e2e")
SCRIPT = os.path.abspath(__file__)

sys.path.insert(0, HERE)

import e2e_measure as measure  # noqa: E402
import e2e_workloads as workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "py_calls_per_unit": "calls/unit",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REFERENCE_SEED = 0  # the input py_calls_per_unit is counted on, whatever --seed is
MIN_REPS = 2  # what ``--seconds 0`` (the self-test) still measures
SETUP_SAMPLES = 16  # fresh-interpreter starts per run
TRACED_REPS = 3


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or not at all."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: {SRC}/repro not found; the benchmark measures this checkout's source")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


class Ledger:
    """Operations attempted and failed; one timed repetition or check each."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []

    def op(self, label: str, passed: bool, detail: str = "") -> None:
        self.ops += 1
        if not passed:
            self.failed += 1
            self.errors.append(f"{label}: {detail}" if detail else label)

    def checks(self, checks: Sequence[workloads.Check]) -> None:
        for label, passed, detail in checks:
            self.op(label, passed, detail)


def _spec() -> dict:
    """``BENCHMARK.json``: the run length and the bounds are fixed there only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _versions() -> Dict[str, str]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _write_result(result: dict, spans: Optional[dict]) -> None:
    """Replace this workload+seed's files; stale ones are deleted, never read."""
    os.makedirs(RESULTS, exist_ok=True)
    stem, trace = f"{result['workload']}-seed{result['seed']}", result["trace"]
    stale = glob.glob(os.path.join(RESULTS, f"result-{stem}-trace{trace}.json*"))
    if trace:
        stale += glob.glob(os.path.join(RESULTS, f"spans-{stem}.json*"))
    for path in stale:
        with contextlib.suppress(FileNotFoundError):  # a concurrent run got there first
            os.remove(path)
    with open(os.path.join(RESULTS, f"result-{stem}-trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if spans is not None:
        with open(os.path.join(RESULTS, f"spans-{stem}.json"), "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))


# -- one run -------------------------------------------------------------------


def run(
    workload: workloads.Workload, seed: int, seconds: float, scale: float, tmp: str, trace: int
) -> Tuple[dict, Optional[dict]]:
    """One run: (result, spans file contents when traced).

    The boundary that keeps the accounting whole: a scenario, check or probe
    that raises is one failed operation.  The run ends there without metrics,
    and the operations counted before it stay counted.
    """
    ledger = Ledger()
    metrics: Dict[str, dict] = {}
    extras: dict = {}
    spans = None
    try:
        if trace:
            metrics, extras, spans = _measure_traced(ledger, workload, seed, scale, tmp)
        else:
            metrics, extras = _measure_e2e(ledger, workload, seed, seconds, scale, tmp)
    except Exception as exc:
        traceback.print_exc()
        ledger.op("run.raised", False, repr(exc))
    result = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "ops": ledger.ops,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "metrics": metrics,
        "extras": extras,
    }
    return result, spans


def _quiet(fn):
    """``fn()`` with its prints swallowed."""
    return measure.timed_capture(fn)[2]


# -- the untraced run: end-to-end metrics -------------------------------------


def _measure_e2e(
    ledger: Ledger, workload: workloads.Workload, seed: int, seconds: float, scale: float, tmp: str
) -> Tuple[Dict[str, dict], dict]:
    calibrator = measure.Calibrator()
    calibrator.run()

    # py_calls_per_unit: the second execution of the reference input in this
    # fresh interpreter (the first fills import-time and memo caches).
    reference = workloads.Context(REFERENCE_SEED, scale, tmp)
    measure.timed_capture(lambda: workload.run(reference))
    calls, counted = _quiet(lambda: measure.count_calls(lambda: workload.run(reference)))
    calls_per_unit = calls / workload.units(counted)

    # One untimed repetition of this seed's input, with every output check.
    ctx = workloads.Context(seed, scale, tmp)
    _t, report_text, result = measure.timed_capture(lambda: workload.run(ctx))
    units = workload.units(result)
    expected = measure.digest(report_text, tmp)
    ledger.checks(_quiet(lambda: workload.checks(ctx, result)))
    del result, counted

    # A repetition, then a calibration pass; after each of the first
    # SETUP_SAMPLES passes, a fresh-interpreter start paired with that pass.
    reps, rep_cals, setups, setup_cals = [], [], [], []
    loop_started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - loop_started < seconds:
        elapsed, text, _result = measure.timed_capture(lambda: workload.run(ctx))
        ledger.op("rep.same_report", measure.digest(text, tmp) == expected, "digest differs")
        reps.append(elapsed)
        rep_cals.append(calibrator.run())
        if len(setups) < SETUP_SAMPLES:
            setups.append(measure.probe(SCRIPT, "setup", workload.name, seed, scale, tmp)[0])
            setup_cals.append(rep_cals[-1])
    wall_s = measure.reference_seconds(reps, rep_cals)
    _elapsed, rss = measure.probe(SCRIPT, "rss", workload.name, seed, scale, tmp)

    metrics = {
        "wall_s": wall_s,
        "py_calls_per_unit": calls_per_unit,
        "setup_s": measure.reference_seconds(setups, setup_cals),
        "peak_rss_mb": rss["peak_rss_kb"] / 1024.0,
    }
    extras = {
        "units": units,
        "unit": workload.unit,
        "units_per_s": units / wall_s,
        "report_sha256": expected,
        # Raw slices, so another estimator can be tried on the same runs.
        "rep_s": reps,
        "rep_cal_s": rep_cals,
        "setup_raw_s": setups,
        "setup_cal_s": setup_cals,
        "py_calls": calls,
        "cal_ref_s": measure.CAL_REF_S,
        "versions": _versions(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extras


# -- the traced run: per-layer metrics ----------------------------------------


def _measure_traced(
    ledger: Ledger, workload: workloads.Workload, seed: int, scale: float, tmp: str
) -> Tuple[Dict[str, dict], dict, dict]:
    """One traced run: (metrics, extras, spans file contents)."""
    import e2e_tracer as tracing

    calibrator = measure.Calibrator()
    calibrator.run()
    ctx = workloads.Context(seed, scale, tmp)
    measure.timed_capture(lambda: workload.run(ctx))  # warm-up
    # As many untraced repetitions as traced ones, so that neither fastest is
    # favoured; each in units of the calibration pass after it.
    untraced_text, untraced_passes = "", float("inf")
    for _ in range(TRACED_REPS):
        elapsed, untraced_text, _result = measure.timed_capture(lambda: workload.run(ctx))
        untraced_passes = min(untraced_passes, elapsed / calibrator.run())

    def traced_repetition():
        tracer = tracing.Tracer()

        def traced_run():
            with tracer.root():
                return workload.run(ctx)

        with tracer.installed():
            before = calibrator.run()
            elapsed, text, result = measure.timed_capture(traced_run)
            after = calibrator.run()
        return elapsed, text, result, tracer, (before, after)

    # The fastest of three: one host hiccup inside a single repetition would
    # otherwise be billed to whichever layer it happened to land in.
    traced_s, traced_text, result, tracer, cals = min(
        (traced_repetition() for _ in range(TRACED_REPS)), key=lambda rep: rep[0]
    )

    # Tracing must not change what the program prints.
    same = measure.digest(traced_text, tmp) == measure.digest(untraced_text, tmp)
    ledger.op("traced.same_report", same, "digest differs")
    ledger.checks(_quiet(lambda: workload.checks(ctx, result)))
    units = workload.units(result)

    rows = tracer.rows()
    metrics = tracing.layer_metrics(rows, tracer.counters)
    to_reference = measure.CAL_REF_S / statistics.mean(cals)
    for name in metrics:
        if name.endswith((".busy_s", ".self_s")):
            metrics[name] *= to_reference
    written = sum(os.path.getsize(ctx.path(name)) for name in workload.outputs)
    metrics["runtime.trace.bytes_per_unit"] = written / units
    metrics["trace_overhead"] = traced_s / statistics.mean(cals) / untraced_passes
    extras = {
        "units": units,
        "unit": workload.unit,
        "spans": len(rows),
        "missing_targets": tracer.missing_targets,
        "traced_s": traced_s,
        "untraced_passes": untraced_passes,
        "cal_s": list(cals),
        "cal_ref_s": measure.CAL_REF_S,
        "versions": _versions(),
    }
    spans = {"columns": tracing.SPAN_COLUMNS, "counters": tracer.counters, "rows": rows}
    named = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in tracing.per_layer_spec()
    }
    return named, extras, spans


# -- fresh-interpreter probes (children of a run) ----------------------------


def run_probe(mode: str, workload: workloads.Workload, seed: int, scale: float, tmp: str) -> int:
    import importlib
    import re

    ctx = workloads.Context(seed, scale, tmp)
    if mode == "setup":
        # Leave at the run loop's door: everything before it is set-up.
        module, cls, method = workload.loop_entry
        owner = getattr(importlib.import_module(module), cls)
        setattr(owner, method, lambda *args, **kwargs: os._exit(0))
        _quiet(lambda: workload.run(ctx))
        return 3  # the scenario never entered its run loop
    _quiet(lambda: workload.run(ctx))
    # VmHWM, not ru_maxrss: across fork and exec ru_maxrss keeps the parent's
    # peak (a 320 MB parent gave its child 338 MB against a true 9.8 MB).
    with open("/proc/self/status") as fh:
        peak_kb = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    print(json.dumps({"peak_rss_kb": peak_kb}))
    return 0


# -- reporting ----------------------------------------------------------------


def report(result: dict, spans: Optional[dict] = None) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    if result["scale"] == 1:  # smaller scales are the self-test's, not results
        _write_result(result, spans)
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44s} {metric['value']:>16.6f} {metric['unit']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["ops"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )


# -- the noise study ----------------------------------------------------------


def _spawn_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, SCRIPT, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)  # exits 1 on failed checks
    return json.loads(done.stdout.strip().splitlines()[-1])


def noise_study(names: Sequence[str], sets: int, runs: int, seconds: float) -> int:
    """K back-to-back sets of R runs of this checkout, per workload.

    Prints each end-to-end metric's per-set median and seed-to-seed spread,
    and the worst set-to-set disagreement of the medians beside its bound;
    non-zero exit when any disagreement exceeds half the bound.  Sets reuse
    seeds 0..R-1, so seed effects cancel between sets as they do for the
    driver.
    """
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    worst_ratio = 0.0
    print("| workload | metric | set medians | worst spread | worst disagreement | bound |")
    print("|---|---|---|---|---|---|")
    for name in names:
        medians: Dict[str, List[float]] = {m: [] for m in bounds}
        spreads: Dict[str, List[float]] = {m: [] for m in bounds}
        for _ in range(sets):
            values: Dict[str, List[float]] = {m: [] for m in bounds}
            for seed in range(runs):
                out = _spawn_run(name, seed, seconds)
                if not out["correct"]:
                    print(f"{name} seed {seed}: {out['failed']} failed operations")
                    return 1
                for metric in bounds:
                    values[metric].append(out["metrics"][metric]["value"])
            for metric, series in values.items():
                lo, mid, hi = statistics.quantiles(series, n=4)
                medians[metric].append(mid)
                spreads[metric].append((hi - lo) / mid)
        for metric, bound in bounds.items():
            pairs = itertools.combinations(medians[metric], 2)
            disagreement = max(abs(a - b) / min(a, b) for a, b in pairs)
            worst_ratio = max(worst_ratio, disagreement / bound)
            cells = " ".join(f"{m:.5g}" for m in medians[metric])
            print(
                f"| {name} | {metric} | {cells} | {max(spreads[metric]):.2%} "
                f"| {disagreement:.2%} | {bound:.1%} |",
                flush=True,
            )
    print(f"worst disagreement / bound = {worst_ratio:.2f} (must be <= 0.50)")
    return 0 if worst_ratio <= 0.5 else 1


# -- entry --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", nargs="?", choices=("run", "noise"), default="run")
    parser.add_argument(
        "--workload", default="all", choices=[*workloads.WORKLOADS, "all"], help="default: all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(_spec()["run_seconds"]),
        help="length of the measuring loop; default: run_seconds of BENCHMARK.json",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: one traced repetition, per-layer metrics",
    )  # fmt: skip
    parser.add_argument(
        "--scale", type=float, default=1.0, help="scenario size; only 1 is comparable"
    )
    parser.add_argument("--sets", type=int, default=3, help="noise: sets of runs (>= 3)")
    parser.add_argument("--runs", type=int, default=5, help="noise: runs per set (>= 5)")
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.mode == "noise":
        if args.sets < 2 or args.runs < 2:
            parser.error("noise needs at least 2 sets of 2 runs (use >= 3 sets of >= 5)")
        return noise_study(names, args.sets, args.runs, args.seconds)
    if len(names) > 1:
        # One fresh interpreter per workload: py_calls_per_unit and the
        # quartile estimator both assume it.
        shared = [
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scale", repr(args.scale),
        ]  # fmt: skip
        codes = [
            subprocess.run([sys.executable, SCRIPT, "--workload", n, *shared]).returncode
            for n in names
        ]
        return max(codes)

    _use_checkout_source()
    workload = workloads.WORKLOADS[names[0]]
    if args.probe:
        return run_probe(args.probe, workload, args.seed, args.scale, args.tmp)
    tmp = os.path.join(RESULTS, "tmp", f"{workload.name}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        result, spans = run(workload, args.seed, args.seconds, args.scale, tmp, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(result, spans)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    # Thread pins and the hash seed must be in place before the interpreter
    # (and numpy) start: re-exec once with them set.
    if any(os.environ.get(k) != v for k, v in measure.THREAD_ENV.items()):
        environ = {**os.environ, **measure.THREAD_ENV}
        os.execve(sys.executable, [sys.executable, SCRIPT, *sys.argv[1:]], environ)
    sys.exit(main())
