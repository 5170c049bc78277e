"""One driver for every CI benchmark smoke and perf gate.

CI used to carry one copy-pasted workflow step per benchmark; adding a
benchmark meant editing the workflow in several places.  Now a benchmark is
a one-line :data:`GATES` registration here, and the workflow runs exactly
two steps::

    python run_gates.py --smoke   # tiny configs, breakage detection
    python run_gates.py --gate    # the real speedup/correctness gates

Both modes run each benchmark as a subprocess from this directory (smokes
via ``python bench_<x>.py --smoke``, gates via ``pytest bench_<x>.py``) with
BLAS threading pinned to one thread unless the caller overrides it — shared
CI runners oversubscribe cores, and unpinned OpenBLAS turns every wall-clock
measurement into noise.  Wall-clock gates additionally get **one retry**: a
throttled runner can flake a legitimate speedup threshold once, but a real
regression fails twice.  Deterministic gates (simulated-time benchmarks)
never retry — a failure there is a real bug by construction.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS/threading pins applied to every child unless already set by the
# caller (explicit env always wins).
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Gate:
    """One registered benchmark.

    ``smoke``: the script supports ``--smoke`` (tiny config, no gate).
    ``gate``: the script carries pytest gate tests.
    ``wall_clock``: the gate asserts host wall-clock speedups, so shared-
    runner noise is possible and the driver allows one retry; simulated-time
    gates are deterministic and never retry.
    """

    name: str
    script: str
    smoke: bool = True
    gate: bool = True
    wall_clock: bool = True


# Adding a benchmark to CI is this one line (plus the script itself).
GATES: Tuple[Gate, ...] = (
    Gate("chaos_goodput", "bench_chaos_goodput.py", wall_clock=False),
    Gate("cosched_harvest", "bench_cosched_harvest.py", wall_clock=False),
    Gate("domain_blast", "bench_domain_blast.py", wall_clock=False),
    Gate("fig15_16_gavel", "bench_fig15_16_gavel_hetero.py", smoke=False,
         wall_clock=False),
    Gate("fig17_microbench", "bench_fig17_microbench.py", smoke=False),
    Gate("fused_coverage", "bench_fused_coverage.py"),
    Gate("gateway_throughput", "bench_gateway_throughput.py"),
    Gate("serving_slo", "bench_serving_slo.py", wall_clock=False),
    Gate("tenant_fairness", "bench_tenant_fairness.py", wall_clock=False),
)


def _child_env() -> dict:
    env = dict(os.environ)
    for key, value in THREAD_PINS.items():
        env.setdefault(key, value)
    env.setdefault("PYTHONPATH", os.path.join(HERE, os.pardir, "src"))
    return env


def _run(argv: Sequence[str]) -> int:
    print(f"$ {' '.join(argv)}", flush=True)
    return subprocess.call(list(argv), cwd=HERE, env=_child_env())


def _select(names: Sequence[str]) -> List[Gate]:
    if not names:
        return list(GATES)
    by_name = {g.name: g for g in GATES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(by_name))}")
    return [by_name[n] for n in names]


def run_smoke(names: Sequence[str]) -> int:
    failures = 0
    for gate in _select(names):
        if not gate.smoke:
            continue
        if _run([sys.executable, gate.script, "--smoke"]) != 0:
            print(f"SMOKE FAILED: {gate.name}", file=sys.stderr)
            failures += 1
    return failures


def run_gates(names: Sequence[str]) -> int:
    failures = 0
    for gate in _select(names):
        if not gate.gate:
            continue
        rc = _run([sys.executable, "-m", "pytest", "-x", "-q", gate.script])
        if rc != 0 and gate.wall_clock:
            print(f"{gate.name}: wall-clock gate failed once; retrying "
                  f"(shared-runner noise tolerance)", flush=True)
            rc = _run([sys.executable, "-m", "pytest", "-x", "-q", gate.script])
            if rc != 0:
                # Distinct from the first-failure line: a second failure is
                # past the noise tolerance, i.e. a real regression.
                print(f"{gate.name}: failed after retry — treating as a "
                      f"real regression, not runner noise", file=sys.stderr)
        if rc != 0:
            print(f"GATE FAILED: {gate.name}", file=sys.stderr)
            failures += 1
    return failures


def check_registry() -> int:
    """Every benchmark that emits a ``BENCH_*.json`` must be a registered
    gate.  A perf record nobody runs in CI silently goes stale; this check
    turns the omission into a CI failure with a one-line fix."""
    registered = {g.script for g in GATES}
    missing = []
    for fname in sorted(os.listdir(HERE)):
        if not (fname.startswith("bench_") and fname.endswith(".py")):
            continue
        with open(os.path.join(HERE, fname)) as fh:
            emits = "save_bench_json(" in fh.read()
        if emits and fname not in registered:
            missing.append(fname)
    if missing:
        for fname in missing:
            print(f"UNREGISTERED: {fname} emits a BENCH_*.json but is not "
                  f"in run_gates.GATES", file=sys.stderr)
        return len(missing)
    print(f"registry check: every BENCH_*.json emitter is registered "
          f"({len(registered)} gates)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true",
                      help="print the registered benchmarks")
    mode.add_argument("--smoke", action="store_true",
                      help="run every smoke (tiny configs, no perf gates)")
    mode.add_argument("--gate", action="store_true",
                      help="run every perf/correctness gate via pytest")
    mode.add_argument("--check-registry", action="store_true",
                      help="fail if any BENCH_*.json emitter is missing "
                           "from the gate registry")
    parser.add_argument("names", nargs="*",
                        help="restrict to these registered benchmarks")
    args = parser.parse_args(argv)

    if args.list:
        for gate in GATES:
            kinds = [k for k, on in (("smoke", gate.smoke), ("gate", gate.gate))
                     if on]
            noise = "wall-clock (1 retry)" if gate.wall_clock else "deterministic"
            print(f"{gate.name:18s} {gate.script:28s} "
                  f"[{', '.join(kinds)}; {noise}]")
        return 0
    if args.check_registry:
        return 1 if check_registry() else 0
    failures = run_smoke(args.names) if args.smoke else run_gates(args.names)
    if failures:
        print(f"{failures} benchmark step(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
