"""The four whole-scenario workloads of the end-to-end ledger.

Each workload is one CLI-shaped scenario (``repro.cli.main(argv)`` → printed
report); ``serve_overload`` alone calls ``serve_workload`` directly because
``repro serve`` has no shed flags.  Parameters are frozen here: ``--scale 1``
is what ``BENCHMARK.json`` measures, smaller scales exist for the harness
self-test only.  See ``README.md`` in this directory for why these four.

``repro`` is imported inside functions, never at module import: the harness
pins BLAS threads before numpy loads and measures the import itself as part
of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

# One premium tenant (weight 8, 300 req/s quota) and one best-effort flood
# taking 4/5 of the offered load: the ROADMAP's measured serve scenario.
STEADY_TENANTS = "prem:class=premium,weight=8,quota=300;flood:share=4"
STEADY_RATE, STEADY_DURATION = 2000.0, 4.0
# Overload: premium offers 250 req/s (inside its 300 req/s quota, so none of
# it may ever be shed) under a 16000 req/s best-effort flood on one device.
OVERLOAD_TENANTS = (
    "prem:class=premium,weight=8,quota=300,share=250;flood:class=best_effort,share=16000"
)
OVERLOAD_RATE, OVERLOAD_DURATION = 16250.0, 2.5
# The fault plan is the same for every --seed: ten different plans differ by
# 17% in events processed, which is a different workload, not noise.
CHAOS_SEED = 11
CHAOS_RATE, CHAOS_SPIKE = 500.0, 5.0
CHAOS_DURATION, CHAOS_SPIKE_DURATION = 5.0, 1.0  # base load (split around the spike), spike

Check = Tuple[str, bool, str]  # (label, passed, detail)


@dataclass(frozen=True)
class Context:
    """Everything one scenario repetition depends on."""

    seed: int
    scale: float
    tmp: str  # scratch directory for journals/timelines, inside the checkout

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    # One repetition: runs the scenario, prints its report to stdout, and
    # returns the report object the scenario's entry point produced.
    run: Callable[[Context], Any]
    # The workload's unit count, read off that object.
    units: Callable[[Any], int]
    # Output checks on that object (and the files the scenario wrote).
    checks: Callable[[Context, Any], List[Check]]
    # (module, class, method) whose first call marks the end of set-up.
    loop_entry: Tuple[str, str, str]
    # Files the scenario writes (for runtime.trace.bytes_per_unit).
    outputs: Tuple[str, ...] = ()


@contextlib.contextmanager
def _captured(module, attr: str, sink: list):
    """Record every return value of ``module.attr`` while the block runs.

    The CLI prints its report and returns 0; the report object is picked up
    where the CLI receives it, so checks and unit counts need no second run.
    """
    original = getattr(module, attr)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, recording)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _cli_run(argv: Sequence[str], entry: str):
    """``repro.cli.main(argv)``, returning what the CLI's ``entry`` returned."""
    from repro import cli

    sink: list = []
    with _captured(cli, entry, sink):
        code = cli.main(list(argv))
    if code != 0 or len(sink) != 1:
        raise RuntimeError(f"repro {argv[0]} exited {code} with {len(sink)} {entry} calls")
    return sink[0]


# -- train_fused --------------------------------------------------------------


def _train_argv(ctx: Context, resize: bool = True) -> List[str]:
    # One step per 256 examples; keep at least one step per epoch at any scale.
    dataset = max(int(round(1024 * ctx.scale)), 384)
    argv = [
        "train", "--workload", "resnet56_cifar10", "--batch", "256",
        "--virtual-nodes", "16", "--devices", "4", "--backend", "fused",
        "--epochs", "2", "--dataset-size", str(dataset), "--seed", str(ctx.seed),
    ]  # fmt: skip
    if resize:
        argv += ["--resize", "0:2"]
    return argv


def _run_train(ctx: Context):
    return _cli_run(_train_argv(ctx), "VirtualFlowTrainer")


def _train_checks(ctx: Context, trainer) -> List[Check]:
    """Losses finite, and bit-identical with and without the mid-run resize.

    The comparison run keeps all 4 devices: the paper's guarantee is that the
    virtual-node→device mapping never changes the numbers.
    """
    resized = [(r.train_loss, r.val_loss) for r in trainer.history]
    fixed = [
        (r.train_loss, r.val_loss)
        for r in _cli_run(_train_argv(ctx, resize=False), "VirtualFlowTrainer").history
    ]
    finite = all(math.isfinite(v) for pair in resized for v in pair)
    return [
        ("train.losses_finite", finite, repr(resized)),
        ("train.resize_invariant", resized == fixed, f"{resized!r} vs {fixed!r}"),
    ]


# -- serving ------------------------------------------------------------------


def _offered(tenants_spec: str, phases, seed: int) -> int:
    """Arrivals the source offers, counted without running the router."""
    from repro.data import make_dataset
    from repro.framework import get_workload
    from repro.serving.gateway import MultiTenantPoissonSource
    from repro.serving.tenancy import TenantRegistry, split_phases

    registry = TenantRegistry.from_spec(tenants_spec)
    examples = make_dataset(get_workload("mlp_synthetic").dataset, n=512, seed=seed).x_val
    source = MultiTenantPoissonSource(
        registry, split_phases(phases, registry), examples, seed=seed
    )
    return source.total_requests


def _serving_checks(report, journal: str, tenants_spec: str, offered: int) -> List[Check]:
    """offered = served + shed, journal ≡ live report, in-quota premium kept."""
    import numpy as np

    from repro.serving.gateway import audit_journal
    from repro.serving.tenancy import TenantRegistry

    served, shed = len(report.records), len(report.shed)
    distinct = len({r.request_id for r in report.records})
    # Replay each premium tenant's own token bucket over all of its arrivals
    # (served and shed): an arrival the meter granted must not be in the shed.
    in_quota_shed = 0
    for spec in TenantRegistry.from_spec(tenants_spec):
        bucket = spec.bucket()
        if not spec.premium or bucket is None:
            continue
        kept = [r.arrival_time for r in report.records if r.tenant == spec.tenant_id]
        dropped = [t for t, _id, tenant, _why in report.tenant_shed if tenant == spec.tenant_id]
        times = np.asarray(sorted(kept + dropped), dtype=float)
        granted = set(times[bucket.take_many(times)].tolist())
        in_quota_shed += sum(1 for t in dropped if t in granted)
    return [
        (
            "serving.offered_eq_served_plus_shed",
            offered == served + shed and distinct == served,
            f"offered={offered} served={served} ({distinct} distinct) shed={shed}",
        ),
        (
            "serving.journal_matches_report",
            audit_journal(journal)["tenants"] == report.tenants,
            journal,
        ),
        ("serving.in_quota_premium_never_shed", in_quota_shed == 0, f"{in_quota_shed} shed"),
    ]


def _served_plus_shed(report) -> int:
    return len(report.records) + len(report.shed)


def _steady_phases(ctx: Context):
    from repro.elastic import ServingPhase

    return [ServingPhase(STEADY_DURATION * ctx.scale, STEADY_RATE)]


def _run_steady(ctx: Context):
    argv = [
        "serve", "--workload", "mlp_synthetic", "--arrival-rate", repr(STEADY_RATE),
        "--duration", repr(STEADY_DURATION * ctx.scale), "--devices", "4",
        "--tenants", STEADY_TENANTS, "--journal", ctx.path("journal.jsonl"),
        "--seed", str(ctx.seed),
    ]  # fmt: skip
    return _cli_run(argv, "serve_workload")


def _steady_checks(ctx: Context, report) -> List[Check]:
    offered = _offered(STEADY_TENANTS, _steady_phases(ctx), ctx.seed)
    return _serving_checks(report, ctx.path("journal.jsonl"), STEADY_TENANTS, offered)


def _overload_phases(ctx: Context):
    from repro.elastic import ServingPhase

    return [ServingPhase(OVERLOAD_DURATION * ctx.scale, OVERLOAD_RATE)]


def _run_overload(ctx: Context):
    """The overload scenario, entry to printed report (no CLI spelling exists)."""
    from repro import cli
    from repro.serving import serve_workload
    from repro.serving.batcher import AdmissionPolicy
    from repro.serving.tenancy import TenantRegistry
    from repro.utils import format_duration, format_table

    journal = ctx.path("journal.jsonl")
    report = serve_workload(
        "mlp_synthetic",
        _overload_phases(ctx),
        max_batch=8,
        max_wait=0.002,
        pool_devices=1,
        seed=ctx.seed,
        tenants=TenantRegistry.from_spec(OVERLOAD_TENANTS),
        admission=AdmissionPolicy(max_queue_depth=256),
        journal=journal,
    )
    summary = report.summary()
    batches = f"{int(summary['batches'])} (mean size {summary['mean_batch_size']:.1f})"
    latency = f"{summary['latency_p50_ms']:.2f} / {summary['latency_p99_ms']:.2f} ms"
    rows = [
        ["requests served", f"{int(summary['requests'])}"],
        ["requests shed", f"{len(report.shed)} ({report.shed_rate():.1%} of offered)"],
        ["micro-batches", batches],
        ["sim duration", format_duration(summary["duration_s"])],
        ["latency p50 / p99", latency],
    ]
    print(format_table(["metric", "value"], rows, title="mlp_synthetic overload on 1xV100"))
    cli._print_tenant_table(report)
    print(f"request journal written to {journal}")
    return report


def _overload_checks(ctx: Context, report) -> List[Check]:
    offered = _offered(OVERLOAD_TENANTS, _overload_phases(ctx), ctx.seed)
    return _serving_checks(report, ctx.path("journal.jsonl"), OVERLOAD_TENANTS, offered)


# -- cosched_chaos ------------------------------------------------------------


def _run_chaos(ctx: Context):
    """``run_cosched`` ends with its own ``DevicePool.audit()``
    (busy + idle + failed = capacity·elapsed): a violation raises out of here,
    and the harness records it as a failed operation and ends the run."""
    argv = [
        "chaos", "--workload", "mlp_synthetic", "--arrival-rate", repr(CHAOS_RATE),
        "--spike-factor", repr(CHAOS_SPIKE), "--devices", "8", "--slo-p99", "35",
        "--duration", repr(CHAOS_DURATION * ctx.scale),
        "--spike-duration", repr(CHAOS_SPIKE_DURATION * ctx.scale),
        "--topology", "racks=4x2", "--correlated", "--crash-rate", "0.5",
        "--mttr", "2", "--straggler-rate", "0.15", "--network-rate", "0.1",
        "--derate-rate", "0.5", "--shed-queue-depth", "32", "--shed-wait", "25",
        "--brownout", "--recovery", "migrate", "--tenants", STEADY_TENANTS,
        "--journal", ctx.path("journal.jsonl"), "--trace-out", ctx.path("timeline.jsonl"),
        "--seed", str(ctx.seed), "--chaos-seed", str(CHAOS_SEED),
    ]  # fmt: skip
    return _cli_run(argv, "run_cosched")


def _chaos_checks(ctx: Context, report) -> List[Check]:
    """No request lost across crash requeues; the journal replays to the live
    per-tenant report.  (Premium may be shed here: crashes push it over quota.)"""
    from repro.elastic import spike_phases

    phases = spike_phases(
        CHAOS_RATE,
        CHAOS_SPIKE,
        base_duration=CHAOS_DURATION * ctx.scale / 2,
        spike_duration=CHAOS_SPIKE_DURATION * ctx.scale,
    )
    offered = _offered(STEADY_TENANTS, phases, ctx.seed)
    return _serving_checks(report.serving, ctx.path("journal.jsonl"), STEADY_TENANTS, offered)[:2]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train_fused",
            unit="examples",
            why="The paper's loop: 16 virtual nodes time-sliced over 4 then 2 devices with a "
            "mid-run remap; numpy-bound, so serving or event-core changes must not move it.",
            run=_run_train,
            units=lambda trainer: trainer.executor.examples_seen,
            checks=_train_checks,
            loop_entry=("repro.core.executor", "VirtualFlowExecutor", "run_step"),
        ),
        Workload(
            name="serve_steady",
            unit="requests",
            why="Under-loaded two-tenant serving, every request served in waves under 32: "
            "scalar admission, one event per turn, per-completion accounting, small batches.",
            run=_run_steady,
            units=_served_plus_shed,
            checks=_steady_checks,
            loop_entry=("repro.runtime.core", "Runtime", "run"),
            outputs=("journal.jsonl",),
        ),
        Workload(
            name="serve_overload",
            unit="requests",
            why="The same gateway 65x over capacity: large waves, vectorised shed masks, "
            "take_many, bulk journal lines, deep WFQ backlog; few events, little inference.",
            run=_run_overload,
            units=_served_plus_shed,
            checks=_overload_checks,
            loop_entry=("repro.runtime.core", "Runtime", "run"),
            outputs=("journal.jsonl",),
        ),
        Workload(
            name="cosched_chaos",
            unit="events",
            why="The whole stack in one run: shared pool, autoscaler, co-scheduler, resident "
            "training process, perf-model repricing, fault plan, per-event timeline emits.",
            run=_run_chaos,
            units=lambda report: int(report.events_processed),
            checks=_chaos_checks,
            loop_entry=("repro.runtime.core", "Runtime", "run"),
            outputs=("journal.jsonl", "timeline.jsonl"),
        ),
    )
}
