"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

* ``train``    — train a workload under virtual node processing, with
  optional mid-training resizes;
* ``infer``    — serve inference batches under virtual node processing and
  report per-request latency;
* ``serve``    — online serving: admit a Poisson request stream, coalesce
  micro-batches, and (optionally) autoscale the virtual-node→device
  mapping against a p99 SLO;
* ``cosched``  — co-scheduled training + serving on one shared device
  pool: the co-scheduler harvests training GPUs during serving spikes and
  returns them when the p99 recovers;
* ``chaos``    — the same co-scheduled run under a seeded fault plan:
  device crashes with recovery (migrate or checkpoint-restore), straggler
  windows, and network-degradation windows injected as runtime events;
* ``audit``    — replay a multi-tenant request journal (written by
  ``serve``/``cosched``/``chaos`` ``--journal``) into per-tenant SLO
  attainment, offline, from the journal alone;
* ``plan``     — show the execution plan (waves, memory, predicted step
  time) for a configuration without training;
* ``profile``  — run the offline profiler for a workload across device
  types (§5.1.1);
* ``solve``    — run the heterogeneous solver for a device pool (§5.1.2);
* ``simulate`` — run the elastic scheduling simulation (§6.4);
* ``gavel``    — run the Gavel ± heterogeneous-allocations comparison
  (§6.5.2).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Dict, Optional, Sequence

from repro._lazy import lazy_exports
from repro.framework.models import WORKLOADS
from repro.utils.tabulate import format_table
from repro.utils.units import format_duration

__all__ = ["main", "build_parser"]

# Each handler imports the stack it runs, so a subcommand's start-up compiles
# only its own layers.  The three entry points a run hands off to are read
# off this module when the handler calls them (``_module.serve_workload``),
# so a caller that rebinds ``repro.cli.<name>`` — a test's recorder, the
# end-to-end benchmark's capture — sees the call go through its binding.
__getattr__, __dir__ = lazy_exports(__name__, {
    "VirtualFlowTrainer": "repro.core",
    "serve_workload": "repro.serving",
    "run_cosched": "repro.sched",
})
_module = sys.modules[__name__]


def _parse_device_counts(text: str) -> Dict[str, int]:
    """Parse 'V100=2,P100=4' into {'V100': 2, 'P100': 4}."""
    counts: Dict[str, int] = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"expected TYPE=COUNT entries, got {part!r}")
        name, _, value = part.partition("=")
        try:
            counts[name.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad count in {part!r}") from None
    return counts


def _bounded(cast, minimum, exclusive: bool = True):
    """Argparse type factory: a number with a lower bound.

    Domain errors on flag values should be usage errors, not tracebacks
    from deep inside the serving stack.
    """
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}") from None
        # NaN passes every comparison below and +inf every lower bound.
        if (not math.isfinite(value) or value < minimum
                or (exclusive and value == minimum)):
            op = ">" if exclusive else ">="
            raise argparse.ArgumentTypeError(
                f"must be a finite number {op} {minimum}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse error messages name the type
    return parse


_positive_float = _bounded(float, 0.0)
_nonnegative_float = _bounded(float, 0.0, exclusive=False)
_spike_factor = _bounded(float, 1.0, exclusive=False)
_degradation_factor = _bounded(float, 1.0)  # network windows must cost more


def _straggler_speed(text: str) -> float:
    """A straggler runs strictly slower than healthy: speed in (0, 1)."""
    value = _positive_float(text)
    if value >= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value
_positive_int = _bounded(int, 0)
_nonnegative_int = _bounded(int, 0, exclusive=False)


def _add_runtime_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The event-runtime knob shared by every discrete-event command."""
    sub_parser.add_argument(
        "--trace-sample", type=_positive_int, default=1, metavar="N",
        help="journal every Nth event to --trace-out (default 1 = all; the "
             "trace records the stride in a leading meta line)")


def _make_trace(args):
    """The ``trace`` argument for a run: a sampling writer, a path, or None."""
    if args.trace_out is not None and args.trace_sample > 1:
        from repro.runtime.trace import EventTrace
        return EventTrace(args.trace_out, sample=args.trace_sample)
    return args.trace_out


def _add_profile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="run under cProfile and dump the stats file here "
                        "(off by default; inspect with python -m pstats)")


@contextmanager
def _maybe_profile(path: Optional[str]):
    """cProfile the wrapped run when ``--profile PATH`` is set.

    Stats are dumped even when the run raises, so a profile of a crashing
    configuration is still recoverable.
    """
    if not path:
        yield
        return
    import cProfile
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"cProfile stats written to {path} "
              f"(inspect with: python -m pstats {path})")


def _add_tenancy_flags(p: argparse.ArgumentParser) -> None:
    """The multi-tenant gateway surface (``serve``, ``cosched``, ``chaos``)."""
    p.add_argument("--tenants", default=None, metavar="SPEC",
                   help="serve through the multi-tenant gateway: "
                        "';'-separated name[:key=value,...] entries with "
                        "keys class/weight/quota/burst/p99/share, e.g. "
                        "'prem:class=premium,weight=4,quota=300;"
                        "batch:weight=1'")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="append the durable per-request JSONL journal here "
                        "(needs --tenants; replay with 'repro audit')")
    p.add_argument("--dispatcher", choices=("wfq", "fifo"), default="wfq",
                   help="tenant dispatch policy (wfq = weighted fair "
                        "queueing; fifo = strict arrival order, the "
                        "fairness baseline)")


def _tenancy_from_args(args):
    """(registry, journal, dispatcher) from the shared tenancy flags.

    Usage errors (journal or a non-default dispatcher without a registry,
    or a malformed spec) print to stderr and exit 2, like argparse's own.
    """
    if args.tenants is None:
        if args.journal is not None:
            print("error: --journal needs --tenants", file=sys.stderr)
            raise SystemExit(2)
        if args.dispatcher != "wfq":
            print("error: --dispatcher needs --tenants", file=sys.stderr)
            raise SystemExit(2)
        return None, None, "wfq"
    from repro.serving.tenancy import TenantRegistry
    try:
        registry = TenantRegistry.from_spec(args.tenants)
    except ValueError as exc:
        print(f"error: bad --tenants: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return registry, args.journal, args.dispatcher


def _tenant_table(tenants, title: str) -> str:
    """The per-tenant table, the same rows live (``report.tenants``) and
    replayed from a journal (``audit_journal(...)["tenants"]``)."""
    rows = [
        [tenant, f"{d['weight']:g}", f"{int(d['requests'])}",
         f"{int(d['shed'])}", f"{d['latency_p99_ms']:.2f}",
         f"{d['slo_p99_ms']:.0f}", f"{d['slo_attainment']:.1%}"]
        for tenant, d in tenants.items()
    ]
    return format_table(
        ["tenant", "weight", "served", "shed", "p99 (ms)", "SLO (ms)",
         "attainment"],
        rows, title=title)


def _print_tenant_table(report) -> None:
    """The per-tenant SLO attainment table of a gateway run."""
    if report.tenants:
        print(_tenant_table(report.tenants, "per-tenant SLO attainment"))


def _add_cosched_flags(p: argparse.ArgumentParser) -> None:
    """The shared co-scheduling surface (``cosched`` and ``chaos``)."""
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS),
                   help="the serving workload (training jobs come from "
                        "--train-workload)")
    p.add_argument("--arrival-rate", type=_positive_float, required=True,
                   help="base request arrivals per second (open-loop Poisson)")
    p.add_argument("--duration", type=_positive_float, default=8.0,
                   help="seconds of base load (split around the spike)")
    p.add_argument("--spike-factor", type=_spike_factor, default=4.0,
                   help="multiply the rate by this for a mid-trace spike")
    p.add_argument("--spike-duration", type=_positive_float, default=2.0,
                   help="seconds the spike lasts")
    p.add_argument("--max-batch", type=_positive_int, default=16)
    p.add_argument("--max-wait", type=_nonnegative_float, default=2.0,
                   help="micro-batch wait budget, milliseconds")
    p.add_argument("--devices", type=_positive_int, default=8,
                   help="shared pool size")
    p.add_argument("--device-type", default="V100")
    p.add_argument("--initial-serving", type=_positive_int, default=1,
                   help="devices the router starts with")
    p.add_argument("--slo-p99", type=_positive_float, default=35.0,
                   help="p99 latency objective, milliseconds")
    p.add_argument("--static", action="store_true",
                   help="freeze the partition at --initial-serving "
                        "(the baseline the harvest frontier beats)")
    p.add_argument("--train-jobs", type=_positive_int, default=2,
                   help="resident elastic training jobs on the pool")
    p.add_argument("--train-workload", default="resnet56_cifar10",
                   choices=sorted(WORKLOADS))
    p.add_argument("--train-demand", type=_positive_int, default=4,
                   help="GPUs each training job demands")
    p.add_argument("--train-floor", type=_nonnegative_int, default=0,
                   help="devices serving may never harvest")
    p.add_argument("--resize-delay", type=_nonnegative_float, default=0.5,
                   help="training-side §4.1 resize stall, seconds")
    p.add_argument("--requests", type=_positive_int, default=None,
                   help="cap on admitted requests")
    p.add_argument("--shed-queue-depth", type=_positive_int, default=None,
                   metavar="N",
                   help="shed arrivals once N admitted requests are queued "
                        "(load-shedding admission control)")
    p.add_argument("--shed-wait", type=_positive_float, default=None,
                   metavar="MS",
                   help="shed arrivals whose estimated wait exceeds MS "
                        "milliseconds")
    p.add_argument("--brownout", action="store_true",
                   help="halve max-batch/max-wait while serving capacity "
                        "is derated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the runtime's JSONL event timeline here")
    _add_profile_flag(p)
    _add_tenancy_flags(p)
    _add_runtime_flags(p)


def _parse_resize(text: str):
    """Parse 'EPOCH:DEVICES' resize directives."""
    epoch, _, devices = text.partition(":")
    try:
        return int(epoch), int(devices)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected EPOCH:DEVICES, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VirtualFlow reproduction: virtual node processing for "
                    "deep learning workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a workload under virtual nodes")
    train.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    train.add_argument("--batch", type=int, required=True,
                       help="global batch size (hardware-free)")
    train.add_argument("--virtual-nodes", type=int, required=True)
    train.add_argument("--devices", type=int, default=1)
    train.add_argument("--device-type", default="V100")
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--dataset-size", type=int, default=2048)
    train.add_argument("--lr", type=float, default=None)
    train.add_argument("--resize", type=_parse_resize, action="append",
                       default=[], metavar="EPOCH:DEVICES",
                       help="resize after EPOCH to DEVICES (repeatable)")
    # Older command lines spell the one execution backend; accepted, ignored.
    train.add_argument("--backend", choices=["fused"], help=argparse.SUPPRESS)

    infer = sub.add_parser("infer", help="serve inference under virtual nodes")
    infer.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    infer.add_argument("--batch", type=int, required=True,
                       help="virtual-node-set batch size (hardware-free)")
    infer.add_argument("--virtual-nodes", type=int, required=True)
    infer.add_argument("--devices", type=int, default=1)
    infer.add_argument("--device-type", default="V100")
    infer.add_argument("--requests", type=int, default=4,
                       help="number of request batches to serve")
    infer.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="online serving with micro-batching and autoscaling")
    serve.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    serve.add_argument("--arrival-rate", type=_positive_float, required=True,
                       help="base request arrivals per second (open-loop Poisson)")
    serve.add_argument("--duration", type=_positive_float, default=8.0,
                       help="seconds of base load (split around the spike)")
    serve.add_argument("--spike-factor", type=_spike_factor, default=1.0,
                       help="multiply the rate by this for a mid-trace spike "
                            "(1 = steady load)")
    serve.add_argument("--spike-duration", type=_positive_float, default=2.0,
                       help="seconds the spike lasts")
    serve.add_argument("--max-batch", type=_positive_int, default=16,
                       help="micro-batch coalescing cap")
    serve.add_argument("--max-wait", type=_nonnegative_float, default=2.0,
                       help="micro-batch wait budget, milliseconds")
    serve.add_argument("--devices", type=_positive_int, default=4,
                       help="device pool size")
    serve.add_argument("--device-type", default="V100")
    serve.add_argument("--virtual-nodes", type=_positive_int, default=None,
                       help="virtual nodes for the serving job "
                            "(default: pool size)")
    serve.add_argument("--initial-devices", type=_positive_int, default=None,
                       help="starting allocation (default: the full pool, or "
                            "1 with --autoscale)")
    serve.add_argument("--autoscale", action="store_true",
                       help="remap the virtual-node mapping against the SLO")
    serve.add_argument("--slo-p99", type=_positive_float, default=50.0,
                       help="p99 latency objective, milliseconds")
    serve.add_argument("--requests", type=_positive_int, default=None,
                       help="cap on admitted requests")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the runtime's JSONL event timeline here")
    _add_profile_flag(serve)
    _add_tenancy_flags(serve)
    _add_runtime_flags(serve)

    cosched = sub.add_parser(
        "cosched", help="co-scheduled training + serving on one shared pool")
    _add_cosched_flags(cosched)

    chaos = sub.add_parser(
        "chaos", help="co-scheduled run under seeded fault injection")
    _add_cosched_flags(chaos)
    chaos.add_argument("--crash-rate", type=_nonnegative_float, default=0.25,
                       help="device crashes per simulated second (Poisson)")
    chaos.add_argument("--mttr", type=_positive_float, default=2.0,
                       help="mean seconds a crashed device stays down")
    chaos.add_argument("--straggler-rate", type=_nonnegative_float,
                       default=0.15,
                       help="straggler-window onsets per simulated second")
    chaos.add_argument("--straggler-factor", type=_straggler_speed,
                       default=0.6,
                       help="straggler speed multiplier in (0, 1)")
    chaos.add_argument("--straggler-duration", type=_positive_float,
                       default=2.0, help="mean straggler window, seconds")
    chaos.add_argument("--network-rate", type=_nonnegative_float, default=0.1,
                       help="network-degradation onsets per simulated second")
    chaos.add_argument("--network-factor", type=_degradation_factor,
                       default=3.0,
                       help="collective-time multiplier while degraded (> 1)")
    chaos.add_argument("--network-duration", type=_positive_float, default=1.5,
                       help="mean network-degradation window, seconds")
    chaos.add_argument("--topology", default=None, metavar="SPEC",
                       help="failure-domain tree over the pool, e.g. "
                            "racks=4x8 or racks=4x8,switches=2 (device "
                            "count must equal --devices)")
    chaos.add_argument("--correlated", action="store_true",
                       help="correlated chaos over --topology: straggler "
                            "windows open rack-wide and domain wipes are "
                            "drawn (at --wipe-rate, default 0.15)")
    chaos.add_argument("--wipe-rate", type=_nonnegative_float, default=None,
                       help="domain-wipe onsets per simulated second "
                            "(needs --topology; implied 0.15 by "
                            "--correlated)")
    chaos.add_argument("--wipe-level", choices=("rack", "switch"),
                       default="rack",
                       help="failure-domain level a wipe takes out at once")
    chaos.add_argument("--derate-rate", type=_nonnegative_float, default=0.0,
                       help="partial-degradation (ECC-throttle) onsets per "
                            "simulated second")
    chaos.add_argument("--derate-floor", type=_straggler_speed, default=0.55,
                       help="derated speed in (0, 1) while throttled")
    chaos.add_argument("--derate-duration", type=_positive_float, default=2.0,
                       help="seconds a derate lasts before full recovery")
    chaos.add_argument("--chaos-seed", type=int, default=None,
                       help="fault-plan seed (default: --seed)")
    chaos.add_argument("--recovery", choices=("migrate", "checkpoint"),
                       default="migrate",
                       help="training recovery mode: migrate survivors "
                            "(elastic, no lost steps) or restore the last "
                            "checkpoint")
    chaos.add_argument("--retry-delay", type=_positive_float, default=0.05,
                       help="serving re-admission delay after a crash, "
                            "seconds")

    audit = sub.add_parser(
        "audit", help="replay a gateway request journal into per-tenant "
                      "SLO attainment (offline, journal-only)")
    audit.add_argument("--journal", required=True, metavar="PATH",
                       help="JSONL journal written by serve/cosched/chaos "
                            "--journal")
    audit.add_argument("--json", action="store_true",
                       help="print the raw audit payload as JSON")

    plan = sub.add_parser("plan", help="show the execution plan for a config")
    plan.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    plan.add_argument("--batch", type=int, required=True)
    plan.add_argument("--virtual-nodes", type=int, required=True)
    plan.add_argument("--devices", type=int, default=1)
    plan.add_argument("--device-type", default="V100")

    profile = sub.add_parser("profile", help="offline throughput profiling")
    profile.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    profile.add_argument("--device-types", default="V100,P100,K80,RTX2080Ti")
    profile.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="heterogeneous solver")
    solve.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    solve.add_argument("--batch", type=int, required=True)
    solve.add_argument("--pool", type=_parse_device_counts, required=True,
                       metavar="TYPE=N[,TYPE=N...]")
    solve.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="elastic scheduling simulation")
    simulate.add_argument("--jobs", type=_positive_int, default=20)
    simulate.add_argument("--rate", type=_positive_float, default=12.0,
                          help="job arrivals per hour")
    simulate.add_argument("--gpus", type=_positive_int, default=8)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--trace-out", default=None, metavar="PATH",
                          help="write the runtime's JSONL event timeline "
                               "here (elastic scheduler run only)")
    _add_runtime_flags(simulate)

    gavel = sub.add_parser("gavel", help="Gavel vs Gavel+heterogeneous")
    gavel.add_argument("--jobs", type=_positive_int, default=12)
    gavel.add_argument("--rate", type=_positive_float, default=8.0)
    gavel.add_argument("--pool", type=_parse_device_counts,
                       default={"V100": 4, "P100": 8, "K80": 16},
                       metavar="TYPE=N[,TYPE=N...]")
    gavel.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_train(args) -> int:
    from repro.core.trainer import TrainerConfig

    resizes = dict(args.resize)
    trainer = _module.VirtualFlowTrainer(TrainerConfig(
        workload=args.workload, global_batch_size=args.batch,
        num_virtual_nodes=args.virtual_nodes, device_type=args.device_type,
        num_devices=args.devices, seed=args.seed,
        dataset_size=args.dataset_size, learning_rate=args.lr))
    print(trainer.executor.plan.describe())
    rows = []
    for epoch in range(args.epochs):
        record = trainer.train_epoch()
        rows.append([record.epoch, f"{record.train_loss:.4f}",
                     f"{record.val_accuracy:.4f}",
                     format_duration(record.sim_time),
                     len(trainer.cluster)])
        if epoch in resizes:
            migration = trainer.resize(resizes[epoch])
            print(f"resized to {resizes[epoch]} device(s) after epoch {epoch} "
                  f"(migration {migration*1e3:.1f} ms)")
    print(format_table(["epoch", "train loss", "val acc", "sim time", "GPUs"], rows))
    return 0


def _cmd_infer(args) -> int:
    from repro.core.inference import InferenceEngine
    from repro.core.mapping import Mapping
    from repro.core.virtual_node import VirtualNodeSet
    from repro.data.datasets import make_dataset
    from repro.framework.models import get_workload
    from repro.hardware.cluster import Cluster

    workload = get_workload(args.workload)
    vn_set = VirtualNodeSet.even(args.batch, args.virtual_nodes)
    cluster = Cluster.homogeneous(args.device_type, args.devices)
    engine = InferenceEngine(workload, workload.build_model(args.seed),
                             Mapping.even(vn_set, cluster))
    # val_fraction is 0.2, so 8x the batch guarantees full request batches.
    dataset = make_dataset(workload.dataset, n=max(8 * args.batch, 64), seed=args.seed)
    rows = []
    for r in range(args.requests):
        start = (r * args.batch) % max(1, len(dataset.x_val) - args.batch + 1)
        result = engine.predict(dataset.x_val[start:start + args.batch])
        rows.append([r, len(result.logits), result.waves,
                     f"{result.sim_latency * 1e3:.2f}"])
    print(format_table(
        ["request", "examples", "waves", "latency (ms)"], rows,
        title=f"{args.workload} inference on {args.devices}x{args.device_type}, "
              f"{args.virtual_nodes} virtual nodes, backend={engine.backend.name}"))
    print(f"served {engine.requests_served} requests in "
          f"{format_duration(engine.sim_time)} simulated")
    return 0


def _cmd_serve(args) -> int:
    from repro.elastic.trace import ServingPhase, spike_phases
    from repro.runtime.trace import EventTrace

    if args.spike_factor > 1.0:
        phases = spike_phases(args.arrival_rate, args.spike_factor,
                              base_duration=args.duration / 2,
                              spike_duration=args.spike_duration)
    else:
        phases = [ServingPhase(args.duration, args.arrival_rate)]
    slo = args.slo_p99 / 1e3
    trace = _make_trace(args)
    tenants, journal, dispatcher = _tenancy_from_args(args)
    try:
        with _maybe_profile(args.profile):
            report = _module.serve_workload(
                args.workload, phases,
                max_batch=args.max_batch, max_wait=args.max_wait / 1e3,
                pool_devices=args.devices, device_type=args.device_type,
                virtual_nodes=args.virtual_nodes,
                initial_devices=args.initial_devices,
                autoscale=args.autoscale,
                slo_p99=slo if args.autoscale else None,
                seed=args.seed, limit=args.requests,
                trace=trace, tenants=tenants, journal=journal,
                dispatcher=dispatcher)
    finally:
        if isinstance(trace, EventTrace):
            trace.close()
    summary = report.summary(slo_p99=slo)
    rows = [
        ["requests served", f"{int(summary['requests'])}"],
        ["micro-batches", f"{int(summary['batches'])} "
                          f"(mean size {summary['mean_batch_size']:.1f})"],
        ["sim duration", format_duration(summary["duration_s"])],
        ["throughput", f"{summary['throughput_rps']:.0f} req/s"],
        ["latency p50 / p99", f"{summary['latency_p50_ms']:.2f} / "
                              f"{summary['latency_p99_ms']:.2f} ms"],
        ["queue / service (mean)", f"{summary['mean_queue_delay_ms']:.2f} / "
                                   f"{summary['mean_service_ms']:.2f} ms"],
        [f"SLO p99 <= {args.slo_p99:.0f} ms",
         f"{'MET' if summary['meets_slo'] else 'MISSED'} "
         f"(attainment {summary['slo_attainment']:.1%})"],
        ["devices (avg / final)", f"{summary['avg_devices']:.2f} / "
                                  f"{report.final_devices}"],
        ["remaps", f"{int(summary['remaps'])}"],
    ]
    mode = "autoscaled" if args.autoscale else "fixed mapping"
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.workload} serving on a pool of "
              f"{args.devices}x{args.device_type} ({mode}), "
              f"rate {args.arrival_rate:.0f}/s"
              + (f" with {args.spike_factor:.0f}x spike"
                 if args.spike_factor > 1 else "")))
    for when, old, new, cost in report.scaling_events:
        print(f"  t={when:7.3f}s  remapped {old} -> {new} devices "
              f"(cost {cost*1e3:.1f} ms)")
    _print_tenant_table(report)
    if journal:
        print(f"request journal written to {journal}")
    if args.trace_out:
        print(f"event timeline written to {args.trace_out}")
    return 0


def _admission_from_args(args):
    """The AdmissionPolicy the shared shed flags describe (None if unset)."""
    if (args.shed_queue_depth is None and args.shed_wait is None
            and not args.brownout):
        return None
    from repro.serving.batcher import AdmissionPolicy
    return AdmissionPolicy(
        max_queue_depth=args.shed_queue_depth,
        max_estimated_wait=(None if args.shed_wait is None
                            else args.shed_wait / 1e3),
        brownout=args.brownout)


def _cmd_cosched(args, fault_plan=None, recovery=None,
                 retry_delay: float = 0.05, topology=None) -> int:
    from repro.elastic.trace import spike_phases
    from repro.runtime.trace import EventTrace
    from repro.sched.cosched import resident_training_jobs

    phases = spike_phases(args.arrival_rate, args.spike_factor,
                          base_duration=args.duration / 2,
                          spike_duration=args.spike_duration)
    slo = args.slo_p99 / 1e3
    train_specs = resident_training_jobs(
        args.train_jobs, demand_gpus=args.train_demand,
        workload=args.train_workload)
    trace = _make_trace(args)
    admission = _admission_from_args(args)
    tenants, journal, dispatcher = _tenancy_from_args(args)
    try:
        with _maybe_profile(args.profile):
            report = _module.run_cosched(
                args.workload, phases, train_specs,
                pool_devices=args.devices, device_type=args.device_type,
                max_batch=args.max_batch, max_wait=args.max_wait / 1e3,
                initial_serving=args.initial_serving,
                autoscale=not args.static,
                slo_p99=None if args.static else slo,
                train_floor=args.train_floor, resize_delay=args.resize_delay,
                seed=args.seed, limit=args.requests,
                trace=trace, fault_plan=fault_plan, recovery=recovery,
                retry_delay=retry_delay,
                admission=admission, topology=topology,
                tenants=tenants, journal=journal, dispatcher=dispatcher)
    finally:
        if isinstance(trace, EventTrace):
            trace.close()
    summary = report.summary(slo_p99=slo)
    rows = [
        ["requests served", f"{int(summary['serving_requests'])}"],
        ["serving p50 / p99", f"{summary['serving_latency_p50_ms']:.2f} / "
                              f"{summary['serving_latency_p99_ms']:.2f} ms"],
        [f"SLO p99 <= {args.slo_p99:.0f} ms",
         f"{'MET' if summary['serving_meets_slo'] else 'MISSED'} "
         f"(attainment {summary['serving_slo_attainment']:.1%})"],
        ["serving devices (avg)", f"{summary['serving_avg_devices']:.2f}"],
        ["training goodput", f"{summary['train_goodput_sps']:.1f} steps/s "
                             f"({summary['train_steps']:.0f} steps)"],
        ["training devices (avg)", f"{summary['train_avg_devices']:.2f}"],
        ["harvests / remaps", f"{int(summary['harvests'])} / "
                              f"{int(summary['serving_remaps'])}"],
        ["sim duration", format_duration(summary["duration_s"])],
    ]
    if admission is not None:
        rows.append(
            ["requests shed (brownout batches)",
             f"{int(summary['serving_shed_requests'])} "
             f"({summary['serving_shed_rate']:.1%} of offered, "
             f"{int(summary['serving_brownout_batches'])} brownout)"])
    if report.chaos is not None:
        rows.extend([
            ["chaos crashes / revives",
             f"{report.chaos['crashes']} / {report.chaos['revives']}"],
            ["chaos windows (straggler / network)",
             f"{report.chaos['straggler_windows']} / "
             f"{report.chaos['network_windows']}"],
            ["chaos derate events",
             f"{report.chaos.get('derate_events', 0)}"],
            ["requests requeued after crashes",
             f"{report.chaos.get('requeued_requests', 0)}"],
            ["train recoveries (checkpoint restores)",
             f"{len(report.chaos.get('train_recoveries', []))} "
             f"({report.chaos.get('checkpoint_restores', 0)})"],
        ])
    mode = "static partition" if args.static else "co-scheduled"
    if fault_plan is not None:
        mode += " + chaos"
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.workload} serving + {args.train_jobs}x "
              f"{args.train_workload} on a shared pool of "
              f"{args.devices}x{args.device_type} ({mode}), "
              f"rate {args.arrival_rate:.0f}/s with "
              f"{args.spike_factor:.0f}x spike"))
    for when, before, after in report.harvests:
        verb = "harvested" if after < before else "restored"
        print(f"  t={when:7.3f}s  {verb} training budget {before} -> {after} "
              f"GPUs")
    if report.chaos is not None:
        for when, kind, device, factor, owner in report.chaos["events"]:
            detail = f"device {device}" if device >= 0 else "fabric"
            if kind in ("straggler_start", "network_start", "derate"):
                detail += f" x{factor:.2f}"
            if owner:
                detail += f" (held by {owner})"
            print(f"  t={when:7.3f}s  chaos {kind:<15s} {detail}")
    _print_tenant_table(report.serving)
    if journal:
        print(f"request journal written to {journal}")
    if args.trace_out:
        print(f"event timeline written to {args.trace_out}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos.degradation import ECCThrottle
    from repro.chaos.plan import random_plan
    from repro.chaos.topology import FailureDomainTopology
    from repro.core.fault_tolerance import RecoveryPolicy

    topology = None
    if args.topology is not None:
        try:
            topology = FailureDomainTopology.from_spec(args.topology)
            topology.validate_devices(range(args.devices), owner="--devices")
        except ValueError as exc:
            print(f"error: bad --topology: {exc}", file=sys.stderr)
            return 2
    if args.correlated and topology is None:
        print("error: --correlated needs a --topology", file=sys.stderr)
        return 2
    if args.wipe_rate is not None and args.wipe_rate > 0 and topology is None:
        print("error: --wipe-rate needs a --topology", file=sys.stderr)
        return 2
    wipe_rate = args.wipe_rate
    if wipe_rate is None:
        wipe_rate = 0.15 if args.correlated else 0.0
    phase_total = args.duration + args.spike_duration
    try:
        plan = random_plan(
            seed=args.seed if args.chaos_seed is None else args.chaos_seed,
            duration=phase_total, devices=args.devices,
            crash_rate=args.crash_rate, mttr=args.mttr,
            straggler_rate=args.straggler_rate,
            straggler_factor=args.straggler_factor,
            straggler_duration=args.straggler_duration,
            network_rate=args.network_rate, network_factor=args.network_factor,
            network_duration=args.network_duration,
            min_healthy=max(2, args.train_floor + 1),
            topology=topology, wipe_rate=wipe_rate,
            wipe_level=args.wipe_level,
            correlated_stragglers=args.correlated,
            derate_rate=args.derate_rate,
            derate_curve=ECCThrottle(speed=args.derate_floor,
                                     duration_s=args.derate_duration))
    except ValueError as exc:
        print(f"error: infeasible fault plan: {exc}", file=sys.stderr)
        return 2
    print(plan.describe())
    return _cmd_cosched(args, fault_plan=plan,
                        recovery=RecoveryPolicy(mode=args.recovery),
                        retry_delay=args.retry_delay, topology=topology)


def _cmd_audit(args) -> int:
    from repro.serving.gateway import audit_journal

    try:
        audit = audit_journal(args.journal)
    except OSError as exc:
        print(f"error: cannot read journal: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed journal: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(audit, indent=2, sort_keys=True))
        return 0
    print(_tenant_table(
        audit["tenants"],
        f"journal audit: {audit['requests']} served, {audit['shed']} shed "
        f"({audit['dispatcher'] or 'unknown'} dispatcher)"))
    if audit.get("torn_tail"):
        print(f"note: the journal ends in {audit['torn_tail']} torn "
              f"(unparsable) line; the table covers the intact prefix")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.mapping import Mapping
    from repro.core.plan import ExecutionPlan
    from repro.core.virtual_node import VirtualNodeSet
    from repro.framework.models import get_workload
    from repro.hardware.cluster import Cluster

    workload = get_workload(args.workload)
    vn_set = VirtualNodeSet.even(args.batch, args.virtual_nodes)
    cluster = Cluster.homogeneous(args.device_type, args.devices)
    plan = ExecutionPlan(workload, Mapping.even(vn_set, cluster))
    print(plan.describe())
    return 0


def _cmd_profile(args) -> int:
    from repro.profiler.offline import OfflineProfiler

    device_types = [t.strip() for t in args.device_types.split(",") if t.strip()]
    profiler = OfflineProfiler(seed=args.seed)
    for device_type in device_types:
        try:
            profile = profiler.profile(args.workload, device_type)
        except ValueError as exc:
            print(f"{device_type}: {exc}")
            continue
        rows = [[b, f"{profile.step_time(b)*1e3:.2f}", f"{profile.throughput(b):.0f}"]
                for b in profile.batch_sizes]
        print(format_table(["batch", "wave ms", "examples/s"], rows,
                           title=f"{args.workload} on {device_type} "
                                 f"(comm overhead {profile.comm_overhead*1e3:.1f} ms)"))
        print()
    return 0


def _cmd_solve(args) -> int:
    from repro.hetero.solver import HeterogeneousSolver
    from repro.profiler.offline import OfflineProfiler

    profiler = OfflineProfiler(seed=args.seed)
    store = profiler.profile_all(args.workload, sorted(args.pool))
    solver = HeterogeneousSolver(args.workload, store)
    best = solver.solve(args.pool, args.batch)
    print(best.describe())
    homogeneous = solver.solve_homogeneous(args.pool, args.batch)
    if homogeneous is not None and not best.is_homogeneous:
        gain = best.predicted_throughput / homogeneous.predicted_throughput - 1
        print(f"vs best homogeneous ({homogeneous.describe()}): {gain:+.1%}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.elastic.metrics import compute_metrics
    from repro.elastic.priority import StaticPriorityScheduler
    from repro.elastic.simulator import ClusterSimulator
    from repro.elastic.trace import generate_trace
    from repro.elastic.wfs import ElasticWFSScheduler
    from repro.runtime.trace import EventTrace

    trace = generate_trace(args.jobs, args.rate, seed=args.seed)
    rows = []
    for scheduler in (ElasticWFSScheduler(), StaticPriorityScheduler()):
        # The JSONL timeline (when asked for) records the elastic run — the
        # scheduler the paper's figures are about.
        trace_out = _make_trace(args) if scheduler.elastic else None
        try:
            metrics = compute_metrics(
                ClusterSimulator(args.gpus, scheduler).run(
                    trace, trace=trace_out))
        finally:
            if isinstance(trace_out, EventTrace):
                trace_out.close()
        rows.append([metrics.scheduler_name,
                     format_duration(metrics.makespan),
                     format_duration(metrics.median_jct),
                     format_duration(metrics.median_queuing_delay),
                     f"{metrics.utilization:.1%}"])
    print(format_table(
        ["scheduler", "makespan", "median JCT", "median queue", "util"], rows,
        title=f"{args.jobs} jobs at {args.rate}/h on {args.gpus} GPUs"))
    if args.trace_out:
        print(f"event timeline written to {args.trace_out}")
    return 0


def _cmd_gavel(args) -> int:
    from repro.elastic.trace import generate_trace
    from repro.sched.gavel import GavelSimulator

    trace = generate_trace(args.jobs, args.rate, seed=args.seed,
                           target_runtime=2400)
    rows = []
    for hetero in (False, True):
        result = GavelSimulator(args.pool, heterogeneous=hetero).run(trace)
        rows.append(["Gavel+HT" if hetero else "Gavel",
                     f"{result.avg_jct():.0f}",
                     f"{result.hetero_round_fraction():.1%}"])
    pool = ", ".join(f"{n}x{t}" for t, n in sorted(args.pool.items()))
    print(format_table(["scheduler", "avg JCT (s)", "hetero rounds"], rows,
                       title=f"{args.jobs} jobs at {args.rate}/h on {pool}"))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "infer": _cmd_infer,
    "serve": _cmd_serve,
    "cosched": _cmd_cosched,
    "chaos": _cmd_chaos,
    "audit": _cmd_audit,
    "plan": _cmd_plan,
    "profile": _cmd_profile,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "gavel": _cmd_gavel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
