"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points.  Each flag meaning is
defined once, in the named argument group that owns it (``--help`` shows
them):

* **job** — a workload at a global batch size and the virtual nodes and
  homogeneous pool it maps onto: ``train`` (with mid-training resizes),
  ``infer``, ``plan`` (the execution plan, without training) and
  ``solve`` (the §5.1.2 heterogeneous solver, over a ``--pool``);
* **serving** — a Poisson request trace, micro-batching, the pool, the
  p99 SLO, tenancy, ``--profile`` and the runtime's ``--trace-out``
  timeline: ``serve`` (optionally autoscaled), ``cosched`` (training and
  serving on one shared pool, harvested during spikes) and ``chaos`` (the
  same under a seeded **fault plan**).  The defaults the three differ in
  (``--devices``, ``--spike-factor``, ``--slo-p99``) are arguments;
* **job trace** — ``simulate`` (the §6.4 elastic scheduling simulation)
  and ``gavel`` (Gavel ± heterogeneous allocations, §6.5.2);
* ``audit`` replays a serving ``--journal`` into per-tenant SLO
  attainment, offline; ``profile`` runs the §5.1.1 offline profiler.

Flags two groups take (``--workload``, ``--seed``, the pool) are defined
once in ``_SHARED``.  Numbers parse through ``_bounded`` and device names
and counts against the device registry, so a bad value is a usage error
(exit 2), not a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def _device_type(text: str) -> str:
    """A device type the registry (``hardware.device.DEVICE_SPECS``) knows."""
    # Imported here, not at the top: ``import repro.cli`` stays 13 modules.
    from repro.hardware.device import DEVICE_SPECS

    if text not in DEVICE_SPECS:
        raise argparse.ArgumentTypeError(
            f"unknown device type {text!r} (known: {', '.join(sorted(DEVICE_SPECS))})")
    return text


def _device_types(text: str) -> List[str]:
    """Parse 'V100,P100': at least one known device type."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"expected TYPE[,TYPE...], got {text!r}")
    return [_device_type(name) for name in names]


def _parse_device_counts(text: str) -> Dict[str, int]:
    """Parse 'V100=2,P100=4' into {'V100': 2, 'P100': 4}: known device
    types, each named once, each with at least one device."""
    counts: Dict[str, int] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep:
            raise argparse.ArgumentTypeError(
                f"expected TYPE=COUNT entries, got {part!r}")
        if name in counts:
            raise argparse.ArgumentTypeError(f"{name} is named twice")
        counts[_device_type(name)] = _positive_int(value)
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


def _usage_error(flag: str, message: str):
    """Exit 2 naming ``flag``, as argparse does, for values each valid alone
    but not together."""
    print(f"error: argument {flag}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _add_runtime_flags(group) -> None:
    """The event-timeline flags of every discrete-event command."""
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the runtime's JSONL event timeline here")
    group.add_argument(
        "--trace-sample", type=_positive_int, default=1, metavar="N",
        help="journal every Nth event to --trace-out (default 1 = all; the "
             "trace records the stride in a leading meta line)")


@contextmanager
def _run_outputs(args, serving: Optional[Callable] = None):
    """The run skeleton of the event-runtime commands: yields
    ``run(entry, ...)``, which calls ``entry(..., trace=<the --trace-out
    timeline, or None>)`` under ``--profile`` (stats dumped even when the
    run raises) and returns its report.  The timeline is closed however the
    block ends; a clean end prints the footer: the per-tenant table of the
    report ``serving`` picks out (if given) and the journal, then the
    timeline path."""
    trace, reports = None, []
    if args.trace_out is not None:
        from repro.runtime.trace import EventTrace
        trace = EventTrace(args.trace_out, sample=args.trace_sample)

    def run(entry, *positional, **keywords):
        keywords["trace"] = trace
        path = getattr(args, "profile", None)  # ``simulate`` has no --profile
        if not path:
            reports.append(entry(*positional, **keywords))
            return reports[-1]
        import cProfile
        profiler = cProfile.Profile()
        try:
            reports.append(profiler.runcall(entry, *positional, **keywords))
        finally:
            profiler.dump_stats(path)
            print(f"cProfile stats written to {path} "
                  f"(inspect with: python -m pstats {path})")
        return reports[-1]

    try:
        yield run
    finally:
        if trace is not None:
            trace.close()
    if serving is not None:
        _print_tenant_table(serving(reports[-1]))
        if args.journal:
            print(f"request journal written to {args.journal}")
    if args.trace_out:
        print(f"event timeline written to {args.trace_out}")


def _tenancy_from_args(args):
    """(registry, journal, dispatcher) from the shared tenancy flags.

    Usage errors (journal or a non-default dispatcher without a registry,
    or a malformed spec) print to stderr and exit 2, like argparse's own.
    """
    if args.tenants is None:
        if args.journal is not None:
            _usage_error("--journal", "needs --tenants")
        if args.dispatcher != "wfq":
            _usage_error("--dispatcher", "needs --tenants")
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


def _add_cosched_flags(parser) -> None:
    """The serving group plus the co-scheduling surface (``cosched`` and
    ``chaos``): the resident training jobs, the harvest policy and load
    shedding."""
    group = _add_serving_flags(parser, devices=8, spike_factor=4.0,
                               slo_p99=35.0)
    group.add_argument("--initial-serving", type=_positive_int, default=1,
                       help="devices the router starts with")
    group.add_argument("--static", action="store_true",
                       help="freeze the partition at --initial-serving "
                            "(the baseline the harvest frontier beats)")
    group.add_argument("--train-jobs", type=_positive_int, default=2,
                       help="resident elastic training jobs on the pool")
    group.add_argument("--train-workload", default="resnet56_cifar10",
                       choices=_WORKLOAD_NAMES)
    group.add_argument("--train-demand", type=_positive_int, default=4,
                       help="GPUs each training job demands")
    group.add_argument("--train-floor", type=_nonnegative_int, default=0,
                       help="devices serving may never harvest")
    group.add_argument("--resize-delay", type=_nonnegative_float, default=0.5,
                       help="training-side §4.1 resize stall, seconds")
    group.add_argument("--shed-queue-depth", type=_positive_int, default=None,
                       metavar="N",
                       help="shed arrivals once N admitted requests are "
                            "queued (load-shedding admission control)")
    group.add_argument("--shed-wait", type=_positive_float, default=None,
                       metavar="MS",
                       help="shed arrivals whose estimated wait exceeds MS "
                            "milliseconds")
    group.add_argument("--brownout", action="store_true",
                       help="halve max-batch/max-wait while serving capacity "
                            "is derated")


def _parse_resize(text: str) -> Tuple[int, int]:
    """Parse an 'EPOCH:DEVICES' resize directive (epoch >= 0, devices >= 1)."""
    epoch, sep, devices = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected EPOCH:DEVICES, got {text!r}")
    return _nonnegative_int(epoch), _positive_int(devices)


_WORKLOAD_NAMES = sorted(WORKLOADS)

# The flags more than one group takes, each defined here once.  A group adds
# one with ``_add_shared``, naming only its own default or ``required``.
_SHARED = {
    "--workload": dict(choices=_WORKLOAD_NAMES, required=True),
    "--seed": dict(type=_nonnegative_int, default=0, help="run seed"),
    "--virtual-nodes": dict(type=_positive_int,
                            help="virtual nodes (serve: default the pool size)"),
    "--devices": dict(type=_positive_int, help="device pool size"),
    "--device-type": dict(type=_device_type, default="V100"),
    "--pool": dict(type=_parse_device_counts, metavar="TYPE=N[,TYPE=N...]",
                   help="heterogeneous device pool"),
}


def _add_shared(group, flag: str, **own) -> None:
    group.add_argument(flag, **_SHARED[flag], **own)


def _add_job_flags(parser, *, mapping: bool = True, seed: bool = True):
    """The job group of ``train``, ``infer``, ``plan`` and ``solve``: a
    workload at a global batch size and, with ``mapping``, the virtual
    nodes it is split over and the homogeneous pool they run on.  Returns
    the group, for the command's own flags."""
    group = parser.add_argument_group("job")
    _add_shared(group, "--workload")
    group.add_argument("--batch", type=_positive_int, required=True,
                       help="global batch size (hardware-free)")
    if mapping:
        _add_shared(group, "--virtual-nodes", required=True)
        _add_shared(group, "--devices", default=1)
        _add_shared(group, "--device-type")
    if seed:
        _add_shared(group, "--seed")
    return group


def _add_serving_flags(parser, *, devices: int, spike_factor: float,
                       slo_p99: float):
    """The serving group of ``serve``, ``cosched`` and ``chaos``: the
    request trace, micro-batching, the pool, the SLO, tenancy, profiling
    and the event timeline.  The three defaults the commands differ in are
    arguments.  Returns the group, for the command's own flags."""
    group = parser.add_argument_group("serving")
    _add_shared(group, "--workload")
    group.add_argument(
        "--arrival-rate", type=_positive_float, required=True,
        help="base request arrivals per second (open-loop Poisson)")
    group.add_argument("--duration", type=_positive_float, default=8.0,
                       help="seconds of base load (split around the spike)")
    group.add_argument("--spike-factor", type=_spike_factor,
                       default=spike_factor,
                       help="multiply the rate by this for a mid-trace spike "
                            "(1 = steady load)")
    group.add_argument("--spike-duration", type=_positive_float, default=2.0,
                       help="seconds the spike lasts")
    group.add_argument("--max-batch", type=_positive_int, default=16,
                       help="micro-batch coalescing cap")
    group.add_argument("--max-wait", type=_nonnegative_float, default=2.0,
                       help="micro-batch wait budget, milliseconds")
    _add_shared(group, "--devices", default=devices)
    _add_shared(group, "--device-type")
    group.add_argument("--slo-p99", type=_positive_float, default=slo_p99,
                       help="p99 latency objective, milliseconds")
    group.add_argument("--requests", type=_positive_int, default=None,
                       help="cap on admitted requests")
    _add_shared(group, "--seed")
    group.add_argument("--tenants", default=None, metavar="SPEC",
                       help="serve through the multi-tenant gateway: "
                            "';'-separated name[:key=value,...] entries with "
                            "keys class/weight/quota/burst/p99/share, e.g. "
                            "'prem:class=premium,weight=4,quota=300;"
                            "batch:weight=1'")
    group.add_argument("--journal", default=None, metavar="PATH",
                       help="append the durable per-request JSONL journal "
                            "here (needs --tenants; replay with 'repro "
                            "audit')")
    group.add_argument("--dispatcher", choices=("wfq", "fifo"), default="wfq",
                       help="tenant dispatch policy (wfq = weighted fair "
                            "queueing; fifo = strict arrival order, the "
                            "fairness baseline)")
    group.add_argument("--profile", default=None, metavar="PATH",
                       help="run under cProfile and dump the stats file here "
                            "(off by default; inspect with python -m pstats)")
    _add_runtime_flags(group)
    return group


def _add_job_trace_flags(parser, *, jobs: int, rate: float):
    """The synthetic job trace of ``simulate`` and ``gavel``.  Returns the
    group, for the command's own flags."""
    group = parser.add_argument_group("job trace")
    group.add_argument("--jobs", type=_positive_int, default=jobs)
    group.add_argument("--rate", type=_positive_float, default=rate,
                       help="job arrivals per hour")
    _add_shared(group, "--seed")
    return group


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every subcommand, registered (``repro --help`` lists them all); the
    flags of ``command`` alone when it is given, else of every one."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VirtualFlow reproduction: virtual node processing for "
                    "deep learning workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str):  # the parser, if its flags are built
        built = command in (None, name)
        found = sub.add_parser(name, help=help, add_help=built)
        return found if built else None

    if train := add("train", "train a workload under virtual nodes"):
        train = _add_job_flags(train)
        train.add_argument("--epochs", type=_nonnegative_int, default=3)
        train.add_argument("--dataset-size", type=_positive_int, default=2048)
        train.add_argument("--lr", type=_positive_float, default=None)
        train.add_argument("--resize", type=_parse_resize, action="append",
                           default=[], metavar="EPOCH:DEVICES",
                           help="resize after EPOCH to DEVICES (repeatable)")
        # Older command lines spell the one execution backend; accepted, ignored.
        train.add_argument("--backend", choices=["fused"], help=argparse.SUPPRESS)

    if infer := add("infer", "serve inference under virtual nodes"):
        _add_job_flags(infer).add_argument(
            "--requests", type=_nonnegative_int, default=4,
            help="number of request batches to serve")

    if serve := add("serve", "online serving with micro-batching and autoscaling"):
        serve = _add_serving_flags(serve, devices=4, spike_factor=1.0, slo_p99=50.0)
        _add_shared(serve, "--virtual-nodes")
        serve.add_argument("--initial-devices", type=_positive_int, default=None,
                           help="starting allocation (default: the full pool, "
                                "or 1 with --autoscale)")
        serve.add_argument("--autoscale", action="store_true",
                           help="remap the virtual-node mapping against the SLO")

    if cosched := add("cosched", "co-scheduled training + serving on one shared pool"):
        _add_cosched_flags(cosched)

    if chaos := add("chaos", "co-scheduled run under seeded fault injection"):
        _add_cosched_flags(chaos)
        faults = chaos.add_argument_group("fault plan")
        faults.add_argument("--crash-rate", type=_nonnegative_float, default=0.25,
                            help="device crashes per simulated second (Poisson)")
        faults.add_argument("--mttr", type=_positive_float, default=2.0,
                            help="mean seconds a crashed device stays down")
        faults.add_argument("--straggler-rate", type=_nonnegative_float,
                            default=0.15,
                            help="straggler-window onsets per simulated second")
        faults.add_argument("--straggler-factor", type=_straggler_speed,
                            default=0.6,
                            help="straggler speed multiplier in (0, 1)")
        faults.add_argument("--straggler-duration", type=_positive_float,
                            default=2.0, help="mean straggler window, seconds")
        faults.add_argument("--network-rate", type=_nonnegative_float, default=0.1,
                            help="network-degradation onsets per simulated second")
        faults.add_argument("--network-factor", type=_degradation_factor,
                            default=3.0,
                            help="collective-time multiplier while degraded (> 1)")
        faults.add_argument("--network-duration", type=_positive_float,
                            default=1.5,
                            help="mean network-degradation window, seconds")
        faults.add_argument("--topology", default=None, metavar="SPEC",
                            help="failure-domain tree over the pool, e.g. "
                                 "racks=4x8 or racks=4x8,switches=2 (device "
                                 "count must equal --devices)")
        faults.add_argument("--correlated", action="store_true",
                            help="correlated chaos over --topology: straggler "
                                 "windows open rack-wide and domain wipes are "
                                 "drawn (at --wipe-rate, default 0.15)")
        faults.add_argument("--wipe-rate", type=_nonnegative_float, default=None,
                            help="domain-wipe onsets per simulated second "
                                 "(needs --topology; implied 0.15 by "
                                 "--correlated)")
        faults.add_argument("--wipe-level", choices=("rack", "switch"),
                            default="rack",
                            help="failure-domain level a wipe takes out at once")
        faults.add_argument("--derate-rate", type=_nonnegative_float, default=0.0,
                            help="partial-degradation (ECC-throttle) onsets per "
                                 "simulated second")
        faults.add_argument("--derate-floor", type=_straggler_speed, default=0.55,
                            help="derated speed in (0, 1) while throttled")
        faults.add_argument("--derate-duration", type=_positive_float, default=2.0,
                            help="seconds a derate lasts before full recovery")
        faults.add_argument("--chaos-seed", type=_nonnegative_int, default=None,
                            help="fault-plan seed (default: --seed)")
        faults.add_argument("--recovery", choices=("migrate", "checkpoint"),
                            default="migrate",
                            help="training recovery mode: migrate survivors "
                                 "(elastic, no lost steps) or restore the last "
                                 "checkpoint")
        faults.add_argument("--retry-delay", type=_positive_float, default=0.05,
                            help="serving re-admission delay after a crash, "
                                 "seconds")

    if audit := add("audit", "replay a gateway request journal into per-tenant "
                             "SLO attainment (offline, journal-only)"):
        audit.add_argument("--journal", required=True, metavar="PATH",
                           help="JSONL journal written by serve/cosched/chaos "
                                "--journal")
        audit.add_argument("--json", action="store_true",
                           help="print the raw audit payload as JSON")

    if plan := add("plan", "show the execution plan for a config"):
        _add_job_flags(plan, seed=False)

    if profile := add("profile", "offline throughput profiling"):
        profile.add_argument("--device-types", type=_device_types,
                             default="V100,P100,K80,RTX2080Ti",
                             metavar="TYPE[,TYPE...]")
        _add_shared(profile, "--workload")
        _add_shared(profile, "--seed")

    if solve := add("solve", "heterogeneous solver"):
        _add_shared(_add_job_flags(solve, mapping=False), "--pool", required=True)

    if simulate := add("simulate", "elastic scheduling simulation"):
        simulate = _add_job_trace_flags(simulate, jobs=20, rate=12.0)
        simulate.add_argument("--gpus", type=_positive_int, default=8)
        _add_runtime_flags(simulate)

    if gavel := add("gavel", "Gavel vs Gavel+heterogeneous"):
        gavel = _add_job_trace_flags(gavel, jobs=12, rate=8.0)
        _add_shared(gavel, "--pool", default={"V100": 4, "P100": 8, "K80": 16})

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


def _job_mapping(args):
    """The job group's workload, and its virtual nodes mapped evenly onto
    ``--devices`` x ``--device-type``."""
    from repro.core.mapping import Mapping
    from repro.core.virtual_node import VirtualNodeSet
    from repro.framework.models import get_workload
    from repro.hardware.cluster import Cluster

    return get_workload(args.workload), Mapping.even(
        VirtualNodeSet.even(args.batch, args.virtual_nodes),
        Cluster.homogeneous(args.device_type, args.devices))


def _cmd_infer(args) -> int:
    from repro.core.inference import InferenceEngine
    from repro.data.datasets import make_dataset

    workload, mapping = _job_mapping(args)
    engine = InferenceEngine(workload, workload.build_model(args.seed), mapping)
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

    if args.virtual_nodes is not None and args.virtual_nodes < args.devices:
        _usage_error("--virtual-nodes", "must be >= --devices")
    if args.initial_devices is not None and args.initial_devices > args.devices:
        _usage_error("--initial-devices", "must be <= --devices")
    if args.spike_factor > 1.0:
        phases = spike_phases(args.arrival_rate, args.spike_factor,
                              base_duration=args.duration / 2,
                              spike_duration=args.spike_duration)
    else:
        phases = [ServingPhase(args.duration, args.arrival_rate)]
    slo = args.slo_p99 / 1e3
    tenants, journal, dispatcher = _tenancy_from_args(args)
    with _run_outputs(args, serving=lambda report: report) as run:
        report = run(
            _module.serve_workload, args.workload, phases,
            max_batch=args.max_batch, max_wait=args.max_wait / 1e3,
            pool_devices=args.devices, device_type=args.device_type,
            virtual_nodes=args.virtual_nodes,
            initial_devices=args.initial_devices,
            autoscale=args.autoscale,
            slo_p99=slo if args.autoscale else None,
            seed=args.seed, limit=args.requests,
            tenants=tenants, journal=journal, dispatcher=dispatcher)
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
    from repro.sched.cosched import resident_training_jobs

    if args.train_floor >= args.devices:
        _usage_error("--train-floor", "must be < --devices")
    try:
        train_specs = resident_training_jobs(
            args.train_jobs, demand_gpus=args.train_demand,
            workload=args.train_workload)
    except ValueError as exc:  # the demand does not divide the batch
        _usage_error("--train-demand", str(exc))
    if fault_plan is not None:  # printed once every flag has been checked
        print(fault_plan.describe())
    phases = spike_phases(args.arrival_rate, args.spike_factor,
                          base_duration=args.duration / 2,
                          spike_duration=args.spike_duration)
    slo = args.slo_p99 / 1e3
    admission = _admission_from_args(args)
    tenants, journal, dispatcher = _tenancy_from_args(args)
    with _run_outputs(args, serving=lambda report: report.serving) as run:
        report = run(
            _module.run_cosched, args.workload, phases, train_specs,
            pool_devices=args.devices, device_type=args.device_type,
            max_batch=args.max_batch, max_wait=args.max_wait / 1e3,
            initial_serving=args.initial_serving,
            autoscale=not args.static,
            slo_p99=None if args.static else slo,
            train_floor=args.train_floor, resize_delay=args.resize_delay,
            seed=args.seed, limit=args.requests,
            fault_plan=fault_plan, recovery=recovery,
            retry_delay=retry_delay,
            admission=admission, topology=topology,
            tenants=tenants, journal=journal, dispatcher=dispatcher)
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
    from repro.core.plan import ExecutionPlan

    print(ExecutionPlan(*_job_mapping(args)).describe())
    return 0


def _cmd_profile(args) -> int:
    from repro.profiler.offline import OfflineProfiler

    profiler = OfflineProfiler(seed=args.seed)
    for device_type in args.device_types:
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

    trace = generate_trace(args.jobs, args.rate, seed=args.seed)
    demand = max(spec.demand_gpus for spec in trace)
    if demand > args.gpus:
        _usage_error("--gpus", f"must be >= {demand}, the trace's largest "
                     "demand: the static-priority baseline runs a job at its "
                     "full demand only")
    rows = []
    with _run_outputs(args) as run:
        for scheduler in (ElasticWFSScheduler(), StaticPriorityScheduler()):
            simulator = ClusterSimulator(args.gpus, scheduler)
            # The JSONL timeline (when asked for) records the elastic run —
            # the scheduler the paper's figures are about.
            metrics = compute_metrics(
                run(simulator.run, trace) if scheduler.elastic
                else simulator.run(trace))
            rows.append([metrics.scheduler_name,
                         format_duration(metrics.makespan),
                         format_duration(metrics.median_jct),
                         format_duration(metrics.median_queuing_delay),
                         f"{metrics.utilization:.1%}"])
        print(format_table(
            ["scheduler", "makespan", "median JCT", "median queue", "util"],
            rows, title=f"{args.jobs} jobs at {args.rate}/h on {args.gpus} GPUs"))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
