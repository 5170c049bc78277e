"""Per-layer spans recorded from outside ``src/``.

Every layer of the stack is timed by wrapping calls into its public
functions — and the actions handed to ``EventQueue.push/post/post_many``,
keyed by their ``kind=`` — from this file.  Nothing under ``src/`` knows it
is being traced, and :meth:`Tracer.installed` puts every patched attribute
back, exceptions included.

A span is ``[id, parent, name, start, end, count, busy, work]``: consecutive
same-name siblings collapse into one span whose ``count`` is the number of
calls and whose ``busy`` is the sum of their durations (``end - start`` also
covers the gaps between them, which belong to the parent).  ``work`` is a
per-target size (examples, arrivals, lines ...) that the ratio metrics use.

Layer arithmetic, on the span tree:

* a span's self time is its ``busy`` minus its direct children's ``busy``;
* ``<layer>.self_s`` sums the self time of every span of that layer;
* ``<layer>.busy_s`` and ``<layer>.calls`` sum over the layer's *outermost*
  spans (no ancestor in the same layer), so a wrapped method that calls
  another wrapped method of its own layer is counted once.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

WorkFn = Callable[["Tracer", tuple, dict, Any], int]

SMALL_WAVE = 32  # serving.router._WAVE_MIN: waves below it take the scalar path


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _len_of(index: int, name: str) -> WorkFn:
    return lambda _tr, args, kwargs, _res: len(_arg(args, kwargs, index, name))


def _one(_tr, _args, _kwargs, _res) -> int:
    return 1


def _len_result(_tr, _args, _kwargs, result) -> int:
    return 0 if result is None else len(result)


def _wave_size(tracer: "Tracer", _args, _kwargs, wave) -> int:
    n = 0 if wave is None else len(wave)
    if n:
        tracer.counters["waves"] += 1
        tracer.counters["small_waves"] += n < SMALL_WAVE
    return n


def _train_examples(_tr, args, kwargs, _res) -> int:
    return sum(len(x) for x, _y in _arg(args, kwargs, 1, "step").shards)


@dataclass(frozen=True)
class Target:
    """One patch point: ``module.qualname``, patched on every loaded subclass
    that overrides it when ``qualname`` is ``Class.method``."""

    module: str
    qualname: str
    work: Optional[WorkFn] = None
    schedules: bool = False  # takes (time, action, kind=...): trace the action too


def _methods(module: str, cls: str, names: Sequence[str], **work: WorkFn) -> List[Target]:
    return [Target(module, f"{cls}.{n}", work.get(n)) for n in names]


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    expected_on: Tuple[str, ...]  # workloads where calls must be > 0
    kinds: Tuple[str, ...] = ()  # event kinds whose actions belong to it


_SOURCES = ("next_arrival_time", "take_arrivals", "take_wave")
_QUEUE = ("push", "push_wave", "extend", "take", "requeue", "oldest_arrival", "arrival_times")
_HIST = ("observe", "observe_many", "percentile", "stats")
_SIM = ("train_fused",)
_SERVE = ("serve_steady", "serve_overload")
_ALL_SIM = _SERVE + ("cosched_chaos",)
_EVERY = _SIM + _ALL_SIM

LAYERS: Tuple[Layer, ...] = (
    Layer("cli", (), _EVERY),
    Layer(
        "data",
        (
            Target("repro.data.datasets", "make_dataset"),
            *_methods("repro.data.loader", "BatchLoader", ("epoch", "batch")),
        ),
        _EVERY,
    ),
    Layer(
        "core.executor",
        (
            *_methods(
                "repro.core.executor",
                "VirtualFlowExecutor",
                ("__init__", "run_step", "evaluate", "remap"),
            ),
            *_methods(
                "repro.core.trainer", "VirtualFlowTrainer", ("__init__", "train_epoch", "resize")
            ),
        ),
        _SIM,
    ),
    Layer(
        "core.backends",
        tuple(
            _methods(
                "repro.core.backends.base",
                "ExecutionBackend",
                ("train_step", "infer"),
                train_step=_train_examples,
                infer=_len_of(3, "x"),
            )
        ),
        _EVERY,
    ),
    Layer(
        "core.sync",
        # What crosses virtual nodes: gradients (sync, gradient_buffer) and the
        # per-node state of stateful kernels (state).  --backend fused reduces
        # gradients inline in FusedBackend.train_step, where no call can be
        # wrapped, so on train_fused this layer holds the state half only and
        # the gradient reduction stays in core.backends.self_s (README, gaps).
        (
            Target("repro.core.sync", "weighted_average_flat"),
            Target("repro.core.sync", "weighted_average"),
            Target("repro.core.sync", "allreduce_gradients"),
            *_methods(
                "repro.core.gradient_buffer",
                "GradientBuffer",
                ("add", "add_flat", "weighted_sum", "weighted_sum_flat", "average", "average_flat"),
            ),
            Target("repro.core.state", "packed_state_matrix"),
            Target("repro.core.state", "scatter_states"),
            Target("repro.core.state", "merged_eval_state"),
            Target("repro.core.state", "migrate_states"),
        ),
        _SIM,
    ),
    Layer(
        "framework.optimizers",
        tuple(_methods("repro.framework.optimizers", "Optimizer", ("step",))),
        _SIM,
    ),
    Layer(
        "core.inference",
        tuple(
            _methods(
                "repro.core.inference",
                "InferenceEngine",
                ("__init__", "predict", "predict_requests", "remap"),
                predict=_len_of(1, "x"),
                predict_requests=_len_of(1, "examples"),
            )
        ),
        _ALL_SIM,
    ),
    Layer(
        "hardware.perfmodel",
        (
            *_methods(
                "repro.hardware.perfmodel",
                "PerfModel",
                ("step_breakdown", "wave_time", "step_time", "throughput"),
            ),
            *_methods("repro.hardware.perfmodel", "StepTimeBreakdown", ("degraded_total",)),
            *_methods("repro.hardware.perfmodel", "ClusterConditions", ("serving_latency",)),
        ),
        ("cosched_chaos",),
    ),
    Layer(
        "serving.generators",
        (
            Target("repro.elastic.trace", "serving_arrival_times", _len_result),
            *_methods(
                "repro.serving.generators",
                "RequestSource",
                _SOURCES,
                take_arrivals=_len_result,
                take_wave=_wave_size,
            ),
            *_methods("repro.serving.generators", "OpenLoopPoissonSource", ("__init__",)),
            *_methods("repro.serving.gateway", "MultiTenantPoissonSource", ("__init__",)),
        ),
        _ALL_SIM,
    ),
    Layer(
        "serving.router.admit",
        # Under overload arrivals are pulled while a dispatch or completion
        # event plans the next batch, not by admit events; the router's two
        # pull methods are wrapped so that work still lands in this layer.
        tuple(_methods("repro.serving.router", "RequestRouter", ("_admit", "_pull"))),
        _ALL_SIM,
        kinds=("admit",),
    ),
    Layer(
        "serving.router.dispatch",
        (),
        _ALL_SIM,
        kinds=("dispatch", "retry"),
    ),
    Layer(
        "serving.router.complete",
        (),
        _ALL_SIM,
        kinds=("complete",),
    ),
    Layer(
        "serving.batcher",
        tuple(
            _methods(
                "repro.serving.batcher",
                "DispatchQueue",
                _QUEUE,
                push=_one,
                push_wave=_len_of(1, "requests"),
                extend=_len_of(1, "requests"),
                take=_len_result,
            )
        ),
        _ALL_SIM,
    ),
    Layer(
        "serving.tenancy",
        (
            *_methods(
                "repro.serving.tenancy",
                "TokenBucket",
                ("take", "take_many"),
                take_many=_len_of(1, "times"),
            ),
            *_methods("repro.serving.tenancy", "TenantRegistry", ("from_spec",)),
            Target("repro.serving.tenancy", "split_phases"),
        ),
        _ALL_SIM,
    ),
    Layer(
        "serving.autoscaler",
        tuple(
            _methods(
                "repro.serving.autoscaler",
                "LatencyAutoscaler",
                ("__init__", "observe", "on_failure", "rate_estimate"),
            )
        ),
        ("cosched_chaos",),
    ),
    Layer(
        "runtime.core",
        (
            Target("repro.runtime.core", "Runtime.run", lambda _tr, _a, _k, result: result),
            Target("repro.runtime.core", "EventQueue.push", schedules=True),
            Target("repro.runtime.core", "EventQueue.post", schedules=True),
            Target("repro.runtime.core", "EventQueue.post_many", schedules=True),
            Target("repro.runtime.core", "EventQueue.cancel_handle"),
        ),
        _ALL_SIM,
    ),
    Layer(
        "runtime.pool",
        tuple(
            _methods(
                "repro.runtime.pool",
                "DevicePool",
                (
                    "acquire",
                    "resize",
                    "release",
                    "fail_device",
                    "revive_device",
                    "settle",
                    "audit",
                ),
            )
        ),
        _ALL_SIM,
    ),
    Layer(
        "runtime.trace",
        tuple(
            _methods(
                "repro.runtime.trace",
                "EventTrace",
                ("emit", "emit_many", "emit_many_data", "emit_many_lines", "flush", "close"),
                emit=_one,
                emit_many=_len_of(1, "times"),
                emit_many_data=_len_of(1, "times"),
                emit_many_lines=_len_of(1, "lines"),
            )
        ),
        _ALL_SIM,
    ),
    Layer(
        "telemetry",
        (
            *_methods(
                "repro.telemetry",
                "StreamingHistogram",
                _HIST,
                observe=_one,
                observe_many=_len_of(1, "values"),
            ),
            *_methods(
                "repro.telemetry",
                "LatencyHistogram",
                _HIST,
                observe=_one,
                observe_many=_len_of(1, "values"),
            ),
        ),
        _ALL_SIM,
    ),
    Layer(
        "elastic.simulator",
        tuple(
            _methods(
                "repro.elastic.simulator",
                "TrainingClusterProcess",
                (
                    "__init__",
                    "advance_to",
                    "set_budget",
                    "on_device_failed",
                    "on_conditions_changed",
                ),
            )
        ),
        ("cosched_chaos",),
        kinds=("arrival", "eta"),
    ),
    Layer(
        "sched.cosched",
        (
            Target("repro.sched.cosched", "run_cosched"),
            *_methods(
                "repro.sched.cosched",
                "CoScheduler",
                ("grant", "notify_rescaled", "on_capacity_changed"),
            ),
        ),
        ("cosched_chaos",),
    ),
    Layer(
        "chaos",
        (
            Target("repro.chaos.plan", "random_plan"),
            *_methods("repro.chaos.process", "ChaosController", ("apply",)),
        ),
        ("cosched_chaos",),
        kinds=("chaos_",),  # prefix: chaos_crash, chaos_revive, ...
    ),
)

# name -> (unit, better); bytes_per_unit, trace_overhead and unattributed_share
# are filled in by the harness, the rest by layer_metrics().
EXTRAS: Dict[str, Tuple[str, str]] = {
    "core.backends.us_per_example": ("us/example", "lower"),
    "core.inference.examples_per_call": ("examples/call", "higher"),
    "serving.generators.arrivals_per_wave": ("arrivals/wave", "higher"),
    "serving.router.admit.admitted_ratio": ("ratio", "higher"),
    "serving.router.admit.small_wave_share": ("ratio", "lower"),
    "serving.batcher.batch_size_mean": ("requests/batch", "higher"),
    "serving.tenancy.arrivals_per_take_many": ("arrivals/call", "higher"),
    "runtime.core.events": ("count", "lower"),
    "runtime.core.us_per_event": ("us/event", "lower"),
    "runtime.trace.lines": ("count", "lower"),
    "runtime.trace.bytes_per_unit": ("bytes/unit", "lower"),
    "telemetry.values_per_call": ("values/call", "higher"),
    "trace_overhead": ("ratio", "lower"),
    "unattributed_share": ("ratio", "lower"),
}


def per_layer_spec() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``, derived from the table."""
    spec = []
    for layer in LAYERS:
        spec.append({"name": f"{layer.name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer.name}.busy_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{layer.name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in EXTRAS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


SPAN_COLUMNS = ["id", "parent", "name", "start", "end", "count", "busy", "work"]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "count", "busy", "work", "last")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.count = 0
        self.busy = 0.0
        self.work = 0
        self.last: Optional[Span] = None  # most recent child, the collapse candidate

    def row(self, origin: float) -> list:
        parent = -1 if self.parent is None else self.parent.id
        return [
            self.id,
            parent,
            self.name,
            round(self.start - origin, 7),
            round(self.end - origin, 7),
            self.count,
            round(self.busy, 7),
            self.work,
        ]


class Tracer:
    """Collects spans while installed; inert outside a :meth:`root` block."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.current: Optional[Span] = None
        self.missing_targets: List[str] = []  # set by installed()
        self._batch_actions: Dict[int, Tuple[Callable, Callable]] = {}
        self._kind_layers = {k: layer.name for layer in LAYERS for k in layer.kinds}

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str, now: float) -> Span:
        parent = self.current
        span = parent.last if parent is not None else None
        if span is None or span.name != name:
            span = Span(len(self.spans), parent, name, now)
            self.spans.append(span)
            if parent is not None:
                parent.last = span
        span.count += 1
        self.current = span
        return span

    def _exit(self, span: Span, started: float, now: float) -> None:
        span.busy += now - started
        span.end = now
        self.current = span.parent

    @contextlib.contextmanager
    def root(self, name: str = "cli:main") -> Iterator[Span]:
        """The root span; wrappers record only while one is open."""
        if self.current is not None:
            raise RuntimeError("a root span is already open")
        started = time.perf_counter()
        span = self._enter(name, started)
        try:
            yield span
        finally:
            self._exit(span, started, time.perf_counter())
            self.current = None

    def wrap(self, name: str, fn: Callable, work: Optional[WorkFn] = None) -> Callable:
        """``fn`` with a span around each call (each ``next`` for a generator)."""
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    if tracer.current is None:
                        yield from iterator
                        return
                    started = clock()
                    span = tracer._enter(name, started)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(span, started, clock())
                    yield item

            return traced_generator

        spans = self.spans

        def traced(*args, **kwargs):
            # _enter/_exit inlined: this runs once per wrapped call.
            parent = tracer.current
            if parent is None:
                return fn(*args, **kwargs)
            span = parent.last
            started = clock()
            if span is None or span.name != name:
                span = parent.last = Span(len(spans), parent, name, started)
                spans.append(span)
            span.count += 1
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                span.busy += now - started
                span.end = now
                tracer.current = parent
            if work is not None:
                span.work += work(tracer, args, kwargs, result)
            return result

        return traced

    def _traced_action(self, action: Callable, kind: str) -> Callable:
        """The action an event of ``kind`` fires, wrapped into its layer.

        Run fusion keys on ``id(action)``, so a batch-marked action maps to
        one cached wrapper (carrying the ``batch_action`` marker) however
        often it is posted; ordinary actions get a fresh wrapper per post.
        """
        kinds = self._kind_layers  # exact kind, or a family prefix such as "chaos_"
        layer = kinds.get(kind) or kinds.get(kind.partition("_")[0] + "_")
        if layer is None:
            return action
        name = f"{layer}:event.{kind}"
        if not getattr(action, "__event_batch__", False):
            return self.wrap(name, action)
        cached = self._batch_actions.get(id(action))
        if cached is None:
            wrapper = self.wrap(name, action)
            wrapper.__event_batch__ = True
            cached = self._batch_actions[id(action)] = (action, wrapper)
        return cached[1]

    def _wrap_scheduler(self, name: str, fn: Callable) -> Callable:
        """``EventQueue.push/post/post_many``: span the call, trace the action."""
        traced = self.wrap(name, fn)
        tracer = self

        def scheduling(queue, when, action, *, kind="event", actor="runtime"):
            if tracer.current is not None:
                action = tracer._traced_action(action, kind)
            return traced(queue, when, action, kind=kind, actor=actor)

        return scheduling

    # -- patching -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target; restore every patched attribute on the way out."""
        patched: List[Tuple[Any, str, Any]] = []
        try:
            points, self.missing_targets = scan_targets()
            for owner, attr, raw, layer, target in points:
                # A method is named after the class that defines it, a function
                # after itself (not after the alias a caller imported it under).
                name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else target.qualname
                name = f"{layer.name}:{name}"
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if target.schedules:
                    new = self._wrap_scheduler(name, fn)
                else:
                    new = self.wrap(name, fn, target.work)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(new)
                setattr(owner, attr, new)
                patched.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)
            self._batch_actions.clear()

    # -- output ---------------------------------------------------------------

    def rows(self) -> List[list]:
        origin = self.spans[0].start if self.spans else 0.0
        return [span.row(origin) for span in self.spans]


def _subclasses(cls: type) -> List[type]:
    out, stack = [], [cls]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(current.__subclasses__())
    return out


def scan_targets() -> Tuple[List[Tuple[Any, str, Any, Layer, Target]], List[str]]:
    """Every ``(owner, attribute, current raw value)`` the tracer patches, and
    the targets it could not find.

    Methods are patched on each loaded class that defines them (a subclass
    override would otherwise bypass the wrapper); module-level functions on
    every loaded ``repro`` module that holds a reference, because callers
    bind them with ``from x import f``.  A target that no longer exists is
    reported, not fatal: the tracer must not block a refactor of ``src/``.
    """
    importlib.import_module("repro.cli")
    points, missing, seen = [], [], set()
    for layer in LAYERS:
        for target in layer.targets:
            label = f"{target.module}.{target.qualname}"
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                missing.append(label)
                continue
            cls_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, cls_name or attr, None)
            if owner is None:
                missing.append(label)
            elif cls_name:
                found = False
                for cls in _subclasses(owner):
                    raw = cls.__dict__.get(attr)
                    if raw is not None and (cls, attr) not in seen:
                        seen.add((cls, attr))
                        points.append((cls, attr, raw, layer, target))
                        found = True
                if not found:
                    missing.append(label)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is owner and (mod, alias) not in seen:
                            seen.add((mod, alias))
                            points.append((mod, alias, owner, layer, target))
    return points, missing


# -- span arithmetic ----------------------------------------------------------


def layer_metrics(rows: Sequence[Sequence], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer calls/busy/self (host seconds) and the ratio extras.

    ``rows`` are span rows as written to a spans file; parents precede
    children.  Every name of :func:`per_layer_spec` is present except
    ``runtime.trace.bytes_per_unit`` and ``trace_overhead``, which need the
    files and the untraced repetition and are added by the harness.
    """
    child_busy: Dict[int, float] = Counter()
    for _id, parent, _name, _s, _e, _count, busy, _work in rows:
        child_busy[parent] += busy
    calls: Dict[str, int] = Counter()
    busy_s: Dict[str, float] = Counter()
    self_s: Dict[str, float] = Counter()
    # (layer, method) -> [calls, work] over the layer's outermost spans: a queue's
    # extend() that loops over its own push() counts its requests once.
    by_method: Dict[Tuple[str, str], List[int]] = {}
    layers_above: Dict[int, frozenset] = {-1: frozenset()}
    for span_id, parent, name, _s, _e, count, busy, work in rows:
        layer, _, qualname = name.partition(":")
        above = layers_above[parent]
        self_s[layer] += busy - child_busy.get(span_id, 0.0)
        if layer in above:
            layers_above[span_id] = above
            continue
        layers_above[span_id] = above | {layer}
        calls[layer] += count
        busy_s[layer] += busy
        stats = by_method.setdefault((layer, qualname.rpartition(".")[2]), [0, 0])
        stats[0] += count
        stats[1] += work

    def total(layer: str, methods: Sequence[str], field: int) -> int:
        return sum(by_method.get((layer, m), (0, 0))[field] for m in methods)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(layer: str, *methods: str) -> float:
        return ratio(total(layer, methods, 1), total(layer, methods, 0))

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = calls[layer.name]
        out[f"{layer.name}.busy_s"] = busy_s[layer.name]
        out[f"{layer.name}.self_s"] = self_s[layer.name]
    events = total("runtime.core", ("run",), 1)
    emits = ("emit", "emit_many", "emit_many_data", "emit_many_lines")
    out["core.backends.us_per_example"] = ratio(
        busy_s["core.backends"] * 1e6, total("core.backends", ("train_step", "infer"), 1)
    )
    out["core.inference.examples_per_call"] = per_call(
        "core.inference", "predict", "predict_requests"
    )
    out["serving.generators.arrivals_per_wave"] = per_call("serving.generators", "take_wave")
    out["serving.router.admit.admitted_ratio"] = ratio(
        total("serving.batcher", ("push", "push_wave", "extend"), 1),
        total("serving.generators", ("take_wave", "take_arrivals"), 1),
    )
    out["serving.router.admit.small_wave_share"] = ratio(
        counters.get("small_waves", 0), counters.get("waves", 0)
    )
    out["serving.batcher.batch_size_mean"] = per_call("serving.batcher", "take")
    out["serving.tenancy.arrivals_per_take_many"] = per_call("serving.tenancy", "take_many")
    out["runtime.core.events"] = events
    out["runtime.core.us_per_event"] = ratio(self_s["runtime.core"] * 1e6, events)
    out["runtime.trace.lines"] = total("runtime.trace", emits, 1)
    out["telemetry.values_per_call"] = per_call("telemetry", "observe", "observe_many")
    out["unattributed_share"] = ratio(self_s["cli"], rows[0][6] if rows else 0.0)
    return out
