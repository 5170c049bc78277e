"""The public API surface: everything documented in the README must import."""

from __future__ import annotations

import importlib

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("module", [
    "repro.core", "repro.framework", "repro.hardware", "repro.data",
    "repro.profiler", "repro.hetero", "repro.elastic", "repro.sched",
    "repro.baselines", "repro.serving", "repro.utils",
])
def test_subpackage_all_exports(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing name {name!r}"


def test_version():
    import repro

    assert repro.__version__


def test_readme_quickstart_snippet_runs():
    """The exact snippet from the package docstring must work."""
    from repro import TrainerConfig, VirtualFlowTrainer

    trainer = VirtualFlowTrainer(TrainerConfig(
        workload="mlp_synthetic", global_batch_size=64,
        num_virtual_nodes=8, device_type="V100", num_devices=2,
        dataset_size=256,
    ))
    trainer.train(epochs=1)
    trainer.resize(num_devices=1)
    history = trainer.train(epochs=1)  # returns the cumulative history
    assert len(history) == 2


def test_the_cluster_simulator_takes_a_cluster_and_a_trace_only():
    """Resize delay, perf model and runaway bound are the simulator's own
    constants; a caller picks the cluster size, the scheduler and whether
    to journal the timeline."""
    import inspect

    from repro.elastic import ClusterSimulator

    assert list(inspect.signature(ClusterSimulator).parameters) == [
        "total_gpus", "scheduler"]
    run = inspect.signature(ClusterSimulator.run).parameters
    assert list(run) == ["self", "specs", "trace"]
    assert run["trace"].default is None


@pytest.mark.parametrize("target, parameters", [
    ("repro.serving.LatencyAutoscaler", ["slo_p99", "capacity", "max_devices"]),
    ("repro.hetero.HeterogeneousSolver", ["workload_name", "profiles"]),
    ("repro.telemetry.StreamingHistogram", []),
    ("repro.sched.resident_training_jobs",
     ["num_jobs", "demand_gpus", "workload"]),
    ("repro.core.InferenceEngine", ["workload", "model", "mapping", "vn_states"]),
    ("repro.core.VirtualFlowExecutor",
     ["workload", "model", "loss_fn", "optimizer", "mapping", "seed", "augment"]),
])
def test_tuning_values_are_constants_not_parameters(target, parameters):
    """A value no run sets differently is a module constant: the
    autoscaler's windows, margins, cooldown and persistence, the solver's
    derating, the histogram's bins, the resident jobs' batch and budget and
    every perf-model override take no argument."""
    import inspect

    module, _, name = target.rpartition(".")
    obj = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(obj).parameters) == parameters


def test_a_recovery_policy_is_its_mode_only():
    import dataclasses

    from repro.core import RecoveryPolicy

    assert [f.name for f in dataclasses.fields(RecoveryPolicy)] == ["mode"]


class TestOneProductionPath:
    """How a run executes is the system's business: nothing lets a caller
    pick between implementations that are bit-identical by contract.  The
    references live under ``tests/oracles/`` and are compared from there."""

    # Spelled in pieces: a grep of the tree for a selector's name should
    # find uses, and there are none.
    SELECTORS = ("queue" + "_backend", "admission" + "_mode")

    @staticmethod
    def _entry_points():
        from repro.elastic import ClusterSimulator
        from repro.runtime import Runtime
        from repro.sched import run_cosched
        from repro.serving import RequestRouter, serve_workload

        return (Runtime, ClusterSimulator, RequestRouter, RequestRouter.run,
                serve_workload, run_cosched)

    def test_event_queue_takes_no_argument(self):
        import inspect

        from repro.runtime import EventQueue

        assert list(inspect.signature(EventQueue).parameters) == []

    def test_no_entry_point_takes_a_selector(self):
        import inspect

        for entry in self._entry_points():
            names = set(inspect.signature(entry).parameters)
            assert names.isdisjoint(self.SELECTORS), (entry, names)

    def test_no_queue_flag_on_any_subcommand(self):
        import argparse

        from repro.cli import build_parser

        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        flags = {flag for sub in subcommands.choices.values()
                 for action in sub._actions for flag in action.option_strings}
        assert "--trace-sample" in flags          # the walk sees the flags
        assert not [f for f in flags if "queue" in f and "depth" not in f]

    def test_a_source_hands_the_router_waves_only(self):
        """One way in: a source is its next arrival time and its wave pull;
        nothing builds per-request objects for the router."""
        import repro.serving
        from repro.serving import DispatchQueue, RequestSource

        assert RequestSource.__abstractmethods__ == {"next_arrival_time",
                                                     "take_wave"}
        for gone in ("Request", "TenantTaggingSource"):
            assert not hasattr(repro.serving, gone)
            assert gone not in repro.serving.__all__
        assert not hasattr(DispatchQueue, "push")
        assert not hasattr(DispatchQueue, "extend")

    def test_no_selector_left_in_src(self):
        import pathlib

        import repro

        banned = ("REPRO_EVENT" + "_QUEUE", "set_default" + "_backend",
                  "default_admission" + "_mode") + self.SELECTORS
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert not [word for word in banned if word in text], path


class TestOneRequestRouter:
    """Serving tenants is a stage the one router composes, chosen by
    whether it is given a registry — not a subclass, not a queue argument."""

    def test_no_gateway_class_is_exported(self):
        import repro.runtime
        import repro.serving

        assert not hasattr(repro.serving, "ServingGateway")
        assert "ServingGateway" not in repro.serving.__all__
        assert "batch_action" not in repro.runtime.__all__

    def test_the_router_takes_the_tenancy_arguments(self):
        import inspect

        from repro.serving import RequestRouter

        names = set(inspect.signature(RequestRouter).parameters)
        assert {"tenants", "dispatcher", "journal"} <= names
        assert "dispatch_queue" not in names

    def test_no_serving_class_subclasses_the_router(self):
        import inspect
        import pkgutil

        import repro.serving
        from repro.serving import RequestRouter

        modules = [importlib.import_module(f"repro.serving.{info.name}")
                   for info in pkgutil.iter_modules(repro.serving.__path__)]
        subclasses = [
            cls for module in (repro.serving, *modules)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, RequestRouter) and cls is not RequestRouter]
        assert len(modules) >= 8 and not subclasses, subclasses


class TestOneSchedulingSeam:
    """Every process schedules on ``runtime.queue``: ``post`` / ``post_many``
    return integer handles that ``cancel_handle`` / ``handle_alive`` act on,
    and ``Runtime`` keeps no second way to schedule or to tell the time."""

    def test_no_event_facade_or_clock_is_exported(self):
        import repro.runtime

        for name in ("Event", "SimClock"):
            assert name not in repro.runtime.__all__
            assert not hasattr(repro.runtime, name)

    def test_the_queue_is_the_only_scheduler(self):
        from repro.runtime import EventQueue, Runtime

        runtime = Runtime()
        for name in ("push", "peek", "pop"):
            assert not hasattr(runtime.queue, name), name
        for name in ("at", "after", "post", "cancel", "alive", "post_many",
                     "clock", "processes"):
            assert not hasattr(runtime, name), name
        assert (runtime.now, runtime.events_processed) == (0.0, 0)
        assert isinstance(runtime.queue, EventQueue)


class TestOneDefaultBackend:
    """One training configuration: every engine runs the one shared fused
    backend, the executor always installs the flat tensor arena, and no
    signature, export or flag selects between bit-identical paths.  The
    serial oracle is swapped in by tests, by assigning ``engine.backend``."""

    @staticmethod
    def _flags():
        import argparse

        from repro.cli import build_parser

        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        return {(name, flag): action for name, sub in subcommands.choices.items()
                for action in sub._actions for flag in action.option_strings}

    def test_the_default_is_fused_and_the_oracle_is_not_exported(self):
        """The one backend engines share is ``fused``, exported where the
        backends live; the serial ``reference`` loop stays as the oracle in
        its own module, which no export table names."""
        import repro.core
        import repro.core.backends as backends
        from repro.core.backends.reference import ReferenceBackend
        from repro.core.engine import _BACKEND

        assert isinstance(_BACKEND, backends.FusedBackend)
        assert _BACKEND.name == "fused"
        assert repro.core.FusedBackend is backends.FusedBackend
        assert "FusedBackend" in backends.__all__
        for package in (repro.core, backends):
            assert "ReferenceBackend" not in package.__all__
            with pytest.raises(AttributeError):
                package.ReferenceBackend
        assert ReferenceBackend().name == "reference"  # still the oracle

    def test_every_subcommand_defaults_to_it_and_says_so(self, capsys):
        """No subcommand can select another backend, and ``infer`` names the
        one it ran in its table title."""
        from repro.cli import main

        for (name, flag), action in self._flags().items():
            if flag == "--backend":
                assert action.default is None, name
                assert list(action.choices) == ["fused"], name
        assert main(["infer", "--workload", "mlp_synthetic", "--batch", "8",
                     "--virtual-nodes", "2", "--requests", "1"]) == 0
        assert "backend=fused" in capsys.readouterr().out

    def test_no_signature_takes_a_backend_or_an_arena(self):
        import inspect

        from repro.core import (InferenceEngine, TrainerConfig, VirtualFlowExecutor,
                                VirtualNodeEngine)
        from repro.elastic import JobSpec, generate_trace
        from repro.sched import run_cosched
        from repro.serving import serve_workload
        from repro.serving.router import _build_router

        for entry in (TrainerConfig, VirtualFlowExecutor, VirtualNodeEngine,
                      InferenceEngine, InferenceEngine.from_executor, serve_workload,
                      _build_router, run_cosched, JobSpec, JobSpec.to_trainer_config,
                      generate_trace):
            names = set(inspect.signature(entry).parameters)
            assert names.isdisjoint({"backend", "arena"}), (entry, names)

    def test_no_backend_registry_is_exported(self):
        import repro
        import repro.core
        import repro.core.backends
        import repro.core.backends.base as base

        registry = {"register_backend", "get_backend", "backend_names",
                    "DEFAULT_BACKEND", "_REGISTRY", "_INSTANCES"}
        for module in (repro, repro.core, repro.core.backends, base):
            assert not [n for n in registry if hasattr(module, n)], module
            assert registry.isdisjoint(getattr(module, "__all__", ())), module

    def test_only_train_spells_the_backend_and_nothing_disables_the_arena(self):
        import argparse

        flags = self._flags()
        backend = {name: action for (name, flag), action in flags.items()
                   if flag == "--backend"}
        assert list(backend) == ["train"]
        assert list(backend["train"].choices) == ["fused"]
        assert backend["train"].help == argparse.SUPPRESS
        assert ("train", "--epochs") in flags          # the walk sees the flags
        assert not [key for key in flags if key[1] == "--no-arena"]

    def test_every_engine_shares_one_fused_backend(self):
        from repro.core import (FusedBackend, InferenceEngine, Mapping, TrainerConfig,
                                VirtualFlowTrainer, VirtualNodeSet)
        from repro.framework import get_workload
        from repro.hardware import Cluster

        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="mlp_synthetic", global_batch_size=8, num_virtual_nodes=2,
            dataset_size=32))
        workload = get_workload("mlp_synthetic")
        engine = InferenceEngine(workload, workload.build_model(0), Mapping.even(
            VirtualNodeSet.even(4, 4), Cluster.homogeneous("V100", 2)))
        assert isinstance(trainer.executor.backend, FusedBackend)
        assert engine.backend is trainer.executor.backend
        assert trainer.executor.arena is not None

    def test_reference_is_nobodys_default_in_src(self):
        import pathlib
        import re

        import repro

        default = re.compile(r"""=\s*["']reference["']""")
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            hits = [line for line in path.read_text().splitlines()
                    if default.search(line) and not line.lstrip().startswith("name =")]
            assert not hits, (path, hits)
