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
        # ``backend=`` is the numeric execution backend, and stays.
        assert "backend" in inspect.signature(
            self._entry_points()[-1]).parameters

    def test_no_queue_flag_on_any_subcommand(self):
        import argparse

        from repro.cli import build_parser

        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        flags = {flag for sub in subcommands.choices.values()
                 for action in sub._actions for flag in action.option_strings}
        assert "--trace-sample" in flags          # the walk sees the flags
        assert not [f for f in flags if "queue" in f and "depth" not in f]

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
        import repro.serving

        assert not hasattr(repro.serving, "ServingGateway")
        assert "ServingGateway" not in repro.serving.__all__

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


class TestOneDefaultBackend:
    """``fused`` is what every entry point runs unless told otherwise, and the
    name is spelled once: ``repro.core.backends.DEFAULT_BACKEND``."""

    @staticmethod
    def _subparsers():
        import argparse

        from repro.cli import build_parser

        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        return {name: action for name, sub in subcommands.choices.items()
                for action in sub._actions if "--backend" in action.option_strings}

    def test_the_default_is_fused_and_registered(self):
        from repro.core.backends import DEFAULT_BACKEND, FusedBackend, get_backend

        assert DEFAULT_BACKEND == "fused"
        assert isinstance(get_backend(DEFAULT_BACKEND), FusedBackend)
        assert get_backend("reference").name == "reference"  # still selectable

    def test_every_entry_point_defaults_to_it(self):
        import dataclasses
        import inspect

        from repro.core import (InferenceEngine, TrainerConfig, VirtualFlowExecutor,
                                VirtualNodeEngine)
        from repro.core.backends import DEFAULT_BACKEND
        from repro.elastic import JobSpec, generate_trace
        from repro.sched import run_cosched
        from repro.serving import serve_workload

        for entry in (serve_workload, run_cosched, InferenceEngine, VirtualNodeEngine,
                      VirtualFlowExecutor, generate_trace):
            default = inspect.signature(entry).parameters["backend"].default
            assert default is DEFAULT_BACKEND, entry
        for config in (TrainerConfig, JobSpec):
            (field,) = [f for f in dataclasses.fields(config) if f.name == "backend"]
            assert field.default is DEFAULT_BACKEND, config

    def test_every_subcommand_defaults_to_it_and_says_so(self):
        from repro.core.backends import DEFAULT_BACKEND, backend_names

        flags = self._subparsers()
        assert sorted(flags) == ["chaos", "cosched", "infer", "serve", "simulate", "train"]
        for name, action in flags.items():
            assert action.default is DEFAULT_BACKEND, name
            assert list(action.choices) == backend_names(), name
            assert action.help == ("host execution strategy; results are "
                                   "bit-identical; `reference` is the serial oracle"), name

    def test_reference_is_nobodys_default_in_src(self):
        import pathlib
        import re

        import repro

        default = re.compile(r"""=\s*["']reference["']""")
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            hits = [line for line in path.read_text().splitlines()
                    if default.search(line) and not line.lstrip().startswith("name =")]
            assert not hits, (path, hits)
