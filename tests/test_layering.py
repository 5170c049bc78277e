"""The package is layered: each entry point loads only the layers it runs.

Two checks.  Dynamically, one fresh interpreter per entry point runs a
small command and stops at the door of its run loop (the end-to-end
benchmark's set-up probe stops at the same place), then reports which
``repro`` modules it loaded.  Statically, the import statements of every
module (``if TYPE_CHECKING:`` blocks exempt) keep the lower layers free of
the simulator stack above them.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
# Every package any entry point loads: the top-level ``repro`` and its
# lazy-export helper.
BASE = {"", "_lazy"}
TRAIN = BASE | {"cli", "core", "data", "framework", "hardware", "utils"}
SERVE = TRAIN | {"runtime", "serving", "telemetry", "elastic"}

# Stops the run at its loop's door and prints the loaded ``repro`` modules.
_PROBE = """
import importlib, json, os, sys
module, cls, method, argv = json.loads(sys.argv[1])
def door(*args, **kwargs):
    loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
    sys.stdout.write("\\n" + json.dumps(loaded) + "\\n")
    sys.stdout.flush()
    os._exit(0)
if module:
    setattr(getattr(importlib.import_module(module), cls), method, door)
    from repro.cli import main
    main(argv)
    sys.exit("the command never reached its run loop")
import repro
door()
"""

_TENANTS = "prem:class=premium,weight=8,quota=300;flood:share=4"
_RUNTIME = ("repro.runtime.core", "Runtime", "run")
ENTRY_POINTS = {
    "import": (("", "", ""), []),
    "train": (("repro.core.executor", "VirtualFlowExecutor", "run_step"), [
        "train", "--workload", "mlp_synthetic", "--batch", "32",
        "--virtual-nodes", "4", "--devices", "2", "--epochs", "1",
        "--dataset-size", "128", "--backend", "fused"]),
    "serve": (_RUNTIME, [
        "serve", "--workload", "mlp_synthetic", "--arrival-rate", "200",
        "--duration", "0.2", "--devices", "2", "--tenants", _TENANTS]),
    "chaos": (_RUNTIME, [
        "chaos", "--workload", "mlp_synthetic", "--arrival-rate", "200",
        "--duration", "0.5", "--spike-duration", "0.2", "--devices", "8",
        "--topology", "racks=4x2", "--correlated", "--derate-rate", "0.5",
        "--shed-queue-depth", "32", "--brownout", "--tenants", _TENANTS]),
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """``{entry point: [repro modules loaded at its run loop's door]}``."""
    cwd = tmp_path_factory.mktemp("layering")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = {}
    for name, ((module, cls, method), argv) in ENTRY_POINTS.items():
        payload = json.dumps([module, cls, method, argv])
        done = subprocess.run([sys.executable, "-c", _PROBE, payload], cwd=cwd,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        out[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def _packages(modules):
    return {m.split(".")[1] if "." in m else "" for m in modules}


def test_import_repro_loads_only_the_export_tables(loaded):
    assert loaded["import"] == ["repro", "repro._lazy"]


def test_train_loads_only_the_training_layers(loaded):
    modules = loaded["train"]
    assert _packages(modules) <= TRAIN, sorted(_packages(modules) - TRAIN)
    assert len(modules) <= 40, modules


def test_serve_adds_only_the_serving_layers(loaded):
    modules = loaded["serve"]
    assert _packages(modules) <= SERVE, sorted(_packages(modules) - SERVE)
    elastic = {m for m in modules if m.startswith("repro.elastic.")}
    assert elastic <= {"repro.elastic.trace", "repro.elastic.jobs"}, elastic
    assert len(modules) <= 55, modules


def test_chaos_loads_the_whole_stack_within_budget(loaded):
    modules = loaded["chaos"]
    assert {"chaos", "sched"} <= _packages(modules)
    assert len(modules) <= 70, modules


# -- the static import graph ---------------------------------------------------

LOWER = {"core", "data", "framework", "hardware", "utils"}
UPPER = {"runtime", "serving", "elastic", "sched", "chaos", "telemetry",
         "hetero", "profiler"}


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(tree: ast.AST):
    """Every ``repro`` module named by an import, outside TYPE_CHECKING."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert node.level == 0, "relative imports are not used in src/"
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def _graph():
    """``{(importing package, imported package)}`` across package lines."""
    edges = set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        source = "" if parts == ("__init__",) else parts[0]
        for name in _imports(ast.parse(path.read_text())):
            target = name.split(".")
            if target[0] == "repro" and len(target) > 1 and target[1] != source:
                edges.add((source, target[1]))
    return edges


def test_lower_layers_import_nothing_from_the_simulator_stack():
    bad = sorted((s, t) for s, t in _graph() if s in LOWER and t in UPPER)
    assert not bad, bad


def test_only_cli_imports_sched():
    assert {s for s, t in _graph() if t == "sched"} <= {"cli"}


def test_only_sched_and_cli_import_chaos():
    assert {s for s, t in _graph() if t == "chaos"} <= {"sched", "cli"}


def test_each_name_has_one_home_in_the_export_tables():
    """A subpackage's table names only its own modules, and the top-level
    table names only subpackages: the module that defines a name is written
    down once, and ``import repro.<pkg>`` cannot drag another layer in."""
    for init in SRC.glob("*/**/__init__.py"):
        package = "repro." + ".".join(init.parent.relative_to(SRC).parts)
        exports = getattr(importlib.import_module(package), "_EXPORTS", None)
        if exports is None:  # an eager package
            continue
        assert exports, package
        assert all(h.startswith(package + ".") for h in exports.values()), package
    for name, home in repro._EXPORTS.items():
        assert home.count(".") == 1, (name, home)
        assert name in importlib.import_module(home).__all__, (name, home)


# -- the end-to-end tracer against lazy loading --------------------------------

# Scans the tracer's targets from a fresh ``import repro.cli``, reads every
# name of every loaded package while the tracer is installed (the first read
# of a lazily exported name), and checks that the scan did not depend on
# what had loaded before it and that no wrapper outlived the tracer.
_TRACER_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import e2e_tracer as tracing

def snapshot():
    return [(o, a, o.__dict__[a]) for o, a, *_ in tracing.scan_targets()[0]]

def repro_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]

before = snapshot()
with tracing.Tracer().installed():
    for module in repro_modules():
        if hasattr(module, "__path__") or module.__name__ == "repro.cli":
            for name in dir(module):
                getattr(module, name)
after = snapshot()
assert [p[:2] for p in after] == [p[:2] for p in before], "scan depends on load order"
assert all(a[2] is b[2] for a, b in zip(after, before)), "an attribute was not restored"
leaks = sorted(f"{m.__name__}.{attr}" for m in repro_modules()
               for attr, value in vars(m).items()
               if getattr(value, "__module__", None) == tracing.__name__)
assert not leaks, leaks
"""


def test_the_tracer_finds_and_restores_every_patch_after_a_lazy_start(tmp_path):
    e2e = SRC.parent.parent / "benchmarks" / "e2e"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", _TRACER_PROBE, str(e2e)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
