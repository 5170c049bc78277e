"""The package is layered: each entry point loads only the layers it runs.

Two checks.  Dynamically, one fresh interpreter per entry point runs a
small command and notes which ``repro`` modules are loaded at the door of
its run loop (where the end-to-end benchmark's set-up probe stops) and
again when the command has finished: the two sets must be equal, so all
of a run's compiling happens before its loop.  Statically, the import
statements of every module (``if TYPE_CHECKING:`` blocks exempt) keep the
lower layers free of the simulator stack above them, the serving and
scheduling stack free of the training stack, and the dense core free of
the layer families.
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

# Runs the command and prints the ``repro`` modules loaded at its loop's
# door (the first call of the loop's entry) and at its end.
_PROBE = """
import contextlib, importlib, io, json, sys
module, cls, method, argv = json.loads(sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
at_door = []
if module:
    owner = getattr(importlib.import_module(module), cls)
    entry = getattr(owner, method)
    def door(*args, **kwargs):
        if not at_door:
            at_door.append(loaded())
        return entry(*args, **kwargs)
    setattr(owner, method, door)
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    if not at_door:
        sys.exit("the command never reached its run loop")
else:
    import repro
    at_door.append(loaded())
print(json.dumps([at_door[0], loaded()]))
"""

_TENANTS = "prem:class=premium,weight=8,quota=300;flood:share=4"
_RUNTIME = ("repro.runtime.core", "Runtime", "run")
_STEP = ("repro.core.executor", "VirtualFlowExecutor", "run_step")


def _train(workload):
    return (_STEP, ["train", "--workload", workload, "--batch", "32", "--virtual-nodes", "4",
                    "--devices", "2", "--epochs", "1", "--dataset-size", "128",
                    "--backend", "fused"])


ENTRY_POINTS = {
    "import": (("", "", ""), []),
    "train": _train("mlp_synthetic"),
    "train_resnet": _train("resnet56_cifar10"),  # the only entry with a layer family
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
def runs(tmp_path_factory):
    """``{entry point: ([repro modules at its loop's door], [... at its end])}``."""
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


@pytest.fixture(scope="module")
def loaded(runs):
    """``{entry point: [repro modules loaded at its run loop's door]}``."""
    return {name: at_door for name, (at_door, _) in runs.items()}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nothing_loads_after_the_loop_door(runs, entry):
    at_door, at_end = runs[entry]
    assert at_end == at_door, sorted(set(at_end) ^ set(at_door))


def _packages(modules):
    return {m.split(".")[1] if "." in m else "" for m in modules}


def test_import_repro_loads_only_the_export_tables(loaded):
    assert loaded["import"] == ["repro", "repro._lazy"]


_CONV = {"repro.framework.conv", "repro.core.backends.vectorized_conv"}
_ATTENTION = {"repro.framework.attention", "repro.core.backends.vectorized_attention"}
# Modules a serving or co-scheduling run must not load: training runs them.
_TRAINING = {"repro.framework.optimizers", "repro.framework.arena", "repro.core.sync",
             "repro.core.state", "repro.core.executor", "repro.framework.losses"}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_run_loads_the_memory_timeline(loaded, entry):
    assert "repro.hardware.memory" not in loaded[entry]  # Figure 6's simulation


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_run_loads_the_serial_oracle(runs, entry):
    """The serial wave loop is the tests' oracle, not a fallback of any run."""
    at_door, at_end = runs[entry]
    assert "repro.core.backends.reference" not in at_door + at_end


def test_train_loads_only_the_training_layers(loaded):
    modules = loaded["train"]
    assert _packages(modules) <= TRAIN, sorted(_packages(modules) - TRAIN)
    assert not (_CONV | _ATTENTION) & set(modules)
    assert len(modules) <= 36, modules


def test_a_model_loads_its_layer_family_before_the_loop(loaded):
    modules = set(loaded["train_resnet"])
    assert _CONV <= modules and not _ATTENTION & modules
    assert modules - _CONV == set(loaded["train"])


def test_serve_adds_only_the_serving_layers(loaded):
    modules = loaded["serve"]
    assert _packages(modules) <= SERVE, sorted(_packages(modules) - SERVE)
    elastic = {m for m in modules if m.startswith("repro.elastic.")}
    assert elastic == {"repro.elastic.trace"}, elastic
    unarmed = {"repro.serving.autoscaler", "repro.serving.admission"}
    assert not (_TRAINING | unarmed | _CONV | _ATTENTION) & set(modules)
    assert len(modules) <= 43, modules


def test_chaos_loads_the_whole_stack_within_budget(loaded):
    modules = loaded["chaos"]
    assert {"chaos", "sched"} <= _packages(modules)
    assert not (_TRAINING | _CONV | _ATTENTION) & set(modules)
    assert len(modules) <= 56, modules


# AST nodes each path compiles before its loop starts (``ast.walk`` over the
# sources of the modules it loaded).  Start-up compile time tracks this count,
# and a docstring is one node, so deleting prose cannot move it.  Python 3.10
# to 3.13 count these sources alike.
AST_NODE_BUDGETS = {"train": 29_528, "train_resnet": 34_324, "serve": 44_858, "chaos": 59_138}


def _ast_nodes(modules):
    total = 0
    for module in modules:
        path = SRC.joinpath(*module.split(".")[1:])
        source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        total += sum(1 for _ in ast.walk(ast.parse(source.read_text())))
    return total


@pytest.mark.parametrize("entry", sorted(AST_NODE_BUDGETS))
def test_each_path_compiles_within_its_ast_node_budget(loaded, entry):
    assert _ast_nodes(loaded[entry]) <= AST_NODE_BUDGETS[entry]


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


def _module_level_imports(tree: ast.AST):
    """Every module named by an import that runs when the module loads (not
    inside a function), outside TYPE_CHECKING; ``from a import b`` names
    both ``a`` and ``a.b``, which may be a submodule."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def _module_level_violations(importers, banned):
    bad = []
    for path in SRC.rglob("*.py"):
        name = ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        if not any(name == i or name.startswith(i + ".") for i in importers):
            continue
        for target in _module_level_imports(ast.parse(path.read_text())):
            if any(target == b or target.startswith(b + ".") for b in banned):
                bad.append((name, target))
    return sorted(bad)


def test_the_serving_stack_imports_nothing_of_the_training_stack():
    """A serving, scheduling or chaos run loads no optimizer, gradient
    reduction, serial oracle loop or training executor when it starts."""
    importers = ("repro.serving", "repro.sched", "repro.chaos", "repro.elastic",
                 "repro.core.inference")
    banned = ("repro.framework.optimizers", "repro.core.sync",
              "repro.core.backends.reference", "repro.core.executor")
    assert not _module_level_violations(importers, banned)


def test_the_dense_core_imports_no_layer_family():
    """The families load with a model that uses them, never with the core."""
    importers = ("repro.framework.layers", "repro.framework.models",
                 "repro.core.backends.vectorized")
    banned = ("repro.framework.conv", "repro.framework.attention",
              "repro.core.backends.vectorized_conv",
              "repro.core.backends.vectorized_attention")
    assert not _module_level_violations(importers, banned)


def test_each_name_has_one_home_in_the_export_tables():
    """A subpackage's table names only its own modules, and the top-level
    table names only subpackages: the module that defines a name is written
    down once, and ``import repro.<pkg>`` cannot drag another layer in."""
    for init in SRC.glob("*/**/__init__.py"):
        package = "repro." + ".".join(init.parent.relative_to(SRC).parts)
        exports = importlib.import_module(package)._EXPORTS  # every package is lazy
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
