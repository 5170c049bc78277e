"""The layer families' kernels load with the first model that uses them.

The convolution and attention kernels live in modules of their own, which
``vectorized``'s kernel tables import the first time they meet one of a
family's classes, when an engine builds the model's kernel plan.  These
checks start from a fresh interpreter, where no family is loaded yet — an
in-process pytest session has imported every module by collection time
and would hide a family that never loads.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent.parent

_FAMILIES = ("repro.core.backends.vectorized_attention", "repro.core.backends.vectorized_conv")


def _fresh(script: str, *argv: str):
    """The JSON ``script`` prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# Builds a trainer (which binds the model), then trains and evaluates one
# epoch on the model's kernel plan.
_TRAIN = """
import json, sys
from repro.core import TrainerConfig, VirtualFlowTrainer

families = lambda: sorted(m for m in sys.modules if m in %r)
before = families()
trainer = VirtualFlowTrainer(TrainerConfig(workload=sys.argv[1], global_batch_size=8,
                                           num_virtual_nodes=4, num_devices=2,
                                           dataset_size=16))
bound = families()
executor = trainer.executor
trainer.train_epoch()
print(json.dumps({
    "model": type(executor.model).__name__,
    "before": before, "bound": bound, "after": families(),
    "planned": executor.model in executor.backend._plans,
    "reference": "repro.core.backends.reference" in sys.modules,
}))
""" % (_FAMILIES,)


@pytest.mark.parametrize("workload, model, family", [
    ("resnet56_cifar10", "SmallCNN", "repro.core.backends.vectorized_conv"),
    ("bert_base_glue", "TinyBert", "repro.core.backends.vectorized_attention"),
    ("transformer_wmt", "TinyTransformer", "repro.core.backends.vectorized_attention"),
    ("mlp_synthetic", "MLPClassifier", None),
])
def test_each_family_takes_the_fused_path_from_a_fresh_start(workload, model, family):
    run = _fresh(_TRAIN, workload)
    assert run["model"] == model
    assert run["planned"] and not run["reference"]
    assert run["before"] == []
    # Bound when the executor was built: nothing loads inside the loop.
    assert run["bound"] == run["after"] == ([family] if family else [])


# Looks up kernels for a class with no kernel at all, then for a user
# subclass of a family class before the family's module is loaded.
_LOOKUP = """
import json, sys
from repro.core.backends import vectorized as V
from repro.framework.conv import Conv2D
from repro.framework.layers import Module

class NoKernel(Module):
    pass

class MyConv(Conv2D):
    pass

def miss(cls):
    try:
        V._FWD[cls]
    except V.UnsupportedModule as error:
        return str(error)

loaded = lambda: "repro.core.backends.vectorized_conv" in sys.modules
out = {"loaded_before": loaded()}
out["no_kernel"] = [miss(NoKernel) for _ in range(2)]
out["subclass"] = V._BWD[MyConv] is V._BWD[Conv2D]
out["loaded_after"] = loaded()
out["cached"] = sorted(cls.__name__ for table in (V._FWD, V._BWD) for cls in table
                       if cls.__module__ == "__main__")
print(json.dumps(out))
"""


def test_a_family_loads_before_a_miss_is_raised_for_its_classes():
    out = _fresh(_LOOKUP)
    assert not out["loaded_before"] and out["loaded_after"]
    assert out["no_kernel"] == ["NoKernel has no vectorized forward kernel"] * 2
    assert out["subclass"]
    assert out["cached"] == ["MyConv"]  # the walk is memoized; a miss is not
