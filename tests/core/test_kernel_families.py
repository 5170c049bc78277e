"""The layer families' kernels load with the first model that uses them.

The convolution and attention kernels live in modules of their own, which
``vectorized._lookup`` imports the first time it meets one of a family's
classes.  These checks start from a fresh interpreter, where no family is
loaded yet — an in-process pytest session has imported every module by
collection time and would hide a family that never loads.
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
# epoch with the serial fallback disabled.
_TRAIN = """
import json, sys
from repro.core import TrainerConfig, VirtualFlowTrainer
from repro.core.backends.vectorized import supports_inference, supports_training

families = lambda: sorted(m for m in sys.modules if m in %r)
before = families()
trainer = VirtualFlowTrainer(TrainerConfig(workload=sys.argv[1], global_batch_size=8,
                                           num_virtual_nodes=4, num_devices=2,
                                           dataset_size=16))
bound = families()
executor = trainer.executor

def fallback(*args, **kwargs):
    raise AssertionError("fell back to the serial loop")

executor.backend._reference.train_step = executor.backend._reference.infer = fallback
trainer.train_epoch()
print(json.dumps({
    "model": type(executor.model).__name__,
    "before": before, "bound": bound, "after": families(),
    "training": supports_training(executor.model, executor.loss_fn),
    "inference": supports_inference(executor.model),
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
    assert run["training"] and run["inference"]
    assert run["before"] == []
    # Bound when the executor was built: nothing loads inside the loop.
    assert run["bound"] == run["after"] == ([family] if family else [])


# Looks up kernels for a family class (and a user subclass of one) before
# the family's module is loaded, next to a class that has no kernel at all.
_LOOKUP = """
import json, sys
from repro.core.backends import vectorized as V
from repro.framework.conv import Conv2D
from repro.framework.layers import Module

class NoKernel(Module):
    pass

class MyConv(Conv2D):
    pass

loaded = lambda: "repro.core.backends.vectorized_conv" in sys.modules
out = {"loaded_before": loaded()}
out["no_kernel"] = [V._lookup(V._FWD, NoKernel) is None for _ in range(2)]
out["subclass"] = V._lookup(V._BWD, MyConv) is V._BWD[Conv2D]
out["loaded_after"] = loaded()
out["misses"] = sorted(cls.__name__ for table in (V._FWD, V._BWD)
                       for cls, fn in table.items() if fn is V._MISSING)
print(json.dumps(out))
"""


def test_a_family_class_is_never_a_cached_miss():
    out = _fresh(_LOOKUP)
    assert not out["loaded_before"] and out["loaded_after"]
    assert out["no_kernel"] == [True, True]
    assert out["subclass"]
    assert out["misses"] == ["NoKernel"]
