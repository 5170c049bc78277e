"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists each public name with the module it comes from, and that
module is imported the first time the name is read.  Importing a package is
then nearly free, and an entry point loads only the layers it runs:
``repro train`` never compiles the serving stack, the event runtime or the
chaos layer.

A package never keeps its own copy of a re-exported name: every read
returns what the source module holds at that moment.  So a patch of the
defining module (a test's ``monkeypatch``, the end-to-end benchmark's
tracer) is seen through the package, and nothing is left behind in the
package when the patch is undone.  For the same reason, a module that may
first load in the middle of a run calls a patched function through its
module (``datasets.make_dataset(...)``) rather than binding a copy with
``from ... import``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(module: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``module``, re-exporting ``exports``.

    ``exports`` maps each name to the module it is read from, on every
    read; the package itself binds nothing.
    """

    def __getattr__(name: str):
        home = exports.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(sys.modules.get(home) or import_module(home), name)

    def __dir__() -> List[str]:
        return sorted(set(import_module(module).__dict__) | set(exports))

    return __getattr__, __dir__
