"""PEP 562 lazy re-exports for package ``__init__`` modules.

``repro``, ``repro.runs`` and ``repro.store`` re-export names whose home
modules load numpy, the learner, or the HTTP client stack.  The campaign
service imports those packages without needing any of that, so the
re-exports resolve on first attribute access instead of at import::

    __getattr__ = lazy_exports(__name__, {"run": "repro.runs.runner"})

Each resolved name is cached in the package namespace, so the import runs
once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` that imports ``exports[name]`` on first use."""

    def __getattr__(name: str) -> Any:
        home = exports.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
