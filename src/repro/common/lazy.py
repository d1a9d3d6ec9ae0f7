"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every module it re-exports makes
importing any one of its modules import them all.  A package that maps
each exported name to its module instead pays for a module only when
the name is first read::

    _EXPORTS = {"Tracer": "repro.obs.trace", ...}
    __all__ = sorted(_EXPORTS)
    __getattr__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib


def lazy_exports(package: str, exports: dict[str, str]):
    """A module ``__getattr__`` that imports ``exports[name]`` and
    returns its ``name``."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(module), name)

    return __getattr__
