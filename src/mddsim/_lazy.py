"""Deferred imports for the heavy modules that only some runs use."""

from __future__ import annotations

import importlib
import types


class _Deferred(types.ModuleType):
    """Stand-in for a module that is imported on its first attribute access."""

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self.__name__), attr)


def lazy_import(name: str) -> types.ModuleType:
    """A proxy for module ``name``: nothing is imported until an attribute the
    proxy lacks is read, and such a read returns the module's own attribute.
    The proxy is not the module, and it is not entered in ``sys.modules``."""
    return _Deferred(name)
