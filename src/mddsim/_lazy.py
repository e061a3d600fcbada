"""Deferred imports for the heavy scipy submodules that only some experiments use."""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """Module ``name``, executed on its first attribute access.

    The object is entered in ``sys.modules``, so a later plain import returns
    it, and once loaded it is the module itself.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
