"""Lazy package namespaces (PEP 562).

A package that re-exports modules the simulation does not run lists its
public names by the submodule that defines them, and binds
``__getattr__ = lazy_exports(globals(), {...})``. Importing the package
then loads none of its submodules; each one loads on the first read of
a name it defines.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of the package whose globals are
    ``namespace``.

    ``exports`` maps a submodule (relative, as ``".runtime"``) to the
    public names it defines. A name resolves by importing its submodule
    and is then stored in the package, so later reads are plain lookups
    and a value set on the package (a test's patch, a tracer's wrapper)
    wins over the table. Any other name is tried as a submodule, as
    ``import repro`` followed by ``repro.core.runtime`` expects.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if name.isidentifier():
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return __getattr__
