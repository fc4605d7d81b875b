"""Lazy package exports (PEP 562): a package names its public objects
by the submodule that defines them, and imports none of them until one
is used.

A package ``__init__`` declares its surface as one table::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".report": ("build_report", "write_report"),
        ".tables": ("format_table",),
    })

The first ``package.name`` (or ``from package import name``) imports
the defining submodule and stores the object on the package, so every
later access is a plain module attribute.  ``package.submodule``
resolves whether or not the submodule was imported yet, as it did when
every package imported all of its submodules, and ``dir(package)``
lists every exported name.  So a process imports only the modules its
work touches: a warm ``repro serve`` worker never loads the paper's
pipeline.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    name: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``name``.

    ``table`` maps a submodule (relative to the package, e.g.
    ``".graph"``) onto the names it defines that the package exports.
    """
    where = {export: module for module, exports in table.items() for export in exports}

    def __getattr__(attr: str) -> Any:
        module = where.get(attr)
        if module is not None:
            value = getattr(importlib.import_module(module, name), attr)
        elif attr.startswith("__"):
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        else:  # a submodule not imported yet
            try:
                value = importlib.import_module(f"{name}.{attr}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{name}.{attr}":
                    raise  # the submodule exists; something it imports does not
                raise AttributeError(
                    f"module {name!r} has no attribute {attr!r}"
                ) from None
        setattr(sys.modules[name], attr, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[name])) | set(where))

    return list(where), __getattr__, __dir__
