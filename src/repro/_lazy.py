"""Package namespaces that import a submodule when one of its names is used.

A package ``__init__`` imports nothing eagerly (DESIGN §10): it lists
its public names once, under the submodule that defines them, and
:func:`lazy_exports` turns that table into the module-level
``__all__``, ``__getattr__`` and ``__dir__`` of PEP 562::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "module": ("Module", "Parameter"),
    })

``from repro.nn import Module`` then imports ``repro.nn.module`` and
nothing else. A name is looked up in its submodule on every access and
never cached in the package's globals, so the package always answers
with whatever the submodule holds now (a patched function included).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are ``exports``: submodule name -> the names it defines."""
    home = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        return getattr(import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
