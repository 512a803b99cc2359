"""Lazy re-exports for the package roots (PEP 562).

``repro/__init__.py`` and every subpackage ``__init__.py`` re-export
names that live in their submodules.  Importing those submodules eagerly
made ``import repro.sim.simulator`` pay for the whole experiment stack,
so each root now carries only a table of where its names live, written
like the import statements it replaces, and asks this module for its
``__getattr__`` / ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.net.network": ["Network"],
        "repro.net.node": ["Host", "Node", "Switch"],
    })

The first access to an exported name imports its module, binds the
object in the package namespace (so ``__getattr__`` is not consulted for
it again) and returns it.  A name the table does not list resolves as a
submodule when one exists (``import repro; repro.experiments`` keeps
working without the root importing it), and is an :class:`AttributeError`
naming the package otherwise.  This is the only implementation of lazy
exports in the tree, and there is no switch that makes the roots eager
again.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving ``package``'s re-exports.

    ``exports`` maps each defining module to the names re-exported from it.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in home:
            value = getattr(import_module(home[name]), name)
        elif name.startswith("_"):  # dunder probes: never a submodule of ours
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:  # a real failure inside the submodule
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__
