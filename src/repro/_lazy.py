"""Lazy package facades: a name loads its submodule on first access.

Every package ``__init__`` re-exports its public names, but a command
should pay only for what it runs: ``serve`` never needs the simulator,
``monitor`` never needs asyncio.  :func:`lazy_exports` turns a
``name -> "module[:attr]"`` table into the package's PEP 562
``__getattr__``/``__dir__`` pair, so ``from repro.service import
StoreQuery`` imports :mod:`repro.service.query` alone.  Code inside
``src/repro`` imports from the defining submodule and never comes here.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Build ``(__getattr__, __dir__)`` for the package owning *namespace*.

    *exports* maps each public name to the module defining it, with
    ``:attr`` appended where the facade renames it.  A resolved name is
    written back into *namespace* (the package's ``globals()``), so the
    hook runs once per name and later reads are plain attribute loads.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        target = exports.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module, _, attr = target.partition(":")
        value = getattr(import_module(module), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
