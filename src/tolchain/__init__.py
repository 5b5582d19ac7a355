"""Worst-case and Monte Carlo analysis of 1D dimensional tolerance chains.

The package models a chain of toleranced dimensions whose signed sum is a
functional condition, and answers three questions about it: what interval the
condition can reach (worst case), how it is distributed under per-dimension
process scatter (Monte Carlo), and how to adjust the tolerances until the
scrap rate meets a target (synthesis). A CLI exposes the same operations on
JSON chain files.

The public names are those in the ``__all__`` of the submodules below. They
are looked up on first access, so importing the package loads no numpy until
a Monte Carlo or synthesis name is used, and nothing loads scipy.
"""

from __future__ import annotations

import importlib
import importlib.util
from types import ModuleType
from typing import Any, Iterator

__version__ = "0.1.0"

# Cheapest to import first: a name found in one stops the search.
_API_MODULES = ("model", "worstcase", "montecarlo", "synthesis")


def _api_modules() -> Iterator[ModuleType]:
    for name in _API_MODULES:
        yield importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str) -> Any:
    if name == "__all__":
        return sorted({"__version__", *(n for module in _api_modules() for n in module.__all__)})
    # Private names and submodules (``from tolchain import cli``) go back to
    # the import system without loading the sampling stack.
    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in _api_modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
