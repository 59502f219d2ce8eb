"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports names from heavy siblings (the serve stack, the
simulator, every figure driver) would make ``import repro.<pkg>.<light>``
pay for all of them.  Instead the package keeps a ``{name: submodule}``
table and resolves each name on first access::

    _EXPORTS = {"search_deadlock": "reachability", ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

plus a ``TYPE_CHECKING`` block importing the same names, so type checkers
see them.  ``from repro.analysis import search_deadlock`` and
``repro.campaign.runner`` (a submodule as an attribute) keep working; the
import runs through :func:`builtins.__import__`, so import hooks see it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``."""

    def __getattr__(name: str) -> Any:
        sub = exports.get(name)
        if sub is not None:
            module = __import__(f"{package}.{sub}", fromlist=[name])
            value = getattr(module, name)
        elif not name.startswith("__"):
            # a submodule accessed as an attribute, as the eager
            # ``__init__`` used to leave behind
            try:
                value = __import__(f"{package}.{name}", fromlist=["_"])
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
