"""Embeddings between sequence-modelled smoothness spaces: compactness,
nuclearity, entropy asymptotics, and a numeric finite-section laboratory.

The package exports exactly the names in the __all__ lists of seqdsl,
seqcore, embanalyzer and seqspacelab, so a name is added or removed in one
place: its module's list.  Importing the package loads none of them: the
first lookup of an export (gsembed.parse, from gsembed import parse, or
import *) loads all four and binds their names here, with __all__.  A
submodule name loads that submodule alone, so from gsembed import cli
costs what import gsembed.cli does."""

import importlib.util

__version__ = "0.1.0"

_EXPORTING = ("seqdsl", "seqcore", "embanalyzer", "seqspacelab")


def __getattr__(name):
    if name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if "__all__" not in namespace:
        mods = [importlib.import_module(f"{__name__}.{m}") for m in _EXPORTING]
        namespace.update((n, getattr(m, n)) for m in mods for n in m.__all__)
        namespace["__all__"] = [n for m in mods for n in m.__all__]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
