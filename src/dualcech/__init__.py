"""Exact Cech cohomology of presheaves on dual complexes of normal crossings configurations.

The submodules load on first use: ``import dualcech`` imports none of
them, and ``dualcech.snc`` (or ``from dualcech import *``) imports a
submodule the first time it is named.  ``cli`` and ``formats`` reach the
layers that way, so each CLI command compiles and runs only the modules
its path calls; ``verify-lemma31`` never pays for the simplicial,
presheaf, SNC, bicomplex and toric layers.
"""

import importlib

__all__ = [
    "bicomplex",
    "errors",
    "exactla",
    "localmodel",
    "presheaf",
    "simplicial",
    "snc",
    "toric",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only while the submodule is not yet an attribute;
    # importing it binds the attribute, so later lookups never come here
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
