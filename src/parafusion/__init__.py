"""parafusion: exact fusion rings, Z_2k codes, and lattice verification.

Everything is computed in exact rational arithmetic: minimal-model and
parafermion fusion data, the k^2-class fusion ring of the rank-one
extended parafermion algebra, codes over Z_2k with their even/odd
classification, the glue lattice with its discriminant group, and the
orbit/stabilizer inventory of code-twisted irreducible modules.

The package's names are exactly those in each module's `__all__`.  No
command runs `parafermion` or `virasoro`, so those two modules load on
first use of one of their names (or of `__all__`), and `import
parafusion.cli` does not compile them.
"""

from .arith import *
from .codes import *
from .fusion import *
from .lattice import *
from .u0 import *
from .ud import *

__version__ = "0.1.0"

_EAGER = (arith, codes, fusion, lattice, u0, ud)
_ON_DEMAND = ("parafermion", "virasoro")


def __getattr__(name: str):
    """A name of `parafermion` or `virasoro`, or one of the two modules,
    loaded on first use; or the package's `__all__`: every module's
    `__all__` in turn."""
    from importlib import import_module

    modules = [import_module(f"{__name__}.{m}") for m in _ON_DEMAND]
    if name == "__all__":
        return [n for module in _EAGER + tuple(modules) for n in module.__all__]
    for module in modules:
        if name in module.__all__:
            globals()[name] = getattr(module, name)
    # importing a module binds it here too
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
