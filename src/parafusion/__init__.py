"""parafusion: exact fusion rings, Z_2k codes, and lattice verification.

Everything is computed in exact rational arithmetic: minimal-model and
parafermion fusion data, the k^2-class fusion ring of the rank-one
extended parafermion algebra, codes over Z_2k with their even/odd
classification, the glue lattice with its discriminant group, and the
orbit/stabilizer inventory of code-twisted irreducible modules.

The package's names are exactly those in each module's `__all__`.
"""

from .arith import *
from .codes import *
from .fusion import *
from .lattice import *
from .parafermion import *
from .u0 import *
from .ud import *
from .virasoro import *

__version__ = "0.1.0"
