"""tropalg: max-plus / weighted-lattice algebra, tropical geometry, and
convex piecewise-linear regression.

The library is organized around a scalar clodum (a complete lattice with a
pair of dual multiplications) that every higher-level object carries:
vectors, matrices and signals (:mod:`tropalg.wlattice`), optimal solvers for
max-mul linear systems (:mod:`tropalg.solver`), tropical polynomials,
Newton polytopes and halfspaces (:mod:`tropalg.tropgeom`), and max-affine
regression (:mod:`tropalg.regression`).
"""

from . import clodum, formats, regression, solver, tropgeom, wlattice
from .clodum import *
from .formats import *
from .regression import *
from .solver import *
from .tropgeom import *
from .wlattice import *

__version__ = "0.1.0"

__all__ = (clodum.__all__ + wlattice.__all__ + solver.__all__ + tropgeom.__all__
           + regression.__all__ + formats.__all__)
