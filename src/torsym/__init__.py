"""Exact lattice algebra for six maximal-order space groups: singular graphs,
covering lifts, and the resulting classification tables."""

from . import classify, errors, lattices, periodic_graphs, spacegroups, sublattices
from .classify import *
from .errors import *
from .lattices import *
from .periodic_graphs import *
from .spacegroups import *
from .sublattices import *

# each module's own `__all__` is its export list
__all__ = [name for module in (classify, errors, lattices, periodic_graphs, spacegroups, sublattices) for name in module.__all__]

__version__ = "0.1.0"
