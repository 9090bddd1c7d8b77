"""Exact computation of Euler-class orders for split crystallographic groups."""

from .catalog import CatalogEntry, UnknownNameError, entries, lookup
from .crystal import CrystGroup, centralizer_is_infinite, fixed_sublattice, make_cryst, maps_onto_Z
from .euler import (
    Characteristic,
    InvalidCharacteristicError,
    OrderResult,
    PreconditionError,
    exact_order,
    fpf_group_shape_check,
    has_finite_order,
    lower_bound,
    order_divisor,
    upper_bound_p_part,
)
from .fingroup import (
    NotFiniteError,
    NotUnimodularError,
    PDecomposition,
    PointGroup,
    all_subgroups,
    closure,
    element_order,
    p_decompose,
    p_regular_elements,
)
from .intmat import (
    IntMatrix,
    IntPoly,
    Lattice,
    charpoly,
    det,
    det_one_minus,
    exterior_power,
    fixed_lattice,
    mul,
)

__version__ = "0.1.0"
