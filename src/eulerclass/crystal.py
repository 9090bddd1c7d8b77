"""Split crystallographic groups Z^n x| G.

Only the point-group action on the lattice is stored: every computation in
scope factors through it, so no explicit affine elements are needed. For a
split group with faithful G-action the acting quotient is G itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fingroup import DEFAULT_CAP, PointGroup, closure
from .intmat import IntMatrix, Lattice, fixed_lattice_of_rank


@dataclass(frozen=True)
class CrystGroup:
    rank: int
    point_group: PointGroup

    @property
    def name(self) -> str:
        return f"Z^{self.rank} x| G (|G| = {self.point_group.order})"

    @cached_property
    def fixed_sublattice(self) -> Lattice:
        """Computed once, on first use; see the module-level `fixed_sublattice`."""
        nontrivial = [g for g in self.point_group if not g.is_identity()]
        return fixed_lattice_of_rank(self.rank, nontrivial)


def make_cryst(rank: int, generators: list[IntMatrix], cap: int = DEFAULT_CAP) -> CrystGroup:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    for g in generators:
        if g.n != rank:
            raise ValueError(f"generator dimension {g.n} does not match rank {rank}")
    return CrystGroup(rank, closure(generators, cap=cap, n=rank))


def fixed_sublattice(cryst: CrystGroup) -> Lattice:
    """The sublattice of lattice vectors fixed by every point-group element."""
    return cryst.fixed_sublattice


def maps_onto_Z(cryst: CrystGroup) -> bool:
    """True iff the fixed sublattice is nonzero, iff the group surjects onto Z."""
    return not fixed_sublattice(cryst).is_trivial()


def centralizer_is_infinite(cryst: CrystGroup, g: IntMatrix) -> bool:
    """Whether a finite-order group element with point-group image g has
    infinite centralizer; equivalent to g fixing a nonzero lattice vector,
    i.e. det(1 - g) = 0. (Elements of infinite order always have infinite
    centralizer and are not routed through this predicate.)
    """
    group = cryst.point_group
    if g not in group:
        raise ValueError("matrix is not an element of the point group")
    return group.det_one_minus[group.index[g]] == 0
