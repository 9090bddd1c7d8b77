"""Finite subgroups of GL_n(Z): closure, element orders, p-parts, subgroups."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .intmat import DimensionMismatchError, IntMatrix, det, det_one_minus, mul

DEFAULT_CAP = 20000


class NotFiniteError(RuntimeError):
    """Raised when a closure or power chain exceeds its cap."""


class NotUnimodularError(ValueError):
    pass


@dataclass(frozen=True)
class PointGroup:
    """A finite multiplicative group of unimodular integer matrices.

    `elements` is sorted by entry tuples so equal groups compare equal.
    `index`, `orders`, `dets` and `det_one_minus` form the element table:
    each column lines up with `elements` and is computed on first use, so a
    verdict that needs no element orders (p = 0) never computes them.
    The group is closed, so its elements need no unimodularity check and
    every power of one of them is found in `index`.
    """

    n: int
    elements: tuple[IntMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> IntMatrix:
        return IntMatrix.identity(self.n)

    @cached_property
    def index(self) -> dict[IntMatrix, int]:
        return {m: i for i, m in enumerate(self.elements)}

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Each cyclic subgroup not yet seen is walked once: the powers
        x, x^2, ..., x^k = 1 of an element of unknown order give every x^j
        its order k / gcd(j, k), at k - 1 products for the walk."""
        index = self.index
        one = index[self.identity]
        orders = [0] * self.order
        for i, x in enumerate(self.elements):
            if orders[i]:
                continue
            walk = [i]
            y = x
            while walk[-1] != one:
                y = mul(y, x)
                walk.append(index[y])
            k = len(walk)
            for j, pos in enumerate(walk, 1):
                orders[pos] = k // gcd(j, k)
        return tuple(orders)

    @cached_property
    def dets(self) -> tuple[int, ...]:
        return tuple(det(x) for x in self.elements)

    @cached_property
    def det_one_minus(self) -> tuple[int, ...]:
        return tuple(det_one_minus(x) for x in self.elements)

    def __contains__(self, m: IntMatrix) -> bool:
        return m in self.index

    def __iter__(self):
        return iter(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def _check_generators(generators: list[IntMatrix]) -> int:
    if not generators:
        return 0
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise DimensionMismatchError("generators have mixed dimensions")
        if not g.is_unimodular():
            raise NotUnimodularError(f"generator has |det| != 1: {g.entries}")
    return n


def closure(generators: list[IntMatrix], cap: int = DEFAULT_CAP, n: int | None = None) -> PointGroup:
    """Dimino's coset closure of unimodular generators into a PointGroup
    (G. Butler, Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

    The generators join one at a time. A generator s that is not yet in the
    group H built so far extends it to <H, s>, a union of right cosets H r.
    Right multiplication by the generators permutes these cosets, so starting
    from H s, each new representative r and each generator t used so far
    either gives an element r t already listed (then its whole coset is) or a
    new coset H (r t). That is about |G| products in all, plus one per
    representative and generator; a generator already in H costs one lookup.
    A finite set closed under multiplication and containing the identity is
    automatically closed under inverse.

    For an empty generator list, `n` gives the ambient dimension (default 1).
    With cap >= 1, raises NotFiniteError exactly when the group has more than
    `cap` elements.
    """
    dim = _check_generators(generators) or n or 1
    elements = [IntMatrix.identity(dim)]
    members = set(elements)
    used: list[IntMatrix] = []

    def add_coset(r: IntMatrix, rest: list[IntMatrix]) -> None:
        """Append H r, where `rest` is H without its identity."""
        if len(elements) + 1 + len(rest) > cap:
            raise NotFiniteError(
                f"closure stopped at the cap: the group is infinite or has more "
                f"than {cap} elements (--cap raises the limit)"
            )
        coset = [r] + [mul(h, r) for h in rest]
        elements.extend(coset)
        members.update(coset)

    for s in generators:
        if s in members:
            continue
        used.append(s)
        rest = elements[1:]  # the identity heads `elements`
        reps = [s]
        add_coset(s, rest)
        for r in reps:  # grows while it is read
            for t in used:
                e = mul(r, t)
                if e not in members:
                    reps.append(e)
                    add_coset(e, rest)
    return PointGroup(dim, tuple(sorted(elements, key=lambda m: m.entries)))


def element_order(g: IntMatrix, cap: int = DEFAULT_CAP) -> int:
    if not g.is_unimodular():
        raise NotUnimodularError(f"element has |det| != 1: {g.entries}")
    ident = IntMatrix.identity(g.n)
    acc = g
    for m in range(1, cap + 1):
        if acc == ident:
            return m
        acc = mul(acc, g)
    raise NotFiniteError(f"no order found up to cap {cap}")


def power(g: IntMatrix, e: int) -> IntMatrix:
    acc = IntMatrix.identity(g.n)
    base = g
    while e > 0:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


@dataclass(frozen=True)
class PDecomposition:
    """g = g_p * g_p' with commuting factors of p-power and p'-order."""

    g_p: IntMatrix
    g_p_prime: IntMatrix


def p_part(m: int, p: int) -> int:
    """The largest power of p dividing the positive integer m."""
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


def p_decompose(g: IntMatrix, p: int) -> PDecomposition:
    """Split a finite-order g into its p-part and p'-part.

    Both factors are powers of g, hence commute; exponents come from the
    CRT decomposition of Z/order(g).
    """
    e = element_order(g)
    pa = p_part(e, p)
    m = e // pa
    ident = IntMatrix.identity(g.n)
    if pa == 1:
        return PDecomposition(ident, g)
    if m == 1:
        return PDecomposition(g, ident)
    g_p = power(g, m * pow(m, -1, pa))
    g_pp = power(g, pa * pow(pa, -1, m))
    return PDecomposition(g_p, g_pp)


def p_regular_elements(group: PointGroup, p: int) -> list[IntMatrix]:
    """Elements of order coprime to p; for p = 0, every element (all are torsion)."""
    if p == 0:
        return list(group.elements)
    return [x for x, k in zip(group.elements, group.orders) if k % p != 0]


def all_subgroups(group: PointGroup) -> list[PointGroup]:
    """All subgroups, by repeatedly extending known subgroups by one element.

    The analyzer does not call it: it is the brute-force reference that the
    tests check the bounds against.

    Complete: any subgroup arises along a chain of one-generator extensions
    starting from the trivial group. Deduplicated by element set. Each
    extension <H, g> is closed from the generators H was built from plus g.
    """
    trivial = frozenset([group.identity])
    gens: dict[frozenset[IntMatrix], list[IntMatrix]] = {trivial: []}
    worklist = [trivial]
    while worklist:
        h = worklist.pop()
        for g in group.elements:
            if g in h:
                continue
            k = frozenset(closure(gens[h] + [g], cap=group.order, n=group.n).elements)
            if k not in gens:
                gens[k] = gens[h] + [g]
                worklist.append(k)
    subs = [PointGroup(group.n, tuple(sorted(k, key=lambda m: m.entries))) for k in gens]
    return sorted(subs, key=lambda s: (s.order, [m.entries for m in s.elements]))
