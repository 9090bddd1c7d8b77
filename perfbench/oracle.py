"""An exact oracle for the benchmark's outputs, independent of eulerclass.

It has its own closure, its own determinant (cofactor expansion over Python
ints), its own element orders and its own rank over Q, and evaluates
Theorem A itself: the Euler class has finite order iff det(1 - x) = 0 for
every p-regular x in G. The other facts it uses are standard:

- By Sylow, the largest p-subgroup has order the p-part of |G|.
- Rank 2: the fixed-point-free subgroups are exactly the rotation
  subgroups, so the largest fixed-point-free p-subgroup has order the
  p-part of |G & SL_2(Z)|.
- Odd rank: a fixed-point-free element has det -1 (det 1 forces the
  eigenvalue 1) and its square has det 1, so it is -I; the only
  nontrivial fixed-point-free p-subgroup is {+-I}, and only for p = 2.
- The wallpaper verdicts are the hand-written classification table below.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

Matrix = tuple[tuple[int, ...], ...]


class OracleError(Exception):
    """An output disagrees with the oracle, or the oracle cannot decide."""


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _det(m) -> int:
    """Cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _one_minus(m: Matrix) -> list[list[int]]:
    n = len(m)
    return [[int(i == j) - m[i][j] for j in range(n)] for i in range(n)]


def det_one_minus(m: Matrix) -> int:
    return _det(_one_minus(m))


def _rank_over_q(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def p_part(m: int, p: int) -> int:
    part = 1
    while m % p == 0:
        m //= p
        part *= p
    return part


def _is_p_power(m: int, p: int) -> bool:
    return p > 0 and p_part(m, p) == m


class Group:
    """A finite matrix group closed from its generators, with the facts the
    checks need, each computed at most once."""

    def __init__(self, rank: int, generators, cap: int = 100000) -> None:
        self.rank = rank
        self.generators = [tuple(tuple(r) for r in g) for g in generators]
        ident = _identity(rank)
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.generators:
                    b = _mul(a, g)
                    if b not in elems:
                        elems.add(b)
                        nxt.append(b)
            if len(elems) > cap:
                raise OracleError(f"closure exceeded {cap} elements")
            frontier = nxt
        self.elements = elems
        self._orders: dict[Matrix, int] = {}
        self._d1m: dict[Matrix, int] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, x: Matrix) -> int:
        if x not in self._orders:
            ident = _identity(self.rank)
            acc, k = x, 1
            while acc != ident:
                acc, k = _mul(acc, x), k + 1
                if k > 1000:
                    raise OracleError("element of order above 1000")
            self._orders[x] = k
        return self._orders[x]

    def det_one_minus(self, x: Matrix) -> int:
        if x not in self._d1m:
            self._d1m[x] = det_one_minus(x)
        return self._d1m[x]

    def is_p_regular(self, x: Matrix, p: int) -> bool:
        return p == 0 or self.element_order(x) % p != 0

    def minus_identity(self) -> Matrix:
        return tuple(tuple(-v for v in row) for row in _identity(self.rank))

    def infinite_witness(self, p: int) -> Matrix | None:
        """Theorem A: a p-regular x with det(1 - x) != 0, or None when the
        class has finite order. -I is tried first: it is p-regular for every
        p != 2 and det(1 + I) = 2^n."""
        minus = self.minus_identity()
        first = [minus] if minus in self.elements else []
        for x in chain(first, self.elements):
            if self.is_p_regular(x, p) and self.det_one_minus(x) != 0:
                return x
        return None

    def fixed_rank(self) -> int:
        n = self.rank
        rows = [[g[i][j] - int(i == j) for j in range(n)] for g in self.generators for i in range(n)]
        return n - _rank_over_q(rows) if rows else n

    def sl_order(self) -> int:
        return sum(1 for x in self.elements if _det(x) == 1)

    def acts_fixed_point_freely(self) -> bool:
        ident = _identity(self.rank)
        return all(x == ident or self.det_one_minus(x) != 0 for x in self.elements)


def expected_verdict(group: Group, p: int) -> str:
    """The verdict the decision tree must give, for rank >= 3.

    Infinite by Theorem A; Trivial when a nonzero vector is fixed; Known(|G|)
    for a p-group acting fixed-point-freely; otherwise Bounded(lower, p-part
    of |G|), where lower is known here only in odd rank.
    """
    if group.infinite_witness(p) is not None:
        return "Infinite"
    if group.fixed_rank() > 0 or group.order == 1:
        return "Trivial"
    if _is_p_power(group.order, p) and group.acts_fixed_point_freely():
        return f"Known({group.order})"
    if p == 0 or group.rank % 2 == 0:
        raise OracleError(f"no exact expectation for rank {group.rank} at p = {p}")
    lower = 2 if p == 2 and group.minus_identity() in group.elements else 1
    return f"Bounded({lower}, {p_part(group.order, p)})"


# The classification of the 13 symmorphic wallpaper groups, by hand:
# (|G|, the prime where the order is finite and nontrivial, that order).
# p1, pm and cm give Trivial everywhere; p6 and p6m give Infinite everywhere.
_WALLPAPER = {
    "p1": (1, None, None), "pm": (2, None, None), "cm": (2, None, None),
    "p2": (2, 2, 2), "pmm": (4, 2, 2), "cmm": (4, 2, 2),
    "p4": (4, 2, 4), "p4m": (8, 2, 4),
    "p3": (3, 3, 3), "p3m1": (6, 3, 3), "p31m": (6, 3, 3),
    "p6": (6, None, None), "p6m": (12, None, None),
}
_WALLPAPER_TRIVIAL = {"p1", "pm", "cm"}


def wallpaper_verdict(name: str, p: int) -> str:
    _, prime, order = _WALLPAPER[name]
    if name in _WALLPAPER_TRIVIAL:
        return "Trivial"
    if p == prime:
        return f"Known({order})"
    return "Infinite"


def _expect(what: str, got, want) -> None:
    if got != want:
        raise OracleError(f"{what}: got {got!r}, expected {want!r}")


def check_library(group_name: str, group: Group, p: int, record: dict) -> None:
    """A library verdict from exact_order on a rank >= 3 group."""
    if group_name.startswith("B"):
        n = int(group_name[1:])
        _expect("|B_n|", group.order, 2**n * factorial(n))
    _expect("|G|", record["order"], group.order)
    want = expected_verdict(group, p)
    _expect("verdict", record["verdict"], want)
    if want == "Infinite":
        _expect("provenance", record["provenance"][:1], ["thm-a"])
        if group_name.startswith("B") and p != 2:
            if group.infinite_witness(p) != group.minus_identity():
                raise OracleError("-I is not the Theorem A witness")
    elif want.startswith("Bounded"):
        _expect("provenance", record["provenance"][:1], ["bounds-only"])
    if group_name == "C5-rank4" and p == 5:
        _expect("C5 at p = 5", record["verdict"], "Known(5)")


def check_wallpaper(group_name: str, group: Group, p: int, report: dict) -> None:
    """An `analyze --json` report on a conjugated wallpaper group file."""
    want_order = _WALLPAPER[group_name][0]
    _expect("|G| (oracle closure)", group.order, want_order)
    _expect("group", report["group"], {"name": group_name, "rank": 2, "generators": [[list(r) for r in g] for g in group.generators]})
    _expect("characteristic", report["characteristic"], p)
    _expect("point_group_order", report["point_group_order"], want_order)
    _expect("element rows", len(report["elements"]), want_order)
    rows = {tuple(tuple(r) for r in row["matrix"]): row for row in report["elements"]}
    _expect("element set", set(rows), group.elements)
    for x, row in rows.items():
        _expect("element order", row["order"], group.element_order(x))
        _expect("element det", row["det"], _det(x))
        _expect("element det(1-x)", row["det_one_minus"], group.det_one_minus(x))
    fixed = group.fixed_rank()
    _expect("fixed_sublattice_rank", report["fixed_sublattice_rank"], fixed)
    _expect("maps_onto_Z", report["maps_onto_Z"], fixed > 0)
    sl = group.sl_order()
    _expect("sl_subgroup_order", report["sl_subgroup_order"], sl)
    finite = group.infinite_witness(p) is None
    _expect("finite_order", report["finite_order"], finite)
    want = wallpaper_verdict(group_name, p)
    if (want == "Infinite") == finite:
        raise OracleError(f"classification table disagrees with Theorem A on {group_name} at p = {p}")
    _expect("verdict", report["verdict"], want)
    if want == "Infinite":
        _expect("provenance", report["provenance"], ["thm-a"])
    if p > 0:
        _expect("upper_bound_p_part", report["upper_bound_p_part"], p_part(group.order, p))
        _expect("lower_bound", report["lower_bound"], p_part(sl, p))
    elif "lower_bound" in report or "upper_bound_p_part" in report:
        raise OracleError("bounds reported at p = 0")
