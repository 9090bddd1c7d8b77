"""Order of the Euler class of a split crystallographic group.

The finiteness criterion: the class has finite order iff det(1 - x) = 0 for
every p-regular point-group element x. On top of that sit a lower bound from
fixed-point-free p-subgroups, an upper bound on the p-part from Sylow orders,
and a decision tree that returns the exact order in every classified case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .crystal import CrystGroup, fixed_sublattice
from .fingroup import PointGroup, p_part, power
from .intmat import IntMatrix, mul


class InvalidCharacteristicError(ValueError):
    pass


class PreconditionError(ValueError):
    """A diagnostic was called outside its stated hypotheses."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Characteristic:
    """A field characteristic: 0 or a prime."""

    p: int

    def __post_init__(self) -> None:
        if self.p != 0 and not is_prime(self.p):
            raise InvalidCharacteristicError(f"characteristic must be 0 or a prime, got {self.p}")

    @property
    def positive(self) -> bool:
        return self.p > 0


def _char(char: "Characteristic | int") -> Characteristic:
    return char if isinstance(char, Characteristic) else Characteristic(char)


@dataclass(frozen=True)
class OrderResult:
    """Verdict on the order of the Euler class, with the rules that decided it.

    kind is one of "trivial", "known", "infinite", "bounded", "undecided".
    For "known", `order` holds the exact order (> 1; order 1 is reported as
    trivial). For "bounded", `lower` divides the true order and
    `upper_p_part` bounds its p-part only. "undecided" says the order is
    finite and nothing more.
    """

    kind: str
    order: int | None = None
    lower: int | None = None
    upper_p_part: int | None = None
    provenance: tuple[str, ...] = ()

    @staticmethod
    def trivial(provenance: tuple[str, ...]) -> "OrderResult":
        return OrderResult("trivial", provenance=provenance)

    @staticmethod
    def known(m: int, provenance: tuple[str, ...]) -> "OrderResult":
        if m == 1:
            return OrderResult.trivial(provenance)
        return OrderResult("known", order=m, provenance=provenance)

    @staticmethod
    def infinite(provenance: tuple[str, ...]) -> "OrderResult":
        return OrderResult("infinite", provenance=provenance)

    @staticmethod
    def bounded(lower: int, upper_p_part: int, provenance: tuple[str, ...]) -> "OrderResult":
        return OrderResult("bounded", lower=lower, upper_p_part=upper_p_part, provenance=provenance)

    @staticmethod
    def undecided(provenance: tuple[str, ...]) -> "OrderResult":
        return OrderResult("undecided", provenance=provenance)

    def same_verdict(self, other: "OrderResult") -> bool:
        return (self.kind, self.order, self.lower, self.upper_p_part) == (
            other.kind,
            other.order,
            other.lower,
            other.upper_p_part,
        )

    def describe(self) -> str:
        if self.kind == "trivial":
            return "Trivial"
        if self.kind == "known":
            return f"Known({self.order})"
        if self.kind == "infinite":
            return "Infinite"
        if self.kind == "undecided":
            return "Undecided"
        return f"Bounded({self.lower}, {self.upper_p_part})"


def has_finite_order(cryst: CrystGroup, char: Characteristic | int) -> bool:
    """Finiteness of the Euler class: det(1 - x) = 0 on all p-regular x."""
    p = _char(char).p
    g = cryst.point_group
    if p == 0:
        return not any(g.det_one_minus)
    return all(d == 0 for k, d in zip(g.orders, g.det_one_minus) if k % p != 0)


def _acts_fixed_point_freely(group: PointGroup) -> bool:
    """Every x != 1 has det(1 - x) != 0; the identity is the one zero."""
    return group.det_one_minus.count(0) == 1


def lower_bound(cryst: CrystGroup, p: int) -> int:
    """Largest order of a p-subgroup acting fixed-point-freely; divides the
    order of the Euler class whenever that order is finite.

    Such a subgroup is cyclic or generalized quaternion (Burnside, Zassenhaus;
    Wolf, Spaces of Constant Curvature, ch. 5). A cyclic <x> of order p^k acts
    fixed-point-freely iff x^(p^(k-1)) does: every x^j != 1 has a power that
    generates the same subgroup of order p. The only fixed-point-free integral
    involution is -I, so for p = 2 a quaternion subgroup is <a, b> with a, b
    fixed-point-free, ord(a) >= 4, ord(b) = 4 and a b a = b (b inverts a, and
    b^2 = -I = a^(ord(a)/2)); its order is 2 ord(a).
    """
    if not is_prime(p):
        raise InvalidCharacteristicError(f"lower_bound needs a prime, got {p}")
    g = cryst.point_group
    fpf: dict[IntMatrix, int] = {}
    for x, k in zip(g.elements, g.orders):
        if k > 1 and p_part(k, p) == k and g.det_one_minus[g.index[power(x, k // p)]] != 0:
            fpf[x] = k
    best = max(fpf.values(), default=1)
    if p == 2:
        order_four = [b for b, k in fpf.items() if k == 4]
        for a, k in fpf.items():
            # any b makes best >= 4, so this also rules out ord(a) = 2
            if 2 * k > best and any(mul(mul(a, b), a) == b for b in order_four):
                best = 2 * k
    return best


def upper_bound_p_part(cryst: CrystGroup, p: int) -> int:
    """Largest p-subgroup order, which by Sylow's theorem is the p-part of
    |G|; bounds the p-part of the order of the Euler class. Says nothing
    about other primes."""
    if not is_prime(p):
        raise InvalidCharacteristicError(f"upper_bound_p_part needs a prime, got {p}")
    return p_part(cryst.point_group.order, p)


def order_divisor(delta: int, dim: int) -> int:
    """delta / gcd(delta, dim): the guaranteed divisor of the order of a
    dim-dimensional class when projectives have dimension-gcd delta."""
    return delta // gcd(delta, dim)


_P4M_FINGERPRINT = sorted([(1, 1), (2, 1), (4, 1), (4, 1)] + [(2, -1)] * 4)


def exact_order(cryst: CrystGroup, char: Characteristic | int) -> OrderResult:
    """Decision tree for the order of the Euler class.

    Every return carries provenance: the ordered list of rule tags that fired.
    Rules cover finiteness, the transfer triviality rule, fixed-point-free
    p-groups, prime-order point groups, and the complete rank-2 catalog. The
    fallback reports divisor / p-part bounds at p > 0 and undecided at p = 0.
    """
    p = _char(char).p
    g = cryst.point_group
    prov: list[str] = []

    if not has_finite_order(cryst, p):
        prov.append("thm-a")
        return OrderResult.infinite(tuple(prov))

    if not fixed_sublattice(cryst).is_trivial():
        prov.append("sec-5.1")
        return OrderResult.trivial(tuple(prov))

    if g.is_trivial():
        prov.append("sec-5.1")
        return OrderResult.trivial(tuple(prov))

    if p > 0 and p_part(g.order, p) == g.order and _acts_fixed_point_freely(g):
        prov.append("sec-5.3.1")
        return OrderResult.known(g.order, tuple(prov))

    if cryst.rank == 2:
        sl_order = g.dets.count(1)
        if sl_order == 1:
            prov.append("sec-5.3.3-trivial")
            return OrderResult.trivial(tuple(prov))
        if p > 0 and sl_order == g.order and p_part(g.order, p) == g.order:
            prov.append("sec-5.3.3-sl-pgroup")
            return OrderResult.known(g.order, tuple(prov))
        minus_id = IntMatrix.identity(2).neg()
        if (
            p == 2
            and g.order == 4
            and minus_id in g
            and all(k <= 2 for k in g.orders)
            and (2, -1) in zip(g.orders, g.dets)
        ):
            prov.append("sec-5.3.3-klein")
            return OrderResult.known(2, tuple(prov))
        if p == 2 and g.order == 8 and sl_order == 4 and sorted(zip(g.orders, g.dets)) == _P4M_FINGERPRINT:
            prov.append("sec-5.3.3-p4m")
            return OrderResult.known(4, tuple(prov))
        if (
            p == 3
            and g.order == 6
            and sl_order == 3
            and list(zip(g.orders, g.dets)).count((2, -1)) == 3
        ):
            prov.append("sec-5.3.3-p3m")
            return OrderResult.known(3, tuple(prov))

    if p > 0:
        prov.extend(["bounds-only", "p-part bound only"])
        return OrderResult.bounded(lower_bound(cryst, p), upper_bound_p_part(cryst, p), tuple(prov))
    prov.append("order finite, exact value outside the classification")
    return OrderResult.undecided(tuple(prov))


def fpf_group_shape_check(group: PointGroup, p: int) -> bool:
    """Sanity diagnostic: a p-group acting fixed-point-freely must be cyclic
    or a generalized quaternion 2-group. Raises PreconditionError when the
    input is not a fixed-point-free p-group."""
    if not is_prime(p):
        raise InvalidCharacteristicError(f"fpf_group_shape_check needs a prime, got {p}")
    if p_part(group.order, p) != group.order:
        raise PreconditionError(f"group of order {group.order} is not a {p}-group")
    if not _acts_fixed_point_freely(group):
        raise PreconditionError("group does not act fixed-point-freely")
    orders = group.orders
    if group.order in orders:
        return True  # cyclic
    if p != 2 or group.order < 8:
        return False
    # a unique involution and a cyclic subgroup of index 2
    return orders.count(2) == 1 and group.order // 2 in orders
