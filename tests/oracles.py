"""Slow, independent implementations that the tests check the library against."""

from eulerclass.fingroup import element_order
from eulerclass.intmat import IntMatrix, exterior_power


def det_one_minus_via_traces(m: IntMatrix) -> int:
    """det(Id - m) as the alternating sum of the traces of the exterior powers."""
    return sum((-1) ** i * exterior_power(m, i).trace() for i in range(m.n + 1))


def has_finite_order_via_traces(cryst, p: int) -> bool:
    """The finiteness test through det_one_minus_via_traces, with each element
    order computed afresh rather than read from the element table."""
    return all(
        det_one_minus_via_traces(x) == 0
        for x in cryst.point_group
        if p == 0 or element_order(x) % p != 0
    )
