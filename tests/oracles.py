"""Slow, independent implementations that the tests check the library against."""

from eulerclass.fingroup import element_order
from eulerclass.intmat import IntMatrix, exterior_power, mul


def closure_bfs(generators: list[IntMatrix], n: int) -> tuple[IntMatrix, ...]:
    """The elements of the group the generators generate in GL_n(Z), sorted as
    `closure` sorts them: a breadth-first search from the identity that
    multiplies every new element by every generator. Terminates only on
    finite groups."""
    elements = {IntMatrix.identity(n)}
    frontier = list(elements)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                b = mul(a, g)
                if b not in elements:
                    elements.add(b)
                    new.append(b)
        frontier = new
    return tuple(sorted(elements, key=lambda m: m.entries))


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
