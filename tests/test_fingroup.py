import itertools

import pytest

from eulerclass.fingroup import (
    NotFiniteError,
    NotUnimodularError,
    all_subgroups,
    closure,
    element_order,
    p_decompose,
    p_part,
    p_regular_elements,
)
from eulerclass.intmat import IntMatrix, mul

R90 = IntMatrix.from_rows([[0, -1], [1, 0]])
R120 = IntMatrix.from_rows([[0, -1], [1, -1]])
R60 = IntMatrix.from_rows([[1, -1], [1, 0]])
M1 = IntMatrix.from_rows([[1, 0], [0, -1]])
M2 = IntMatrix.from_rows([[0, 1], [1, 0]])
I2 = IntMatrix.identity(2)


def brute_force_subgroup_count(group):
    """Count subgroups by testing every element subset for closedness."""
    elems = list(group.elements)
    ident = group.identity
    count = 0
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if ident not in s:
                continue
            if all(mul(a, b) in s for a in s for b in s):
                count += 1
    return count


def p_subgroups(group, p):
    """Subgroups of p-power order (the trivial group counts, order p^0)."""
    return [h for h in all_subgroups(group) if p_part(h.order, p) == h.order]


class TestClosure:
    def test_empty_generators(self):
        g = closure([], n=2)
        assert g.order == 1
        assert g.elements == (I2,)

    def test_cyclic_four(self):
        g = closure([R90])
        assert g.order == 4

    def test_dihedral_eight(self):
        g = closure([R90, M2])
        assert g.order == 8

    def test_closed_under_product_and_inverse(self):
        g = closure([R90, M2])
        elems = set(g.elements)
        for a in elems:
            for b in elems:
                assert mul(a, b) in elems
        for a in elems:
            assert any(mul(a, b) == I2 for b in elems)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            closure([IntMatrix.from_rows([[2, 0], [0, 1]])])

    def test_infinite_group_hits_cap(self):
        shear = IntMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(NotFiniteError):
            closure([shear], cap=100)


class TestElementOrder:
    def test_identity(self):
        assert element_order(I2) == 1

    def test_minus_identity(self):
        assert element_order(I2.neg()) == 2

    def test_r120(self):
        assert element_order(R120) == 3

    def test_r60(self):
        assert element_order(R60) == 6

    def test_infinite_order(self):
        with pytest.raises(NotFiniteError):
            element_order(IntMatrix.from_rows([[1, 1], [0, 1]]), cap=50)


@pytest.mark.parametrize(
    "m,p,expected",
    [(1, 2, 1), (5, 3, 1), (48, 2, 16), (48, 3, 3), (384, 2, 128), (3840, 5, 5)],
)
def test_p_part(m, p, expected):
    assert p_part(m, p) == expected


class TestPDecompose:
    def test_order_six_at_two(self):
        d = p_decompose(R60, 2)
        assert element_order(d.g_p) == 2
        assert element_order(d.g_p_prime) == 3
        assert mul(d.g_p, d.g_p_prime) == R60
        assert mul(d.g_p, d.g_p_prime) == mul(d.g_p_prime, d.g_p)

    def test_pure_p_element(self):
        d = p_decompose(R90, 2)
        assert d.g_p == R90
        assert d.g_p_prime == I2

    def test_p_prime_element(self):
        d = p_decompose(R120, 2)
        assert d.g_p == I2
        assert d.g_p_prime == R120

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_invariants_on_d6(self, p):
        g = closure([R60, M2])
        assert g.order == 12
        for x in g.elements:
            d = p_decompose(x, p)
            assert mul(d.g_p, d.g_p_prime) == x
            assert mul(d.g_p_prime, d.g_p) == x
            op, opp = element_order(d.g_p), element_order(d.g_p_prime)
            while op % p == 0:
                op //= p
            assert op == 1
            assert opp % p != 0


class TestPRegular:
    def test_c4_at_two(self):
        g = closure([R90])
        assert p_regular_elements(g, 2) == [I2]

    def test_c4_at_three(self):
        g = closure([R90])
        assert len(p_regular_elements(g, 3)) == 4

    def test_p_zero_is_everything(self):
        g = closure([R90, M2])
        assert len(p_regular_elements(g, 0)) == g.order


class TestSubgroups:
    def test_trivial_group(self):
        g = closure([], n=2)
        assert len(all_subgroups(g)) == 1

    def test_cyclic_four(self):
        g = closure([R90])
        assert len(all_subgroups(g)) == 3

    def test_dihedral_eight_has_ten(self):
        g = closure([R90, M2])
        assert len(all_subgroups(g)) == 10

    def test_lagrange(self):
        g = closure([R60, M2])
        for h in all_subgroups(g):
            assert g.order % h.order == 0

    @pytest.mark.parametrize(
        "gens",
        [[], [I2.neg()], [R90], [M1, I2.neg()], [R90, M2], [R120, M2]],
        ids=["trivial", "c2", "c4", "klein", "d4", "d3"],
    )
    def test_against_brute_force(self, gens):
        g = closure(gens, n=2)
        assert g.order <= 8
        assert len(all_subgroups(g)) == brute_force_subgroup_count(g)

    def test_p_subgroups_of_d4(self):
        g = closure([R90, M2])
        assert len(p_subgroups(g, 2)) == 10  # D4 is a 2-group

    def test_p_subgroups_of_d3(self):
        g = closure([R120, M2])
        subs = p_subgroups(g, 3)
        assert sorted(h.order for h in subs) == [1, 3]

    def test_p_not_dividing_order(self):
        g = closure([R90, M2])
        subs = p_subgroups(g, 5)
        assert [h.order for h in subs] == [1]


class TestCrystallographicRestriction:
    @pytest.mark.parametrize(
        "gens",
        [[I2.neg()], [M1], [M2], [M1, I2.neg()], [R90], [R90, M2], [R120], [R120, M2], [R60], [R60, M2]],
    )
    def test_orders_in_1_2_3_4_6(self, gens):
        g = closure(gens)
        for x in g.elements:
            assert element_order(x) in {1, 2, 3, 4, 6}
