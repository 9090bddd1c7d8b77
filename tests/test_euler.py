import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerclass.catalog import entries
from eulerclass.crystal import make_cryst, maps_onto_Z
from eulerclass.euler import (
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
from eulerclass.fingroup import NotFiniteError, all_subgroups, closure, element_order, p_part
from eulerclass.intmat import IntMatrix, det, det_one_minus, mul
from oracles import closure_bfs, has_finite_order_via_traces

R90 = IntMatrix.from_rows([[0, -1], [1, 0]])
R120 = IntMatrix.from_rows([[0, -1], [1, -1]])
M1 = IntMatrix.from_rows([[1, 0], [0, -1]])
M2 = IntMatrix.from_rows([[0, 1], [1, 0]])
I2 = IntMatrix.identity(2)

# companion matrix of 1 + X + X^2 + X^3 + X^4; generates C5 acting freely on Z^4
C5_COMPANION = IntMatrix.from_rows(
    [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
)

# companion matrix of 1 + X^4; generates C8 acting freely on Z^4
C8_COMPANION = IntMatrix.from_rows(
    [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
)

# Left and right multiplication by i and j on the Lipschitz quaternions
# Z<1, i, j, k>. The left (or right) ones generate Q8 acting freely on Z^4;
# all four generate the central product Q8 o Q8 of order 32.
LEFT_I = IntMatrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
LEFT_J = IntMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
RIGHT_I = IntMatrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
RIGHT_J = IntMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])

P4M = make_cryst(2, [R90, M2])


def _diag(*d):
    return IntMatrix.from_rows([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


def _perm(images):
    """Permutation matrix sending e_j to e_images[j]."""
    n = len(images)
    return IntMatrix.from_rows([[int(images[j] == i) for j in range(n)] for i in range(n)])


def _hyperoctahedral(n):
    """B_n: a transposition, an n-cycle and one sign change."""
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    return [_perm(swap), _perm([(j + 1) % n for j in range(n)]), _diag(-1, *([1] * (n - 1)))]


# Klein four in rank 3: every nontrivial element fixes a coordinate axis,
# but no vector is fixed by all three, so no classification rule applies.
_KLEIN3 = [_diag(-1, -1, 1), _diag(1, -1, -1)]
_CYCLE3 = _perm([1, 2, 0])
_ROT90_3 = IntMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])

# Groups of order <= 48 small enough for the subgroup-enumeration reference.
# On Q8 the cyclic case alone would give a lower bound of 4, not 8.
SMALL_GROUPS = {e.name: (e.rank, list(e.generators)) for e in entries()} | {
    "klein4-blocks": (3, _KLEIN3),
    "signs-C2^3": (3, [_diag(-1, 1, 1), _diag(1, -1, 1), _diag(1, 1, -1)]),
    "D4xC2": (3, [_perm([1, 0, 2]), _diag(-1, 1, 1), _diag(1, 1, -1)]),
    "A4": (3, _KLEIN3 + [_CYCLE3]),
    "S4-rotations": (3, [_CYCLE3, _ROT90_3]),
    "A4x+-I": (3, _KLEIN3 + [_CYCLE3, _diag(-1, -1, -1)]),
    "B3": (3, _hyperoctahedral(3)),
    "C5-rank4": (4, [C5_COMPANION]),
    "C8-rank4": (4, [C8_COMPANION]),
    "Q8-rank4": (4, [LEFT_I, LEFT_J]),
    "Q8oQ8-rank4": (4, [LEFT_I, LEFT_J, RIGHT_I, RIGHT_J]),
}


class TestElementTable:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS) + ["B4"])
    def test_columns_match_per_element_calls(self, name):
        rank, gens = SMALL_GROUPS.get(name) or (4, _hyperoctahedral(4))
        g = make_cryst(rank, gens).point_group
        for i, x in enumerate(g.elements):
            assert g.index[x] == i
            assert g.orders[i] == element_order(x)
            assert g.dets[i] == det(x)
            assert g.det_one_minus[i] == det_one_minus(x)


def _transvection(n, i, j, c):
    return IntMatrix.from_rows([[int(r == s) + c * (r == i and s == j) for s in range(n)] for r in range(n)])


class TestClosure:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS) + ["B4"])
    def test_matches_breadth_first_search(self, name):
        rank, gens = SMALL_GROUPS.get(name) or (4, _hyperoctahedral(4))
        assert closure(gens, n=rank).elements == closure_bfs(gens, rank)

    # p1, the trivial group, is left out: no cap below its order 1 is meaningful
    @pytest.mark.parametrize("name", [name for name in sorted(SMALL_GROUPS) if name != "p1"] + ["B4"])
    def test_cap_is_the_largest_order_that_closes(self, name):
        rank, gens = SMALL_GROUPS.get(name) or (4, _hyperoctahedral(4))
        order = closure(gens, n=rank).order
        assert closure(gens, cap=order, n=rank).order == order
        with pytest.raises(NotFiniteError):
            closure(gens, cap=order - 1, n=rank)

    def test_b4_product_counts(self, count_calls):
        """B4 conjugated and given four generators, one of them redundant:
        the closure makes fewer than 2.5 |G| products and the orders column
        at most 2 |G|, where a breadth-first closure makes 4 |G| and one power
        chain per element about 3.5 |G|."""
        q = mul(_transvection(4, 0, 1, 1), _transvection(4, 2, 3, -1))
        q_inv = mul(_transvection(4, 2, 3, 1), _transvection(4, 0, 1, -1))
        swap, cycle, sign = (mul(mul(q, x), q_inv) for x in _hyperoctahedral(4))
        products = count_calls(mul)
        g = closure([sign, mul(cycle, swap), swap, cycle])
        assert g.order == 384
        assert len(products) < 2.5 * g.order
        products.clear()
        assert max(g.orders) == 8
        assert len(products) <= 2 * g.order


@st.composite
def _presentations(draw):
    """A SMALL_GROUPS entry with its generators conjugated by a random
    unimodular matrix, one redundant product and up to two copies of a
    generator or of the identity added, and shuffled."""
    name = draw(st.sampled_from(sorted(SMALL_GROUPS)))
    n, gens = SMALL_GROUPS[name]
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    q = IntMatrix.from_rows([[signs[i] * int(images[j] == i) for j in range(n)] for i in range(n)])
    q_inv = IntMatrix(tuple(zip(*q.entries)))  # signed permutation: inverse is the transpose
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-1, 1)))
        q = mul(q, _transvection(n, i, j, c))
        q_inv = mul(_transvection(n, i, j, -c), q_inv)
    assert mul(q, q_inv).is_identity()
    conj = [mul(mul(q, x), q_inv) for x in gens]
    ident = IntMatrix.identity(n)
    redundant = mul(draw(st.sampled_from(conj)), draw(st.sampled_from(conj))) if conj else ident
    copies = draw(st.lists(st.sampled_from(conj + [ident]), max_size=2))
    return name, draw(st.permutations(conj + [redundant] + copies))


def _invariants(rank, gens):
    c = make_cryst(rank, gens)
    g = c.point_group
    verdicts = [(r.describe(), r.provenance) for r in (exact_order(c, p) for p in (0, 2, 3, 5))]
    return verdicts, sorted(zip(g.orders, g.dets, g.det_one_minus))


@settings(max_examples=30, deadline=None)
@given(_presentations())
def test_invariant_under_presentation(presentation):
    """Verdicts and (order, det, det(1 - x)) rows do not depend on the basis
    of the lattice, the order of the generators or redundant generators, and
    the closure lists the same elements as a breadth-first search."""
    name, gens = presentation
    rank, original = SMALL_GROUPS[name]
    assert _invariants(rank, gens) == _invariants(rank, original)
    assert closure(gens, n=rank).elements == closure_bfs(gens, rank)


class TestCharacteristic:
    def test_zero_ok(self):
        assert Characteristic(0).p == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_primes_ok(self, p):
        assert Characteristic(p).p == p

    @pytest.mark.parametrize("p", [1, 4, 6, 9, -2])
    def test_rejects_composites(self, p):
        with pytest.raises(InvalidCharacteristicError):
            Characteristic(p)


def _character(cryst):
    return {x: det_one_minus(x) for x in cryst.point_group}


class TestEulerCharacter:
    """The character x -> det(1 - x) on the point group."""

    def test_trivial_group(self):
        assert _character(make_cryst(2, [])) == {I2: 0}

    def test_plus_minus_identity(self):
        assert _character(make_cryst(2, [I2.neg()])) == {I2: 0, I2.neg(): 4}

    def test_c3(self):
        assert _character(make_cryst(2, [R120])) == {I2: 0, R120: 3, mul(R120, R120): 3}

    def test_constant_on_conjugacy_classes(self):
        for a in P4M.point_group:
            ainv = next(b for b in P4M.point_group if mul(a, b) == I2)
            for g in P4M.point_group:
                conj = mul(mul(a, g), ainv)
                assert det_one_minus(conj) == det_one_minus(g)


class TestHasFiniteOrder:
    def test_p4m_at_two(self):
        assert has_finite_order(P4M, 2)

    def test_p4m_at_three(self):
        assert not has_finite_order(P4M, 3)

    def test_free_abelian_everywhere(self):
        c = make_cryst(2, [])
        for p in (0, 2, 3, 5):
            assert has_finite_order(c, p)

    def test_two_implementations_agree(self):
        for e in entries():
            c = make_cryst(e.rank, list(e.generators))
            for p in (0, 2, 3, 5):
                assert has_finite_order(c, p) == has_finite_order_via_traces(c, p)


class TestBounds:
    def test_p4m_lower_at_two(self):
        assert lower_bound(P4M, 2) == 4

    def test_p3_lower_at_three(self):
        assert lower_bound(make_cryst(2, [R120]), 3) == 3

    def test_reflection_only_trivial(self):
        assert lower_bound(make_cryst(2, [M1]), 2) == 1

    def test_p4m_upper_at_two(self):
        assert upper_bound_p_part(P4M, 2) == 8

    def test_p4m_upper_at_three(self):
        assert upper_bound_p_part(P4M, 3) == 1

    def test_d3_upper_at_three(self):
        assert upper_bound_p_part(make_cryst(2, [R120, M2]), 3) == 3

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_match_subgroup_enumeration(self, name):
        rank, gens = SMALL_GROUPS[name]
        c = make_cryst(rank, gens)
        subgroups = all_subgroups(c.point_group)
        for p in (2, 3, 5):
            p_subgroups = [h for h in subgroups if p_part(h.order, p) == h.order]
            fpf = [
                h.order
                for h in p_subgroups
                if all(x.is_identity() or det_one_minus(x) != 0 for x in h.elements)
            ]
            assert lower_bound(c, p) == max(fpf)
            assert upper_bound_p_part(c, p) == max(h.order for h in p_subgroups)

    def test_lower_divides_upper_when_finite(self):
        for e in entries():
            c = make_cryst(e.rank, list(e.generators))
            for p in (2, 3, 5):
                if has_finite_order(c, p):
                    assert upper_bound_p_part(c, p) % lower_bound(c, p) == 0


class TestExactOrder:
    def test_p4m_at_two(self):
        r = exact_order(P4M, 2)
        assert r.describe() == "Known(4)"
        assert r.provenance[-1] == "sec-5.3.3-p4m"

    def test_p3m1_at_three(self):
        r = exact_order(make_cryst(2, [R120, IntMatrix.from_rows([[0, -1], [-1, 0]])]), 3)
        assert r.describe() == "Known(3)"
        assert r.provenance[-1] == "sec-5.3.3-p3m"

    def test_pmm_at_two(self):
        r = exact_order(make_cryst(2, [M1, I2.neg()]), 2)
        assert r.describe() == "Known(2)"
        assert r.provenance[-1] == "sec-5.3.3-klein"

    def test_p4_at_two(self):
        r = exact_order(make_cryst(2, [R90]), 2)
        assert r.describe() == "Known(4)"

    def test_pm_everywhere(self):
        c = make_cryst(2, [M1])
        for p in (0, 2, 3, 5):
            assert exact_order(c, p).kind == "trivial"

    def test_p6m_infinite(self):
        c = make_cryst(2, [IntMatrix.from_rows([[1, -1], [1, 0]]), M2])
        for p in (0, 2, 3, 5):
            r = exact_order(c, p)
            assert r.kind == "infinite"
            assert r.provenance == ("thm-a",)

    def test_rank4_c5_at_five(self):
        c = make_cryst(4, [C5_COMPANION])
        assert det_one_minus(C5_COMPANION) == 5  # value of the 5th cyclotomic at 1
        r = exact_order(c, 5)
        assert r.describe() == "Known(5)"
        assert r.provenance[-1] == "sec-5.3.1"

    def test_rank4_c5_elsewhere(self):
        c = make_cryst(4, [C5_COMPANION])
        for p in (0, 2, 3):
            assert exact_order(c, p).kind == "infinite"

    def test_trivial_never_contradicts_transfer_rule(self):
        for e in entries():
            c = make_cryst(e.rank, list(e.generators))
            if maps_onto_Z(c):
                for p in (0, 2, 3, 5):
                    assert exact_order(c, p).kind == "trivial"

    def test_known_orders_sit_between_bounds(self):
        for e in entries():
            c = make_cryst(e.rank, list(e.generators))
            for p in (2, 3, 5):
                r = exact_order(c, p)
                if r.kind == "known":
                    lo = lower_bound(c, p)
                    assert r.order % lo == 0
                    assert r.order <= c.point_group.order

    def test_known_one_collapses_to_trivial(self):
        assert OrderResult.known(1, ("x",)).kind == "trivial"

    def test_bounded_fallback_at_p2_rank3(self):
        c = make_cryst(3, _KLEIN3)
        r = exact_order(c, 2)
        assert r.kind == "bounded"
        assert (r.lower, r.upper_p_part) == (1, 4)
        assert "bounds-only" in r.provenance
        assert "p-part bound only" in r.provenance

    def test_bounded_b4_at_two(self):
        r = exact_order(make_cryst(4, _hyperoctahedral(4)), 2)
        assert r.describe() == "Bounded(8, 128)"
        assert "bounds-only" in r.provenance

    @pytest.mark.parametrize("name", ["klein4-blocks", "A4"])
    def test_undecided_fallback_at_p0_rank3(self, name):
        r = exact_order(make_cryst(*SMALL_GROUPS[name]), 0)
        assert r.kind == "undecided"
        assert r.describe() == "Undecided"
        assert r.provenance == ("order finite, exact value outside the classification",)


class TestFpfShapeCheck:
    def test_c4_is_cyclic(self):
        assert fpf_group_shape_check(closure([R90]), 2)

    def test_c3_is_cyclic(self):
        assert fpf_group_shape_check(closure([R120]), 3)

    def test_q8_is_quaternion(self):
        assert fpf_group_shape_check(closure([LEFT_I, LEFT_J]), 2)

    def test_d4_violates_precondition(self):
        with pytest.raises(PreconditionError):
            fpf_group_shape_check(P4M.point_group, 2)

    def test_wrong_prime_violates_precondition(self):
        with pytest.raises(PreconditionError):
            fpf_group_shape_check(closure([R120]), 2)


class TestOrderDivisor:
    @pytest.mark.parametrize(
        "delta,dim,expected",
        [(8, 1, 8), (8, 2, 4), (8, 3, 8), (9, 3, 3), (6, 4, 3)],
    )
    def test_values(self, delta, dim, expected):
        assert order_divisor(delta, dim) == expected

    def test_matches_lower_bound_on_fpf_cases(self):
        for gens, p in (([I2.neg()], 2), ([R90], 2), ([R120], 3)):
            c = make_cryst(2, gens)
            assert order_divisor(c.point_group.order, 1) == lower_bound(c, p)
