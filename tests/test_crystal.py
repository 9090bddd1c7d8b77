import pytest

from eulerclass.crystal import centralizer_is_infinite, fixed_sublattice, make_cryst, maps_onto_Z
from eulerclass.fingroup import NotFiniteError, NotUnimodularError
from eulerclass.intmat import IntMatrix, det_one_minus, fixed_lattice

R90 = IntMatrix.from_rows([[0, -1], [1, 0]])
R120 = IntMatrix.from_rows([[0, -1], [1, -1]])
M1 = IntMatrix.from_rows([[1, 0], [0, -1]])
M2 = IntMatrix.from_rows([[0, 1], [1, 0]])
I2 = IntMatrix.identity(2)


class TestMakeCryst:
    def test_free_abelian(self):
        c = make_cryst(2, [])
        assert c.rank == 2
        assert c.point_group.is_trivial()

    def test_c3_semidirect(self):
        c = make_cryst(2, [R120])
        assert c.point_group.order == 3

    def test_p4m(self):
        c = make_cryst(2, [R90, M2])
        assert c.point_group.order == 8

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            make_cryst(3, [R90])

    def test_not_finite(self):
        with pytest.raises(NotFiniteError):
            make_cryst(2, [IntMatrix.from_rows([[1, 1], [0, 1]])], cap=50)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            make_cryst(2, [IntMatrix.from_rows([[2, 0], [0, 1]])])


class TestFixedSublattice:
    def test_trivial_group_fixes_everything(self):
        assert fixed_sublattice(make_cryst(2, [])).dim == 2

    def test_minus_identity_fixes_nothing(self):
        assert fixed_sublattice(make_cryst(2, [I2.neg()])).is_trivial()

    def test_reflection_line(self):
        lat = fixed_sublattice(make_cryst(2, [M1]))
        assert lat.dim == 1
        assert lat.basis[0] in ((1, 0), (-1, 0))

    def test_basis_vectors_genuinely_fixed(self):
        for gens in ([M1], [M2], []):
            c = make_cryst(2, gens)
            for v in fixed_sublattice(c).basis:
                for g in c.point_group:
                    gv = tuple(sum(g.entries[i][j] * v[j] for j in range(2)) for i in range(2))
                    assert gv == v


class TestMapsOntoZ:
    def test_free_abelian(self):
        assert maps_onto_Z(make_cryst(2, []))

    def test_minus_identity(self):
        assert not maps_onto_Z(make_cryst(2, [I2.neg()]))

    def test_reflection(self):
        assert maps_onto_Z(make_cryst(2, [M1]))

    def test_matches_fixed_sublattice_rank(self):
        for gens in ([], [M1], [M2], [R90], [R120], [I2.neg()], [R90, M2]):
            c = make_cryst(2, gens)
            assert maps_onto_Z(c) == (fixed_sublattice(c).dim >= 1)


class TestCentralizer:
    def test_identity_has_infinite_centralizer(self):
        c = make_cryst(2, [I2.neg()])
        assert centralizer_is_infinite(c, I2)

    def test_minus_identity_has_finite_centralizer(self):
        c = make_cryst(2, [I2.neg()])
        assert not centralizer_is_infinite(c, I2.neg())

    def test_reflection_has_infinite_centralizer(self):
        c = make_cryst(2, [M1])
        assert centralizer_is_infinite(c, M1)

    def test_rejects_non_members(self):
        c = make_cryst(2, [M1])
        with pytest.raises(ValueError):
            centralizer_is_infinite(c, R90)

    def test_three_code_paths_agree(self):
        c = make_cryst(2, [R90, M2])
        for g in c.point_group:
            a = centralizer_is_infinite(c, g)
            b = not fixed_lattice([g]).is_trivial()
            d = det_one_minus(g) == 0
            assert a == b == d
