import random

import pytest

from eulerclass.intmat import (
    DimensionMismatchError,
    IntMatrix,
    charpoly,
    det,
    det_one_minus,
    exterior_power,
    fixed_lattice,
    fixed_lattice_of_rank,
    mul,
)
from oracles import det_one_minus_via_traces

R90 = IntMatrix.from_rows([[0, -1], [1, 0]])
R120 = IntMatrix.from_rows([[0, -1], [1, -1]])
I2 = IntMatrix.identity(2)
MINUS_I2 = I2.neg()


def _random_matrix(rng, n):
    return IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _cofactor_det(m):
    # independent oracle: Laplace expansion along the first row
    n = m.n
    if n == 1:
        return m.entries[0][0]
    total = 0
    for j in range(n):
        sub = IntMatrix.from_rows(
            [[m.entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * m.entries[0][j] * _cofactor_det(sub)
    return total


class TestMul:
    def test_identity(self):
        assert mul(I2, R90) == R90

    def test_r90_squared_is_minus_identity(self):
        assert mul(R90, R90) == MINUS_I2

    def test_r120_cubed_is_identity(self):
        assert mul(R120, mul(R120, R120)) == I2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mul(I2, IntMatrix.identity(3))

    def test_associative_on_random_triples(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 4)
            a, b, c = (_random_matrix(rng, n) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))


class TestDet:
    def test_identity(self):
        assert det(I2) == 1

    def test_rotation_like(self):
        assert det(IntMatrix.from_rows([[1, 1], [-1, 1]])) == 2

    def test_diagonal(self):
        assert det(IntMatrix.from_rows([[2, 0], [0, 2]])) == 4

    def test_against_cofactor_expansion(self):
        rng = random.Random(2)
        for _ in range(60):
            m = _random_matrix(rng, rng.randint(1, 4))
            assert det(m) == _cofactor_det(m)

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 4)
            a, b = _random_matrix(rng, n), _random_matrix(rng, n)
            assert det(mul(a, b)) == det(a) * det(b)


class TestCharpoly:
    def test_1x1(self):
        assert charpoly(IntMatrix.from_rows([[1]])).coefficients == (-1, 1)

    def test_r90(self):
        assert charpoly(R90).coefficients == (1, 0, 1)  # X^2 + 1

    def test_r120(self):
        assert charpoly(R120).coefficients == (1, 1, 1)  # X^2 + X + 1

    def test_exterior_trace_identity(self):
        # coefficient of X^(n-i) is (-1)^i * trace of the i-th exterior power
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n)
            cp = charpoly(m)
            for i in range(n + 1):
                assert cp.coefficients[n - i] == (-1) ** i * exterior_power(m, i).trace()

    def test_evaluated_at_one_is_det_one_minus(self):
        rng = random.Random(5)
        for _ in range(100):
            m = _random_matrix(rng, rng.randint(1, 5))
            assert charpoly(m)(1) == det_one_minus(m)


class TestExteriorPower:
    def test_zeroth_is_scalar_identity(self):
        assert exterior_power(R90, 0) == IntMatrix.identity(1)

    def test_top_is_determinant(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n)
            top = exterior_power(m, n)
            assert top.n == 1
            assert top.entries[0][0] == det(m)

    def test_first_is_matrix_itself(self):
        assert exterior_power(R90, 1) == R90

    def test_dimension_is_binomial(self):
        m = _random_matrix(random.Random(7), 4)
        assert exterior_power(m, 2).n == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exterior_power(R90, 3)

    def test_functorial_on_products(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 4)
            a, b = _random_matrix(rng, n), _random_matrix(rng, n)
            for i in range(n + 1):
                assert exterior_power(mul(a, b), i) == mul(exterior_power(a, i), exterior_power(b, i))


class TestDetOneMinus:
    def test_minus_identity(self):
        assert det_one_minus(MINUS_I2) == 4

    def test_r90(self):
        assert det_one_minus(R90) == 2

    def test_r120(self):
        assert det_one_minus(R120) == 3

    def test_two_code_paths_agree(self):
        rng = random.Random(9)
        for _ in range(80):
            m = _random_matrix(rng, rng.randint(1, 5))
            assert det_one_minus(m) == det_one_minus_via_traces(m)


class TestFixedLattice:
    def test_empty_condition_gives_full_lattice(self):
        lat = fixed_lattice_of_rank(3, [])
        assert lat.dim == 3
        assert set(lat.basis) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_minus_identity_fixes_nothing(self):
        assert fixed_lattice([MINUS_I2]).is_trivial()

    def test_reflection_fixes_a_line(self):
        lat = fixed_lattice([IntMatrix.from_rows([[1, 0], [0, -1]])])
        assert lat.dim == 1
        v = lat.basis[0]
        assert v in ((1, 0), (-1, 0))

    def test_nonempty_iff_det_one_minus_zero(self):
        rng = random.Random(10)
        checked = 0
        for _ in range(200):
            m = _random_matrix(rng, rng.randint(1, 4))
            checked += 1
            assert (not fixed_lattice([m]).is_trivial()) == (det_one_minus(m) == 0)
        assert checked == 200

    def test_basis_vectors_are_fixed(self):
        ms = [IntMatrix.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, -1]])]
        lat = fixed_lattice(ms)
        for v in lat.basis:
            for m in ms:
                mv = tuple(sum(m.entries[i][j] * v[j] for j in range(m.n)) for i in range(m.n))
                assert mv == v

    def test_common_fixed_vectors_of_several_matrices(self):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        lat = fixed_lattice([swap])
        assert lat.dim == 1
        assert lat.basis[0] in ((1, 1), (-1, -1))
        # adding a matrix with no common fixed vector kills the lattice
        assert fixed_lattice([swap, MINUS_I2]).is_trivial()
