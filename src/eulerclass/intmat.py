"""Exact linear algebra over the integers.

Everything here works with plain Python ints, so there is no overflow:
minors of exterior powers and determinants of stacked systems routinely
exceed 64 bits.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix; immutable and hashable."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.n)

    def is_unimodular(self) -> bool:
        return abs(det(self)) == 1

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return mul(self, other)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def neg(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients degree-ascending."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^rank given by a (possibly empty) Z-basis."""

    rank: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis


def mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b. Each entry is `sum(map(operator.mul, row, col))`,
    whose loop runs in C, and list comprehensions build the rows: for rows
    this short, generator expressions cost more than the arithmetic."""
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")
    cols = tuple(zip(*b.entries))
    return IntMatrix(
        tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a.entries])
    )


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; all intermediate divisions are exact."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    return _bareiss_det(m.rows())


def charpoly(m: IntMatrix) -> IntPoly:
    """Monic char poly det(X*Id - m) by the Faddeev-LeVerrier recursion.

    The divisions by k are exact over Z.
    """
    n = m.n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = m
    for k in range(1, n + 1):
        t = mk.trace()
        assert t % k == 0
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            shifted = IntMatrix(
                tuple(
                    tuple(mk.entries[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n)
                )
            )
            mk = mul(m, shifted)
    return IntPoly(tuple(coeffs))


def _minor_det(m: IntMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    sub = [[m.entries[i][j] for j in cols] for i in rows]
    return _bareiss_det(sub)


def exterior_power(m: IntMatrix, i: int) -> IntMatrix:
    """Matrix of the i-th exterior power on the lex basis of i-subsets."""
    n = m.n
    if i < 0 or i > n:
        raise ValueError(f"exterior power index {i} out of range 0..{n}")
    if i == 0:
        return IntMatrix.identity(1)
    subsets = list(itertools.combinations(range(n), i))
    return IntMatrix(
        tuple(tuple(_minor_det(m, s, t) for t in subsets) for s in subsets)
    )


def det_one_minus(m: IntMatrix) -> int:
    """det(Id - m), the character value of the alternating exterior sum."""
    n = m.n
    rows = [
        [(1 if i == j else 0) - m.entries[i][j] for j in range(n)]
        for i in range(n)
    ]
    return _bareiss_det(rows)


def _echelon_with_transform(b: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer row echelon of b via unimodular row ops; returns (H, U) with U*b = H."""
    nrows = len(b)
    ncols = len(b[0]) if nrows else 0
    h = [row[:] for row in b]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pivot = 0
    for col in range(ncols):
        if pivot >= nrows:
            break
        # Euclidean reduction of column `col` among rows >= pivot
        while True:
            nz = [i for i in range(pivot, nrows) if h[i][col] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(h[i][col]))
            h[pivot], h[imin] = h[imin], h[pivot]
            u[pivot], u[imin] = u[imin], u[pivot]
            done = True
            for i in range(pivot + 1, nrows):
                if h[i][col] != 0:
                    q = h[i][col] // h[pivot][col]
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[pivot][col] != 0:
            pivot += 1
    return h, u


def fixed_lattice(ms: list[IntMatrix]) -> Lattice:
    """Z-basis of {v : m v = v for all m in ms}.

    Computed as the integer kernel of the stacked (m - Id) blocks: row-reduce
    the transpose with a tracked unimodular transform; the transform rows
    matching zero rows of the echelon form are a kernel basis.
    """
    if not ms:
        raise ValueError("ambient rank unknown for empty list; use fixed_lattice_of_rank")
    return fixed_lattice_of_rank(ms[0].n, ms)


def fixed_lattice_of_rank(n: int, ms: list[IntMatrix]) -> Lattice:
    for m in ms:
        if m.n != n:
            raise DimensionMismatchError(f"dimension mismatch: {m.n} vs {n}")
    stacked: list[list[int]] = []
    for m in ms:
        for i in range(n):
            stacked.append(
                [m.entries[i][j] - (1 if i == j else 0) for j in range(n)]
            )
    if not stacked:
        return Lattice(n, IntMatrix.identity(n).entries)
    # right kernel of `stacked`: left kernel of its transpose
    bt = [[stacked[r][c] for r in range(len(stacked))] for c in range(n)]
    h, u = _echelon_with_transform(bt)
    basis = [tuple(u[i]) for i in range(n) if all(x == 0 for x in h[i])]
    return Lattice(n, tuple(basis))
