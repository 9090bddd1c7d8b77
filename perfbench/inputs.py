"""Seeded inputs for the benchmark workloads.

Imports nothing from eulerclass. Every group is given once by canonical
generators; each sweep presents it again under a fresh GL_n(Z) conjugation
with small entries, with its generators shuffled and one redundant generator
(a product of two of them) added. The same (seed, workload, sweep) always
gives the same inputs, so the oracle can rebuild what the program was given.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

Matrix = tuple[tuple[int, ...], ...]

WALLPAPER_CHARS = (0, 2, 3, 5)
HYPER_CHARS = (0, 3, 5)
C5_CHARS = (2, 5)


@dataclass(frozen=True)
class Group:
    """A group to query: canonical generators and the characteristics asked."""

    name: str
    rank: int
    generators: tuple[Matrix, ...]
    chars: tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def diag(*d: int) -> Matrix:
    return tuple(tuple(d[i] if i == j else 0 for j in range(len(d))) for i in range(len(d)))


def perm(images: list[int]) -> Matrix:
    """Permutation matrix sending e_j to e_images[j]."""
    n = len(images)
    return tuple(tuple(int(images[j] == i) for j in range(n)) for i in range(n))


def hyperoctahedral(n: int) -> tuple[Matrix, ...]:
    """Generators of B_n: a transposition, an n-cycle and one sign change."""
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(j + 1) % n for j in range(n)]
    return (perm(swap), perm(cycle), diag(-1, *([1] * (n - 1))))


_KLEIN = (diag(-1, -1, 1), diag(1, -1, -1))
_CYCLE3 = perm([1, 2, 0])
_ROT90 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
_C5_COMPANION = ((0, 0, 0, -1), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))


def _rank3_chars(order: int) -> tuple[int, ...]:
    return (2, 3) if order % 3 == 0 else (2,)


def rank3_groups() -> list[Group]:
    spec = [
        ("klein4-blocks", _KLEIN, 4),
        ("signs-C2^3", (diag(-1, 1, 1), diag(1, -1, 1), diag(1, 1, -1)), 8),
        ("D4xC2", (perm([1, 0, 2]), diag(-1, 1, 1), diag(1, 1, -1)), 16),
        ("A4", _KLEIN + (_CYCLE3,), 12),
        ("S4-rotations", (_CYCLE3, _ROT90), 24),
        ("A4x+-I", _KLEIN + (_CYCLE3, diag(-1, -1, -1)), 24),
        ("B3", hyperoctahedral(3), 48),
    ]
    return [Group(name, 3, gens, _rank3_chars(order)) for name, gens, order in spec]


def hyperoctahedral_groups() -> list[Group]:
    groups = [Group(f"B{n}", n, hyperoctahedral(n), HYPER_CHARS) for n in (3, 4, 5)]
    groups.append(Group("C5-rank4", 4, (_C5_COMPANION,), C5_CHARS))
    return groups


def wallpaper_groups(group_dir: Path) -> list[Group]:
    """The 13 wallpaper groups, read from the repository's group files."""
    groups = []
    for path in sorted(group_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        gens = tuple(tuple(tuple(row) for row in g) for g in data["generators"])
        groups.append(Group(data["name"], data["rank"], gens, WALLPAPER_CHARS))
    if len(groups) != 13:
        raise ValueError(f"expected 13 wallpaper group files in {group_dir}, found {len(groups)}")
    return groups


def base_groups(workload: str, root: Path) -> list[Group]:
    if workload == "wallpaper-analyze":
        return wallpaper_groups(root / "groups")
    if workload == "rank3-bounds":
        return rank3_groups()
    if workload == "hyperoctahedral":
        return hyperoctahedral_groups()
    raise ValueError(f"unknown workload {workload!r}")


def transvection(n: int, i: int, j: int, s: int) -> Matrix:
    """I + s*E_ij."""
    return tuple(tuple(int(r == c) + (s if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n))


def conjugator(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A unimodular P with small entries and its exact inverse.

    P is a signed permutation times n transvections I + s*E_ij (s = +-1);
    the inverse undoes them in reverse order.
    """
    images = list(range(n))
    rng.shuffle(images)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = tuple(tuple(signs[i] * int(images[j] == i) for j in range(n)) for i in range(n))
    p_inv = tuple(zip(*p))  # signed permutation: inverse is the transpose
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        p = matmul(p, transvection(n, i, j, s))
        p_inv = matmul(transvection(n, i, j, -s), p_inv)
    if matmul(p, p_inv) != identity(n):
        raise AssertionError("conjugator inverse is wrong")
    return p, p_inv


def present(group: Group, rng: random.Random) -> tuple[Matrix, ...]:
    """The group's generators, conjugated, with one redundant product added, shuffled."""
    p, p_inv = conjugator(group.rank, rng)
    gens = [matmul(matmul(p, g), p_inv) for g in group.generators]
    if gens:
        redundant = matmul(rng.choice(gens), rng.choice(gens))
    else:
        redundant = identity(group.rank)
    gens.append(redundant)
    rng.shuffle(gens)
    return tuple(gens)


def sweep_inputs(groups: list[Group], workload: str, seed: int, sweep: int) -> list[tuple[Matrix, ...]]:
    """Generator sets for one sweep, in the order of `groups`."""
    rng = random.Random(f"{workload}/{seed}/{sweep}")
    return [present(g, rng) for g in groups]


def group_file_dict(group: Group, gens: tuple[Matrix, ...]) -> dict:
    return {"name": group.name, "rank": group.rank, "generators": [[list(r) for r in g] for g in gens]}
