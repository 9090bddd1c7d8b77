"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact integer computations; no tolerances anywhere.
"""

import itertools
import random
import time
from math import gcd

from eulerclass.catalog import entries
from eulerclass.crystal import make_cryst
from eulerclass.euler import (
    exact_order,
    has_finite_order,
    lower_bound,
    order_divisor,
    upper_bound_p_part,
)
from eulerclass.fingroup import all_subgroups, element_order, p_decompose
from eulerclass.intmat import IntMatrix, charpoly, det_one_minus, exterior_power, mul
from oracles import has_finite_order_via_traces

CHARS = (0, 2, 3, 5)

C5_COMPANION = IntMatrix.from_rows(
    [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
)


def _report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _crysts():
    return [(e, make_cryst(e.rank, list(e.generators))) for e in entries()]


def test_criterion_1_catalog_regression():
    start = time.monotonic()
    ok = True
    for e, c in _crysts():
        for p in CHARS:
            if not exact_order(c, p).same_verdict(e.expected_for(p)):
                ok = False
    elapsed = time.monotonic() - start
    _report(f"criterion 1: 52 catalog verdicts match ({elapsed:.2f}s < 10s)", ok and elapsed < 10)


def test_criterion_2_finiteness_test_equivalence():
    agree = sum(
        has_finite_order(c, p) == has_finite_order_via_traces(c, p)
        for _, c in _crysts()
        for p in CHARS
    )
    _report(f"criterion 2: finiteness tests agree {agree}/52", agree == 52)


def test_criterion_3_charpoly_identity():
    start = time.monotonic()
    rng = random.Random(17)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        cp = charpoly(m)
        for i in range(n + 1):
            if cp.coefficients[n - i] != (-1) ** i * exterior_power(m, i).trace():
                ok = False
        if cp(1) != det_one_minus(m):
            ok = False
    elapsed = time.monotonic() - start
    _report(f"criterion 3: charpoly identity on 200 random matrices ({elapsed:.2f}s < 5s)", ok and elapsed < 5)


def test_criterion_4_lower_bound_consistency():
    ok = True
    for e, c in _crysts():
        for p in (2, 3, 5):
            r = exact_order(c, p)
            if r.kind == "known":
                lo = lower_bound(c, p)
                up = upper_bound_p_part(c, p)
                p_part = 1
                m = r.order
                while m % p == 0:
                    m //= p
                    p_part *= p
                if r.order % lo != 0 or p_part > up or r.order > c.point_group.order:
                    ok = False
    # fixed-point-free p-group cases: both bounds pin the order to |G|
    fpf_cases = [
        (make_cryst(2, [IntMatrix.from_rows([[-1, 0], [0, -1]])]), 2, 2),
        (make_cryst(2, [IntMatrix.from_rows([[0, -1], [1, -1]])]), 3, 3),
        (make_cryst(2, [IntMatrix.from_rows([[0, -1], [1, 0]])]), 2, 4),
        (make_cryst(4, [C5_COMPANION]), 5, 5),
    ]
    for c, p, m in fpf_cases:
        r = exact_order(c, p)
        if not (
            r.kind == "known"
            and r.order == m == c.point_group.order
            and lower_bound(c, p) == upper_bound_p_part(c, p) == m
        ):
            ok = False
    _report("criterion 4: lower/upper bound consistency incl. fpf cases", ok)


def test_criterion_5_p_decomposition():
    ok = True
    for _, c in _crysts():
        for g in c.point_group:
            for p in (2, 3, 5):
                d = p_decompose(g, p)
                if mul(d.g_p, d.g_p_prime) != g or mul(d.g_p_prime, d.g_p) != g:
                    ok = False
                op = element_order(d.g_p)
                while op % p == 0:
                    op //= p
                if op != 1 or element_order(d.g_p_prime) % p == 0:
                    ok = False
    _report("criterion 5: p-part decomposition on all catalog elements", ok)


def test_criterion_6_transfer_rule():
    ok = True
    for name in ("p1", "pm", "cm"):
        e = next(x for x in entries() if x.name == name)
        c = make_cryst(e.rank, list(e.generators))
        for p in CHARS:
            if exact_order(c, p).kind != "trivial":
                ok = False
    # rank-3 block examples diag(point-group, 1): the extra axis is fixed
    rng = random.Random(23)
    two_by_two = [list(e.generators) for e in entries() if e.generators]
    for gens2 in rng.sample(two_by_two, 5):
        gens3 = [
            IntMatrix.from_rows(
                [[g.entries[0][0], g.entries[0][1], 0], [g.entries[1][0], g.entries[1][1], 0], [0, 0, 1]]
            )
            for g in gens2
        ]
        c = make_cryst(3, gens3)
        for p in CHARS:
            if exact_order(c, p).kind != "trivial":
                ok = False
    _report("criterion 6: nonempty fixed sublattice forces Trivial", ok)


def test_criterion_7_crystallographic_restriction():
    ok = True
    for e, c in _crysts():
        for g in c.point_group:
            if element_order(g) not in {1, 2, 3, 4, 6}:
                ok = False
    _report("criterion 7: all rank-2 element orders in {1,2,3,4,6}", ok)


def test_criterion_8_divisor_formula():
    ok = all(
        order_divisor(d, m) == d // gcd(d, m)
        for d in (2, 3, 4, 8, 9, 16)
        for m in (1, 2, 3, 4)
    )
    for name, p in (("p2", 2), ("p3", 3), ("p4", 2)):
        e = next(x for x in entries() if x.name == name)
        c = make_cryst(e.rank, list(e.generators))
        if order_divisor(c.point_group.order, 1) != lower_bound(c, p):
            ok = False
    _report("criterion 8: divisor formula grid and fpf specialization", ok)


def test_criterion_9_subgroup_enumeration_oracle():
    ok = True
    for e, c in _crysts():
        g = c.point_group
        if g.order > 8:
            continue
        elems = list(g.elements)
        brute = 0
        for r in range(1, len(elems) + 1):
            for subset in itertools.combinations(elems, r):
                s = set(subset)
                if g.identity in s and all(mul(a, b) in s for a in s for b in s):
                    brute += 1
        if len(all_subgroups(g)) != brute:
            ok = False
        if e.name == "p4m" and brute != 10:
            ok = False
    _report("criterion 9: subgroup counts match brute force (D4 -> 10)", ok)
