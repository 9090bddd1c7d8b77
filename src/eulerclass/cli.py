"""Command-line front end.

    eulerclass analyze <file> --char p [--json] [--cap N]
    eulerclass catalog [name] [--char p] [--json]
    eulerclass selftest

Exit codes: 0 ok, 1 selftest failure, 2 input/parse error,
3 group-construction error, 4 invalid characteristic.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import catalog as catalog_mod
from .crystal import CrystGroup, fixed_sublattice, make_cryst
from .euler import (
    Characteristic,
    InvalidCharacteristicError,
    exact_order,
    lower_bound,
    upper_bound_p_part,
)
from .fingroup import DEFAULT_CAP, NotFiniteError, NotUnimodularError
from .groupfile import GroupFile, GroupFileError, load_group_file
from .intmat import IntMatrix, charpoly, det_one_minus, exterior_power

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_GROUP = 3
EXIT_CHAR = 4


def _element_table(cryst: CrystGroup) -> list[dict]:
    g = cryst.point_group
    rows = [
        {"matrix": [list(r) for r in x.entries], "order": k, "det": d, "det_one_minus": d1}
        for x, k, d, d1 in zip(g.elements, g.orders, g.dets, g.det_one_minus)
    ]
    rows.sort(key=lambda r: (r["order"], r["matrix"]))
    return rows


def _analysis_report(gf: GroupFile, p: int, cap: int) -> dict:
    cryst = make_cryst(gf.rank, list(gf.generators), cap=cap)
    g = cryst.point_group
    lat = fixed_sublattice(cryst)
    result = exact_order(cryst, p)
    report: dict = {
        "group": gf.to_dict(),
        "characteristic": p,
        "point_group_order": g.order,
        "fixed_sublattice_rank": lat.dim,
        "maps_onto_Z": not lat.is_trivial(),
        "elements": _element_table(cryst),
        # thm-a, the only rule that returns "infinite", is the finiteness test
        "finite_order": result.kind != "infinite",
        "verdict": result.describe(),
        "provenance": list(result.provenance),
    }
    if gf.rank == 2:
        report["sl_subgroup_order"] = g.dets.count(1)
    if p > 0:
        report["lower_bound"] = lower_bound(cryst, p)
        report["upper_bound_p_part"] = upper_bound_p_part(cryst, p)
    return report


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    name = report["group"].get("name")
    title = f"group {name}" if name else "group"
    print(f"{title}: rank {report['group']['rank']}, characteristic {report['characteristic']}")
    print(f"  |G| = {report['point_group_order']}")
    if "sl_subgroup_order" in report:
        print(f"  |G1| = |G & SL| = {report['sl_subgroup_order']}")
    print(f"  fixed sublattice rank = {report['fixed_sublattice_rank']}")
    print(f"  maps onto Z: {report['maps_onto_Z']}")
    print("  elements (order, det, det(1-x)):")
    for row in report["elements"]:
        print(f"    {row['matrix']}  order={row['order']} det={row['det']} det(1-x)={row['det_one_minus']}")
    print(f"  Euler class has finite order: {report['finite_order']}")
    if "lower_bound" in report:
        print(f"  lower bound = {report['lower_bound']}, upper bound on p-part = {report['upper_bound_p_part']}")
    print(f"  verdict: {report['verdict']}")
    print(f"  provenance: {' -> '.join(report['provenance'])}")


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        Characteristic(args.char)
    except InvalidCharacteristicError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHAR
    try:
        gf = load_group_file(args.file)
    except GroupFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = _analysis_report(gf, args.char, args.cap)
    except (NotFiniteError, NotUnimodularError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GROUP
    _print_report(report, args.json)
    return EXIT_OK


def _catalog_table() -> list[dict]:
    rows = []
    for entry in catalog_mod.entries():
        rows.append(
            {
                "name": entry.name,
                "rank": entry.rank,
                "generators": [[list(r) for r in g.entries] for g in entry.generators],
                "expected": {
                    "0": entry.expected[0].describe(),
                    "2": entry.expected[2].describe(),
                    "3": entry.expected[3].describe(),
                    "other": entry.expected["other"].describe(),
                },
            }
        )
    return rows


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.name is None:
        rows = _catalog_table()
        if args.json:
            print(json.dumps({"catalog": rows}, indent=2, sort_keys=True))
        else:
            print(f"{'name':6} {'p=0':10} {'p=2':10} {'p=3':10} {'other p':10}")
            for r in rows:
                e = r["expected"]
                print(f"{r['name']:6} {e['0']:10} {e['2']:10} {e['3']:10} {e['other']:10}")
        return EXIT_OK
    try:
        entry = catalog_mod.lookup(args.name)
    except catalog_mod.UnknownNameError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    p = args.char if args.char is not None else 0
    try:
        Characteristic(p)
    except InvalidCharacteristicError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHAR
    gf = GroupFile(entry.rank, entry.generators, entry.name)
    report = _analysis_report(gf, p, DEFAULT_CAP)
    expected = entry.expected_for(p)
    report["expected_verdict"] = expected.describe()
    report["agreement"] = "AGREE" if report["verdict"] == expected.describe() else "DISAGREE"
    _print_report(report, args.json)
    if not args.json:
        print(f"  expected: {report['expected_verdict']}  [{report['agreement']}]")
    return EXIT_OK


def run_selftest(quiet: bool = False) -> tuple[int, int]:
    """Catalog regression plus the charpoly identity sample.

    Returns (checked, passed) counts.
    """
    checked = 0
    passed = 0
    for entry in catalog_mod.entries():
        cryst = make_cryst(entry.rank, list(entry.generators))
        for p in (0, 2, 3, 5):
            checked += 1
            got = exact_order(cryst, p)
            want = entry.expected_for(p)
            ok = got.same_verdict(want)
            passed += ok
            if not ok and not quiet:
                print(f"FAIL {entry.name} p={p}: got {got.describe()}, expected {want.describe()}")
    rng = random.Random(20260823)
    ident_ok = True
    for _ in range(50):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        cp = charpoly(m)
        for i in range(n + 1):
            if cp.coefficients[n - i] != (-1) ** i * exterior_power(m, i).trace():
                ident_ok = False
        if cp(1) != det_one_minus(m):
            ident_ok = False
    checked += 1
    passed += ident_ok
    if not ident_ok and not quiet:
        print("FAIL charpoly identity sample")
    return checked, passed


def cmd_selftest(args: argparse.Namespace) -> int:
    start = time.monotonic()
    checked, passed = run_selftest()
    elapsed = time.monotonic() - start
    print(f"{checked} checks run, {passed} pass ({elapsed:.2f}s)")
    return EXIT_OK if checked == passed else EXIT_SELFTEST


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call: building it costs
    more than a wallpaper verdict. Every caller gets the same object."""
    parser = argparse.ArgumentParser(
        prog="eulerclass",
        description="Order of the Euler class of split crystallographic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a group file")
    pa.add_argument("file")
    pa.add_argument("--char", type=int, required=True, help="field characteristic (0 or prime)")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.add_argument("--cap", type=int, default=DEFAULT_CAP, help="closure size cap")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("catalog", help="list or analyze built-in wallpaper groups")
    pc.add_argument("name", nargs="?", default=None)
    pc.add_argument("--char", type=int, default=None)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_catalog)

    ps = sub.add_parser("selftest", help="run the built-in regression")
    ps.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
