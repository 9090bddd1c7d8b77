"""Per-layer timing of eulerclass from outside, through its public functions.

Modules import one another's functions by name, so each wrapper is installed
in every eulerclass module namespace that binds the original function; a
binding left unwrapped would go uncounted. Layer functions are spans: each
records its self time (its duration minus the time of the spans and counted
operations it called). Matrix products and determinants are too many and too
short for spans: they are counted and their time summed, and that time is
subtracted from the span that called them.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) -> layer name. Two functions may share a layer.
SPANS = {
    ("cli", "main"): "cli.main",
    ("groupfile", "load_group_file"): "groupfile.load",
    ("crystal", "make_cryst"): "crystal.make_cryst",
    ("crystal", "fixed_sublattice"): "crystal.fixed_sublattice",
    ("euler", "exact_order"): "euler.exact_order",
    ("euler", "has_finite_order"): "euler.has_finite_order",
    ("euler", "lower_bound"): "euler.lower_bound",
    ("euler", "upper_bound_p_part"): "euler.upper_bound_p_part",
    ("fingroup", "closure"): "fingroup.closure",
    ("fingroup", "element_order"): "fingroup.element_order",
    ("fingroup", "p_regular_elements"): "fingroup.p_regular_elements",
    ("fingroup", "all_subgroups"): "fingroup.all_subgroups",
    ("intmat", "fixed_lattice"): "intmat.fixed_lattice",
    ("intmat", "fixed_lattice_of_rank"): "intmat.fixed_lattice",
}
COUNTED = {
    ("intmat", "mul"): "intmat.mul",
    ("intmat", "det"): "intmat.det",
    ("intmat", "det_one_minus"): "intmat.det",
}
LAYERS = sorted(set(SPANS.values()) | set(COUNTED.values()))


class Tracer:
    """Accumulates self time and call counts per layer, plus a few counts
    read from results: closure sizes, subgroups found, and the products
    spent inside all_subgroups."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.closure_elements = 0
        self.subgroups_found = 0
        self.subgroup_products = 0
        self._stack: list[list[float]] = []  # child time of each open span

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "closure_elements": self.closure_elements,
            "subgroups_found": self.subgroups_found,
            "subgroup_products": self.subgroup_products,
        }

    def _span(self, layer: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            products_before = self.calls["intmat.mul"]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.seconds[layer] += dt - frame[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += dt
            if layer == "fingroup.closure":
                self.closure_elements += result.order
            elif layer == "fingroup.all_subgroups":
                self.subgroups_found += len(result)
                self.subgroup_products += self.calls["intmat.mul"] - products_before
            return result

        return wrapper

    def _counted(self, layer: str, fn):
        stack = self._stack

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            self.seconds[layer] += dt
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += dt
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in every loaded
        eulerclass module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "eulerclass" or name.startswith("eulerclass.")
        }
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for (mod_name, fn_name), layer in table.items():
                original = getattr(modules[f"eulerclass.{mod_name}"], fn_name)
                wrappers[id(original)] = make(layer, original)
        # The wrappers keep the originals alive, so their ids stay unique.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])


def per_layer_metrics(totals: dict, verdicts: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, each per verdict."""
    sec, calls = totals["seconds"], totals["calls"]

    def ms(layer: str) -> float:
        return 1000.0 * sec[layer] / verdicts

    def count(x: float) -> float:
        return x / verdicts

    products = totals["subgroup_products"]
    yield_per_kmul = 1000.0 * totals["subgroups_found"] / products if products else 0.0
    values = {
        "euler.lower_bound_ms": ms("euler.lower_bound"),
        "euler.upper_bound_p_part_ms": ms("euler.upper_bound_p_part"),
        "fingroup.all_subgroups_ms": ms("fingroup.all_subgroups"),
        "fingroup.all_subgroups_calls": count(calls["fingroup.all_subgroups"]),
        "fingroup.subgroups_found": count(totals["subgroups_found"]),
        "fingroup.subgroup_yield": yield_per_kmul,
        "fingroup.closure_ms": ms("fingroup.closure"),
        "fingroup.closure_calls": count(calls["fingroup.closure"]),
        "fingroup.closure_elements": count(totals["closure_elements"]),
        "intmat.mul_calls": count(calls["intmat.mul"]),
        "intmat.mul_ms": ms("intmat.mul"),
        "fingroup.element_order_ms": ms("fingroup.element_order"),
        "fingroup.element_order_calls": count(calls["fingroup.element_order"]),
        "fingroup.p_regular_elements_ms": ms("fingroup.p_regular_elements"),
        "euler.has_finite_order_ms": ms("euler.has_finite_order"),
        "intmat.det_calls": count(calls["intmat.det"]),
        "intmat.det_ms": ms("intmat.det"),
        "crystal.make_cryst_ms": ms("crystal.make_cryst"),
        "crystal.fixed_sublattice_ms": ms("crystal.fixed_sublattice"),
        "intmat.fixed_lattice_ms": ms("intmat.fixed_lattice"),
        "euler.exact_order_self_ms": ms("euler.exact_order"),
        "groupfile.load_ms": ms("groupfile.load"),
        "cli.main_self_ms": ms("cli.main"),
    }
    return values
