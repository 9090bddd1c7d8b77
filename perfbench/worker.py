"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 --out FILE

A closed loop: whole sweeps over the workload's (group, p) queries, one
verdict after another, until the summed sweep time reaches S seconds; the
sweep in progress is always finished. Each sweep's inputs are generated
before its clock starts. One JSON line per verdict goes to FILE, then a
summary line; the oracle checks them in the parent process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import inputs


def _library_sweep(eulerclass, groups, gen_sets):
    """make_cryst once per group, then exact_order per characteristic. The
    closure time counts toward the group's first verdict."""
    records = []
    for group, gens in zip(groups, gen_sets):
        t0 = perf_counter()
        try:
            cryst = eulerclass.make_cryst(group.rank, [eulerclass.IntMatrix.from_rows(g) for g in gens])
        except Exception as e:  # every verdict of this group fails
            dt = perf_counter() - t0
            records += [{"group": group.name, "p": p, "error": repr(e), "s": dt} for p in group.chars]
            continue
        for p in group.chars:
            try:
                result = eulerclass.exact_order(cryst, p)
            except Exception as e:
                records.append({"group": group.name, "p": p, "error": repr(e), "s": perf_counter() - t0})
            else:
                records.append(
                    {
                        "group": group.name,
                        "p": p,
                        "order": cryst.point_group.order,
                        "verdict": result.describe(),
                        "provenance": list(result.provenance),
                        "s": perf_counter() - t0,
                    }
                )
            t0 = perf_counter()
    return records


def _cli_sweep(cli, groups, paths):
    """`eulerclass analyze FILE --char p --json` through cli.main, in process."""
    records = []
    for group, path in zip(groups, paths):
        for p in group.chars:
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["analyze", str(path), "--char", str(p), "--json"])
            except Exception as e:
                records.append({"group": group.name, "p": p, "error": repr(e), "s": perf_counter() - t0})
                continue
            dt = perf_counter() - t0
            if code != 0:
                records.append({"group": group.name, "p": p, "error": f"exit code {code}", "s": dt})
            else:
                records.append({"group": group.name, "p": p, "report": out.getvalue(), "s": dt})
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import eulerclass
    import eulerclass.cli

    if Path(eulerclass.__file__).resolve().parent != root / "src" / "eulerclass":
        print(f"imported eulerclass from {eulerclass.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    groups = inputs.base_groups(args.workload, root)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out_path = Path(args.out)
    wallpaper = args.workload == "wallpaper-analyze"
    files_dir = out_path.parent / f"{args.workload}-files"
    if wallpaper:
        files_dir.mkdir(parents=True, exist_ok=True)

    measured = 0.0
    sweep = 0
    with open(out_path, "w", encoding="utf-8") as out:
        while sweep == 0 or measured < args.seconds:
            gen_sets = inputs.sweep_inputs(groups, args.workload, args.seed, sweep)
            if wallpaper:
                paths = []
                for group, gens in zip(groups, gen_sets):
                    path = files_dir / f"{group.name}.json"
                    path.write_text(json.dumps(inputs.group_file_dict(group, gens)), encoding="utf-8")
                    paths.append(path)
            cpu0 = process_time()
            t0 = perf_counter()
            if wallpaper:
                records = _cli_sweep(eulerclass.cli, groups, paths)
            else:
                records = _library_sweep(eulerclass, groups, gen_sets)
            wall = perf_counter() - t0
            cpu = process_time() - cpu0
            measured += wall
            for rec in records:
                rec["sweep"] = sweep
                if "report" in rec:
                    rec["report"] = json.loads(rec["report"])
                out.write(json.dumps(rec) + "\n")
            sweep_line = {"sweep_done": sweep, "wall_s": wall, "cpu_s": cpu, "verdicts": len(records)}
            out.write(json.dumps(sweep_line) + "\n")
            sweep += 1
        summary = {
            "sweeps": sweep,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.snapshot() if tracer else None,
        }
        out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
