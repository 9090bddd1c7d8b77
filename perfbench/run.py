"""Verdict benchmark for eulerclass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout root is the parent of this
file's directory, and the program is imported from its `src/`. The workload
runs in a fresh worker process (worker.py); this process only measures
set-up, waits, and then checks every verdict against the independent oracle
(oracle.py). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import oracle
from tracing import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER_TIMEOUT_S = 160
SETUP_PROBES = 9

# A fresh interpreter imports the package and the CLI, then reports ready:
# everything a first query waits for.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import eulerclass, eulerclass.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def _setup_once() -> float:
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(ROOT / "src")], stdout=subprocess.PIPE, text=True, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe could not import eulerclass")
    return elapsed


def setup_seconds() -> float:
    """Median of several fresh-interpreter set-ups, after one untimed probe
    that leaves the bytecode cache warm."""
    _setup_once()
    return statistics.median(_setup_once() for _ in range(SETUP_PROBES))


def run_worker(args, out_path: Path) -> None:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_path),
    ]
    # The worker writes nothing to stdout; keep ours for the result line.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def read_results(path: Path):
    verdicts, sweeps, summary = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "summary" in rec:
                summary = rec["summary"]
            elif "sweep_done" in rec:
                sweeps.append(rec)
            else:
                verdicts.append(rec)
    if summary is None:
        raise RuntimeError("worker results have no summary line")
    return verdicts, sweeps, summary


def check(workload: str, seed: int, verdicts: list[dict], sweeps: list[dict]) -> list[str]:
    """Every verdict that did not fail, against the oracle; returns the problems."""
    groups = {g.name: g for g in inputs.base_groups(workload, ROOT)}
    order = list(groups.values())
    problems = []
    expected_count = sum(len(g.chars) for g in order)
    for s in sweeps:
        if s["verdicts"] != expected_count:
            problems.append(f"sweep {s['sweep_done']} gave {s['verdicts']} verdicts, expected {expected_count}")
    closed: dict[tuple[int, str], oracle.Group] = {}
    seen: dict[tuple[str, int], set] = {}
    for rec in verdicts:
        if "error" in rec:
            continue
        sweep, name, p = rec["sweep"], rec["group"], rec["p"]
        if (sweep, name) not in closed:
            closed = {}  # records come sweep by sweep; keep one sweep's groups
            for g, gens in zip(order, inputs.sweep_inputs(order, workload, seed, sweep)):
                closed[(sweep, g.name)] = oracle.Group(g.rank, gens)
        group = closed[(sweep, name)]
        try:
            if workload == "wallpaper-analyze":
                oracle.check_wallpaper(name, group, p, rec["report"])
                verdict = rec["report"]["verdict"]
            else:
                oracle.check_library(name, group, p, rec)
                verdict = rec["verdict"]
        except (oracle.OracleError, KeyError) as e:
            problems.append(f"sweep {sweep} {name} p={p}: {e!r}")
            continue
        seen.setdefault((name, p), set()).add(verdict)
    for (name, p), verdicts_seen in seen.items():
        if len(verdicts_seen) != 1:
            problems.append(f"{name} p={p}: verdict changed across conjugations: {sorted(verdicts_seen)}")
    return problems


def end_to_end_metrics(verdicts, sweeps, summary, setup_s: float) -> dict:
    completed = sum(1 for v in verdicts if "error" not in v)
    wall = sum(s["wall_s"] for s in sweeps)
    slowest = {}
    for v in verdicts:
        slowest[v["sweep"]] = max(slowest.get(v["sweep"], 0.0), v["s"])
    return {
        "verdicts_per_s": completed / wall,
        "slowest_verdict_ms": 1000.0 * statistics.median(slowest.values()),
        "setup_s": setup_s,
        "peak_rss_mb": summary["peak_rss_kib"] * 1024 / 1e6,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("wallpaper-analyze", "rank3-bounds", "hyperoctahedral"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "eulerclass" / "__init__.py").is_file() or not (ROOT / "groups").is_dir():
        print(f"error: {ROOT} is not an eulerclass checkout (needs src/eulerclass and groups/)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    try:
        setup_s = None if args.trace else setup_seconds()
        RESULTS.mkdir(exist_ok=True)
        out_path = RESULTS / f"{args.workload}-trace{args.trace}.jsonl"
        run_worker(args, out_path)
        verdicts, sweeps, summary = read_results(out_path)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    problems = check(args.workload, args.seed, verdicts, sweeps)
    for line in problems[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    failed = [v for v in verdicts if "error" in v]
    for v in failed[:5]:
        print(f"FAILED: sweep {v['sweep']} {v['group']} p={v['p']}: {v['error']}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(summary["trace"], len(verdicts))
    else:
        values = end_to_end_metrics(verdicts, sweeps, summary, setup_s)
    if set(values) != set(units):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 3
    result = {
        "correct": not problems,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
