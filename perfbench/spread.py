"""Run-to-run spread of the benchmark, raw and host-corrected.

Runs the command in ``BENCHMARK.json`` for every gated workload and
seed, in two interleaved sets — A and B alternate run by
run on the same seeds — and prints, per workload and end-to-end metric,
each set's median, quartiles and spread (interquartile range over
median, ``statistics.quantiles(values, n=4)``), and the drift of B's
median from A's, for the raw, the corrected and the reported values.
The raw and corrected values come from the run records appended to
``perfbench/results/trajectory.jsonl``.

    python3 perfbench/spread.py --runs 10 --seed 100 [--workloads engine-b1,serve-light]

``--sets 1`` makes one set.  ``--out FILE`` also writes the table there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "perfbench" / "results" / "trajectory.jsonl"


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(TRAJECTORY.read_text().splitlines()[-1])
    if record["workload"] != workload or record["seed"] != seed:
        raise RuntimeError("trajectory record does not match the run")
    return {"result": result, "record": record}


def table(bench: dict, runs: dict, sets: int) -> str:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lines = []
    for workload, by_set in runs.items():
        lines.append(f"\n{workload}")
        lines.append(f"  {'metric':<18} {'kind':<9} " + "  ".join(
            f"{'set ' + 'AB'[s]:<5} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7}"
            for s in range(sets)) + ("   drift   bound" if sets > 1 else "   bound"))
        for name, bound in bounds.items():
            for kind in ("raw", "corrected", "reported"):
                cells, medians = [], []
                for s in range(sets):
                    values = [r["record"]["metrics"][name][kind] for r in by_set[s]]
                    q1, med, q3 = quartiles(values)
                    medians.append(med)
                    cells.append(f"{'':<5} {q1:>10.4f} {med:>10.4f} {q3:>10.4f} "
                                 f"{100 * (q3 - q1) / med:>6.1f}%")
                drift = ""
                if sets > 1:
                    drift = f" {100 * (medians[1] / medians[0] - 1):>+6.1f}%"
                lines.append(f"  {name:<18} {kind:<9} " + "  ".join(cells)
                             + f"  {drift} {100 * bound:>5.0f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--workloads", default="", help="comma list (default: all)")
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for r in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                out = run_once(bench, w, args.seed + r)
                runs[w][s].append(out)
                m = out["record"]["metrics"]
                print(f"run {r} set {'AB'[s]} {w:<12} " + " ".join(
                    f"{k}={v['reported']:.4g}" for k, v in m.items()), flush=True)
    text = table(bench, runs, args.sets)
    print(text)
    if args.out:
        Path(args.out).write_text(text.lstrip("\n") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
