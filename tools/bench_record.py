"""Record a BENCH_<n>.json trajectory point from perfbench runs on two trees.

    python3 tools/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_7.json \
        [--pairs compiled-poly:1:10 --pairs compiled-poly:97:10 ...]

Each tree is a checkout with its own ``perfbench/run.py`` and ``src/``.  The
workloads and the run length come from the parent tree's ``BENCHMARK.json``.
For every workload, and for ``--trace 0`` and ``--trace 1``, the script runs

    python3 perfbench/run.py --workload W --seconds <run_seconds> --trace T

(run.py's default seed) once in each tree, alternating which tree goes first,
and keeps the final JSON object and the ``machine:`` line of each run under
``runs.{parent,change}.<workload>.trace<T>``.  Each ``--pairs W:S:N`` also
runs N ``--trace 0`` pairs of workload W with ``--seed S``, alternating which
tree goes first, and stores each side's results in order under ``pairs``, with
per-metric medians and quartiles of both sides and the number of pairs the
change won.  Runs go one at a time, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float, trace: int,
             seed: int | None = None) -> dict:
    """One perfbench run in ``tree``: its final JSON object and machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    machine = next((ln for ln in lines if ln.startswith("machine: ")), None)
    print(f"{tree.name} {' '.join(cmd[2:])}: {lines[-1][:120]}", flush=True)
    return {"machine": machine, "result": json.loads(lines[-1])}


def _quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3]."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list[dict], change: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """Per metric: each side's quartiles, and the pairs the change won."""
    out = {}
    for name, lower in lower_is_better.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        out[name] = {"parent_quartiles": _quartiles(p), "change_quartiles": _quartiles(c),
                     "change_wins": wins, "pairs": len(p)}
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent-commit", default="unknown",
                    help="commit the parent tree was exported from")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEED:COUNT")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    pairs = []
    for item in args.pairs:
        workload, _, rest = item.partition(":")
        seed, _, count = rest.partition(":")
        if workload not in workloads or not (seed.isdigit() and count.isdigit()):
            ap.error(f"--pairs {item} is not WORKLOAD:SEED:COUNT")
        pairs.append((workload, int(seed), int(count)))

    runs: dict[str, dict] = {side: {} for side in SIDES}
    flip = False
    for workload in workloads:
        for trace in (0, 1):
            order = SIDES[::-1] if flip else SIDES
            flip = not flip
            for side in order:
                runs[side].setdefault(workload, {})[f"trace{trace}"] = run_once(
                    trees[side], workload, seconds, trace)
    record = {
        "about": ("Final JSON object and machine line of perfbench/run.py for every workload, "
                  "with --trace 0 and --trace 1, on the parent and on the change. One run "
                  "each, parent and change alternating which runs first. Written by "
                  "tools/bench_record.py."),
        "command": (f"python3 perfbench/run.py --workload <workload> --seconds {seconds} "
                    "--trace <0|1>"),
        "parent_commit": args.parent_commit,
        "change": ("the change's tree; a tree without .git (an exported copy) reads commit "
                   "\"unknown\" in its machine lines"),
        "runs": runs,
    }
    if pairs:
        record["pairs"] = []
        for workload, seed, count in pairs:
            got: dict[str, list] = {side: [] for side in SIDES}
            for k in range(count):
                for side in SIDES[::-1] if k % 2 else SIDES:
                    got[side].append(run_once(trees[side], workload, seconds, 0,
                                              seed)["result"])
            record["pairs"].append({"workload": workload, "seed": seed,
                                    "order": "parent first in even-numbered pairs, "
                                             "change first in odd-numbered ones",
                                    **got, "summary": summarize(got["parent"], got["change"],
                                                                lower)})
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
