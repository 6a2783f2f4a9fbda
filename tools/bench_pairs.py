#!/usr/bin/env python3
"""Alternating bench runs of two source trees, summarized per end-to-end metric.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --pairs 10 -- --workload search-random --seed 1

Each pair runs ``bench/run.py`` once in each tree with the arguments after
``--``, each in a subprocess with the tree as working directory and its own
``src`` on ``PYTHONPATH``. The parent goes first in even pairs and the change
in odd ones, so drift in the host's speed or memory falls on both sides.
For every end-to-end metric that ``BENCHMARK.json`` declares, it prints each
side's median and quartiles and in how many pairs the change was strictly
better, in the metric's declared direction; then both sides' failed
operations. Exits 1 when a run fails or reports a failed operation.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def bench_once(root: Path, bench_args: list[str]) -> dict:
    """One ``bench/run.py`` run in ``root``: its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *bench_args], cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{root}: bench/run.py exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict[str, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per declared metric over ``runs``, a list of ``{side: result}`` pairs."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  change better"]
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in run[side]["metrics"] for run in runs for side in SIDES):
            continue
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(values[side])) for side in SIDES]
        lines.append(f"{name:<14} {cells[0]:>34} {cells[1]:>34}  {wins} of {len(runs)}")
    failed = {side: sum(run[side]["failed"] for run in runs) for side in SIDES}
    attempted = {side: sum(run[side]["attempted"] for run in runs) for side in SIDES}
    lines.append("failed operations: " + ", ".join(f"{side} {failed[side]} of {attempted[side]}" for side in SIDES))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ours, bench_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path, help="PARENT_ROOT CHANGE_ROOT")
    parser.add_argument("--pairs", type=int, default=10, help="how many alternating pairs to run")
    args = parser.parse_args(ours)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    roots = dict(zip(SIDES, (root.resolve() for root in args.roots)))
    runs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs.append({side: bench_once(roots[side], bench_args) for side in order})
        print(f"pair {k + 1}: " + ", ".join(
            f"{side} {json.dumps({m: v['value'] for m, v in runs[-1][side]['metrics'].items()})}" for side in order),
            flush=True)
    print("\n".join(summarize(runs, end_to_end)))
    return 1 if any(run[side]["failed"] for run in runs for side in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
