"""Run the benchmark on two trees in alternated pairs and compare them.

    python tools/bench_pairs.py BASE CHANGE --workload NAME --seeds 8 9 10 ...
                                [--seconds 8] [--trace 0|1] [--json FILE]

BASE and CHANGE are checkouts (``git archive`` gives one of a commit).
Pair i runs ``perfbench/run.py --workload NAME --seed SEEDS[i]`` once on
each tree, BASE first in even pairs and CHANGE first in odd ones.  Every
run gets a fresh copy of its tree without ``__pycache__``, so no run
reads bytecode that another one compiled, and the copy is deleted after
the run.  Both trees run with this interpreter and the same arguments.

The tool prints each pair's metrics, then, per metric, each side's
median and quartiles (inclusive method), the difference of the medians,
the spread of BASE's runs (the distance between its quartiles) and the
number of pairs CHANGE won, ties counting for neither.  Which way is
better comes from BENCHMARK.json in BASE.  A metric is marked ``gain``
when CHANGE won at least nine tenths of the pairs and the medians differ
by more than BASE's spread, the rule for claiming a gain.  An end-to-end
metric is also marked ``worse`` when CHANGE's median is worse than
BASE's by more than the metric's bound in BENCHMARK.json, as a fraction
of BASE's median, and ``unresolved`` when BASE's spread, as a fraction
of its median, is wider than that bound and not every run of CHANGE is
better than every run of BASE: a shift within the bound then cannot be
told from noise.  A run that is not ``correct`` or fails stops the
tool with a message naming the pair, its seed and the tree.  ``--json``
also writes every run's metrics to FILE, rewritten after each pair, so
the pairs run before a failure are kept.  Only the standard library is
needed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = shutil.ignore_patterns("__pycache__", ".git", ".pytest_cache", ".hypothesis", "traces")


def run_once(tree: Path, args: list[str], where: str) -> dict:
    """One benchmark run on a fresh copy of ``tree``; its metrics by name.
    A failure's message starts with ``where``, which names the pair."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(tree, copy, ignore=SKIP)
        done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=copy,
                              capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{where}: benchmark failed on {tree} (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{where}: benchmark run on {tree} is not correct: {lines[-1]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def record(args: argparse.Namespace, runs: dict[str, list[dict]]) -> str:
    """The ``--json`` file's text: the options, the seeds of the pairs
    run so far and every run's metrics, each side's in pair order."""
    pairs = min(map(len, runs.values()))
    return json.dumps({"workload": args.workload, "seeds": args.seeds[:pairs],
                       "seconds": args.seconds, "trace": args.trace,
                       **{side: done[:pairs] for side, done in runs.items()}}, indent=1) + "\n"


def summarize(base: list[float], change: list[float], better: str | None = None,
              bound: float | None = None) -> dict:
    """One metric's summary over paired runs: each side's quartiles,
    BASE's spread, CHANGE's wins and the marks.  ``better`` is ``higher``
    or ``lower``, or None for a metric with no direction, which gets no
    wins and no marks; ``bound`` is an end-to-end metric's bound."""
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    row = {"base": (b1, bm, b3), "change": (c1, cm, c3), "spread": b3 - b1, "marks": []}
    if better is None:
        return row
    sign = 1 if better == "higher" else -1
    row["wins"] = wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1:
        row["marks"].append("gain")
    if bound is not None:
        if sign * (bm - cm) > bound * abs(bm):
            row["marks"].append("worse")
        beats_all = min(sign * c for c in change) > max(sign * b for b in base)
        if b3 - b1 > bound * abs(bm) and not beats_all:
            row["marks"].append("unresolved")
    return row


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write every run's metrics here")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i, seed in enumerate(args.seeds):
        bench = ["--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), bench, f"pair {i + 1} (seed {seed})"))
        if args.json:
            args.json.write_text(record(args, runs))
        print(f"pair {i + 1} (seed {seed}, {order[0]} first):", flush=True)
        for name, value in runs["base"][-1].items():
            print(f"  {name:32} {value:14.6g} -> {runs['change'][-1].get(name, float('nan')):14.6g}",
                  flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}, {pairs} pairs, --seconds {args.seconds} --trace {args.trace}: "
          "base median [q1, q3] -> change median [q1, q3]; change wins")
    for name in runs["base"][0]:
        row = summarize([run[name] for run in runs["base"]],
                        [run[name] for run in runs["change"]], better.get(name), bounds.get(name))
        (b1, bm, b3), (c1, cm, c3) = row["base"], row["change"]
        line = (f"  {name:32} {bm:.6g} [{b1:.6g}, {b3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]"
                f"; spread {row['spread']:.3g}")
        if "wins" in row:
            line += (f"; median {100 * (cm - bm) / bm if bm else float('nan'):+.1f}%"
                     f"; wins {row['wins']}/{pairs}" + "".join(f"; {m}" for m in row["marks"]))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
