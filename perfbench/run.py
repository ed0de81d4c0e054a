"""The sensorgames benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; needs only the standard library.  Each
workload is a closed loop, one caller on one thread in one process: the
next job starts when the previous one returns.  The workload runs in a
fresh interpreter (`workload.py`), which imports `sensorgames` from the
checkout's `src/` and nowhere else.

Workloads (random arenas use `GeneratorParams(n_actions=3, n_queries=3,
n_attacks=4, max_support=3, goal_fraction=0.15, n_sensors=5)`):

* ``arena-elim`` -- ``run_pipeline(text).to_json()`` on ``n_states=17,
  seed=7``: 5,385 nodes, 383 winning after 9 rounds and 15,410 removals,
  empty gap.  The elimination loop does the work; the jammer layer
  nearly idles.
* ``corpus-sweep`` -- the ``simulate --p2 table`` path over the 200
  ``soundness`` games of ``corpus.json``: ``run_stages`` on each, then
  200 seeded plays of at most 100 steps from each game whose initial
  node is winning.  Many small games expose fixed per-game costs.
* ``oracle-referee`` -- ``run_stages`` plus ``brute_force_win1`` over the
  first 100 ``within_cap`` ``differential`` games, the traffic of
  acceptance criterion 4, less seeds 60 and 41: those two check 383,050
  of the 407,749 assignments and take about 30 s, a single sample per
  run.  The other 98 check 24,699 and take about 2 s a pass.

A unit of work is one arena game, or one whole pass over a corpus; the
loop starts whole units until ``--seconds`` have passed, so every run
measures the same mix.

``--seed`` draws, for every job, a renaming of the game's states (same
arena, same ids, different text) and, on corpus-sweep, the play seeds.
``--arena STATES:SEED`` swaps the arena workload's game for another one:
14:7 (7,120 nodes, all winning, a 91-node gap, no eliminations: belief
expansion and the jammer game do most of the work; counts and document
digest frozen), or the held-out pair 17:4 (win-heavy) and 18:8
(elimination-heavy), whose counts are frozen in `goldens.json`.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s`` -- launch of the workload's interpreter until `sensorgames`
  is imported and the inputs are built; the median of 15 launches, in
  plain wall-clock time.
* ``games_per_s`` -- games finished per second of time spent in jobs.
* ``game_p50_ms`` -- median per-game latency: on the arena the time from
  game text to the finished JSON document (the verdict time), on
  corpus-sweep the stages plus the plays, on oracle-referee the stages
  plus the brute-force verdict.  The 90th percentile is printed in the
  summary but carries no bound.
* ``peak_rss_mb`` -- peak resident memory of the workload process.

Job times in ``games_per_s`` and ``game_p50_ms`` (and the per-layer self
times) are scaled to a nominal host speed by the speed probe
(`probe.py`): a fixed piece of interpreter work timed between jobs, about
every half second.  The host's speed drifts by a third or more over tens
of seconds; in wall-clock time the same code spread by up to 40% between
runs.  The summary lines print the unscaled wall-clock figures too.

With ``--trace 1`` every job runs untraced and then again traced.  In the
traced job the stage functions that ``run_stages`` looks up in
``sensorgames.pipeline`` and ``sensorgames.attacker`` are swapped for
wrappers that call them inside a span, and put back after the job; the
calls the benchmark makes itself (``run_pipeline``, ``simulate``,
``brute_force_win1``, ``check_soundness``) get a span at the call.  Both
jobs run the same code.  The last line reports each layer's self time and
counts per unit, and ``trace.overhead_ratio``, the traced job's extra time
over the untraced one.  The spans go to
``perfbench/traces/<workload>-seed<seed>.json``.

Every job is checked: arena documents against frozen sha256 digests,
every game against frozen counts, `corpus.json`'s recorded verdicts and
totals, `check_soundness` on every strategy, and the bundled figures'
digests once per run.  A job that raises or fails a check counts in
``failed``; ``correct`` is true only when none did.

CPU frequency and the load of other tenants on the machine are not
controlled; the human-readable lines above the result record the Python
version, the number of CPUs, the load average at the start and the speed
probe's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import NOMINAL_S

HERE = Path(__file__).resolve().parent
WORKLOAD = HERE / "workload.py"
SETUP_LAUNCHES = 15
DEADLINE_S = 170  # the whole run, so a hung workload cannot outlive it


class BenchError(Exception):
    pass


def launch(args: list[str], deadline: float) -> tuple[float, subprocess.Popen, threading.Timer]:
    """Start one workload process; returns the seconds until it was ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKLOAD), *args],
                            stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, timer)
        raise BenchError(f"workload process did not get ready (exit code {proc.returncode})")
    return ready, proc, timer


def finish(proc: subprocess.Popen, timer: threading.Timer) -> str:
    """Wait for the process to end; returns the rest of its output."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--arena", help="STATES:SEED, another game for an arena workload")
    args = ap.parse_args()

    load = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.arena:
        base += ["--arena", args.arena]

    setups = []
    try:
        if not args.trace:  # set-up time is an end-to-end metric only
            for _ in range(SETUP_LAUNCHES - 1):
                ready, proc, timer = launch(base + ["--setup-only"], deadline)
                finish(proc, timer)
                if proc.returncode != 0:
                    raise BenchError(f"set-up run exited with code {proc.returncode}")
                setups.append(ready)
        ready, proc, timer = launch(base, deadline)
        setups.append(ready)
        out = finish(proc, timer)
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(f"# python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f} at start; "
          f"cpu frequency and other tenants' load not controlled")
    print(f"# {args.workload} seed {args.seed}: {result['jobs']} jobs in {result['units']} "
          f"units; {result['failed']} of {result['attempted']} jobs and checks failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.4f})")
    for name, metric in metrics.items():
        print(f"#   {name:32} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace and result["p90_ms"] is not None:
        print(f"#   game latency p90 over {result['jobs']} jobs: {result['p90_ms']:.3f} ms")
    print(f"# speed probe: median {result['probe_p50_ms']:.2f} ms over {result['probes']} probes "
          f"(nominal {NOMINAL_S * 1000:.2f} ms); unscaled wall clock: "
          f"{result['wall_games_per_s']:.4f} games/s, p50 {result['wall_p50_ms']:.3f} ms")
    if result["trace_file"]:
        print(f"# spans: {result['trace_file']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
