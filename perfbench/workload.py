"""Workload process of the sensorgames benchmark.

`run.py` launches this file in a fresh interpreter.  It imports
`sensorgames` from the checkout's `src/`, builds the workload's game
texts, prints ``ready`` (the end of set-up), runs the closed loop and
prints one JSON line with its measurements and check results.  With
``--setup-only`` it exits right after ``ready``.  Between jobs it runs the
speed probe of `probe.py`, and reports job times scaled by it.

Every job hands the program nothing but game text.  Each job's text is
the workload's game with its states renamed by a permutation drawn from
``--seed`` and the job number.  Names only swap within one name width and
declaration order is kept, so the renamed game is the same arena with
the same state ids and byte count: the work is identical, the text is
not, and every output can be mapped back and compared with the frozen
golden values in `goldens.json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import SpeedProbe  # noqa: E402

import sensorgames  # noqa: E402
from sensorgames import (  # noqa: E402
    BUNDLED_GAMES,
    CapExceededError,
    GeneratorParams,
    MultiStrategy,
    PipelineRun,
    TableAttack,
    brute_force_win1,
    build_belief_mdp,
    bundled_game_text,
    check_soundness,
    generate_spec,
    node_label,
    parse_spec,
    run_pipeline,
    run_stages,
    serialize_spec,
    simulate,
    validate_game,
)
from sensorgames import attacker as attacker_mod, pipeline as pipeline_mod  # noqa: E402
from sensorgames.sim import Outcome  # noqa: E402

if Path(sensorgames.__file__).resolve().parent != ROOT / "src" / "sensorgames":
    raise ImportError(f"sensorgames was imported from {sensorgames.__file__}, "
                      f"not from this checkout")

ARENA_PARAMS = dict(n_actions=3, n_queries=3, n_attacks=4, max_support=3,
                    goal_fraction=0.15, n_sensors=5)
ARENAS = {"arena-elim": "17:7"}
WORKLOADS = (*ARENAS, "corpus-sweep", "oracle-referee")
PLAYS_PER_GAME = 200
MAX_STEPS = 100
ORACLE_GAMES = 100
ORACLE_MAX_ASSIGNMENTS = 50_000  # leaves out seeds 60 and 41
GOLDENS = json.loads((HERE / "goldens.json").read_text())
STATE_NAME = re.compile(r"\bs(\d+)\b")


class Game:
    """One input of a workload: canonical text plus what it must give."""

    def __init__(self, key: str, text: str, n_states: int, expected: dict | None,
                 verdict: dict | None = None):
        self.key = key
        self.text = text
        self.n_states = n_states
        self.expected = expected
        self.verdict = verdict  # oracle-referee: corpus.json's recorded verdicts
        self.digest = hashlib.sha256(text.encode()).hexdigest()


def generated_text(params: dict, seed: int) -> str:
    return serialize_spec(generate_spec(GeneratorParams(**params, seed=seed)))


def load_corpus() -> dict:
    return json.loads((ROOT / "src" / "sensorgames" / "specs" / "corpus.json").read_text())


def build_inputs(workload: str, arena: str | None) -> list[Game]:
    if workload in ARENAS:
        key = arena or ARENAS[workload]
        n_states, seed = (int(x) for x in key.split(":"))
        expected = GOLDENS["arenas"].get(key) or GOLDENS["held_out"].get(key)
        return [Game(key, generated_text(dict(ARENA_PARAMS, n_states=n_states), seed),
                     n_states, expected)]
    corpus = load_corpus()
    if workload == "corpus-sweep":
        block = corpus["soundness"]
        return [Game(str(s), generated_text(block["params"], s), block["params"]["n_states"],
                     GOLDENS["soundness"][str(s)])
                for s in block["seeds"]]
    block = corpus["differential"]
    entries = [e for e in block["seeds"] if e["within_cap"]][:ORACLE_GAMES]
    entries = [e for e in entries if GOLDENS["differential"][str(e["seed"])]
               ["oracle.assignments"] <= ORACLE_MAX_ASSIGNMENTS]
    return [Game(str(e["seed"]), generated_text(block["params"], e["seed"]),
                 block["params"]["n_states"], GOLDENS["differential"][str(e["seed"])],
                 verdict=dict(e, cap=block["cap"]))
            for e in entries]


# --- renaming -------------------------------------------------------------

def relabelling(n_states: int, rng: random.Random) -> list[int]:
    """A permutation of state numbers that only swaps names of equal width."""
    perm = list(range(n_states))
    for width in {len(str(i)) for i in perm}:
        group = [i for i in perm if len(str(i)) == width]
        shuffled = group[:]
        rng.shuffle(shuffled)
        for old, new in zip(group, shuffled):
            perm[old] = new
    return perm


def rename(text: str, perm: list[int]) -> str:
    return STATE_NAME.sub(lambda m: f"s{perm[int(m.group(1))]}", text)


def job_text(game: Game, seed: int, workload: str, unit: int) -> tuple[str, list[int]]:
    perm = relabelling(game.n_states, random.Random(f"{workload}:{seed}:{unit}:{game.key}"))
    return rename(game.text, perm), perm


def canonical_document(doc: dict, perm: list[int], digest: str) -> str:
    """The document of the renamed game, mapped back to the original names
    and given the original text's digest."""
    inverse = [0] * len(perm)
    for old, new in enumerate(perm):
        inverse[new] = old

    def back(value):
        if isinstance(value, str):
            return rename(value, inverse)
        if isinstance(value, list):
            return [back(v) for v in value]
        if isinstance(value, dict):
            return {back(k): back(v) for k, v in value.items()}
        return value

    doc = back(doc)
    doc["digest"] = digest
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- tracing --------------------------------------------------------------

# The stage functions as `run_stages` looks them up: (module, name, span).
STAGES = (
    (pipeline_mod, "parse_spec", "specfile.parse"),
    (pipeline_mod, "validate_game", "game.validate"),
    (pipeline_mod, "build_belief_mdp", "belief.expand"),
    (pipeline_mod, "solve_p1", "planner.solve_p1"),
    (attacker_mod, "build_attacker_mdp", "attacker.build"),
    (attacker_mod, "solve_p2_safety", "attacker.solve"),
    (attacker_mod, "deception_gap", "attacker.gap"),
)


class Tracer:
    """Spans held in memory: (name, start, end, parent index, job id)."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    @contextmanager
    def stages(self):
        """Swap each of `STAGES` for a wrapper that calls it in a span, so the
        program's own `run_stages` is traced; restores them all on exit.
        Yields a dict that receives each stage's last result by span name."""
        results: dict = {}

        def wrap(name, function):
            def traced(*args, **kwargs):
                with self.span(name):
                    results[name] = function(*args, **kwargs)
                return results[name]
            return traced

        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in STAGES]
        try:
            for (module, attr, function), (_, _, name) in zip(originals, STAGES):
                setattr(module, attr, wrap(name, function))
            yield results
        finally:
            for module, attr, function in originals:
                setattr(module, attr, function)

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's, in span order."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_name, start, end, _parent, _job) in enumerate(self.spans)]


class NoTracer:
    job = None

    def span(self, name: str):
        return nullcontext()

    def stages(self):
        return nullcontext()


NO_TRACER = NoTracer()


def traced_run(results: dict) -> PipelineRun:
    """The stages' objects, as the traced wrappers saw them returned."""
    win2, strategy = results.get("attacker.solve", (None, None))
    return PipelineRun(doc=results["specfile.parse"], game=results["game.validate"],
                       mdp=results["belief.expand"], report=results["planner.solve_p1"],
                       attacker=results.get("attacker.build"), win2=win2,
                       attack_strategy=strategy, gap=results.get("attacker.gap"))


# --- jobs -----------------------------------------------------------------

class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def stage_counts(run: PipelineRun, text: str) -> dict:
    win1, gap = len(run.report.win), len(run.gap or ())
    counts = {
        "specfile.input_bytes": len(text.encode()),
        "belief.nodes": len(run.mdp.nodes),
        "belief.classes": len(run.mdp.classes),
        "belief.edges": sum(len(succs) for moves in run.mdp.trans.values()
                            for succs in moves.values()),
        "planner.rounds": len(run.report.levels),
        "planner.removals": len(run.report.trace),
        "planner.win1": win1,
        "planner.win1_nonempty": int(win1 > 0),
        "planner.initial_winning": int(run.report.initial_winning),
        "attacker.edges": 0,
        "attacker.win2": len(run.win2 or ()),
        "attacker.gap": gap,
        "attacker.gap_nonempty": int(gap > 0),
    }
    if run.attacker is not None:
        counts["attacker.edges"] = sum(len(succs) for per in run.attacker.trans.values()
                                       for succs in per.values())
    return counts


def document_counts(doc: dict, out: str, text: str) -> dict:
    counts = doc["counts"]
    return {
        "specfile.input_bytes": len(text.encode()),
        "belief.nodes": counts["belief_nodes"],
        "belief.classes": counts["belief_classes"],
        "planner.win1": counts["win1"],
        "attacker.win2": counts["win2"] or 0,
        "attacker.gap": counts["gap"] or 0,
        "pipeline.json_bytes": len(out.encode()),
    }


def check_counts(counts: dict, expected: dict) -> None:
    """Compare every expected count that the job produced."""
    for key, want in expected.items():
        if key in counts:
            require(counts[key] == want, f"{key} is {counts[key]}, expected {want}")


def audit_document(doc: dict, text: str, mdp=None) -> None:
    """check_soundness on the strategy the document publishes, and the
    brute-force verdict when the game is within the oracle's cap."""
    if mdp is None:
        mdp = build_belief_mdp(validate_game(parse_spec(text)))
    game = mdp.game
    by_label = {node_label(game, q): q for q in mdp.nodes}
    allowed = {q: frozenset() for q in mdp.nodes}
    for label, moves in doc["strategy"].items():
        pairs = [move.strip("()").split(",") for move in moves]
        allowed[by_label[label]] = frozenset(
            (game.action(a), game.query(q)) for a, q in pairs)
    require(sorted(doc["win1"]) == sorted(doc["strategy"]), "win1 differs from the strategy's nodes")
    verdict = check_soundness(mdp, MultiStrategy(allowed=allowed))
    require(verdict.ok, f"audit: {verdict.reason}")
    try:
        oracle = brute_force_win1(mdp)
    except CapExceededError:
        return
    require(oracle.initial_winning == doc["initial_winning"], "brute force disagrees")


class Runner:
    """One workload's jobs and the checks made on each."""

    def __init__(self, workload: str, seed: int, games: list[Game]):
        self.workload = workload
        self.seed = seed
        self.games = games
        self.failures: list[str] = []
        self.attempted = 0
        self.documents: dict[str, str] = {}  # arena key -> canonical document

    def checked(self, where: str, step):
        """Run one job or check; a raise or a failed check counts as failed."""
        self.attempted += 1
        try:
            return step()
        except Exception as error:  # the loop must go on and report it
            if isinstance(error, CheckFailed):
                message = f"{where}: {error}"
            else:
                message = f"{where}: " + "".join(traceback.format_exception(error)).rstrip()
            self.failures.append(message)
            print(f"FAILED {message}", file=sys.stderr)
            return None

    def job(self, game: Game, unit: int, tracer, times: list) -> dict:
        """Run and check one job; returns its counts.  Its start and end go
        to ``times`` before the checks, so a failed check keeps its time."""
        text, perm = job_text(game, self.seed, self.workload, unit)
        tracer.job = unit
        gc.collect()
        with tracer.stages() as stages:
            if self.workload in ARENAS:
                return self._arena(game, text, perm, tracer, times, stages)
            if self.workload == "corpus-sweep":
                return self._corpus(game, text, tracer, times)
            return self._oracle(game, text, tracer, times)

    def _arena(self, game: Game, text: str, perm: list[int], tracer, times, stages):
        start = time.perf_counter()
        with tracer.span("job"), tracer.span("pipeline.document"):
            out = run_pipeline(text).to_json()
        times.append((start, time.perf_counter()))
        run = None if stages is None else traced_run(stages)
        doc = json.loads(out)
        require(doc["digest"] == hashlib.sha256(text.encode()).hexdigest(),
                "the document's digest is not the input's")
        counts = document_counts(doc, out, text)
        if run is not None:
            staged = stage_counts(run, text)
            check_counts(staged, counts)
            counts = {**staged, **counts}
        if game.expected:
            check_counts(counts, game.expected["counts"])
        canonical = canonical_document(doc, perm, game.digest)
        if game.expected and "sha256" in game.expected:
            require(hashlib.sha256(canonical.encode()).hexdigest() == game.expected["sha256"],
                    "document differs from the golden digest")
        first = self.documents.setdefault(game.key, canonical)
        require(canonical == first, "document differs from the first job's")
        if run is not None:
            with tracer.span("planner.audit"):
                audit_document(doc, text, run.mdp)
        return counts

    def _corpus(self, game: Game, text: str, tracer, times):
        start = time.perf_counter()
        plays = []
        with tracer.span("job"):
            run = run_stages(text)
            if run.report.initial_winning:
                attack = TableAttack(run.attack_strategy)
                for k in range(PLAYS_PER_GAME):
                    play_seed = self.seed * 1_000_000 + int(game.key) * 1_000 + k
                    with tracer.span("sim.simulate"):
                        plays.append(simulate(run.game, run.report.strategy, attack,
                                              MAX_STEPS, play_seed))
        times.append((start, time.perf_counter()))
        counts = stage_counts(run, text)
        check_counts(counts, game.expected)
        self._audit(run, tracer)
        in_gap = run.mdp.initial in (run.gap or ())
        completed = steps = 0
        for play in plays:
            at = [step.state for step in play.steps[1:]] + [play.final_state]
            require(all(s in step.belief_after for s, step in zip(at, play.steps)),
                    f"play {play.seed}: the belief lost the true state")
            done = play.outcome is Outcome.TASK_KNOWN_COMPLETE
            require(not (done and in_gap), f"play {play.seed}: completed from a gap node")
            belief = play.steps[-1].belief_after if play.steps else {run.game.initial}
            require(not done or belief <= run.game.goal,
                    f"play {play.seed}: completed outside the goal")
            completed += done
            steps += len(play.steps)
        counts.update({"sim.plays": len(plays), "sim.steps": steps, "sim.completed": completed})
        return counts

    def _oracle(self, game: Game, text: str, tracer, times):
        start = time.perf_counter()
        with tracer.span("job"):
            run = run_stages(text)
            with tracer.span("oracle.brute_force"):
                result = brute_force_win1(run.mdp, cap=game.verdict["cap"])
        times.append((start, time.perf_counter()))
        counts = stage_counts(run, text)
        counts.update({"oracle.assignments": result.assignments_checked,
                       "oracle.classes": result.class_count,
                       "oracle.verdicts": 1})
        check_counts(counts, game.expected)
        self._audit(run, tracer)
        solver = run.report.initial_winning
        require(result.initial_winning == solver, "the solver and brute force disagree")
        require(solver == game.verdict["solver_winning"], "the solver differs from corpus.json")
        require(result.initial_winning == game.verdict["oracle_winning"],
                "brute force differs from corpus.json")
        return counts

    @staticmethod
    def _audit(run: PipelineRun, tracer) -> None:
        with tracer.span("planner.audit"):
            verdict = check_soundness(run.mdp, run.report.strategy)
        require(verdict.ok, f"audit: {verdict.reason}")


def unit_expectations(workload: str) -> dict:
    """Totals every complete pass over a corpus must reach."""
    if workload == "corpus-sweep":
        expect = load_corpus()["soundness"]["expect"]
        return {"planner.win1_nonempty": expect["win1_nonempty"],
                "attacker.gap_nonempty": expect["gap_nonempty"]}
    if workload == "oracle-referee":
        return {"oracle.assignments": GOLDENS["oracle_assignments_per_pass"]}
    return {}


def add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def run_workload(runner: Runner, seconds: float, tracer, probe: SpeedProbe) -> dict:
    """The closed loop.  Whole units -- one arena game, or one pass over a
    corpus -- run while less than ``seconds`` have passed since the start.
    With a tracer, every job runs untraced and then traced, back to back.
    The speed probe runs between jobs, at most every ``probe.EVERY_S``."""
    expect = unit_expectations(runner.workload)
    times: list[tuple[float, float]] = []
    traced_times: list[tuple[float, float]] = []
    units: list[dict] = []
    traced_units: list[dict] = []
    paired: list[tuple[slice, slice]] = []  # a complete unit's jobs, untraced and traced
    start = time.perf_counter()
    unit = 0
    while unit == 0 or time.perf_counter() - start < seconds:
        plain: dict = {}
        traced: dict = {}
        first_job = len(times), len(traced_times)
        complete = True
        for game in runner.games:
            where = f"unit {unit} game {game.key}"
            probe.tick()
            got = runner.checked(where, lambda: runner.job(game, unit, NO_TRACER, times))
            complete = complete and got is not None
            if got is None:
                continue
            add_counts(plain, got)
            if tracer is None:
                continue
            probe.tick()
            again = runner.checked(where + " traced",
                                   lambda: runner.job(game, unit, tracer, traced_times))
            complete = complete and again is not None
            if again is None:
                continue
            add_counts(traced, again)
            runner.checked(where + " traced counts", lambda: check_counts(again, got))
        if complete:
            runner.checked(f"unit {unit} totals", lambda: check_counts(plain, expect))
            pairs = [(units, plain)] + ([(traced_units, traced)] if tracer else [])
            for kept, now in pairs:
                if kept:
                    runner.checked(f"unit {unit} repeat", lambda: check_counts(now, kept[0]))
                kept.append(now)
            if tracer is not None:
                paired.append((slice(first_job[0], len(times)),
                               slice(first_job[1], len(traced_times))))
        unit += 1
    probe.probe()  # so the last job has probes after it too

    def scaled(spans):
        return [probe.scaled(*span) for span in spans]

    overheads = []
    for plain_jobs, traced_jobs in paired:
        plain_s = sum(scaled(times[plain_jobs]))
        overheads.append((sum(scaled(traced_times[traced_jobs])) - plain_s) / plain_s)
    return {
        "times": scaled(times),
        "wall_times": [end - begin for begin, end in times],
        "units": units,
        "traced_units": traced_units,
        "overheads": overheads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def verify(runner: Runner, traced: bool) -> None:
    """Untimed checks after the loop: the bundled figures' golden digests
    and, for the arenas, the audit of the published document."""
    for name in BUNDLED_GAMES:
        def figure(name=name):
            out = run_pipeline(bundled_game_text(name)).to_json()
            require(hashlib.sha256(out.encode()).hexdigest() == GOLDENS["figures"][name],
                    "document differs from the golden digest")
        runner.checked(f"figure {name}", figure)
    if traced:
        return  # traced arena jobs audit their own documents
    for game in runner.games:
        if game.key in runner.documents:
            runner.checked(f"audit {game.key}",
                           lambda: audit_document(json.loads(runner.documents[game.key]),
                                                  game.text))


# --- metrics --------------------------------------------------------------

LAYER_TIMES = ("specfile.parse", "game.validate", "belief.expand", "planner.solve_p1",
               "planner.audit", "attacker.build", "attacker.solve", "attacker.gap",
               "pipeline.document", "oracle.brute_force", "sim.simulate")
LAYER_COUNTS = {
    "specfile.input_bytes": "bytes",
    "belief.nodes": "count",
    "belief.classes": "count",
    "belief.edges": "count",
    "planner.rounds": "count",
    "planner.removals": "count",
    "planner.win1": "count",
    "attacker.edges": "count",
    "attacker.win2": "count",
    "pipeline.json_bytes": "bytes",
    "oracle.assignments": "count",
    "oracle.classes": "count",
    "sim.plays": "count",
    "sim.steps": "count",
}


def end_to_end_metrics(result: dict) -> dict:
    """Job times here are scaled to the probe's nominal speed."""
    times = result["times"]
    return {
        "games_per_s": (len(times) / sum(times), "1/s"),
        "game_p50_ms": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def layer_metrics(result: dict, tracer: Tracer, probe: SpeedProbe) -> dict:
    """Per unit of work: the median self time of each layer's calls, scaled
    like the job times, and the counts, which every unit repeats exactly."""
    per_unit: dict = {}
    for (name, start, end, _parent, unit), self_time in zip(tracer.spans, tracer.self_times()):
        per_unit.setdefault(name, {}).setdefault(unit, 0.0)
        per_unit[name][unit] += self_time * probe.scale(start, end)
    metrics = {f"{name}_s": (statistics.median(per_unit[name].values())
                             if name in per_unit else 0.0, "s")
               for name in LAYER_TIMES}
    counts = result["traced_units"][0] if result["traced_units"] else {}
    metrics.update({name: (counts.get(name, 0), unit) for name, unit in LAYER_COUNTS.items()})
    verdicts = counts.get("oracle.verdicts", 0)
    metrics["oracle.assignments_per_verdict"] = (
        counts.get("oracle.assignments", 0) / verdicts if verdicts else 0.0, "ratio")
    plays = counts.get("sim.plays", 0)
    metrics["sim.completed_ratio"] = (
        counts.get("sim.completed", 0) / plays if plays else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(result["overheads"])
                                       if result["overheads"] else 0.0, "ratio")
    return metrics


def write_trace(tracer: Tracer, workload: str, seed: int) -> Path:
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "unit"],
                                "spans": tracer.spans}))
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description="One workload of the sensorgames benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--arena", help="STATES:SEED, an arena game other than the workload's")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.arena and args.workload not in ARENAS:
        ap.error("--arena needs an arena workload")

    games = build_inputs(args.workload, args.arena)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(args.workload, args.seed, games)
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    result = run_workload(runner, args.seconds, tracer, probe)
    verify(runner, tracer is not None)
    if not result["times"]:
        print("no job ran to the end, so there is nothing to report", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end_metrics(result)
        trace_path = None
    else:
        metrics = layer_metrics(result, tracer, probe)
        trace_path = str(write_trace(tracer, args.workload, args.seed).relative_to(ROOT))
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "jobs": len(result["times"]),
        "p90_ms": (statistics.quantiles(result["times"], n=10, method="inclusive")[-1] * 1000
                   if len(result["times"]) > 1 else None),
        "units": len(result["units"]),
        "wall_games_per_s": len(result["wall_times"]) / sum(result["wall_times"]),
        "wall_p50_ms": statistics.median(result["wall_times"]) * 1000,
        "probes": len(probe.times),
        "probe_p50_ms": statistics.median(probe.times) * 1000,
        "trace_file": trace_path,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
