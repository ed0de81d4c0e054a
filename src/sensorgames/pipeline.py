"""End-to-end analysis: text in, one reproducible result document out.

The stages run in a fixed order: parse, validate, expand the perceived
game, solve the agent side, and -- whenever the agent wins anywhere --
build the jammer's game and solve it.  The jammer's strategy is one
mapping, whose domain is both Win2 and the deception gap.  Failures
carry the stage they came from.

The document is plain data with one canonical JSON rendering, by
`canonical_json`, which writes the command line's other payloads too.
Ordering is canonical throughout and nothing run-dependent is included
unless explicitly requested (timings), so the same input yields
byte-identical output every run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields

from . import attacker as attacker_mod
from .belief import BeliefMDP, build_belief_mdp, move_label, node_label
from .game import Game, validate_game
from .planner import SolveReport, solve_p1
from .specfile import parse_spec, serialize_spec


class PipelineError(Exception):
    """A stage failed; ``stage`` names it, the cause is chained."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")


@dataclass
class PipelineRun:
    """Everything the pipeline computed, in object form.

    The jammer's result is ``attack_strategy``, one mapping whose domain
    is Win2 and the deception gap; it is None where the agent wins
    nowhere.  ``win2`` (its domain) and ``gap`` (the same mapping) stay
    only because the benchmark in ``perfbench/`` reads them by name;
    every other reader uses ``attack_strategy``."""

    doc: object
    game: Game
    mdp: BeliefMDP
    report: SolveReport
    attacker: "attacker_mod.AttackerMDP | None"
    win2: frozenset | None
    attack_strategy: "attacker_mod.AttackStrategy | None"  # its domain is Win2
    gap: "attacker_mod.AttackStrategy | None"


@dataclass
class ResultDocument:
    """Canonical, JSON-ready summary of one pipeline run."""

    source: str
    digest: str
    counts: dict
    weighted: bool
    warnings: list[str]
    initial_winning: bool
    win1: list[str]
    strategy: dict[str, list[str]]
    win2: list[str] | None
    attack_strategy: dict[str, str] | None
    gap: list[dict] | None
    trace: list[dict] | None
    timings_ms: dict[str, float] | None
    version: int = 1

    def to_json(self) -> str:
        return canonical_json({f.name: getattr(self, f.name) for f in fields(self)})


def canonical_json(payload) -> str:
    """The one JSON writer: two-space indent, sorted keys, a final
    newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _stage(name: str, step, *args):
    """``step(*args)``, with any failure raised as a `PipelineError` of
    stage ``name``."""
    try:
        return step(*args)
    except Exception as e:
        raise PipelineError(name, e) from e


def run_stages(text: str) -> PipelineRun:
    """Run the analysis and keep the intermediate objects.

    The stage functions are looked up at call time, in this module and
    in `attacker_mod`, so a caller may swap them to observe each stage.
    """
    doc = _stage("parse", parse_spec, text)
    game = _stage("validate", validate_game, doc)
    game.masks  # built here, so the expansion's span times the expansion alone
    mdp = _stage("expand", build_belief_mdp, game)
    report = _stage("solve-agent", solve_p1, mdp)
    adversary = win2 = strategy = gap = None
    if report.win:
        adversary = _stage("solve-jammer", attacker_mod.build_attacker_mdp, report)
        win2, strategy = _stage("solve-jammer", attacker_mod.solve_p2_safety, adversary)
        gap = _stage("solve-jammer", attacker_mod.deception_gap, strategy)
    return PipelineRun(
        doc=doc, game=game, mdp=mdp, report=report,
        attacker=adversary, win2=win2, attack_strategy=strategy, gap=gap)


def run_pipeline(
    text: str,
    source: str = "<memory>",
    include_trace: bool = False,
    include_timings: bool = False,
) -> ResultDocument:
    started = time.perf_counter()
    run = run_stages(text)
    digest = hashlib.sha256(serialize_spec(run.doc).encode()).hexdigest()
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    game, report = run.game, run.report
    # One label per Win1 node, in canonical order; every node field but
    # the trace names only these.
    labels = {q: node_label(game, q) for q in run.mdp.nodes if q in report.win}
    strategy = {
        label: [move_label(game, m) for m in sorted(report.strategy.allowed[q])]
        for q, label in labels.items()
    }
    trace = None
    if include_trace:
        trace = [
            {
                "round": r.iteration,
                "node": node_label(game, r.node),
                "move": move_label(game, r.move),
                "cause": node_label(game, r.cause),
            }
            for r in report.trace
        ]
    win2 = attack_strategy = gap = None
    if run.attack_strategy is not None:
        # Win2, the jammer's strategy and the gap are one mapping, in
        # canonical node order.
        attack_strategy = {labels[q]: game.attacks[a].name
                           for q, a in run.attack_strategy.items()}
        win2 = list(attack_strategy)
        gap = [{"node": label, "attack": name} for label, name in attack_strategy.items()]

    counts = {
        **game.counts(),
        "belief_nodes": len(run.mdp.nodes),
        "belief_classes": len(run.mdp.members),
        "win1": len(report.win),
        "win2": None if win2 is None else len(win2),
        "gap": None if gap is None else len(gap),
    }
    return ResultDocument(
        source=source,
        digest=digest,
        counts=counts,
        weighted=game.has_weights,
        warnings=list(game.warnings),
        initial_winning=report.initial_winning,
        win1=list(labels.values()),
        strategy=strategy,
        win2=win2,
        attack_strategy=attack_strategy,
        gap=gap,
        trace=trace,
        timings_ms={"total": round(elapsed_ms, 3)} if include_timings else None,
    )
