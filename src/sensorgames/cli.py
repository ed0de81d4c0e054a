"""Command-line front end.

Subcommands mirror the analysis stages: validate a game file, solve the
agent side, solve the jammer side, report the deception gap, simulate
plays, cross-check with the brute-force oracle, generate random games,
and export Graphviz views.

Exit codes: 0 on success, 1 when a verdict requested through --expect
does not hold, 2 on bad input (syntax, validation, missing file,
oversize oracle enumeration, a simulated play falling off the
strategy or meeting an attack the arena does not enable, or standard
input closing while a prompt waits for an attack).
"""

from __future__ import annotations

import argparse
import json
import sys

from .game import GameValidationError, validate_game
from .oracle import CapExceededError, GeneratorParams, brute_force_win1, generate_spec
from .pipeline import PipelineError, run_pipeline, run_stages
from .dot import export_attacker_dot, export_belief_dot
from .sim import (
    FixedAttack,
    Outcome,
    PromptAttack,
    StrategyGapError,
    TableAttack,
    UniformRandomAttack,
    simulate,
)
from .specfile import SpecParseError, parse_spec, serialize_spec


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_validate(args) -> int:
    game = validate_game(parse_spec(_read(args.spec)))
    counts = game.counts()
    if args.format == "structured":
        _print_json({"ok": True, "counts": counts, "warnings": list(game.warnings)})
    else:
        summary = ", ".join(f"{v} {k}" for k, v in counts.items())
        print(f"ok: {summary}")
        for warning in game.warnings:
            print(f"warning: {warning}")
    return 0


def _cmd_solve_p1(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec, include_trace=args.trace)
    if args.format == "structured":
        sys.stdout.write(doc.to_json())
    else:
        print(f"verdict: initial node {'winning' if doc.initial_winning else 'losing'}")
        print(f"winning nodes: {len(doc.win1)} of {doc.counts['belief_nodes']}")
        for label in doc.win1:
            print(f"  {label}: {' '.join(doc.strategy[label])}")
        if args.trace and doc.trace is not None:
            print(f"eliminations: {len(doc.trace)}")
            for entry in doc.trace:
                print(f"  round {entry['round']}: dropped {entry['move']} at "
                      f"{entry['node']} (doomed by {entry['cause']})")
    if args.expect:
        actual = "winning" if doc.initial_winning else "losing"
        if actual != args.expect:
            print(f"expected {args.expect}, got {actual}", file=sys.stderr)
            return 1
    return 0


def _cmd_solve_p2(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec)
    if args.format == "structured":
        sys.stdout.write(doc.to_json())
        return 0
    if doc.win2 is None:
        print("agent never wins anywhere; there is no jammer game")
        return 0
    print(f"jammer winning nodes: {len(doc.win2)} of {len(doc.win1)}")
    for label in doc.win2:
        print(f"  {label}: {doc.attack_strategy[label]}")
    return 0


def _cmd_gap(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec)
    gap = doc.gap or []
    if args.format == "structured":
        sys.stdout.write(doc.to_json())
    else:
        print(f"deception gap: {len(gap)} nodes")
        for entry in gap:
            print(f"  {entry['node']}: {entry['attack']}")
    if args.expect:
        actual = "nonempty" if gap else "empty"
        if actual != args.expect:
            print(f"expected {args.expect} gap, got {actual}", file=sys.stderr)
            return 1
    return 0


def _make_p2(args, run):
    name = args.p2
    if name == "random":
        return UniformRandomAttack()
    if name == "table":
        if run.attack_strategy is None:
            raise ValueError("agent never wins anywhere; no attack table to follow")
        return TableAttack(run.attack_strategy)
    if name == "prompt":
        return PromptAttack()
    if name.startswith("fixed:"):
        return FixedAttack(run.game.attack(name.split(":", 1)[1]))
    raise ValueError(f"unknown attack policy '{name}'")


def _cmd_simulate(args) -> int:
    run = run_stages(_read(args.spec))
    p2 = _make_p2(args, run)
    game = run.game
    outcomes = {Outcome.TASK_KNOWN_COMPLETE: 0, Outcome.STEP_LIMIT: 0}
    records = []
    for i in range(args.runs):
        trace = simulate(game, run.report.strategy, p2, args.max_steps, args.seed + i)
        outcomes[trace.outcome] += 1
        records.append(trace)
        if args.format == "text":
            print(f"run {i} (seed {trace.seed}): {trace.outcome.value} "
                  f"after {len(trace.steps)} steps")
            if args.trace:
                for t, step in enumerate(trace.steps):
                    belief = ",".join(game.state_names[s] for s in sorted(step.belief_after))
                    print(f"  t{t}: {game.state_names[step.state]} "
                          f"--{game.action_names[step.action]}/"
                          f"{game.queries[step.query].name}--> "
                          f"attack {game.attacks[step.attack].name}, "
                          f"belief {{{belief}}}")
    if args.format == "structured":
        payload = {
            "runs": args.runs,
            "max_steps": args.max_steps,
            "seed": args.seed,
            "outcomes": {o.value: n for o, n in outcomes.items()},
        }
        if args.trace:
            payload["traces"] = [
                {
                    "seed": tr.seed,
                    "outcome": tr.outcome.value,
                    "steps": [
                        {
                            "state": game.state_names[s.state],
                            "action": game.action_names[s.action],
                            "query": game.queries[s.query].name,
                            "attack": game.attacks[s.attack].name,
                            "belief": [game.state_names[b]
                                       for b in sorted(s.belief_after)],
                        }
                        for s in tr.steps
                    ],
                }
                for tr in records
            ]
        _print_json(payload)
    else:
        print(f"outcomes: {outcomes[Outcome.TASK_KNOWN_COMPLETE]} complete, "
              f"{outcomes[Outcome.STEP_LIMIT]} hit the step limit")
    return 0


def _cmd_oracle(args) -> int:
    run = run_stages(_read(args.spec))
    result = brute_force_win1(run.mdp, cap=args.cap)
    solver = run.report.initial_winning
    agree = result.initial_winning == solver
    if args.format == "structured":
        _print_json({
            "brute_force_winning": result.initial_winning,
            "solver_winning": solver,
            "agree": agree,
            "assignments_checked": result.assignments_checked,
            "classes": result.class_count,
        })
    else:
        print(f"brute force: initial node "
              f"{'winning' if result.initial_winning else 'losing'} "
              f"({result.assignments_checked} assignments over "
              f"{result.class_count} classes)")
        print(f"solver: initial node {'winning' if solver else 'losing'}")
        print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


def _cmd_gen_random(args) -> int:
    params = GeneratorParams(
        n_states=args.states,
        n_actions=args.actions,
        n_sensors=args.sensors,
        n_queries=args.queries,
        n_attacks=args.attacks,
        max_support=args.max_support,
        goal_fraction=args.goal_fraction,
        seed=args.seed,
    )
    sys.stdout.write(serialize_spec(generate_spec(params)))
    return 0


def _cmd_export_dot(args) -> int:
    run = run_stages(_read(args.spec))
    if args.graph == "belief":
        sys.stdout.write(export_belief_dot(run.mdp, shade=run.report.win))
        return 0
    if run.attacker is None:
        print("agent never wins anywhere; there is no jammer game to draw",
              file=sys.stderr)
        return 2
    sys.stdout.write(export_attacker_dot(
        run.attacker, shade=run.win2 or frozenset(), strategy=run.attack_strategy))
    return 0


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="human-readable text or canonical JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorgames",
        description="solvers for reachability games with attackable sensors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file")
    p.add_argument("spec")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve-p1", help="agent-side winning region and moves")
    p.add_argument("spec")
    p.add_argument("--trace", action="store_true", help="include the elimination log")
    p.add_argument("--expect", choices=("winning", "losing"))
    _add_format(p)
    p.set_defaults(func=_cmd_solve_p1)

    p = sub.add_parser("solve-p2", help="jammer-side winning region and attacks")
    p.add_argument("spec")
    _add_format(p)
    p.set_defaults(func=_cmd_solve_p2)

    p = sub.add_parser("gap", help="nodes where the agent is fooled")
    p.add_argument("spec")
    p.add_argument("--expect", choices=("empty", "nonempty"))
    _add_format(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("simulate", help="play the real arena against a jammer")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--p2", default="random",
                   help="random | table | prompt | fixed:NAME")
    p.add_argument("--trace", action="store_true", help="print every step")
    _add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force cross-check of the agent verdict")
    p.add_argument("spec")
    p.add_argument("--cap", type=int, default=1_000_000)
    _add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-random", help="emit a seeded random game file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--sensors", type=int, default=2)
    p.add_argument("--queries", type=int, default=2)
    p.add_argument("--attacks", type=int, default=3)
    p.add_argument("--max-support", type=int, default=2)
    p.add_argument("--goal-fraction", type=float, default=0.25)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("export-dot", help="Graphviz view of either game")
    p.add_argument("spec")
    p.add_argument("--graph", choices=("belief", "attacker"), default="belief")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, SpecParseError, GameValidationError, CapExceededError,
            StrategyGapError, EOFError, OSError, ValueError) as e:
        prefix, cause = "error", e
        if isinstance(e, PipelineError):
            prefix, cause = f"error [{e.stage}]", e.cause
        for line in getattr(cause, "diagnostics", getattr(cause, "issues", (cause,))):
            print(f"{prefix}: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
