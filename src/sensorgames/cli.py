"""Command-line front end.

Subcommands mirror the analysis stages: validate a game file, solve the
agent side, solve the jammer side, report the deception gap, simulate
plays, cross-check with the brute-force oracle, generate random games,
and export Graphviz views.

Output takes one path.  Each subcommand that reads a game file and
takes ``--format`` builds its two views once -- a callable giving the
canonical JSON (`pipeline.canonical_json`, the writer `ResultDocument`
uses too) and the lines of text -- and hands both, with its verdict, to
`_emit`.  `_emit` writes the view ``--format`` asks for and then holds
the verdict to ``--expect``.  The structured view is built only when
asked for; text lines are printed as they are produced, so `simulate`
reports each run as it ends, before the next run's ``--p2 prompt``
questions.  Under ``--trace``, `simulate` names every step once and both
its views read those names.  `gen-random` and `export-dot` write a game
file and DOT.  `gen-random` has one flag per `GeneratorParams` field,
named after it less ``n_`` and typed and defaulted by it, and
`oracle`'s ``--cap`` defaults to `brute_force_win1`'s ``cap``, so the
flags' defaults are stated once, in `oracle`.

Exit codes: 0 on success, 1 when a verdict requested through --expect
does not hold or the oracle disagrees with the solver, 2 on bad input
(syntax, validation, missing file, a negative ``--runs``,
``--max-steps`` or ``--cap``, oversize oracle enumeration, a simulated
play falling off the strategy or meeting an attack the arena does not
enable, or standard input closing while a prompt waits for an attack).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields
from inspect import signature

from .game import GameValidationError, validate_game
from .oracle import CapExceededError, GeneratorParams, brute_force_win1, generate_spec
from .pipeline import PipelineError, canonical_json, run_pipeline, run_stages
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
    """A game file's text, less a leading UTF-8 byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _emit(args, structured, text, verdict) -> int:
    """Write the view ``--format`` asks for -- ``structured()``, the
    canonical JSON, or the lines of ``text`` one by one as they come --
    then hold ``verdict`` to ``--expect``: 1 when they differ, else 0."""
    if args.format == "structured":
        sys.stdout.write(structured())
    else:
        for line in text:
            print(line)
    if getattr(args, "expect", None) in (None, verdict):
        return 0
    what = " gap" if args.command == "gap" else ""
    print(f"expected {args.expect}{what}, got {verdict}", file=sys.stderr)
    return 1


def _cmd_validate(args) -> int:
    game = validate_game(parse_spec(_read(args.spec)))
    counts = game.counts()
    text = [f"ok: {', '.join(f'{v} {k}' for k, v in counts.items())}",
            *(f"warning: {warning}" for warning in game.warnings)]
    return _emit(args, lambda: canonical_json(
        {"ok": True, "counts": counts, "warnings": list(game.warnings)}), text, None)


def _cmd_solve_p1(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec, include_trace=args.trace)
    verdict = "winning" if doc.initial_winning else "losing"

    def text():
        yield f"verdict: initial node {verdict}"
        yield f"winning nodes: {len(doc.win1)} of {doc.counts['belief_nodes']}"
        for label in doc.win1:
            yield f"  {label}: {' '.join(doc.strategy[label])}"
        if doc.trace is not None:
            yield f"eliminations: {len(doc.trace)}"
            for entry in doc.trace:
                yield (f"  round {entry['round']}: dropped {entry['move']} at "
                       f"{entry['node']} (doomed by {entry['cause']})")

    return _emit(args, doc.to_json, text(), verdict)


def _cmd_solve_p2(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec)
    if doc.win2 is None:
        text = ["agent never wins anywhere; there is no jammer game"]
    else:
        text = [f"jammer winning nodes: {len(doc.win2)} of {len(doc.win1)}",
                *(f"  {label}: {doc.attack_strategy[label]}" for label in doc.win2)]
    return _emit(args, doc.to_json, text, None)


def _cmd_gap(args) -> int:
    doc = run_pipeline(_read(args.spec), source=args.spec)
    gap = doc.gap or []
    text = [f"deception gap: {len(gap)} nodes",
            *(f"  {entry['node']}: {entry['attack']}" for entry in gap)]
    return _emit(args, doc.to_json, text, "nonempty" if gap else "empty")


def _make_p2(args, run):
    if args.p2 == "random":
        return UniformRandomAttack()
    if args.p2 == "table":
        if run.attack_strategy is None:
            raise ValueError("agent never wins anywhere; no attack table to follow")
        return TableAttack(run.attack_strategy)
    if args.p2 == "prompt":
        return PromptAttack()
    if args.p2.startswith("fixed:"):
        return FixedAttack(run.game.attack(args.p2.split(":", 1)[1]))
    raise ValueError(f"unknown attack policy '{args.p2}'")


def _cmd_simulate(args) -> int:
    run = run_stages(_read(args.spec))
    p2 = _make_p2(args, run)
    game = run.game

    def plays():
        """Each run as it ends; under --trace, with its steps named once
        for both views."""
        for seed in range(args.seed, args.seed + args.runs):
            trace = simulate(game, run.report.strategy, p2, args.max_steps, seed)
            yield trace, [
                {"state": game.state_names[step.state],
                 "action": game.action_names[step.action],
                 "query": game.queries[step.query].name,
                 "attack": game.attacks[step.attack].name,
                 "belief": [game.state_names[s] for s in sorted(step.belief_after)]}
                for step in (trace.steps if args.trace else ())]

    def structured():
        done = list(plays())
        counts = Counter(trace.outcome for trace, _ in done)
        payload = {"runs": args.runs, "max_steps": args.max_steps, "seed": args.seed,
                   "outcomes": {o.value: counts[o] for o in Outcome}}
        if args.trace:
            payload["traces"] = [{"seed": trace.seed, "outcome": trace.outcome.value,
                                  "steps": steps} for trace, steps in done]
        return canonical_json(payload)

    def text():
        counts = Counter()
        for i, (trace, steps) in enumerate(plays()):
            counts[trace.outcome] += 1
            yield (f"run {i} (seed {trace.seed}): {trace.outcome.value} "
                   f"after {len(trace.steps)} steps")
            for t, step in enumerate(steps):
                yield (f"  t{t}: {step['state']} --{step['action']}/{step['query']}--> "
                       f"attack {step['attack']}, belief {{{','.join(step['belief'])}}}")
        yield (f"outcomes: {counts[Outcome.TASK_KNOWN_COMPLETE]} complete, "
               f"{counts[Outcome.STEP_LIMIT]} hit the step limit")

    return _emit(args, structured, text(), None)


def _cmd_oracle(args) -> int:
    run = run_stages(_read(args.spec))
    result = brute_force_win1(run.mdp, cap=args.cap)
    solver = run.report.initial_winning
    agree = result.initial_winning == solver
    text = [f"brute force: initial node {'winning' if result.initial_winning else 'losing'} "
            f"({result.assignments_checked} assignments over {result.class_count} classes)",
            f"solver: initial node {'winning' if solver else 'losing'}",
            f"agreement: {'yes' if agree else 'NO'}"]
    _emit(args, lambda: canonical_json({
        "brute_force_winning": result.initial_winning,
        "solver_winning": solver,
        "agree": agree,
        "assignments_checked": result.assignments_checked,
        "classes": result.class_count,
    }), text, None)
    return 0 if agree else 1


def _cmd_gen_random(args) -> int:
    params = GeneratorParams(**{f.name: getattr(args, f.name) for f in fields(GeneratorParams)})
    sys.stdout.write(serialize_spec(generate_spec(params)))
    return 0


def _cmd_export_dot(args) -> int:
    run = run_stages(_read(args.spec))
    if args.graph == "belief":
        sys.stdout.write(export_belief_dot(run.report))
        return 0
    if run.attacker is None:
        print("agent never wins anywhere; there is no jammer game to draw",
              file=sys.stderr)
        return 2
    sys.stdout.write(export_attacker_dot(run.attacker, run.attack_strategy))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorgames",
        description="solvers for reachability games with attackable sensors")
    sub = parser.add_subparsers(dest="command", required=True)

    def reads(name, func, summary, *options):
        """A subcommand that reads a game file and writes either view;
        ``options`` are its own (flag, keywords) pairs."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("spec")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="human-readable text or canonical JSON")
        p.set_defaults(func=func)

    reads("validate", _cmd_validate, "check a game file")
    reads("solve-p1", _cmd_solve_p1, "agent-side winning region and moves",
          ("--trace", dict(action="store_true", help="include the elimination log")),
          ("--expect", dict(choices=("winning", "losing"))))
    reads("solve-p2", _cmd_solve_p2, "jammer-side winning region and attacks")
    reads("gap", _cmd_gap, "nodes where the agent is fooled",
          ("--expect", dict(choices=("empty", "nonempty"))))
    reads("simulate", _cmd_simulate, "play the real arena against a jammer",
          ("--seed", dict(type=int, default=0)),
          ("--max-steps", dict(type=int, default=100)),
          ("--runs", dict(type=int, default=1)),
          ("--p2", dict(default="random", help="random | table | prompt | fixed:NAME")),
          ("--trace", dict(action="store_true", help="print every step")))
    reads("oracle", _cmd_oracle, "brute-force cross-check of the agent verdict",
          ("--cap", dict(type=int, default=signature(brute_force_win1).parameters["cap"].default)))

    p = sub.add_parser("gen-random", help="emit a seeded random game file")
    for f in fields(GeneratorParams):  # n_states gives --states, and so on
        p.add_argument("--" + f.name.removeprefix("n_").replace("_", "-"), dest=f.name,
                       type=type(f.default), default=f.default)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("export-dot", help="Graphviz view of either game")
    p.add_argument("spec")
    p.add_argument("--graph", choices=("belief", "attacker"), default="belief")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Simulate's counts and the oracle's cap are refused below 0.
        for name in ("runs", "max_steps", "cap"):
            value = getattr(args, name, 0)
            if value < 0:
                raise ValueError(f"--{name.replace('_', '-')} must not be negative, got {value}")
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
