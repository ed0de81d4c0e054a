"""Solving the agent's side: where can she be sure of finishing?

The agent treats possible jamming outcomes as ordinary sensor faults
and plans over (state, belief) nodes.  The solver starts from the nodes
that cannot reach completion at all, then repeatedly withdraws any move
that might land in a doomed node -- withdrawing it across the whole
belief class, since the agent cannot tell class members apart.  What
survives is the largest set of moves she can keep while still
completing the task almost surely.
"""

from sensorgames import (
    build_belief_mdp,
    bundled_game_text,
    check_soundness,
    move_label,
    node_label,
    parse_spec,
    solve_p1,
    validate_game,
)


def solve(name):
    game = validate_game(parse_spec(bundled_game_text(name)))
    mdp = build_belief_mdp(game)
    return game, mdp, solve_p1(mdp)


game, mdp, report = solve("fig1")
print(f"perceived game: {len(mdp.nodes)} nodes in {len(mdp.members)} belief classes")
print(f"start node {node_label(game, mdp.initial)} is "
      f"{'winning' if report.initial_winning else 'losing'}")
print(f"winning nodes: {len(report.win)}")
print()

print("moves kept at the start:")
for move in sorted(report.strategy.allowed[mdp.initial]):
    print(f"  {move_label(game, move)}")
print()
print("(a0,sigma0) is gone: under jamming, that query may leave the agent")
print("unable to tell s1 from s2, and guessing wrong falls into the trap.")
print()

# The elimination trace is a replayable log.  Show the first few events.
print("first eliminations:")
for removal in report.trace[:6]:
    print(f"  round {removal.iteration}: dropped {move_label(game, removal.move)} "
          f"at {node_label(game, removal.node)} "
          f"(doomed by {node_label(game, removal.cause)})")
print(f"  ... {len(report.trace)} eliminations total")
print()

# An independent audit: closure plus a completion certificate.
verdict = check_soundness(mdp, report.strategy)
print(f"soundness audit: {verdict.reason}")
print()

# Two control experiments.  Reading nothing loses; with the jammer
# disarmed, even the fragile query is safe to keep.
for name, label in (("fig1_nosense", "no sensing"),
                    ("fig1_noattack", "no attacks")):
    game, mdp, report = solve(name)
    verdict = "winning" if report.initial_winning else "losing"
    print(f"{label:12s} start is {verdict}", end="")
    if report.initial_winning:
        kept = sorted(move_label(game, m) for m in report.strategy.allowed[mdp.initial])
        print(f", keeping {' '.join(kept)}", end="")
    print()
