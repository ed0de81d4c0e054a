"""Random arenas, and a brute-force referee for the solver.

The generator builds a seeded arena: random transitions, random sensor
coverage, random query and attack subsets, goal states made absorbing.
The same seed always yields the same arena, so any seed that exposes a
bug is a permanent regression test.

The brute-force referee enumerates whole multi-strategies (one move
subset per observation class), refutes whole blocks of them at once
where a node every completion reaches cannot finish, and reports
whether ANY of them wins from the start.  It is exponential in
the class count, so it only referees small arenas, but within its cap
it is an independent second opinion on the elimination solver.
"""

from dataclasses import replace

from sensorgames import (
    CapExceededError,
    GeneratorParams,
    brute_force_win1,
    build_belief_mdp,
    generate_spec,
    run_stages,
    serialize_spec,
    solve_p1,
    validate_game,
)

params = GeneratorParams(
    n_states=4, n_actions=2, n_sensors=2, n_queries=2,
    n_attacks=3, max_support=2, goal_fraction=0.25, seed=23,
)

doc = generate_spec(params)
text = serialize_spec(doc)
print("a generated arena (seed 23):")
print()
for line in text.splitlines():
    print(f"    {line}")
print()

# Same seed, same bytes: regressions stay reproducible.
assert serialize_spec(generate_spec(params)) == text
print("generating again with seed 23 yields byte-identical text.")
print()

game = validate_game(doc)
print("validation: clean" if not game.warnings
      else f"validation: {len(game.warnings)} warnings")

mdp = build_belief_mdp(game)
report = solve_p1(mdp)
verdict = "winning" if report.initial_winning else "losing"
print(f"solver: start node {verdict}, "
      f"{len(report.win)} of {len(mdp.nodes)} nodes winning")

oracle = brute_force_win1(mdp)
print(f"referee: start node "
      f"{'winning' if oracle.initial_winning else 'losing'} "
      f"({oracle.assignments_checked} assignments over "
      f"{oracle.class_count} classes)")
assert oracle.initial_winning == report.initial_winning
print("solver and referee agree.")
print()

# A seed sweep: the referee shadows the solver across many arenas.
# Arenas whose class structure would blow the assignment cap are
# skipped rather than guessed at; the refusal is loud on purpose.
print("sweep over seeds 0..19:")
agreements = skipped = 0
for seed in range(20):
    run = run_stages(serialize_spec(generate_spec(replace(params, seed=seed))))
    solver_says = run.report.initial_winning
    mark = "win " if solver_says else "loss"
    try:
        referee_says = brute_force_win1(run.mdp).initial_winning
    except CapExceededError as refusal:
        skipped += 1
        print(f"  seed {seed:2d}: {mark}  (referee declined: {refusal})")
        continue
    assert solver_says == referee_says
    agreements += 1
    print(f"  seed {seed:2d}: {mark}  (both agree)")
print(f"{agreements} agreements, {skipped} declined, 0 disagreements.")
