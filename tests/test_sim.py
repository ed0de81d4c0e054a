"""Play engine: determinism, trace consistency, policy behavior."""

import pytest

from sensorgames import (
    FixedAttack,
    Outcome,
    PromptAttack,
    StrategyGapError,
    TableAttack,
    UniformRandomAttack,
    build_belief_mdp,
    get_observation,
    parse_spec,
    post_belief,
    simulate,
    solve_p1,
    validate_game,
)
from sensorgames.belief import BeliefNode

TRIVIAL = """\
[states]
s0 initial goal

[actions]
a0

[transitions]
s0 a0 -> s0

[sensors]
g0: s0

[queries]
q0: g0

[attacks]
none:
"""


# A three-state line whose jammer may not launch 'jam' at s1.
FORBIDDEN_AT_S1 = """\
[states]
s0 initial
s1
s2 goal

[actions]
a0

[transitions]
s0 a0 -> s1
s1 a0 -> s2
s2 a0 -> s2

[sensors]
g0: s1

[queries]
q0: g0

[attacks]
none:
jam: g0

[enabled-attacks]
s1: none
"""


def replay_consistent(game, strategy, trace):
    """Re-derive every step field from the game rules."""
    belief = frozenset({game.initial})
    state = game.initial
    for i, step in enumerate(trace.steps):
        assert step.state == state
        moves = strategy.for_belief(belief)
        assert (step.action, step.query) in moves
        landed = (trace.steps[i + 1].state
                  if i + 1 < len(trace.steps) else trace.final_state)
        assert landed in game.trans[(state, step.action)]
        assert step.attack in game.enabled_attacks[landed]
        assert step.observation == get_observation(
            game, landed, step.query, step.attack)
        assert step.belief_after == \
            post_belief(game, belief, step.action) & step.observation
        assert landed in step.belief_after
        belief = step.belief_after
        state = landed
    if trace.outcome is Outcome.TASK_KNOWN_COMPLETE:
        assert trace.steps == () or trace.steps[-1].belief_after <= game.goal
    else:
        assert len(trace.steps) > 0
        assert not trace.steps[-1].belief_after <= game.goal


def test_same_seed_same_trace(fig1):
    g, strat = fig1.game, fig1.report.strategy
    a = simulate(g, strat, UniformRandomAttack(), max_steps=80, seed=11)
    b = simulate(g, strat, UniformRandomAttack(), max_steps=80, seed=11)
    assert a == b
    c = simulate(g, strat, UniformRandomAttack(), max_steps=80, seed=12)
    assert a.seed == 11 and c.seed == 12


def test_trace_fields_recomputable(fig1):
    g, strat = fig1.game, fig1.report.strategy
    for seed in range(20):
        trace = simulate(g, strat, UniformRandomAttack(), max_steps=80, seed=seed)
        replay_consistent(g, strat, trace)


def test_winning_strategy_usually_completes(fig1):
    g, strat = fig1.game, fig1.report.strategy
    done = sum(
        simulate(g, strat, UniformRandomAttack(), max_steps=200, seed=s).outcome
        is Outcome.TASK_KNOWN_COMPLETE
        for s in range(50))
    assert done >= 45


def test_fig4_table_attack_starves_the_agent(fig4):
    g, strat = fig4.game, fig4.report.strategy
    jammer = TableAttack(fig4.attack_strategy)
    for seed in range(100):
        trace = simulate(g, strat, jammer, max_steps=100, seed=seed)
        assert trace.outcome is Outcome.STEP_LIMIT
        assert len(trace.steps) == 100
        assert all(g.attacks[s.attack].name == "beta0" for s in trace.steps)


def test_fig4_wrong_attack_lets_the_agent_finish(fig4):
    g, strat = fig4.game, fig4.report.strategy
    jammer = FixedAttack(g.attack("beta1"))
    for seed in range(50):
        trace = simulate(g, strat, jammer, max_steps=200, seed=seed)
        assert trace.outcome is Outcome.TASK_KNOWN_COMPLETE


def test_strategy_gap_is_loud(fig1_nosense):
    g, rep = fig1_nosense.game, fig1_nosense.report
    with pytest.raises(StrategyGapError) as err:
        simulate(g, rep.strategy, UniformRandomAttack(), max_steps=10, seed=0)
    assert err.value.node == BeliefNode(g.initial, frozenset({g.initial}))


def test_disabled_attack_is_refused():
    game = validate_game(parse_spec(FORBIDDEN_AT_S1))
    rep = solve_p1(build_belief_mdp(game))
    with pytest.raises(ValueError, match="'jam' is not enabled at state 's1'"):
        simulate(game, rep.strategy, FixedAttack(game.attack("jam")),
                 max_steps=10, seed=0)


def test_start_inside_goal_ends_immediately():
    game = validate_game(parse_spec(TRIVIAL))
    trace = simulate(game, None, None, max_steps=10, seed=3)
    assert trace.outcome is Outcome.TASK_KNOWN_COMPLETE
    assert trace.steps == () and trace.final_state == game.initial


def test_table_attack_falls_back_off_table(fig4):
    g = fig4.game
    jammer = TableAttack(fig4.attack_strategy)
    off_table = BeliefNode(g.state("s2"), g.state_set(["s2"]))
    chosen = jammer.choose(None, g, off_table, (0, 0), g.state("s2"))
    assert chosen == min(g.enabled_attacks[g.state("s2")])


def test_prompt_attack_reprompts_until_valid(fig4):
    g = fig4.game
    answers = iter(["bogus", " beta2 "])
    jammer = PromptAttack(g, ask=lambda prompt: next(answers))
    att = jammer.choose(None, g, None, None, g.state("s0"))
    assert att == g.attack("beta2")


def test_weighted_arena_respects_weights():
    # A 0.999 self-loop should almost never release the play in five
    # steps; uniform sampling over the two successors would finish
    # about 97% of the time.
    text = TRIVIAL.replace("s0 initial goal", "s0 initial\nsink goal").replace(
        "s0 a0 -> s0", "s0 a0 -> s0:0.999 sink:0.001\nsink a0 -> sink")
    game = validate_game(parse_spec(text))
    assert game.has_weights
    rep = solve_p1(build_belief_mdp(game))
    hits = sum(
        simulate(game, rep.strategy, UniformRandomAttack(),
                 max_steps=5, seed=s).outcome is Outcome.TASK_KNOWN_COMPLETE
        for s in range(40))
    assert hits <= 2
