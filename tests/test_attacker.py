"""Jammer-side solving: the safety game over the agent's winning region.

Every jammer game here is checked by `conftest.check_jammer_game`,
which holds its strategy to `conftest.attractor_win2` and
`conftest.rounds_win2`; on the shared inputs, run once through the
checker by the `jammer_groups` fixture, its Win2 is also checked by
`conftest.brute_force_win2` where the enumeration is small.  The
random games go through every stage checker (`conftest.check_stages`).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from sensorgames import build_attacker_mdp, deception_gap, solve_p2_safety
from sensorgames.belief import FINAL, node_key, node_label
from sensorgames.dot import export_attacker_dot
from sensorgames.pipeline import run_stages

from .conftest import (bnode, brute_force_win2, check_jammer_game, check_stages, jammer_trans,
                       rounds_win2)
from .inputs import JAMMER_WIN_SEEDS, attack_subset_runs, case_run, corpus_runs, jammer_win_runs
from .strategies import generated_games, per_state_attack_games

CASES = ["fig1", "fig1_noattack", "fig1_nosense", "fig4", "enabled-attacks"]


def test_fig4_attacker_moves_exact(fig4):
    g, adv = fig4.game, fig4.attacker
    trans = jammer_trans(adv)

    def succ_labels(state, belief, attack):
        node = bnode(g, state, belief)
        succs = trans[node][g.attack(attack)]
        return sorted(
            "COMPLETE" if s is FINAL else node_label(g, s)
            for s in succs)

    # Jamming the s1-detector keeps the belief merged.
    assert succ_labels("s0", ["s0"], "beta0") == ["(s0,{s0,s1})", "(s1,{s0,s1})"]
    # Any other attack lets the agent re-separate.
    for attack in ("beta1", "beta2", "none"):
        assert succ_labels("s0", ["s0"], attack) == ["(s0,{s0})", "(s1,{s1})"]
    # Once the agent knows she is at s1, her strategy may finish at once.
    for attack in ("beta0", "beta1", "beta2", "none"):
        assert succ_labels("s1", ["s1"], attack) == ["(s0,{s0})", "COMPLETE"]
    # At (s1,{s0,s1}) only the shuffle is kept, so landing is s0 alone.
    assert succ_labels("s1", ["s0", "s1"], "beta0") == ["(s0,{s0,s1})"]
    assert succ_labels("s1", ["s0", "s1"], "none") == ["(s0,{s0})"]


def test_fig4_win2_and_gap(fig4):
    g = fig4.game
    expected = {
        bnode(g, "s0", ["s0"]),
        bnode(g, "s0", ["s0", "s1"]),
        bnode(g, "s1", ["s0", "s1"]),
    }
    assert list(fig4.attack_strategy.items()) == [
        (q, g.attack("beta0")) for q in sorted(expected, key=node_key)]


def test_fig4_win2_excludes_the_revealing_node(fig4):
    g = fig4.game
    # At (s1,{s1}) every attack fires a completion edge, so the jammer
    # cannot hold the play there.
    assert bnode(g, "s1", ["s1"]) not in fig4.attack_strategy


def test_fig1_attacker_loses_everywhere(fig1):
    assert fig1.attack_strategy == {}


def test_empty_win1_gives_the_empty_game(fig1_nosense):
    # The build is total: on an empty Win1 it gives the empty game, and
    # the pipeline still builds no jammer game there.
    attacker = build_attacker_mdp(fig1_nosense.report)
    assert attacker.nodes == () and attacker.trans == {}
    assert solve_p2_safety(attacker) == (frozenset(), {})
    assert fig1_nosense.attacker is None and fig1_nosense.attack_strategy is None


def test_perfbench_names_alias_the_strategy():
    # The benchmark reads the jammer's result as ``run.gap``, ``run.win2``
    # and through `deception_gap`; every other reader uses
    # ``run.attack_strategy``.  The three stay its aliases.
    for case in CASES:
        run = case_run(case)
        strategy = run.attack_strategy
        assert run.gap is strategy, case
        if strategy is None:
            assert run.win2 is None, case
        else:
            assert run.win2 == frozenset(strategy), case
            assert deception_gap(strategy) is strategy, case
    assert case_run("fig1_nosense").attack_strategy is None


# (seed, |Win1|, |Win2|) of each game of `jammer_win_runs`.
JAMMER_WINS = [
    (210, 72, 20), (221, 157, 2), (265, 75, 8), (270, 130, 76), (285, 107, 24),
    (289, 51, 24), (298, 85, 6), (308, 66, 38), (332, 163, 36), (343, 71, 18),
    (352, 8, 2), (371, 161, 26), (430, 39, 11), (433, 81, 22), (434, 40, 24),
    (456, 22, 8), (480, 104, 7), (485, 16, 8), (490, 68, 36), (507, 86, 9),
    (523, 92, 34), (612, 83, 28), (634, 69, 6), (644, 121, 74), (656, 108, 15),
    (661, 139, 105), (669, 45, 8), (675, 64, 35), (677, 94, 2), (705, 113, 1),
    (730, 94, 30), (732, 54, 17), (733, 93, 77), (735, 24, 5), (750, 56, 22),
    (758, 35, 25), (762, 47, 5), (780, 12, 5), (785, 121, 30), (829, 61, 38),
]


@pytest.fixture(scope="module")
def jammer_groups():
    """Each group of shared inputs, the checker run once on every game
    of it, and `brute_force_win2` on every reference the checker
    returns: the runs, per group the count of games whose agent wins
    somewhere and of those whose jammer does, and the count of games
    within the referee's cap and of those with a nonempty Win2."""
    groups = {"cases": [case_run(case) for case in CASES],
              "soundness": corpus_runs("soundness"),
              "jammer-win": jammer_win_runs(),
              "attack-subset": attack_subset_runs(),
              "rungs": [case_run(rung) for rung in ((10, 4, 9), (14, 5, 7))]}
    counts, checked, won = {}, 0, 0
    for group, runs in groups.items():
        wins = []
        for i, run in enumerate(runs):
            name, strategy = f"{group} {i}", run.attack_strategy
            reference = check_jammer_game(name, run.report, run.attacker, strategy)
            if reference is not None:
                wins.append(bool(strategy))
                if (win2 := brute_force_win2(run.game, reference)) is not None:
                    assert win2 == set(strategy), name
                    checked, won = checked + 1, won + bool(win2)
        counts[group] = (len(wins), sum(wins))
    return groups, counts, (checked, won)


def test_jammer_checker_on_cases(jammer_groups):
    # fig4 and enabled-attacks are the cases whose jammer wins somewhere.
    assert [case for case, run in zip(CASES, jammer_groups[0]["cases"]) if run.attack_strategy] == [
        "fig4", "enabled-attacks"]


def test_jammer_win_block(jammer_groups):
    # Only 16 soundness games have a nonempty Win2; this block is 40
    # more, each put through the checker.
    assert [(seed, len(run.report.win), len(run.attack_strategy))
            for seed, run in zip(JAMMER_WIN_SEEDS, jammer_groups[0]["jammer-win"])] == JAMMER_WINS


def test_strategy_equals_attractor(jammer_groups):
    # The checker holds each strategy to the attractor reference, which
    # shows Win2 is the largest trap, and to the round-based fixpoint,
    # strategy and order: (299, 60) games in all.  enabled-attacks has 5
    # nodes offered no attack and 12 goal-state nodes, each a seed of
    # the attractor's worklist.
    groups, counts, _ = jammer_groups
    assert counts == {"cases": (4, 2), "soundness": (180, 16), "jammer-win": (40, 40),
                      "attack-subset": (73, 0), "rungs": (2, 2)}
    assert len(groups["rungs"][1].attack_strategy) == 91
    adv = case_run("enabled-attacks").attacker
    assert sum(not mask for mask in adv.offered) == 5
    assert sum(q.state in adv.game.goal for q in adv.nodes) == 12


def test_win2_equals_brute_force(jammer_groups):
    # Every jammer game of these inputs whose enumeration stays within
    # the referee's cap: 179 of them, 5 with a nonempty Win2.
    assert jammer_groups[2] == (179, 5)


@settings(max_examples=40, deadline=None)
@given(generated_games(n_actions=2, n_queries=2))
def test_attacker_invariants_random(game):
    check_stages(game)


@settings(max_examples=40, deadline=None)
@given(per_state_attack_games())
def test_attacker_invariants_per_state_attacks(game):
    check_stages(game)


def test_goal_state_nodes_never_win(fig4):
    # A node at a goal state is lost to the jammer even where an attack
    # keeps the play inside Win2.  The generated games' goal states are
    # absorbing, so their goal-state nodes reach `FINAL` anyway; marking
    # a state of fig4's Win2 as goal makes nodes that do not.
    adv = fig4.attacker
    for s in sorted({q.state for q in fig4.attack_strategy}):
        marked = replace(adv, game=replace(adv.game, goal=adv.game.goal | {s}))
        win2, strategy = solve_p2_safety(marked)
        assert all(q.state != s for q in win2), s
        assert list(strategy.items()) == list(rounds_win2(marked).items()), s


def test_stages_never_build_the_jammer_view(fig4_text):
    # The stages and the jammer DOT read the stored ints; ``trans`` is
    # built only on a read.
    run = run_stages(fig4_text)
    assert "trans" not in vars(run.attacker)
    export_attacker_dot(run.attacker, run.attack_strategy)
    assert "trans" not in vars(run.attacker)
    assert run.attacker.trans is vars(run.attacker)["trans"]
