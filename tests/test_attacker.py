"""Jammer-side solving: the safety game over the agent's winning region.

Every jammer game here is checked by `conftest.check_jammer_game`, and
its Win2 by `conftest.brute_force_win2` where the enumeration is small.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgames import (
    EmptyWin1Error,
    build_attacker_mdp,
    build_belief_mdp,
    deception_gap,
    solve_p1,
    solve_p2_safety,
)
from sensorgames.belief import FINAL, node_key, node_label
from sensorgames.game import validate_game
from sensorgames.oracle import GeneratorParams, generate_spec

from .conftest import bnode, brute_force_win2, check_jammer_game, jammer_trans
from .inputs import (
    JAMMER_WIN_SEEDS,
    attack_subset_runs,
    case_run,
    corpus_runs,
    jammer_win_runs,
    per_state_attack_games,
)

CASES = ["fig1", "fig1_noattack", "fig1_nosense", "fig4", "enabled-attacks"]


def test_fig4_attacker_nodes_are_win1(fig4):
    adv, rep = fig4.attacker, fig4.report
    assert set(adv.nodes) == set(rep.win)
    assert adv.nodes == tuple(sorted(rep.win, key=node_key))


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


def test_empty_win1_refused(fig1_nosense):
    with pytest.raises(EmptyWin1Error):
        build_attacker_mdp(fig1_nosense.report)
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


def test_jammer_checker_on_cases():
    for case in CASES:
        run = case_run(case)
        check_jammer_game(case, run.report, run.attacker, run.attack_strategy)
    # fig4 and enabled-attacks are the cases whose jammer wins somewhere.
    assert [case for case in CASES if case_run(case).attack_strategy] == [
        "fig4", "enabled-attacks"]


def check_built(name, game):
    """`check_jammer_game` on the objects the stages build for ``game``."""
    report = solve_p1(build_belief_mdp(game))
    attacker = strategy = None
    if report.win:
        attacker = build_attacker_mdp(report)
        _win2, strategy = solve_p2_safety(attacker)
    check_jammer_game(name, report, attacker, strategy)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_attacker_invariants_random(seed):
    check_built(f"seed {seed}", validate_game(generate_spec(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed))))


@settings(max_examples=25, deadline=None)
@given(per_state_attack_games())
def test_attacker_invariants_per_state_attacks(game):
    check_built("the drawn game", game)


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


def test_jammer_win_block():
    # Only 16 soundness games have a nonempty Win2; this block is 40
    # more, each put through the checker.
    runs = jammer_win_runs()
    assert [(seed, len(run.report.win), len(run.attack_strategy))
            for seed, run in zip(JAMMER_WIN_SEEDS, runs)] == JAMMER_WINS
    for seed, run in zip(JAMMER_WIN_SEEDS, runs):
        check_jammer_game(f"seed {seed}", run.report, run.attacker, run.attack_strategy)


def test_win2_equals_brute_force():
    # Every jammer game of these inputs whose enumeration stays within
    # the referee's cap: 177 of them, 5 with a nonempty Win2.
    runs = {f"attack-subset {k}": run for k, run in enumerate(attack_subset_runs())}
    runs |= {f"soundness {k}": run for k, run in enumerate(corpus_runs("soundness"))}
    runs |= {f"seed {seed}": run for seed, run in zip(JAMMER_WIN_SEEDS, jammer_win_runs())}
    runs |= {case: case_run(case) for case in ("fig4", "enabled-attacks")}
    checked = won = 0
    for name, run in runs.items():
        if run.report.win and (win2 := brute_force_win2(run.report)) is not None:
            assert win2 == set(run.attack_strategy), name
            checked, won = checked + 1, won + bool(win2)
    assert checked >= 150 and won >= 5, (checked, won)
