"""Jammer-side solving: the safety game over the agent's winning region."""

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
from sensorgames.belief import FINAL, BeliefNode, node_key, node_label
from sensorgames.game import get_observation
from sensorgames.oracle import GeneratorParams, generate_game

from .conftest import bnode, gap_audit_failure, jammer_trans
from .inputs import JAMMER_WIN_SEEDS, jammer_win_runs, per_state_attack_games


def reference_successors(game, report, node, attacks):
    """The jammer's successors under each of ``attacks``, recomputed from
    the observation rule.

    Each kept move either finishes the task (the support touches the
    goal) or lands in a non-goal successor state, where the jammed
    observation filters the action image of the belief.  It reads
    ``trans`` and `get_observation`, never the game's mask tables.
    """
    out = {attack: set() for attack in attacks}
    for action, query in report.strategy.allowed[node]:
        support = frozenset(game.trans[(node.state, action)])
        image = frozenset().union(*(game.trans[(s, action)] for s in node.belief))
        for attack, succs in out.items():
            if support & game.goal:
                succs.add(FINAL)
            for s2 in support - game.goal:
                succs.add(BeliefNode(s2, image & get_observation(game, s2, query, attack)))
    return out


def assert_matches_reference(game, report, adv):
    trans = jammer_trans(adv)
    for node in adv.nodes:
        landing = set()
        for action, _query in report.strategy.allowed[node]:
            landing |= game.trans[(node.state, action)].keys() - game.goal
        offered = tuple(att for att in range(len(game.attacks))
                        if all(att in game.enabled_attacks[s] for s in landing))
        assert tuple(trans[node]) == offered
        assert trans[node] == reference_successors(game, report, node, offered)


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
    assert_matches_reference(g, fig4.report, adv)


def test_fig4_win2_and_gap(fig4):
    g = fig4.game
    win2, strategy = fig4.win2, fig4.attack_strategy
    expected = {
        bnode(g, "s0", ["s0"]),
        bnode(g, "s0", ["s0", "s1"]),
        bnode(g, "s1", ["s0", "s1"]),
    }
    assert win2 == frozenset(expected)
    assert set(strategy) == expected
    assert all(g.attacks[a].name == "beta0" for a in strategy.values())
    assert fig4.gap == {q: g.attack("beta0") for q in sorted(expected, key=node_key)}


def test_fig4_win2_excludes_the_revealing_node(fig4):
    g = fig4.game
    # At (s1,{s1}) every attack fires a completion edge, so the jammer
    # cannot hold the play there.
    assert bnode(g, "s1", ["s1"]) not in fig4.win2


def test_fig1_attacker_loses_everywhere(fig1):
    assert fig1.win2 == frozenset()
    assert fig1.attack_strategy == {}
    assert fig1.gap == {}


def test_attacks_offered_only_where_enabled_everywhere(fig4):
    g, adv = fig4.game, fig4.attacker
    trans = jammer_trans(adv)
    for node in adv.nodes:
        moves = fig4.report.strategy.allowed[node]
        landing = set()
        for action, _query in moves:
            landing |= g.trans[(node.state, action)].keys() - g.goal
        for att in tuple(trans[node]):
            assert all(att in g.enabled_attacks[s] for s in landing)


def test_attacker_game_closed_over_win1(fig4):
    adv = fig4.attacker
    trans = jammer_trans(adv)
    inside = set(adv.nodes)
    for node in adv.nodes:
        for att in tuple(trans[node]):
            for succ in trans[node][att]:
                assert succ is FINAL or succ in inside


def test_win2_one_step_verification(fig4):
    adv, win2, strategy = fig4.attacker, fig4.win2, fig4.attack_strategy
    trans = jammer_trans(adv)
    for node in win2:
        att = strategy[node]
        succs = trans[node][att]
        assert FINAL not in succs
        assert all(s in win2 for s in succs)


def test_win2_is_the_greatest_fixpoint(fig4):
    # No node outside Win2 has any attack keeping the play safe.
    adv, win2 = fig4.attacker, fig4.win2
    trans = jammer_trans(adv)
    for node in set(adv.nodes) - win2:
        for att in tuple(trans[node]):
            succs = trans[node][att]
            assert FINAL in succs or any(s not in win2 for s in succs)


def test_witness_attack_is_lowest_id(fig4):
    adv, win2, strategy = fig4.attacker, fig4.win2, fig4.attack_strategy
    trans = jammer_trans(adv)
    for node in win2:
        chosen = strategy[node]
        for att in tuple(trans[node]):
            if att >= chosen:
                break
            succs = trans[node][att]
            assert FINAL in succs or any(s not in win2 for s in succs)


def test_empty_win1_refused(fig1_nosense):
    with pytest.raises(EmptyWin1Error):
        build_attacker_mdp(fig1_nosense.report)
    assert fig1_nosense.attacker is None
    assert fig1_nosense.win2 is None and fig1_nosense.gap is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_attacker_invariants_random(seed):
    assert_attacker_invariants(generate_game(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed)))


@settings(max_examples=25, deadline=None)
@given(per_state_attack_games())
def test_attacker_invariants_per_state_attacks(game):
    assert_attacker_invariants(game)


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
    # more, each checked against the reference successors and audited
    # as a trap.
    runs = jammer_win_runs()
    assert [(seed, len(run.report.win), len(run.win2))
            for seed, run in zip(JAMMER_WIN_SEEDS, runs)] == JAMMER_WINS
    for seed, run in zip(JAMMER_WIN_SEEDS, runs):
        assert_attacker_invariants(run.game)
        assert gap_audit_failure(
            run.game, run.report.strategy, run.attack_strategy, run.gap) is None, seed


def assert_attacker_invariants(game):
    mdp = build_belief_mdp(game)
    rep = solve_p1(mdp)
    if not rep.win:
        return
    adv = build_attacker_mdp(rep)
    assert_matches_reference(game, rep, adv)
    win2, strategy = solve_p2_safety(adv)
    trans = jammer_trans(adv)
    inside = set(adv.nodes)
    for node in adv.nodes:
        for att in tuple(trans[node]):
            for succ in trans[node][att]:
                assert succ is FINAL or succ in inside
    for node in win2:
        succs = trans[node][strategy[node]]
        assert FINAL not in succs and all(s in win2 for s in succs)
    for node in inside - win2:
        for att in tuple(trans[node]):
            succs = trans[node][att]
            assert FINAL in succs or any(s not in win2 for s in succs)
    # The gap is Win2 by construction: the jammer's strategy is defined
    # exactly on Win2, Win2 lies inside Win1, and the gap is that
    # strategy, in its order.
    assert set(strategy) == win2
    assert win2 <= rep.win
    gap = deception_gap(strategy)
    assert list(gap.items()) == list(strategy.items())
