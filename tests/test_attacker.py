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

from .conftest import bnode, jammer_trans
from .inputs import per_state_attack_games


def reference_successors(game, report, node, attack):
    """The jammer's successors recomputed from the observation rule.

    Each kept move either finishes the task (the support touches the
    goal) or lands in a non-goal successor state, where the jammed
    observation filters the action image of the belief.  It reads
    ``trans`` and `get_observation`, never the game's mask tables.
    """
    out = set()
    for action, query in report.strategy.allowed[node]:
        support = frozenset(game.trans[(node.state, action)])
        image = frozenset().union(*(game.trans[(s, action)] for s in node.belief))
        if support & game.goal:
            out.add(FINAL)
        for s2 in support - game.goal:
            out.add(BeliefNode(s2, image & get_observation(game, s2, query, attack)))
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
        for att in offered:
            assert trans[node][att] == reference_successors(game, report, node, att)


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
    assert set(strategy.choice) == expected
    assert all(g.attacks[a].name == "beta0" for a in strategy.choice.values())
    assert fig4.gap == {q: g.attack("beta0") for q in sorted(expected, key=node_key)}


def test_fig4_win2_excludes_the_revealing_node(fig4):
    g = fig4.game
    # At (s1,{s1}) every attack fires a completion edge, so the jammer
    # cannot hold the play there.
    assert bnode(g, "s1", ["s1"]) not in fig4.win2


def test_fig1_attacker_loses_everywhere(fig1):
    assert fig1.win2 == frozenset()
    assert fig1.attack_strategy.choice == {}
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
        att = strategy.choice[node]
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
        chosen = strategy.choice[node]
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
        succs = trans[node][strategy.choice[node]]
        assert FINAL not in succs and all(s in win2 for s in succs)
    for node in inside - win2:
        for att in tuple(trans[node]):
            succs = trans[node][att]
            assert FINAL in succs or any(s not in win2 for s in succs)
    # The gap is Win2 by construction: the jammer's strategy is defined
    # exactly on Win2, Win2 lies inside Win1, and the gap is that
    # strategy, in its order.
    assert set(strategy.choice) == win2
    assert win2 <= rep.win
    gap = deception_gap(rep, win2, strategy)
    assert list(gap.items()) == list(strategy.choice.items())
