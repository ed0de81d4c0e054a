"""Perceived-game expansion: structure, closure, determinism."""

from itertools import product

import pytest
from hypothesis import given, settings

from sensorgames import (
    build_belief_mdp,
    check_soundness,
    export_attacker_dot,
    export_belief_dot,
    parse_spec,
    run_stages,
    solve_p1,
    validate_game,
)
from sensorgames.belief import FINAL, BeliefNode, node_key, node_label

from .conftest import bnode
from .inputs import MINI, case_run, restricted, small_games


def test_fig1_shape(fig1):
    mdp = fig1.mdp
    assert len(mdp.nodes) == 52
    assert len(mdp.classes) == 23
    assert mdp.initial == bnode(fig1.game, "s0", ["s0"])
    assert mdp.nodes == tuple(sorted(mdp.nodes, key=node_key))


def test_fig4_nodes_exact(fig4):
    g = fig4.game
    assert [node_label(g, q) for q in fig4.mdp.nodes] == [
        "(s0,{s0})", "(s0,{s0,s1})", "(s1,{s0,s1})", "(s1,{s1})",
        "(s2,{s2,s3})", "(s3,{s2,s3})", "(s3,{s3})",
    ]


def test_fig1_start_successors_under_jamming(fig1):
    g, mdp = fig1.game, fig1.mdp
    move = (g.action("a0"), g.query("sigma0"))
    succs = mdp.trans[mdp.initial][move]
    labeled = {
        node_label(g, succ): sorted(g.attacks[a].name for a in atts)
        for succ, atts in succs.items()
    }
    assert labeled == {
        "(s0,{s0})": ["beta0", "beta2", "none"],
        "(s0,{s0,s1})": ["beta1"],
        "(s1,{s0,s1})": ["beta1"],
        "(s1,{s1})": ["beta2", "none"],
        "(s1,{s1,s2})": ["beta0"],
        "(s2,{s1,s2})": ["beta0"],
        "(s2,{s2})": ["beta1", "beta2", "none"],
    }


def test_goal_only_support_jumps_to_final(fig1):
    g, mdp = fig1.game, fig1.mdp
    node = bnode(g, "s1", ["s1", "s2"])
    # a0 sends both s1 and s2... s1 to the goal; but the node's own state
    # support {s4} lies inside the goal, so the move resolves to FINAL alone.
    for query in range(len(g.queries)):
        assert mdp.trans[node][(g.action("a0"), query)] == {FINAL: frozenset()}
        bad = mdp.trans[node][(g.action("a1"), query)]
        assert set(bad) == {bnode(g, "s5", ["s4", "s5"])}
        assert bad[bnode(g, "s5", ["s4", "s5"])] == frozenset(range(4))


def test_mixed_support_offers_final_alongside():
    game = validate_game(parse_spec(MINI))
    mdp = build_belief_mdp(game)
    # s0's only move reaches {s0, s1} with s1 the goal: the move offers
    # FINAL next to the surviving non-goal landing.
    succs = mdp.trans[mdp.initial][(0, 0)]
    assert succs[FINAL] == frozenset()
    others = {s for s in succs if s is not FINAL}
    assert others == {BeliefNode(0, frozenset({0}))}


def test_offered_depends_only_on_belief(fig1):
    mdp = fig1.mdp
    for belief, members in mdp.classes.items():
        offers = {tuple(mdp.trans[q]) for q in members}
        assert len(offers) == 1


def test_offered_sorted(fig1):
    mdp = fig1.mdp
    for q in mdp.nodes:
        assert list(mdp.trans[q]) == sorted(mdp.trans[q])


def test_classes_partition_nodes(fig1):
    mdp = fig1.mdp
    scattered = [q for members in mdp.classes.values() for q in members]
    assert sorted(scattered, key=node_key) == list(mdp.nodes)
    assert len(scattered) == len(set(scattered))
    for belief, members in mdp.classes.items():
        assert members == tuple(BeliefNode(s, belief) for s in sorted(belief))


def test_node_state_inside_belief(fig1):
    assert all(q.state in q.belief for q in fig1.mdp.nodes)


def test_closure_under_equivalence(fig1):
    # Every belief reached by any move has its full class materialized.
    mdp = fig1.mdp
    for q in mdp.nodes:
        for succs in mdp.trans[q].values():
            for succ in succs:
                if succ is FINAL:
                    continue
                assert succ in mdp.trans
                for peer in mdp.classes[succ.belief]:
                    assert peer in mdp.trans


def test_predecessors_invert_transitions(fig1):
    g, mdp = fig1.game, fig1.mdp
    source = bnode(g, "s1", ["s1", "s2"])
    move = (g.action("a1"), g.query("sigma0"))
    assert bnode(g, "s5", ["s4", "s5"]) in mdp.trans[source][move]


def assert_interned(mdp):
    """Every node reference in ``mdp`` is the object listed in ``nodes``."""
    listed = {q: q for q in mdp.nodes}
    assert listed[mdp.initial] is mdp.initial
    for q, moves in mdp.trans.items():
        assert listed[q] is q
        for succs in moves.values():
            for succ in succs:
                assert succ is FINAL or succ is listed[succ]
    for members in mdp.classes.values():
        assert all(listed[q] is q for q in members)


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_successor_keys_are_the_listed_nodes(fixture, request):
    assert_interned(request.getfixturevalue(fixture).mdp)


def test_final_identity():
    assert type(FINAL)() is FINAL
    assert repr(FINAL) == "FINAL"


def test_construction_deterministic(fig1):
    mdp2 = build_belief_mdp(fig1.game)
    assert mdp2.nodes == fig1.mdp.nodes
    assert mdp2.trans == dict(fig1.mdp.trans)
    assert list(mdp2.classes) == list(fig1.mdp.classes)


def test_restricted_keeps_inside_moves(fig1):
    mdp, win = fig1.mdp, fig1.report.win
    sub = restricted(mdp, win)
    assert set(sub.nodes) == set(win)
    assert sub.initial == mdp.initial
    for q in sub.nodes:
        for move, succs in sub.trans[q].items():
            assert all(s is FINAL or s in win for s in succs)
            assert succs == mdp.trans[q][move]


def test_restricted_splits_classes(fig1):
    g, mdp = fig1.game, fig1.mdp
    full = mdp.classes[g.state_set(["s1", "s2"])]
    assert len(full) == 2
    keep = [q for q in mdp.nodes if q != full[0]]
    sub = restricted(mdp, keep)
    assert sub.classes[g.state_set(["s1", "s2"])] == (full[1],)
    assert list(sub.classes) == list(mdp.classes)


def test_restricted_class_mates_keep_the_same_moves(fig1_noattack):
    # Without the start node, (s0,{s0,s2}) can only take moves that keep
    # (s2,{s0,s2}) inside too, so the class keeps the same moves.
    mdp = fig1_noattack.mdp
    sub = restricted(mdp, [q for q in mdp.nodes if q != mdp.initial])
    assert sub.start is None and sub.initial is None
    for members in sub.classes.values():
        moves = list(sub.trans[members[0]])
        assert all(list(sub.trans[q]) == moves for q in members)
        for move in moves:
            assert all(s is FINAL or s in sub.trans
                       for q in members for s in sub.trans[q][move])
    assert check_soundness(sub, solve_p1(sub).strategy).ok


# --- the stored ints and their views -----------------------------------------

def assert_dense_matches(mdp):
    """``trans`` is the stored int game keyed by nodes and moves,
    successor by successor and in order, each with its attack set, and
    each node's moves ascending.  ``mdp.moves`` lists every (action,
    query) pair; ``classes`` and ``initial`` are ``members`` and
    ``start`` as nodes."""
    game = mdp.game
    assert mdp.trans is mdp.trans and mdp.classes is mdp.classes
    node_of = mdp.nodes + (FINAL,)
    assert mdp.moves == tuple(product(range(len(game.action_names)), range(len(game.queries))))
    assert len(mdp.node_moves) == len(mdp.succs) == len(mdp.attacks) == len(mdp.nodes)
    for q, ks, succs, attacks in zip(mdp.nodes, mdp.node_moves, mdp.succs, mdp.attacks):
        assert [(mdp.moves[k], [(node_of[j], on) for j, on in zip(targets, atts, strict=True)])
                for k, targets, atts in zip(ks, succs, attacks, strict=True)] == [
            (move, list(targets.items())) for move, targets in mdp.trans[q].items()]
        assert list(ks) == sorted(set(ks))
    assert [[node_of[i] for i in members] for members in mdp.members] == [
        list(members) for members in mdp.classes.values()]
    assert node_of[mdp.start] == mdp.initial


def assert_rows_shared(mdp, counts):
    """Each distinct successor row and attack row is one tuple, shared
    by every move that has it; ``counts`` is (rows, distinct successor
    rows, distinct attack rows).  Every class's members hold one
    ``node_moves`` tuple, which `solve_p1` relies on."""
    succs = [row for rows in mdp.succs for row in rows]
    attacks = [row for rows in mdp.attacks for row in rows]
    assert len(succs) == len(attacks) == counts[0]
    assert len({id(row) for row in succs}) == len(set(succs)) == counts[1]
    assert len({id(row) for row in attacks}) == len(set(attacks)) == counts[2]
    assert all(len({id(mdp.node_moves[i]) for i in ids}) == 1 for ids in mdp.members)


def test_rows_are_shared():
    # The 17/5/7 rung, then the 14/5/7 rung less its largest class: the
    # sub-MDP renumbers each distinct row once.
    assert_rows_shared(case_run((17, 5, 7)).mdp, (16431, 2790, 86))
    mdp = case_run((14, 5, 7)).mdp
    largest = set(max(mdp.members, key=len))
    sub = restricted(mdp, [q for i, q in enumerate(mdp.nodes) if i not in largest])
    assert_rows_shared(sub, (39222, 5808, 25))


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_dense_matches_trans(fixture, request):
    assert_dense_matches(request.getfixturevalue(fixture).mdp)


def test_dense_matches_trans_restricted(fig1):
    g, mdp = fig1.game, fig1.mdp
    full = mdp.classes[g.state_set(["s1", "s2"])]
    sub = restricted(mdp, [q for q in mdp.nodes if q != full[0]])
    assert len(sub.classes[full[0].belief]) == 1
    assert_dense_matches(sub)
    assert_interned(sub)


def test_no_stage_builds_trans(fig4_text):
    # The stages and both DOT views read the stored ints; the node-keyed
    # views are built only on a read of ``trans`` or ``classes``.
    run = run_stages(fig4_text)
    assert "trans" not in vars(run.mdp) and "classes" not in vars(run.mdp)
    export_belief_dot(run.report)
    export_attacker_dot(run.attacker, run.attack_strategy)
    assert "trans" not in vars(run.mdp) and "classes" not in vars(run.mdp)
    assert run.mdp.trans is vars(run.mdp)["trans"]
    assert run.mdp.classes is vars(run.mdp)["classes"]


@settings(max_examples=25, deadline=None)
@given(small_games())
def test_dense_matches_trans_random(game):
    assert_dense_matches(build_belief_mdp(game))


@settings(max_examples=40, deadline=None)
@given(small_games())
def test_expansion_invariants_random(game):
    mdp = build_belief_mdp(game)
    assert mdp.nodes == tuple(sorted(mdp.nodes, key=node_key))
    for q in mdp.nodes:
        assert q.state in q.belief
        for (action, query), succs in mdp.trans[q].items():
            for succ, attacks in succs.items():
                if succ is FINAL:
                    assert attacks == frozenset()
                    continue
                assert succ.state in succ.belief
                assert attacks
                # The whole class of the successor belief exists.
                for peer in mdp.classes[succ.belief]:
                    assert peer in mdp.trans
    assert_interned(mdp)
