"""Perceived-game expansion: structure, closure, determinism."""

import pytest
from hypothesis import given, settings

from sensorgames import build_belief_mdp
from sensorgames.belief import (
    FINAL,
    BeliefNode,
    FinalHasNoClassError,
    equivalence_class,
    node_key,
    node_label,
    restricted,
)

from .conftest import bnode
from .test_game import small_games


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
    from sensorgames import parse_spec, validate_game

    from .test_specfile import MINI

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
        offers = {mdp.offered(q) for q in members}
        assert len(offers) == 1


def test_offered_sorted(fig1):
    mdp = fig1.mdp
    for q in mdp.nodes:
        assert mdp.offered(q) == tuple(sorted(mdp.trans[q]))


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
                for peer in equivalence_class(mdp, succ):
                    assert peer in mdp.trans


def test_predecessors_invert_transitions(fig1):
    g, mdp = fig1.game, fig1.mdp
    back = mdp.predecessors()
    target = bnode(g, "s5", ["s4", "s5"])
    assert (bnode(g, "s1", ["s1", "s2"]), (g.action("a1"), g.query("sigma0"))) \
        in back[target]
    for node, entries in back.items():
        for src, move in entries:
            assert node in mdp.trans[src][move]
    count = sum(len(succs) for q in mdp.nodes for succs in mdp.trans[q].values())
    assert count == sum(len(v) for v in back.values())
    assert_predecessors_canonical(mdp)


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


def assert_predecessors_canonical(mdp):
    for entries in mdp.predecessors().values():
        keys = [(node_key(q), move) for q, move in entries]
        assert keys == sorted(keys)


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_successor_keys_are_the_listed_nodes(fixture, request):
    assert_interned(request.getfixturevalue(fixture).mdp)


def test_final_identity():
    assert type(FINAL)() is FINAL
    assert repr(FINAL) == "FINAL"


def test_final_has_no_class(fig1):
    with pytest.raises(FinalHasNoClassError):
        equivalence_class(fig1.mdp, FINAL)


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
    assert_predecessors_canonical(mdp)
