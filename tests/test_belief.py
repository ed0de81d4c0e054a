"""Perceived-game expansion: frozen structure on the figures, the
node-keyed views held to the stored ints, shared rows and working sets,
and the expansion checked whole on every input group by
`conftest.check_perceived_game`."""

import gc
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings

from sensorgames import (
    TableAttack,
    build_belief_mdp,
    check_soundness,
    export_attacker_dot,
    export_belief_dot,
    parse_spec,
    run_pipeline,
    run_stages,
    simulate,
    solve_p1,
    validate_game,
)
from sensorgames import pipeline
from sensorgames.belief import FINAL, BeliefNode, node_label
from sensorgames.game import states_of

from .conftest import bnode, check_perceived_game, traced_memory
from .inputs import MINI, case_run, corpus_runs, restricted
from .strategies import small_games


def test_fig1_shape(fig1):
    mdp = fig1.mdp
    assert len(mdp.nodes) == 52
    assert len(mdp.classes) == 23


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


# --- the perceived game, checked whole --------------------------------------

def test_perceived_game_on_shared_inputs():
    # Each group's count of games and of their nodes: the four figures
    # and enabled-attacks, the 350 corpus games, and the 10/4/9 and
    # 17/5/7 rungs.
    cases = ("fig1", "fig1_nosense", "fig1_noattack", "fig4", "enabled-attacks")
    groups = {"cases": [case_run(case).mdp for case in cases],
              "corpus": [run.mdp for run in corpus_runs()],
              "rungs": [case_run(rung).mdp for rung in ((10, 4, 9), (17, 5, 7))]}
    for group, mdps in groups.items():
        for i, mdp in enumerate(mdps):
            check_perceived_game(f"{group} {i}", mdp)
    assert {group: (len(mdps), sum(len(mdp.nodes) for mdp in mdps))
            for group, mdps in groups.items()} == {
        "cases": (5, 347), "corpus": (350, 9414), "rungs": (2, 6211)}


@pytest.mark.parametrize("defect, check", [
    ("attack bit flipped", "row"), ("successor dropped", "row"),
    ("class-mate move missing", "node_moves")])
def test_perceived_game_checker_catches(defect, check, fig4):
    # A copy of fig4's perceived game with one defect, in the first row
    # of node 0 or at node 2, the second member of the class {s0,s1}.
    mdp = fig4.mdp
    succs, attacks, node_moves = mdp.succs[0][0], mdp.attacks[0][0], mdp.node_moves
    if defect == "attack bit flipped":
        attacks = (attacks[0] ^ 1,) + attacks[1:]
    elif defect == "successor dropped":
        succs, attacks = succs[1:], attacks[1:]
    else:
        node_moves = node_moves[:2] + (node_moves[2][1:],) + node_moves[3:]
    bad = replace(mdp, node_moves=node_moves,
                  succs=((succs,) + mdp.succs[0][1:],) + mdp.succs[1:],
                  attacks=((attacks,) + mdp.attacks[0][1:],) + mdp.attacks[1:])
    with pytest.raises(AssertionError, match=f"'{check}'"):
        check_perceived_game("fig4", bad)


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
    full = mdp.classes[frozenset(map(g.state, ["s1", "s2"]))]
    assert len(full) == 2
    keep = [q for q in mdp.nodes if q != full[0]]
    sub = restricted(mdp, keep)
    assert sub.classes[frozenset(map(g.state, ["s1", "s2"]))] == (full[1],)
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
    successor by successor and in order, each with its attack mask
    decoded to a frozenset, one per distinct mask, and each node's moves
    ascending.  ``mdp.moves`` lists every (action, query) pair;
    ``classes`` and ``initial`` are ``members`` and ``start`` as
    nodes."""
    game = mdp.game
    assert mdp.trans is mdp.trans and mdp.classes is mdp.classes
    node_of = mdp.nodes + (FINAL,)
    assert mdp.moves == tuple(product(range(len(game.action_names)), range(len(game.queries))))
    assert len(mdp.node_moves) == len(mdp.succs) == len(mdp.attacks) == len(mdp.nodes)
    for q, ks, succs, attacks in zip(mdp.nodes, mdp.node_moves, mdp.succs, mdp.attacks):
        assert [(mdp.moves[k], [(node_of[j], frozenset(states_of(on)))
                                for j, on in zip(targets, atts, strict=True)])
                for k, targets, atts in zip(ks, succs, attacks, strict=True)] == [
            (move, list(targets.items())) for move, targets in mdp.trans[q].items()]
        assert list(ks) == sorted(set(ks))
    decoded = [atts for moves in mdp.trans.values() for succs in moves.values()
               for atts in succs.values()]
    assert len(set(map(id, decoded))) == len({on for rows in mdp.attacks for row in rows
                                              for on in row})
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


def test_rows_are_untracked(fig4_text):
    # Every successor row and attack row holds only ints, so one full
    # collection untracks it and later ones do not walk it.  The game is
    # built afresh: the shared inputs are frozen out of collection.
    mdp = build_belief_mdp(validate_game(parse_spec(fig4_text)))
    gc.collect()
    rows = [row for table in (mdp.succs, mdp.attacks) for node_rows in table for row in node_rows]
    assert rows and [row for row in rows if gc.is_tracked(row)] == []


@pytest.mark.parametrize("rung", [(14, 5, 7), (17, 5, 7)], ids=lambda r: "%d-%d-%d" % r)
def test_expansion_working_set(rung):
    # Each working table is freed once its last reader is done, so the
    # expansion's peak stays near what it keeps: 2.35-2.40 times on these
    # rungs.  Holding every table to the end reads 3.6-3.75 times.
    game = case_run(rung).mdp.game  # its tables are built
    _, kept, peak = traced_memory(build_belief_mdp, game)
    assert peak <= 2.7 * kept, (peak, kept)


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_dense_matches_trans(fixture, request):
    assert_dense_matches(request.getfixturevalue(fixture).mdp)


def test_dense_matches_trans_restricted(fig1):
    g, mdp = fig1.game, fig1.mdp
    full = mdp.classes[frozenset(map(g.state, ["s1", "s2"]))]
    sub = restricted(mdp, [q for q in mdp.nodes if q != full[0]])
    assert len(sub.classes[full[0].belief]) == 1
    assert_dense_matches(sub)
    assert_interned(sub)


def test_no_stage_builds_trans(fig4_text, monkeypatch):
    # The stages, the document, both DOT views and the simulator read the
    # stored ints and the strategy's mapping; the node-keyed views and
    # ``report.win`` are built only on a read.  `run_pipeline`'s report
    # is caught by swapping the stage it comes from.  A view once built
    # stays in ``vars``, so one look after the last step covers them all.
    reports, solve = [], pipeline.solve_p1
    monkeypatch.setattr(pipeline, "solve_p1", lambda mdp: reports.append(solve(mdp)) or reports[-1])
    run = run_stages(fig4_text)
    run_pipeline(fig4_text, include_trace=True)
    export_belief_dot(run.report)
    export_attacker_dot(run.attacker, run.attack_strategy)
    simulate(run.game, run.report.strategy, TableAttack(run.attack_strategy), 20, 0)
    assert "trans" not in vars(run.mdp) and "classes" not in vars(run.mdp)
    assert len(reports) == 2 and all("win" not in vars(report) for report in reports)
    assert run.mdp.trans is vars(run.mdp)["trans"]
    assert run.mdp.classes is vars(run.mdp)["classes"]
    assert run.report.win is vars(run.report)["win"] == frozenset(run.report.strategy.allowed)


@settings(max_examples=40, deadline=None)
@given(small_games())
def test_expansion_invariants_random(game):
    mdp = build_belief_mdp(game)
    check_perceived_game("the drawn game", mdp)
    assert_interned(mdp)
    assert_dense_matches(mdp)
