"""Agent-side solving: elimination, certificates, idempotence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgames import (
    MultiStrategy,
    build_belief_mdp,
    check_soundness,
    losing_core,
    pre_image,
    restricted,
    solve_p1,
)
from sensorgames.belief import FINAL, BeliefMDP, BeliefNode, node_key, node_label
from sensorgames.oracle import GeneratorParams, generate_game
from sensorgames.planner import certify_almost_sure_reach

from .conftest import bnode

FIG1_WIN = [
    "(s0,{s0})", "(s0,{s0,s1})", "(s0,{s0,s2})", "(s0,{s0,s4})",
    "(s1,{s0,s1})", "(s1,{s1})", "(s1,{s1,s4})",
    "(s2,{s0,s2})", "(s2,{s2})", "(s2,{s2,s4})",
    "(s4,{s0,s4})", "(s4,{s1,s4})", "(s4,{s2,s4})",
]


def labels(game, nodes):
    return [node_label(game, q) for q in sorted(nodes, key=node_key)]


def moves_of(game, report, node):
    return sorted(
        (game.action_names[a], game.queries[s].name)
        for a, s in report.strategy.allowed[node])


# --- frozen verdicts on the bundled games --------------------------------

def test_fig1_verdict(fig1):
    g, rep = fig1.game, fig1.report
    assert rep.initial_winning
    assert labels(g, rep.win) == FIG1_WIN
    assert moves_of(g, rep, fig1.mdp.initial) == [("a0", "sigma1"), ("a1", "sigma1")]


def test_fig1_nosense_verdict(fig1_nosense):
    rep = fig1_nosense.report
    assert not rep.initial_winning
    assert rep.win == frozenset()
    assert rep.strategy.winning() == frozenset()


def test_fig1_noattack_verdict(fig1_noattack):
    g, rep = fig1_noattack.game, fig1_noattack.report
    assert rep.initial_winning
    assert len(rep.win) == 7
    kept = moves_of(g, rep, fig1_noattack.mdp.initial)
    assert ("a0", "sigma0") in kept
    assert len(kept) == 6


def test_fig4_verdict(fig4):
    g, rep = fig4.game, fig4.report
    assert rep.initial_winning
    assert labels(g, rep.win) == [
        "(s0,{s0})", "(s0,{s0,s1})", "(s1,{s0,s1})", "(s1,{s1})"]
    assert moves_of(g, rep, fig4.mdp.initial) == [("a0", "sigma0"), ("a0", "sigma1")]


# --- building blocks ------------------------------------------------------

def test_losing_core_fig1(fig1):
    g = fig1.game
    core = losing_core(fig1.mdp)
    assert len(core) == 12
    trapped = {g.state("s3"), g.state("s5")}
    assert all(q.state in trapped for q in core)
    assert bnode(g, "s5", ["s4", "s5"]) in core
    # s3 only ever falls into s5, so its nodes are just as stuck.
    assert bnode(g, "s3", ["s2", "s3"]) in core


def test_pre_image(fig1):
    g = fig1.mdp.game
    pre = pre_image(fig1.mdp, bnode(g, "s5", ["s4", "s5"]))
    assert (bnode(g, "s1", ["s1", "s2"]), (g.action("a1"), g.query("sigma0"))) in pre
    for src, move in pre:
        assert bnode(g, "s5", ["s4", "s5"]) in fig1.mdp.trans[src][move]


def test_strategy_is_class_uniform(fig1):
    mdp, strat = fig1.mdp, fig1.report.strategy
    for members in mdp.classes.values():
        assert len({strat.allowed[q] for q in members}) == 1


def test_strategy_covers_all_nodes(fig1):
    rep = fig1.report
    assert set(rep.strategy.allowed) == set(fig1.mdp.nodes)
    assert rep.strategy.winning() == rep.win
    for q in fig1.mdp.nodes:
        assert bool(rep.strategy.allowed[q]) == (q in rep.win)


def test_for_belief(fig1):
    g, rep = fig1.game, fig1.report
    q0 = fig1.mdp.initial
    assert rep.strategy.for_belief(q0.belief) == rep.strategy.allowed[q0]
    assert rep.strategy.for_belief(g.state_set(["s2", "s3"])) is None


def test_levels_start_at_core_and_partition(fig1):
    rep = fig1.report
    core = losing_core(fig1.mdp)
    assert rep.levels[0] == tuple(sorted(core, key=node_key))
    doomed = [q for level in rep.levels for q in level]
    assert len(doomed) == len(set(doomed))
    assert set(doomed) == set(fig1.mdp.nodes) - rep.win


def test_trace_replay_reproduces_strategy(fig1):
    mdp, rep = fig1.mdp, fig1.report
    core = losing_core(mdp)
    allowed = {q: (set() if q in core else set(mdp.trans[q])) for q in mdp.nodes}
    rounds = [r.iteration for r in rep.trace]
    assert rounds == sorted(rounds)
    for r in rep.trace:
        assert r.move in allowed[r.node]
        allowed[r.node].discard(r.move)
    assert {q: frozenset(m) for q, m in allowed.items()} == dict(rep.strategy.allowed)


# --- certificates ---------------------------------------------------------

def certify(graph, start, target):
    return certify_almost_sure_reach(start, lambda n: graph.get(n, ()), target)


def test_certify_accepts_fair_cycle():
    graph = {"a": ["a", "b"], "b": []}
    assert certify(graph, "a", "b") == (True, None)


def test_certify_rejects_absorbing_detour():
    graph = {"a": ["b", "c"], "b": [], "c": ["c"]}
    ok, stuck = certify(graph, "a", "b")
    assert not ok and stuck == "c"


def test_certify_ignores_unreachable_traps():
    graph = {"a": ["b"], "b": [], "z": ["z"]}
    assert certify(graph, "a", "b") == (True, None)


def test_certify_start_is_target():
    assert certify({}, "t", "t") == (True, None)


@pytest.mark.parametrize("fixture", ["fig1", "fig1_nosense", "fig1_noattack", "fig4"])
def test_soundness_of_bundled_solutions(fixture, request):
    run = request.getfixturevalue(fixture)
    verdict = check_soundness(run.mdp, run.report.strategy)
    assert verdict
    assert verdict.ok and verdict.witness is None


def test_soundness_catches_closure_breach(fig1):
    g, mdp, rep = fig1.game, fig1.mdp, fig1.report
    bad = dict(rep.strategy.allowed)
    leak = (g.action("a1"), g.query("sigma0"))
    for member in mdp.classes[g.state_set(["s1", "s2"])]:
        bad[member] = bad[member] | {leak}
    verdict = check_soundness(mdp, MultiStrategy(allowed=bad))
    assert not verdict
    node, move, succ = verdict.witness
    assert move == leak
    assert succ is FINAL or not bad[succ]


def test_soundness_catches_completion_breach(fig4):
    g, mdp, rep = fig4.game, fig4.mdp, fig4.report
    # Keep only the shuffle everywhere: the chain stays inside the
    # winning region but can never complete.
    a0 = g.action("a0")
    bad = {
        q: frozenset(m for m in moves if m[0] == a0)
        for q, moves in rep.strategy.allowed.items()
    }
    assert all(bad[q] for q in rep.win)
    verdict = check_soundness(mdp, MultiStrategy(allowed=bad))
    assert not verdict
    assert "completion" in verdict.reason


def test_soundness_catches_unoffered_move(fig4):
    mdp, rep = fig4.mdp, fig4.report
    bad = dict(rep.strategy.allowed)
    bad[mdp.initial] = bad[mdp.initial] | {(99, 99)}
    verdict = check_soundness(mdp, MultiStrategy(allowed=bad))
    assert not verdict and "never offered" in verdict.reason


# --- idempotence -----------------------------------------------------------

@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig4"])
def test_resolving_the_winning_region_removes_nothing(fixture, request):
    run = request.getfixturevalue(fixture)
    rep = run.report
    again = solve_p1(restricted(run.mdp, rep.win))
    assert again.trace == ()
    assert again.win == rep.win
    assert again.levels == ((),)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solver_invariants_random(seed):
    game = generate_game(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=2, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed))
    mdp = build_belief_mdp(game)
    rep = solve_p1(mdp)
    assert check_soundness(mdp, rep.strategy)
    for members in mdp.classes.values():
        assert len({rep.strategy.allowed[q] for q in members}) == 1
    again = solve_p1(restricted(mdp, rep.win))
    assert again.trace == () and again.win == rep.win
    assert solve_p1(uninterned(mdp)) == rep


# --- identity ----------------------------------------------------------------

def uninterned(mdp):
    """An equal copy of ``mdp`` in which every node reference, and every
    belief, is a fresh object."""
    def fresh(node):
        if node is FINAL:
            return node
        return BeliefNode(node.state, frozenset(set(node.belief)))

    return BeliefMDP(
        game=mdp.game,
        initial=fresh(mdp.initial),
        nodes=tuple(fresh(q) for q in mdp.nodes),
        trans={fresh(q): {move: {fresh(s): atts for s, atts in succs.items()}
                          for move, succs in moves.items()}
               for q, moves in mdp.trans.items()},
        classes={frozenset(set(belief)): tuple(fresh(q) for q in members)
                 for belief, members in mdp.classes.items()})


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_solve_does_not_depend_on_node_identity(fixture, request):
    mdp = request.getfixturevalue(fixture).mdp
    copy = uninterned(mdp)
    assert copy == mdp and copy.nodes[0] is not mdp.nodes[0]
    assert solve_p1(copy) == solve_p1(mdp)
    assert losing_core(copy) == losing_core(mdp)


def test_solve_restricted_does_not_depend_on_node_identity(fig1):
    mdp, win = fig1.mdp, fig1.report.win
    # Dropping a winning node forces eliminations inside the sub-MDP.
    dropped = bnode(fig1.game, "s4", ["s2", "s4"])
    assert dropped in win
    keep = [q for q in mdp.nodes if q != dropped]
    sub = restricted(mdp, keep)
    mixed = restricted(uninterned(mdp), [BeliefNode(q.state, q.belief) for q in keep])
    assert mixed == sub
    expected = solve_p1(sub)
    assert expected.trace
    assert solve_p1(mixed) == expected
