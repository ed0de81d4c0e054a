"""Agent-side solving: elimination, certificates, idempotence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgames import (
    MultiStrategy,
    brute_force_win1,
    build_belief_mdp,
    check_soundness,
    solve_p1,
)
from sensorgames.belief import FINAL, BeliefNode, node_key, node_label
from sensorgames.game import validate_game
from sensorgames.oracle import GeneratorParams, OracleResult, generate_spec
from sensorgames.planner import certify_almost_sure_reach

from .conftest import bnode, node_views, plain_brute_force
from .inputs import attack_subset_runs, case_run, corpus_runs, per_state_attack_game, restricted

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
    assert not any(rep.strategy.allowed.values())


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
    core = fig1.report.levels[0]
    assert len(core) == 12
    trapped = {g.state("s3"), g.state("s5")}
    assert all(q.state in trapped for q in core)
    assert bnode(g, "s5", ["s4", "s5"]) in core
    # s3 only ever falls into s5, so its nodes are just as stuck.
    assert bnode(g, "s3", ["s2", "s3"]) in core


def test_strategy_is_class_uniform(fig1):
    mdp, strat = fig1.mdp, fig1.report.strategy
    for members in mdp.classes.values():
        assert len({strat.allowed[q] for q in members}) == 1


def test_strategy_covers_all_nodes(fig1):
    rep = fig1.report
    assert set(rep.strategy.allowed) == set(fig1.mdp.nodes)
    for q in fig1.mdp.nodes:
        assert bool(rep.strategy.allowed[q]) == (q in rep.win)


def test_for_belief(fig1):
    g, rep = fig1.game, fig1.report
    q0 = fig1.mdp.initial
    assert rep.strategy.for_belief(q0.belief) == tuple(sorted(rep.strategy.allowed[q0]))
    assert rep.strategy.for_belief(g.state_set(["s2", "s3"])) == ()


def test_levels_start_at_core_and_partition(fig1):
    rep = fig1.report
    core = rep.levels[0]
    assert core == tuple(sorted(core, key=node_key))
    # No move leads out of the core, so FINAL is unreachable from it.
    assert all(succ in core for q in core
               for succs in fig1.mdp.trans[q].values() for succ in succs)
    doomed = [q for level in rep.levels for q in level]
    assert len(doomed) == len(set(doomed))
    assert set(doomed) == set(fig1.mdp.nodes) - rep.win


def test_trace_replay_reproduces_strategy(fig1):
    mdp, rep = fig1.mdp, fig1.report
    core = set(rep.levels[0])
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
    # The walk meets the trap "d" before "c"; the witness is the least
    # stuck node, not the first one found.
    graph = {"a": ["b", "d", "c"], "b": [], "c": ["c"], "d": ["d"]}
    ok, stuck = certify(graph, "a", "b")
    assert not ok and stuck == "c"


def test_certify_asks_each_node_once():
    graph = {"a": ["b", "c"], "b": ["a", "t"], "c": ["c", "b"], "t": ["a"],
             "z": ["t"]}
    calls = []

    def successors(node):
        calls.append(node)
        return graph[node]

    assert certify_almost_sure_reach("a", successors, "t") == (True, None)
    assert sorted(calls) == ["a", "b", "c"]


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


def test_soundness_catches_split_class(fig4):
    # Dropping a move at one member of {s0,s1} only still passes closure
    # and completion, but the agent, who sees only the belief, cannot
    # play it.
    g, mdp, rep = fig4.game, fig4.mdp, fig4.report
    q0, q1 = bnode(g, "s0", ["s0", "s1"]), bnode(g, "s1", ["s0", "s1"])
    move = (g.action("a0"), g.query("sigma0"))
    bad = dict(rep.strategy.allowed)
    bad[q0] = bad[q0] - {move}
    assert bad[q0] and move in bad[q1]
    verdict = check_soundness(mdp, MultiStrategy(allowed=bad))
    assert not verdict
    assert verdict.reason == f"class-mates {q0} and {q1} keep different moves"
    assert verdict.witness == (q0, q1)


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
    game = validate_game(generate_spec(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=2, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed)))
    mdp = build_belief_mdp(game)
    rep = solve_p1(mdp)
    assert check_soundness(mdp, rep.strategy)
    for members in mdp.classes.values():
        assert len({rep.strategy.allowed[q] for q in members}) == 1
    again = solve_p1(restricted(mdp, rep.win))
    assert again.trace == () and again.win == rep.win


# --- identity ----------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_solve_does_not_depend_on_node_identity(fixture, request):
    # A second expansion holds equal but distinct node objects; its
    # report equals the first's and audits against the first MDP, whose
    # consumers match nodes by equality.
    mdp = request.getfixturevalue(fixture).mdp
    copy = build_belief_mdp(mdp.game)
    assert copy == mdp and copy.nodes[0] is not mdp.nodes[0]
    report = solve_p1(copy)
    assert report == solve_p1(mdp)
    assert check_soundness(mdp, report.strategy)


def test_solve_restricted_does_not_depend_on_node_identity(fig1):
    mdp, win = fig1.mdp, fig1.report.win
    # Dropping a winning node forces eliminations inside the sub-MDP.
    dropped = bnode(fig1.game, "s4", ["s2", "s4"])
    assert dropped in win
    keep = [q for q in mdp.nodes if q != dropped]
    sub = restricted(mdp, keep)
    mixed = restricted(mdp, [BeliefNode(q.state, frozenset(set(q.belief))) for q in keep])
    assert mixed == sub
    expected = solve_p1(sub)
    assert expected.trace
    assert solve_p1(mixed) == expected


# --- a second Win1 referee ---------------------------------------------------

def nested_fixpoint_win1(mdp):
    """Almost-sure reachability of FINAL over the belief-support game, as
    the textbook nested fixpoint (Chatterjee, Doyen & Henzinger, MFCS
    2010).  It reads only the node-keyed views ``mdp.trans`` and
    ``mdp.classes``, through `node_views`: no stored ids, no solver
    state.

    Y starts as every node.  A move is allowed at a class if, from every
    member, its successors stay in Y or are FINAL.  X is the least set of
    nodes that reach FINAL through allowed moves, and Y becomes the
    union of the classes wholly inside X, until Y stops changing.
    """
    trans, classes = node_views(mdp)
    preds = {}
    for q in mdp.nodes:
        for move, succs in trans[q].items():
            for succ in succs:
                preds.setdefault(succ, []).append((q, move))
    y = set(mdp.nodes)
    while True:
        allowed = {}
        for members in classes.values():
            if all(q in y for q in members):
                safe = [{move for move, succs in trans[q].items()
                         if all(s is FINAL or s in y for s in succs)} for q in members]
                for q in members:
                    allowed[q] = set.intersection(*safe)
        x, queue = set(), [FINAL]
        for node in queue:
            for q, move in preds.get(node, ()):
                if q not in x and move in allowed.get(q, ()):
                    x.add(q)
                    queue.append(q)
        kept = {q for members in classes.values()
                if all(q in x for q in members) for q in members}
        if kept == y:
            return frozenset(y)
        y = kept


def test_nested_fixpoint_agrees_on_corpus(corpus):
    checked = 0
    for name, block in corpus.items():
        for entry, run in zip(block["seeds"], corpus_runs(name)):
            seed = entry["seed"] if isinstance(entry, dict) else entry
            assert nested_fixpoint_win1(run.mdp) == run.report.win, seed
            checked += 1
    assert checked == 350


@pytest.mark.parametrize("fixture", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_nested_fixpoint_agrees_on_figures(fixture, request):
    run = request.getfixturevalue(fixture)
    assert nested_fixpoint_win1(run.mdp) == run.report.win


# The 17/5/7, 17/5/4 and 18/5/8 rungs are the benchmark's 17:7, 17:4 and
# 18:8 arenas.
@pytest.mark.parametrize("rung", [(10, 4, 9), (16, 5, 4), (17, 5, 7), (17, 5, 4), (18, 5, 8)],
                         ids=lambda r: "%d-%d-%d" % r)
def test_nested_fixpoint_agrees_on_rungs(rung):
    run = case_run(rung)
    mdp, win = run.mdp, run.report.win
    assert win and len(win) < len(mdp.nodes)
    assert nested_fixpoint_win1(mdp) == win


def test_nested_fixpoint_agrees_on_a_restricted_rung():
    # The 14/5/7 rung (the benchmark's 14:7 arena) wins everywhere, so
    # the referees are compared on the sub-MDP without its largest
    # class, which loses somewhere.
    mdp = case_run((14, 5, 7)).mdp
    largest = set(max(mdp.members, key=len))
    sub = restricted(mdp, [q for i, q in enumerate(mdp.nodes) if i not in largest])
    win = solve_p1(sub).win
    assert (len(sub.nodes), len(win)) == (7107, 5947)
    assert nested_fixpoint_win1(sub) == win


# --- Win1 checks past the oracle's reach -------------------------------------

def test_win1_is_monotone_under_belief_inclusion():
    """Where (s, B') wins, every node (s, B) with B a proper subset of
    B' wins too.

    This is a checked conjecture, not a proof: nothing here shows that a
    sharper belief can never lose where a vaguer one wins.  It is checked
    on the corpus, the 100 attack-subset games, the 10/4/9 rung, the
    enabled-attacks game and the four figures.
    """
    cases = [(10, 4, 9), "enabled-attacks", "fig1", "fig1_noattack", "fig1_nosense", "fig4"]
    pairs = 0
    for run in [*corpus_runs(), *attack_subset_runs(), *map(case_run, cases)]:
        win = run.report.win
        beliefs: dict = {}  # state -> the beliefs of its nodes
        for q in run.mdp.nodes:
            beliefs.setdefault(q.state, []).append(q.belief)
        for q in win:
            for belief in beliefs[q.state]:
                if belief < q.belief:
                    assert BeliefNode(q.state, belief) in win, (q, belief)
                    pairs += 1
    assert pairs  # 28,674 on these inputs


@pytest.mark.parametrize("rung", [(10, 4, 9), (14, 5, 7), (16, 5, 4), (16, 5, 7), (17, 5, 7),
                                  (17, 5, 4), (18, 5, 8), (24, 5, 8)],
                         ids=lambda r: "%d-%d-%d" % r)
def test_soundness_on_rungs(rung):
    run = case_run(rung)
    verdict = check_soundness(run.mdp, run.report.strategy)
    assert verdict, verdict.reason


# --- removing an attack can lose the start ---------------------------------

def attack_removal_game(s1_attacks):
    """Seed 288 of the 5-state generator with attacks enabled per state:
    ``s1_attacks`` at s1 and the listed ones at s0, s2, s3 and s4."""
    rows = iter([("b1", "b2"), s1_attacks, ("b1", "b2", "none"), ("b1", "b2", "none"), ("b1",)])
    return per_state_attack_game(288, lambda names: next(rows))


def test_removing_an_attack_can_lose_the_start():
    # A counterexample to "removing an attack, while every state keeps
    # one, never turns a winning start into a losing one".  The unjammed
    # view at s1 is the only one that rules s0 out of the belief.
    # Without it every belief holds s0, where only a1 is enabled, and a1
    # never reaches the goal s2, so nothing wins.  With it all 15 nodes
    # win; the brute force needs a cap of its estimate, 20,503,125, and
    # certifies its first assignment.
    mdp = build_belief_mdp(attack_removal_game(("b1", "none")))
    report = solve_p1(mdp)
    assert (len(mdp.nodes), len(report.win), report.initial_winning) == (15, 15, True)
    for referee in (brute_force_win1, plain_brute_force):
        assert referee(mdp, cap=20_503_125) == OracleResult(True, 1, 8)
    mdp = build_belief_mdp(attack_removal_game(("b1",)))
    report = solve_p1(mdp)
    assert (len(mdp.nodes), len(report.win), report.initial_winning) == (6, 0, False)
    for referee in (brute_force_win1, plain_brute_force):
        assert referee(mdp) == OracleResult(False, 27, 3)
