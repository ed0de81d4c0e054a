"""Shared fixtures and helpers: the bundled games solved once per
session, read from `inputs`, and the jammer side's reference: its
successors recomputed from the observation rule, one checker of every
invariant of a jammer game, and a brute-force Win2 referee."""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, product
from math import prod

import pytest

from sensorgames.belief import FINAL, BeliefMDP, BeliefNode, node_key
from sensorgames.game import get_observation
from sensorgames.oracle import CapExceededError, OracleResult
from sensorgames.planner import certify_almost_sure_reach

from .inputs import case_run, case_text, load_corpus, release


@pytest.fixture(scope="session", autouse=True)
def shared_inputs():
    """Release the cached inputs when the session ends."""
    yield
    release()


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def fig1_text():
    return case_text("fig1")


@pytest.fixture(scope="session")
def fig1():
    return case_run("fig1")


@pytest.fixture(scope="session")
def fig1_nosense():
    return case_run("fig1_nosense")


@pytest.fixture(scope="session")
def fig1_noattack():
    return case_run("fig1_noattack")


@pytest.fixture(scope="session")
def fig4_text():
    return case_text("fig4")


@pytest.fixture(scope="session")
def fig4():
    return case_run("fig4")


def bnode(game, state: str, belief: list[str]) -> BeliefNode:
    """Build a belief node from state names."""
    return BeliefNode(game.state(state), game.state_set(belief))


def node_views(mdp: BeliefMDP):
    """``(mdp.trans, mdp.classes)``, built afresh and not cached on
    ``mdp``.  The shared inputs live for the whole session, so a cached
    view would keep its nodes and dicts alive, and walked by every
    garbage collection, until the session ends."""
    return BeliefMDP.trans.func(mdp), BeliefMDP.classes.func(mdp)


def jammer_trans(adv):
    """The jammer's game keyed by nodes: ``jammer_trans(adv)[q][att]`` is
    the set of successor nodes, `FINAL` included, of attack att at node
    q, with each node's attacks ascending.  It maps ``adv.trans``, which
    holds positions in ``adv.nodes``, back to nodes."""
    node_of = adv.nodes + (FINAL,)
    return {node_of[p]: {att: frozenset(map(node_of.__getitem__, succs))
                         for att, succs in offered.items()}
            for p, offered in adv.trans.items()}


def reference_successors(report):
    """The jammer's successors recomputed from the observation rule:
    ``reference_successors(report)[q][att]`` is the set of nodes,
    `FINAL` included, that the play can reach from Win1 node q when the
    jammer launches attack att, for every attack in ascending order.

    Each kept move of ``report.strategy`` either finishes the task (the
    support touches the goal) or lands in a non-goal successor state,
    where the jammed observation filters the action image of the
    belief.  It reads ``trans`` and `get_observation`, never the game's
    mask tables, the expansion or the jammer build.
    """
    game = report.mdp.game
    observe = cache(partial(get_observation, game))
    out = {}
    for node in report.win:
        out[node] = succs = {attack: set() for attack in range(len(game.attacks))}
        for action, query in report.strategy.allowed[node]:
            support = frozenset(game.trans[(node.state, action)])
            image = frozenset().union(*(game.trans[(s, action)] for s in node.belief))
            for attack, reached in succs.items():
                if support & game.goal:
                    reached.add(FINAL)
                reached.update(BeliefNode(s2, image & observe(s2, query, attack))
                               for s2 in support - game.goal)
    return out


def offered_attacks(game, successors):
    """The entries of one node's `reference_successors` whose attack is
    enabled at every state the play can land in there: the attacks the
    jammer is offered at that node, each with its successors."""
    return {att: frozenset(succs) for att, succs in successors.items()
            if all(att in game.enabled_attacks[q.state] for q in succs if q is not FINAL)}


def gap_audit_failure(report, choice):
    """The first way the jammer's trap fails, or None.

    At each node of ``choice``'s domain it takes the successors of the
    attack ``choice`` picks there from `reference_successors`, so it
    shares no code with the expansion, `Game.masks` or the jammer
    build.  A failure is ("goal", node, attack) where a kept move can
    complete the task, ("disabled", node, attack, state) where the
    attack is not enabled at a landing state, and ("outside", node,
    attack, successor) where a successor lies outside the domain.
    """
    game, reference = report.mdp.game, reference_successors(report)
    for node, attack in choice.items():
        succs = reference[node][attack]
        if FINAL in succs:
            return ("goal", node, attack)
        for succ in sorted(succs, key=node_key):
            if attack not in game.enabled_attacks[succ.state]:
                return ("disabled", node, attack, succ.state)
            if succ not in choice:
                return ("outside", node, attack, succ)
    return None


def check_jammer_game(name, report, attacker, strategy):
    """Assert every invariant of the jammer's game and its solution on
    one game; each failure names the game by ``name``.  ``attacker`` and
    ``strategy`` are a run's objects, None where Win1 is empty.

    The game's nodes are Win1, and each node's offered attacks, in
    order, and their successors equal those `offered_attacks` reads off
    `reference_successors`, all of them `FINAL` or in Win1.  The strategy's domain, Win2, lies inside Win1
    and holds no goal node.  An attack is safe at a node where its
    successors all lie in Win2, which leaves `FINAL` out.  At each Win2
    node the chosen attack is safe (the one-step rule) and is the
    lowest safe one; no other non-goal node has a safe attack (the
    greatest-fixpoint rule).  Last, `gap_audit_failure` finds no way out
    of the trap.
    """
    if not report.win:
        assert attacker is None and strategy is None, name
        return
    domain = frozenset(strategy)
    assert set(attacker.nodes) == report.win, name
    assert domain <= report.win, name
    game, reference = report.mdp.game, reference_successors(report)
    for node, attacks in jammer_trans(attacker).items():
        expected = offered_attacks(game, reference[node])
        assert list(attacks.items()) == list(expected.items()), (name, node)
        assert all(q is FINAL or q in report.win for succs in attacks.values() for q in succs), (
            name, node)
        safe = [att for att, succs in attacks.items() if succs <= domain]
        if node in domain:
            assert node.state not in game.goal, (name, node)
            assert strategy[node] in safe, (name, node, "the chosen attack is not safe")
            assert strategy[node] == safe[0], (name, node, "a lower attack is safe")
        else:
            assert node.state in game.goal or not safe, (name, node, "a safe node outside Win2")
    if strategy:
        assert gap_audit_failure(report, strategy) is None, name


def brute_force_win2(report, cap: int = 2_000) -> frozenset | None:
    """Win2 by enumeration, or None where more than ``cap`` assignments
    would be checked.

    It reads only Win1, the kept moves and the enabled attacks, through
    `reference_successors` and `offered_attacks`, never the jammer build
    or solve.  Memoryless strategies suffice in safety games (Grädel,
    Thomas & Wilke, eds., LNCS 2500, 2002), so Win2 is the union, over
    every stationary choice of an offered attack at the non-goal Win1
    nodes, of the largest set closed under the chosen successors.  Two
    reductions leave that union unchanged.  An attack with `FINAL` among
    its successors never keeps its node in a closed set, and a set
    closed under one choice stays closed when only that node's choice
    changes, so such attacks are left out.  Attacks with equal successor
    sets count as one choice.
    """
    game, options = report.mdp.game, {}
    for node, successors in reference_successors(report).items():
        if node.state not in game.goal:
            offered = offered_attacks(game, successors).values()
            if safe := {succs for succs in offered if FINAL not in succs}:
                options[node] = list(safe)
    if prod(map(len, options.values())) > cap:
        return None
    won: set = set()
    for picks in product(*options.values()):
        choice = dict(zip(options, picks))
        keep = set(choice)
        while drop := {q for q in keep if not choice[q] <= keep}:
            keep -= drop
        won |= keep
    return frozenset(won)


def plain_brute_force(mdp: BeliefMDP, cap: int = 1_000_000) -> OracleResult:
    """`brute_force_win1` without the prefix refutation: the reference
    it must equal.  It certifies every assignment in product order, the
    first class varying slowest and each class's subsets largest first,
    and counts each one; the cap estimate is the same."""
    start, node_moves = mdp.start, mdp.node_moves
    if start is None:
        return OracleResult(False, 0, 0)
    final = len(mdp.succs)
    reached, seen = [start], {start, final}
    for i in reached:
        fresh = {j for targets in mdp.succs[i] for j in targets} - seen
        seen |= fresh
        reached += fresh

    classes = [members for members in mdp.members if not seen.isdisjoint(members)]
    per_class: list[list[tuple]] = []
    estimate = 1
    for members in classes:
        offered = node_moves[members[0]]
        if not offered:
            per_class.append([()])
            continue
        subsets = [combo for size in range(len(offered), 0, -1)
                   for combo in combinations(offered, size)]
        estimate *= len(subsets)
        if estimate > cap:
            raise CapExceededError(estimate, cap)
        per_class.append(subsets)

    cls = [0] * final
    for c, members in enumerate(classes):
        for i in members:
            cls[i] = c
    succ: list = [None] * final
    for i in reached:
        moves = dict(zip(node_moves[i], mdp.succs[i]))
        succ[i] = [[j for k in subset for j in moves[k]] for subset in per_class[cls[i]]]

    checked = 0
    for choice in product(*(range(len(subsets)) for subsets in per_class)):
        checked += 1
        ok, _ = certify_almost_sure_reach(start, lambda i: succ[i][choice[cls[i]]], final)
        if ok:
            return OracleResult(True, checked, len(classes))
    return OracleResult(False, checked, len(classes))
