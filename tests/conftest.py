"""Shared fixtures and helpers: the bundled games solved once per
session, read from `inputs`."""

from __future__ import annotations

from itertools import combinations, product

import pytest

from sensorgames.belief import FINAL, BeliefMDP, BeliefNode
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


def gap_audit_failure(game, strategy, choice, gap):
    """The first way the jammer's trap fails, or None.

    From each gap node it explores the (state, belief) pairs a play can
    reach under every kept move of ``strategy``, every successor in
    ``game.trans`` and the attack ``choice`` picks, with the belief
    updated by set algebra over `get_observation`: the action image
    intersected with what the true successor shows.  It shares no code
    with the expansion, `Game.masks` or the jammer build.  A failure is
    ("goal", node, move, state) where a goal state is reached,
    ("disabled", node, attack, state) where the attack is not enabled
    at a landing state, and ("outside", node, move, successor) where a
    reached node lies outside ``choice``'s domain.
    """
    seen, queue = set(gap), list(gap)
    for node in queue:
        attack = choice[node]
        for action, query in sorted(strategy.allowed[node]):
            image = set().union(*(game.trans[(b, action)] for b in node.belief))
            for state in game.trans[(node.state, action)]:
                if state in game.goal:
                    return ("goal", node, (action, query), state)
                if attack not in game.enabled_attacks[state]:
                    return ("disabled", node, attack, state)
                view = get_observation(game, state, query, attack)
                succ = BeliefNode(state, frozenset(image & view))
                if succ not in choice:
                    return ("outside", node, (action, query), succ)
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
    return None


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
