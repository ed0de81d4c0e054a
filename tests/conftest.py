"""Shared fixtures and helpers: the bundled games solved once per
session, read from `inputs`; one checker per stage, of every invariant
of a full expansion and of the agent's result, with the audit on both
forms of a strategy; the jammer side's reference: its successors
recomputed from the observation rule, one checker of every invariant
of a jammer game, which also shuts each way out of the jammer's trap,
an attractor Win2 reference, a round-based one and a brute-force Win2
referee; the simulator's draw rule, `randbelow`; and `traced_memory`,
which measures a call's working set."""

from __future__ import annotations

import gc
import tracemalloc
from functools import cache, partial
from itertools import combinations, product
from math import prod
from typing import Callable

import pytest

from sensorgames.attacker import AttackerMDP
from sensorgames.belief import FINAL, BeliefMDP, BeliefNode, node_key
from sensorgames.game import get_observation
from sensorgames.oracle import CapExceededError, OracleResult
from sensorgames.planner import (MultiStrategy, SoundnessVerdict, certify_almost_sure_reach,
                                 check_soundness, solve_p1)

from .inputs import case_run, case_text, load_corpus, release, restricted


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
    return BeliefNode(game.state(state), frozenset(map(game.state, belief)))


def audit(mdp: BeliefMDP, allowed) -> SoundnessVerdict:
    """`check_soundness` on ``allowed``, a node-to-moves map, which must
    give the same verdict on the map's all-node form: ``frozenset()`` at
    every node it does not list, as perfbench's `audit_document` builds
    it."""
    verdict = check_soundness(mdp, MultiStrategy(allowed))
    every = {q: allowed.get(q, frozenset()) for q in mdp.nodes}
    assert check_soundness(mdp, MultiStrategy(every)) == verdict
    assert (verdict.witness is None) == verdict.ok, verdict
    return verdict


def check_perceived_game(name, mdp: BeliefMDP) -> None:
    """Assert every invariant of a full expansion, on its ints; each
    failure names the game by ``name``.

    - ``nodes`` is in `node_key` order, each node's state in its belief.
    - ``moves`` is every (action, query) pair, ascending.
    - ``members`` partitions the ids, classes in sorted-belief order,
      and the class of B is (s, B) for each s in sorted(B).
    - Class-mates hold one ``node_moves`` tuple: every move, ascending,
      of each action enabled at every state of B.
    - ``start`` is the (s0, {s0}) node.
    - Every row equals one recomputed from ``game.trans`` and
      `get_observation`, as `reference_successors` computes it: `FINAL`
      with mask 0 first where the support touches the goal, then, for
      each non-goal successor state in ascending order, the beliefs
      its enabled attacks make, each with the mask of those attacks,
      in the order the attacks first make them.
    """
    game, nodes = mdp.game, mdp.nodes
    keys = list(map(node_key, nodes))
    assert keys == sorted(set(keys)) and all(q.state in q.belief for q in nodes), (name, "order")
    moves = tuple(product(range(len(game.action_names)), range(len(game.queries))))
    assert mdp.moves == moves, (name, "moves")
    beliefs = [keys[ids[0]][1] for ids in mdp.members]
    assert beliefs == sorted(beliefs) and sorted(i for ids in mdp.members for i in ids) == list(
        range(len(nodes))), (name, "classes")
    for ids, belief in zip(mdp.members, beliefs):
        assert [keys[i] for i in ids] == [(s, belief) for s in belief], (name, "classes", ids)
        ks = mdp.node_moves[ids[0]]
        assert ks == tuple(k for k, (a, _) in enumerate(moves) if all(
            (s, a) in game.trans for s in belief)), (name, "node_moves", ids)
        assert all(mdp.node_moves[i] is ks for i in ids), (name, "node_moves", ids)
    assert nodes[mdp.start] == BeliefNode(game.initial, frozenset({game.initial})), (name, "start")
    index = {q: i for i, q in enumerate(nodes)}
    observe = cache(partial(get_observation, game))
    for i, q in enumerate(nodes):
        rows = []
        for a, query in map(moves.__getitem__, mdp.node_moves[i]):
            support = frozenset(game.trans[(q.state, a)])
            image = frozenset().union(*(game.trans[(s, a)] for s in q.belief))
            found = {len(nodes): 0} if support & game.goal else {}
            for s2 in sorted(support - game.goal):
                for att in game.enabled_attacks[s2]:
                    j = index.get(BeliefNode(s2, image & observe(s2, query, att)))
                    found[j] = found.get(j, 0) | 1 << att
            rows.append(found)
        assert (mdp.succs[i], mdp.attacks[i]) == (tuple(map(tuple, rows)), tuple(
            tuple(found.values()) for found in rows)), (name, "row", i)


def check_agent_result(name, report) -> None:
    """Assert every invariant of the agent's result, one `SolveReport`;
    each failure names the report by ``name``.  It reads the perceived
    game's ints, never its node-keyed views.

    - The audit passes, on both forms of the strategy (`audit`).
    - The strategy's domain is Win1: it lists nodes in canonical order,
      each with a nonempty set, and ``report.win`` is that domain.
    - Class-mates keep one set, a node the strategy does not list
      keeping none.
    - The levels partition the other nodes, each level in canonical
      order and none but level 0 empty, and no move leaves level 0, so
      `FINAL` is unreachable from it.
    - Replaying the trace from the offered moves, level 0 keeping none,
      withdraws only kept moves, in rounds that never go back and each
      on account of a doomed node, and leaves exactly the strategy.
    - Solving again on Win1 removes nothing and keeps the strategy.
    """
    mdp, allowed = report.mdp, report.strategy.allowed
    verdict = audit(mdp, allowed)
    assert verdict, (name, verdict.reason)
    index = {q: i for i, q in enumerate(mdp.nodes)}
    move_id = {move: k for k, move in enumerate(mdp.moves)}
    kept = {index[q]: frozenset(map(move_id.__getitem__, moves)) for q, moves in allowed.items()}
    assert list(kept) == sorted(kept) and all(kept.values()) and report.win == set(allowed), (
        name, "the domain is not Win1")
    assert all(len({kept.get(i) for i in ids}) == 1 for ids in mdp.members), (name, "not uniform")

    levels = [[index[q] for q in level] for level in report.levels]
    assert levels and all(levels[1:]) and all(level == sorted(level) for level in levels), name
    doomed = [i for level in levels for i in level]
    assert sorted(doomed + list(kept)) == list(range(len(mdp.nodes))), (name, "not a partition")
    core = set(levels[0])
    assert all(j in core for i in core for row in mdp.succs[i] for j in row), (name, "level 0")

    replay = [set() if i in core else set(ks) for i, ks in enumerate(mdp.node_moves)]
    removals, fallen = report._removals, set(doomed)
    assert list(removals[::4]) == sorted(removals[::4]), (name, "rounds go back")
    for r, i, k, cause in zip(*[iter(removals)] * 4):
        assert k in replay[i] and cause in fallen, (name, "removal", r, i, k, cause)
        replay[i].remove(k)
    assert {i: frozenset(ks) for i, ks in enumerate(replay) if ks} == kept, (name, "replay")

    again = solve_p1(restricted(mdp, allowed))
    assert (again._removals, again.levels) == ((), ((),)), (name, "solving Win1 again removes")
    assert list(again.strategy.allowed.items()) == list(allowed.items()), name


def node_views(mdp: BeliefMDP):
    """``(mdp.trans, mdp.classes)``, built afresh and not cached on
    ``mdp``.  The shared inputs live for the whole session, so a cached
    view would keep its nodes and dicts alive, and walked by every
    garbage collection, until the session ends."""
    return BeliefMDP.trans.func(mdp), BeliefMDP.classes.func(mdp)


def jammer_view(adv) -> dict:
    """``adv.trans``, built afresh and not cached on ``adv``, for the
    reason `node_views` gives."""
    return AttackerMDP.trans.func(adv)


def jammer_trans(adv):
    """The jammer's game keyed by nodes: ``jammer_trans(adv)[q][att]`` is
    the set of successor nodes, `FINAL` included, of attack att at node
    q, with each node's attacks ascending.  It maps ``adv.trans``, which
    holds positions in ``adv.nodes``, back to nodes."""
    node_of = adv.nodes + (FINAL,)
    return {node_of[p]: {att: frozenset(map(node_of.__getitem__, succs))
                         for att, succs in offered.items()}
            for p, offered in jammer_view(adv).items()}


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
    for node, kept in report.strategy.allowed.items():
        out[node] = succs = {attack: set() for attack in range(len(game.attacks))}
        for action, query in kept:
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


def check_jammer_game(name, report, attacker, strategy):
    """Assert every invariant of the jammer's game and its solution on
    one game; each failure names the game by ``name``.  ``attacker`` and
    ``strategy`` are a run's objects, None where Win1 is empty.

    The game's nodes are Win1, in the strategy's order, and each node's
    offered attacks, in order, and their successors, as sets of nodes,
    equal those `offered_attacks` reads off `reference_successors`, all
    of them `FINAL` or in Win1.  The strategy's domain, Win2, lies
    inside Win1 and holds no goal node.  An attack is safe at a node
    where its successors all lie in Win2, which leaves `FINAL` out.  At
    each Win2 node the chosen attack is safe (the one-step rule) and is
    the lowest safe one; no non-goal node outside Win2 has an attack
    whose successors all lie in Win2 (Win2 is closed under safe attacks).
    So the trap has no way out: a chosen attack is offered, hence
    enabled at every state the play can land in, and none of its
    successors completes the task or leaves Win2.  None of this shows
    that Win2 is the largest such set: an empty strategy passes on
    every game.  `attractor_win2` and `brute_force_win2` check
    maximality.
    """
    if not report.win:
        assert attacker is None and strategy is None, name
        return
    domain = frozenset(strategy)
    assert attacker.nodes == tuple(report.strategy.allowed), name
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


def attractor_win2(report) -> dict:
    """The jammer's strategy as a safety game's solution: the complement
    of the attractor to completion (Grädel, Thomas & Wilke, eds., LNCS
    2500, 2002).

    It reads only Win1, the kept moves and the enabled attacks, through
    `reference_successors` and `offered_attacks`, never the jammer build
    or solve.  The worklist starts from `FINAL`, the goal-state nodes
    and the nodes offered no attack.  Each popped node strikes every
    attack that can reach it, and a node falls once all its attacks are
    struck.  The survivors are Win2; each is mapped to its lowest attack
    never struck, in `node_key` order.
    """
    game = report.mdp.game
    live, preds = {}, {}  # preds[q]: the (node, attack) pairs that can reach q
    for node, successors in reference_successors(report).items():
        offered = offered_attacks(game, successors)
        live[node] = set(offered)
        for att, succs in offered.items():
            for q in succs:
                preds.setdefault(q, []).append((node, att))
    fallen = [FINAL, *(q for q, atts in live.items() if q.state in game.goal or not atts)]
    out = set(fallen)
    while fallen:
        for node, att in preds.get(fallen.pop(), ()):
            live[node].discard(att)
            if not live[node] and node not in out:
                out.add(node)
                fallen.append(node)
    return {q: min(live[q]) for q in sorted(live.keys() - out, key=node_key)}


def rounds_win2(adv) -> dict:
    """The jammer's strategy as a greatest fixpoint run in rounds over
    ``adv.trans``, which holds positions in ``adv.nodes``.

    Start from every node whose true state is outside the goal and
    shrink: a node survives a round only if some offered attack keeps all
    its successors inside the surviving set, which never holds `FINAL`.
    Each round records the lowest such attack at every survivor; once a
    round removes nothing, its record is the strategy, in ``adv.nodes``
    order.  A round costs a pass over the whole game, so a long chain of
    falling nodes costs a pass per link, where the worklist of
    `solve_p2_safety` visits each edge once.
    """
    goal, nodes = adv.game.goal, adv.nodes
    safe = {p for p, q in enumerate(nodes) if q.state not in goal}
    trans = jammer_view(adv)
    while True:
        choice = {}
        for p, offered in trans.items():
            if p in safe:
                for att, succs in offered.items():
                    if succs <= safe:
                        choice[p] = att
                        break
        if len(choice) == len(safe):
            return {nodes[p]: att for p, att in choice.items()}
        safe = set(choice)


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


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform index below ``n``, drawn as `random.Random.randrange(n)`
    draws it: ``n.bit_length()`` bits at a time until the value is below
    ``n``.  ``n == 1`` still draws, so later draws do not shift.  The
    simulator draws each move, and each successor of an unweighted row,
    by this rule inline."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def traced_memory(function: Callable, *args):
    """``(function(*args), kept, peak)``: the bytes that the call's
    allocations still hold when it returns, and the most they held at
    once, as `tracemalloc` counts them.  A full collection runs first,
    so every call starts from the same collector state, and another one
    runs before ``kept`` is read, which empties the interpreter's free
    lists: a freed object parked there does not count as kept, however
    long ago the collector last ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, kept, peak
