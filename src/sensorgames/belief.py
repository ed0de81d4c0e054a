"""Belief-space expansion of the arena under jam-induced sensor failures.

The agent tracks a belief: the set of states consistent with the play so
far.  She does not model a hostile jammer; each possible jamming outcome
is treated as an ordinary stochastic sensor fault.  Under that reading
the perceived dynamics form a perfect-information MDP over (state,
belief) pairs plus one absorbing node, `FINAL`, entered exactly when the
task is surely complete.  `FINAL` is one object, made at import and
matched by identity; no stage copies or pickles a node.

A move from node (s, B) under the pair (a, q) -- control action a, query
q -- resolves in three steps: nature picks a successor s' of s under a;
nature picks a jamming outcome allowed at s'; the next belief is the
action image of B filtered by the resulting observation.  Moves whose
whole successor support lies in the goal jump straight to `FINAL`; a
support that merely touches the goal contributes `FINAL` alongside the
ordinary successors.

Two nodes with the same belief are indistinguishable to the agent, so
node-level analyses must treat each belief's nodes as one equivalence
class.  Construction materializes every (s', B) with s' in B for each
discovered belief, which keeps those classes whole.

The boundary types are `BeliefNode` and frozenset beliefs; inside the
expansion a belief is an int mask with bit s set for state s, and the
game is read through its tables, `Game.masks`, which the simulator
reads too.  A belief's offered actions and their images are computed
once per belief rather than once per node, and the successors a move
gains by landing in s' depend only on (image, s', query), so each
distinct image is resolved once, for every landing state and query.
The nodes are ranked without sorting them: the beliefs are sorted once,
and listing each state's beliefs in that order gives the canonical
order.  A node's rows under an action depend only on (state, action,
image), so each such triple is joined once, and the rows are pooled:
each distinct successor row and attack row is one tuple, shared by
every move that has it.  Each (state, mask) pair gets one `BeliefNode`
and each belief mask one frozenset; a set of attacks stays the int mask
the expansion builds it as, with bit t set for attack t.  Each working
table is dropped once its last reader is done: a resolved landing
becomes its node ids and attack masks in place, and the ranking tables
go before the rows are joined.  The offered moves and the row memo,
which live until the expansion ends, hold tuples, not lists: a tuple is
sized exactly, and the cyclic garbage collector stops tracking one that
holds only ints, as every successor row and attack row does.  So the
expansion's peak stays near twice what it keeps.

This module is the one home of the canonical order: `BeliefMDP.nodes`
lists nodes by `node_key` and `BeliefMDP.members` lists the classes by
sorted belief, and later stages walk those two rather than sort again.
It is also the one place where nodes become ints.  The expansion emits
the perceived game on ints and `BeliefMDP` stores it in no other form:
node i is ``nodes[i]``, `FINAL` is N, and move k is the k-th (action,
query) pair in ascending order.  The agent solver, its soundness audit,
the brute-force referee, the jammer build and the Graphviz views all
read that one numbering, and only turn ints back into nodes and moves
for what they report.  The jammer's game, `AttackerMDP`, is stored on
ints the same way: its nodes are the Win1 nodes in this order, numbered
by position, and its `FINAL` is the position after the last.
``BeliefMDP.initial``, ``BeliefMDP.classes`` and ``BeliefMDP.trans``
are views of the ints in nodes: the start node, the classes keyed by
belief, and the game keyed by nodes and moves.  The last two are built
on first read, and no stage reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count, filterfalse
from typing import NamedTuple

from .game import ActionId, Game, QueryId, StateId, states_of


class BeliefNode(NamedTuple):
    """A perceived-game node: true state plus the agent's belief.

    A named tuple, so hashing and equality run in C.  Nodes are never
    indexed, unpacked or ordered as tuples; their order is `node_key`'s.
    """

    state: StateId
    belief: frozenset[StateId]


class _Final:
    """The absorbing task-complete node."""

    def __repr__(self) -> str:
        return "FINAL"


FINAL = _Final()

# A perceived-game move: control action paired with a sensor query.
ActionPair = tuple[ActionId, QueryId]


def node_key(node: BeliefNode) -> tuple[StateId, tuple[StateId, ...]]:
    """The key of the canonical order: state id first, then the sorted
    belief.  `BeliefMDP.nodes` and `BeliefMDP.members` hold that order,
    so consumers walk them instead of sorting by this key."""
    return (node.state, tuple(sorted(node.belief)))


def node_label(game: Game, node: BeliefNode) -> str:
    inner = ",".join(game.state_names[s] for s in sorted(node.belief))
    return f"({game.state_names[node.state]},{{{inner}}})"


def move_label(game: Game, move: ActionPair) -> str:
    action, query = move
    return f"({game.action_names[action]},{game.queries[query].name})"


@dataclass(frozen=True)
class BeliefMDP:
    """The perceived game, fully expanded and immutable, on ints.

    ``nodes`` lists every (state, belief) node in canonical order, the order
    of `node_key`; node i is ``nodes[i]`` and the absorbing `FINAL` is
    ``len(nodes)``.  ``moves`` lists every (action, query) pair in
    ascending order, so move k stands for ``moves[k]``.
    ``node_moves[i]`` holds the ids of node i's moves, ascending;
    class-mates share one tuple.  ``succs[i][t]`` holds the successor
    ids of node i's t-th move and ``attacks[i][t]`` the mask of the
    attacks that produce each of them, bit t for attack t, in the same
    order; `FINAL`'s mask is 0.  ``members`` holds each class's member
    ids, beliefs in sorted order and each class's members in ``nodes``
    order.  ``start`` is the start node's id.  `build_belief_mdp` always
    sets it, but a sub-MDP built from these fields, such as the winning
    region of a game whose start loses, may leave the start node out;
    ``start`` is then None, and so is ``initial``.  ``nodes`` and
    ``members`` are the one home of the canonical order: every consumer
    walks them rather than sorting.
    """

    game: Game
    nodes: tuple[BeliefNode, ...]
    moves: tuple[ActionPair, ...]
    node_moves: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[tuple[int, ...], ...], ...]
    attacks: tuple[tuple[tuple[int, ...], ...], ...]
    members: tuple[tuple[int, ...], ...]
    start: int | None

    @property
    def initial(self) -> BeliefNode | None:
        """The start node, or None where ``start`` is."""
        return None if self.start is None else self.nodes[self.start]

    @cached_property
    def classes(self) -> dict[frozenset[StateId], tuple[BeliefNode, ...]]:
        """``members`` keyed by belief, as nodes, built on first read."""
        nodes = self.nodes
        return {nodes[ids[0]].belief: tuple(map(nodes.__getitem__, ids)) for ids in self.members}

    @cached_property
    def trans(self) -> dict[BeliefNode, dict[ActionPair, dict]]:
        """The game keyed by nodes and moves, built on first read.

        ``trans[q][(a, qr)]`` maps each successor to the frozenset of
        attacks that produce it, its mask in ``attacks`` decoded;
        `FINAL`'s is empty.  Each distinct mask is decoded once per view,
        and its frozenset shared by every edge that has it.  Each node's
        moves are in ascending order and each move's successors in
        ``succs`` order.  Every key is the very node object listed in
        ``nodes``.
        """
        moves, node_of = self.moves, self.nodes + (FINAL,)
        attack_set = cache(lambda on: frozenset(states_of(on)))
        return {q: {moves[k]: dict(zip(map(node_of.__getitem__, targets), map(attack_set, atts)))
                    for k, targets, atts in zip(*rows)}
                for q, *rows in zip(self.nodes, self.node_moves, self.succs, self.attacks)}


def build_belief_mdp(game: Game) -> BeliefMDP:
    """Expand the perceived game reachable from the known start.

    The expansion runs in two passes on masks (see the module notes).
    The first sweeps beliefs from {s0}: it finds each belief's offered
    actions and their images, and resolves each distinct image once,
    for every (landing state, query), to the next beliefs and their
    attacks.  The landing states are the non-goal states of each image,
    the union over the class's members of the states a move can land
    in, so every (s', belief) node with s' in a found belief is
    materialized and classes are never split.  The second ranks the
    nodes by `node_key` from the sorted beliefs, turns each resolved
    landing, in place, into a tuple of ids and a tuple of attack masks,
    and joins those tuples into the rows of each (state, action, image)
    once, one pooled tuple per distinct row.  Nodes and belief
    frozensets are made once, when the nodes are ranked; each attack
    set is stored as the mask the first pass built, and `FINAL`'s as 0.
    Each table is dropped once its last reader is done, so the ranking
    tables are gone before the rows are joined.
    """
    masks, n_states, n_queries = game.masks, game.n_states, len(game.queries)
    n_actions = len(masks.enabled)

    queue = [1 << game.initial]
    keys = {queue[0]: (game.initial,)}  # mask -> sorted states
    offered: dict[int, tuple[tuple[ActionId, int], ...]] = {}  # mask -> (action, image)s
    move_ids: dict[int, tuple[int, ...]] = {}  # mask -> its move ids, one tuple per class
    # The beliefs a move reaches when nature lands in s2 from a belief
    # whose action image is ``image``, each with the mask of the attacks
    # that produce it, keyed by (image, query, s2) packed into one int.
    # The keys depend only on the image, so each image is resolved once.
    # Once the nodes are ranked, each landing becomes the pair of its
    # node ids and its attack masks.
    landings: dict[int, dict[int, int] | tuple[tuple[int, ...], tuple[int, ...]]] = {}
    resolved: set[int] = set()
    for mask in queue:
        actions = [a for a, enabled in enumerate(masks.enabled) if (mask & ~enabled) == 0]
        offered[mask] = tuple([(a, masks.image(keys[mask], a)) for a in actions])
        move_ids[mask] = tuple([a * n_queries + q for a in actions for q in range(n_queries)])
        for _action, image in offered[mask]:
            if image in resolved:
                continue
            resolved.add(image)
            for s2 in states_of(image & ~masks.goal):
                for query, views in enumerate(masks.views[s2]):
                    found = landings[(image * n_queries + query) * n_states + s2] = {}
                    for att, view in views.items():
                        b2 = image & view
                        found[b2] = found.get(b2, 0) | 1 << att
                    for b2 in filterfalse(keys.__contains__, found):  # new beliefs
                        keys[b2] = states_of(b2)
                        queue.append(b2)

    # Beliefs in sorted order, then each state's beliefs in that order:
    # listing the nodes state by state gives the `node_key` order.
    order = sorted(keys, key=keys.__getitem__)
    by_state: list[list[int]] = [[] for _ in range(n_states)]
    for mask in order:
        for s in keys[mask]:
            by_state[s].append(mask)
    # ids[s][mask]: the id of node (s, mask).  zip stops at the end of
    # each state's masks before it draws from the counter.
    counter = count()
    ids = [dict(zip(masks_of_s, counter)) for masks_of_s in by_state]
    beliefs = {mask: frozenset(states) for mask, states in keys.items()}
    nodes = tuple(BeliefNode(s, beliefs[mask])
                  for s, masks_of_s in enumerate(by_state) for mask in masks_of_s)
    members = tuple(tuple(ids[s][mask] for s in keys[mask]) for mask in order)
    node_moves = tuple(move_ids[mask] for masks_of_s in by_state for mask in masks_of_s)
    start = ids[game.initial][1 << game.initial]
    # Each landing becomes its node ids and attack masks in place, which
    # frees its dict; the ranking tables have no reader after that.
    for key, found in landings.items():
        landings[key] = (tuple(map(ids[key % n_states].__getitem__, found)), tuple(found.values()))
    del ids, keys, beliefs, move_ids, order
    # (s, a) -> what each of its moves starts with (FINAL, where the
    # support touches the goal) and the non-goal states it lands in
    outcomes = {key: (((len(nodes),), (0,)) if support & masks.goal else ((), ()),
                   states_of(support & ~masks.goal)) for key, support in masks.support.items()}
    # A node's rows under an action depend only on (state, action,
    # image), so each such triple is joined once, and each distinct row
    # is one tuple shared by every node that has it.
    rows: dict[int, tuple[tuple, tuple]] = {}
    pool: dict[tuple, tuple] = {}
    succs, attacks = [], []
    for s, masks_of_s in enumerate(by_state):
        for mask in masks_of_s:
            node_succs, node_attacks = [], []
            for action, image in offered[mask]:
                row = rows.get(key := (image * n_actions + action) * n_states + s)
                if row is None:
                    head, landing = outcomes[(s, action)]
                    row_succs, row_attacks = [], []
                    for query in range(n_queries):
                        targets, atts = head
                        base = (image * n_queries + query) * n_states
                        for s2 in landing:
                            land_succs, land_atts = landings[base + s2]
                            targets += land_succs
                            atts += land_atts
                        row_succs.append(pool.setdefault(targets, targets))
                        row_attacks.append(pool.setdefault(atts, atts))
                    row = rows[key] = (tuple(row_succs), tuple(row_attacks))
                node_succs += row[0]
                node_attacks += row[1]
            succs.append(tuple(node_succs))
            attacks.append(tuple(node_attacks))

    return BeliefMDP(
        game=game, nodes=nodes,
        moves=tuple((a, q) for a in range(n_actions) for q in range(n_queries)),
        node_moves=node_moves, succs=tuple(succs), attacks=tuple(attacks),
        members=members, start=start)
