"""Belief-space expansion of the arena under jam-induced sensor failures.

The agent tracks a belief: the set of states consistent with the play so
far.  She does not model a hostile jammer; each possible jamming outcome
is treated as an ordinary stochastic sensor fault.  Under that reading
the perceived dynamics form a perfect-information MDP over (state,
belief) pairs plus one absorbing node, `FINAL`, entered exactly when the
task is surely complete.

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
gains by landing in s' depend only on (image, s', query), so each such
triple is resolved once.  Nodes are interned: each (state, mask) pair has one
`BeliefNode` and each mask one frozenset, so every successor key in
``trans`` is the very object listed in ``nodes``.

This module is the one home of the canonical order: `BeliefMDP.nodes`
lists nodes by `node_key` and `BeliefMDP.classes` lists beliefs sorted,
and later stages walk those two rather than sort again.  It is also the
one place where nodes become ints.  `BeliefMDP.dense` derives the
perceived game on ints from ``trans``, once per MDP: node i is
``nodes[i]``, `FINAL` is N, and move k is the k-th distinct move in
sorted order.  The agent solver, its soundness audit and the
brute-force referee all read that one numbering, and only turn ints
back into nodes and moves for what they report.  It is derived from
``trans`` rather than emitted by the expansion, so a hand-built MDP,
such as a `restricted` one, gets it the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .game import ActionId, AttackId, Game, QueryId, StateId, states_of


class BeliefNode(NamedTuple):
    """A perceived-game node: true state plus the agent's belief.

    A named tuple, so hashing and equality run in C.  Nodes are never
    indexed, unpacked or ordered as tuples; their order is `node_key`'s.
    """

    state: StateId
    belief: frozenset[StateId]


class _Final:
    """The absorbing task-complete node."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FINAL"


FINAL = _Final()

# A perceived-game move: control action paired with a sensor query.
ActionPair = tuple[ActionId, QueryId]
# Successors of one move, each annotated with the attacks that produce it.
# The FINAL successor is attack-independent and carries an empty set.
SuccessorMap = Mapping["BeliefNode | _Final", frozenset[AttackId]]


def node_key(node: BeliefNode) -> tuple[StateId, tuple[StateId, ...]]:
    """The key of the canonical order: state id first, then the sorted
    belief.  `BeliefMDP.nodes` and `BeliefMDP.classes` hold that order,
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
    """The perceived game, fully expanded and immutable.

    ``nodes`` lists every (state, belief) node in canonical order, the
    order of `node_key`; the absorbing `FINAL` node is kept separate.
    ``trans[q][(a, qr)]`` maps each successor to the set of attacks that
    produce it, with each node's moves in sorted order.  ``classes``
    groups nodes by belief, beliefs in sorted order and each class's
    members in ``nodes`` order.  These two fields are the one home of
    the canonical order: every consumer walks them rather than sorting.
    """

    game: Game
    initial: BeliefNode
    nodes: tuple[BeliefNode, ...]
    trans: Mapping[BeliefNode, Mapping[ActionPair, SuccessorMap]]
    classes: Mapping[frozenset[StateId], tuple[BeliefNode, ...]]

    @cached_property
    def dense(self) -> DenseMDP:
        """This MDP on ints (see the module notes), derived on first use."""
        index: dict = {q: i for i, q in enumerate(self.nodes)}
        index[FINAL] = len(self.nodes)
        per_node = [self.trans[q] for q in self.nodes]
        moves = sorted({pair for node_moves in per_node for pair in node_moves})
        move_id = {pair: k for k, pair in enumerate(moves)}
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per move set
        ids = (tuple([move_id[pair] for pair in node_moves]) for node_moves in per_node)
        return DenseMDP(
            moves=tuple(moves),
            node_moves=tuple(shared.setdefault(ks, ks) for ks in ids),
            succs=tuple(tuple(tuple([index[s] for s in succs]) for succs in node_moves.values())
                        for node_moves in per_node),
            classes=tuple(tuple(index[q] for q in members) for members in self.classes.values()),
            initial=index.get(self.initial))


@dataclass(frozen=True, slots=True)
class DenseMDP:
    """The perceived game on ints.

    Node i is ``BeliefMDP.nodes[i]`` and `FINAL` is ``len(succs)``.
    ``node_moves[i]`` holds the ids of node i's moves in ``trans`` order,
    where id k stands for ``moves[k]``; nodes with the same moves share
    one tuple.  ``succs[i][t]`` holds the successor ids of node i's t-th
    move, in ``trans`` order too.  ``classes`` holds each class's member
    ids, in ``BeliefMDP.classes`` order.  ``initial`` is the start node's
    id, or None where a `restricted` MDP left the start node out.
    """

    moves: tuple[ActionPair, ...]
    node_moves: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[tuple[int, ...], ...], ...]
    classes: tuple[tuple[int, ...], ...]
    initial: int | None


def build_belief_mdp(game: Game) -> BeliefMDP:
    """Expand the perceived game reachable from the known start.

    Exploration is a worklist sweep from (s0, {s0}).  Whenever a new
    belief appears, every (s', belief) node with s' in the belief is
    materialized and explored too, so equivalence classes are never
    split.  All iteration is in sorted order, making the result
    reproducible node for node.  The sweep runs on masks (see the module
    notes); nodes and frozensets are made once, when a belief is found.
    """
    masks = game.masks
    n_states = game.n_states
    n_actions = len(game.action_names)
    n_queries = len(game.queries)

    keys: dict[int, tuple[StateId, ...]] = {}  # mask -> sorted states
    members: dict[int, dict[StateId, BeliefNode]] = {}  # mask -> its nodes
    # Each queued node carries its belief's offered (action, image mask)s.
    queue: deque[tuple[BeliefNode, list[tuple[ActionId, int]]]] = deque()

    def discover_belief(mask: int) -> None:
        states = keys[mask] = states_of(mask)
        offered = [(a, masks.image(states, a))
                   for a in range(n_actions) if (mask & ~masks.enabled[a]) == 0]
        belief = frozenset(states)
        nodes = members[mask] = {}
        for s in states:
            nodes[s] = node = BeliefNode(s, belief)
            queue.append((node, offered))

    # Successors a move gains when nature lands in s2 from a belief whose
    # action image is ``image``, as {node: attacks}, keyed by (image, s2,
    # query) packed into one int.
    landings: dict[int, dict[BeliefNode, frozenset[AttackId]]] = {}

    def landing(image: int, s2: StateId, query: QueryId) -> dict:
        key = (image * n_states + s2) * n_queries + query
        found = landings.get(key)
        if found is not None:
            return found
        by_belief: dict[int, list[AttackId]] = {}
        for att, view in masks.views[s2][query].items():
            b2 = image & view
            if b2 not in by_belief:
                by_belief[b2] = []
                if b2 not in members:
                    discover_belief(b2)
            by_belief[b2].append(att)
        out = landings[key] = {
            members[b2][s2]: frozenset(atts) for b2, atts in by_belief.items()}
        return out

    # The move pairs and FINAL's empty attack set are made once and
    # shared, as the keys above are ints: a fresh tuple or set per move or
    # per lookup would be tracked by the cyclic garbage collector and
    # walked by its passes.
    pairs = [[(a, q) for q in range(n_queries)] for a in range(n_actions)]
    no_attacks: frozenset[AttackId] = frozenset()
    discover_belief(1 << game.initial)
    start = queue[0][0]
    trans: dict[BeliefNode, dict[ActionPair, dict]] = {}
    while queue:
        node, offered = queue.popleft()
        moves: dict[ActionPair, dict] = {}
        trans[node] = moves
        for action, image in offered:
            support = masks.support[(node.state, action)]
            outside = states_of(support & ~masks.goal)
            to_final = not outside or (support & masks.goal) != 0
            for query, pair in enumerate(pairs[action]):
                succs: dict = {FINAL: no_attacks} if to_final else {}
                for s2 in outside:
                    succs.update(landing(image, s2, query))
                moves[pair] = succs

    ranked = sorted((s, key, mask) for mask, key in keys.items() for s in key)
    classes: dict[frozenset[StateId], tuple[BeliefNode, ...]] = {}
    for mask in sorted(keys, key=keys.__getitem__):
        nodes = tuple(members[mask].values())
        classes[nodes[0].belief] = nodes
    return BeliefMDP(
        game=game, initial=start,
        nodes=tuple(members[mask][s] for s, _key, mask in ranked),
        trans=trans, classes=classes)


def restricted(mdp: BeliefMDP, keep: Iterable[BeliefNode]) -> BeliefMDP:
    """Sub-MDP on ``keep``: a class keeps a move only if, from every kept
    member, the move's successors all stay inside.

    `FINAL` is always retained.  Beliefs whose class gets split by the
    restriction keep only the surviving members, and class-mates keep
    the same moves.  Nodes and classes keep ``mdp``'s order.
    """
    kept = set(keep)
    nodes = tuple(q for q in mdp.nodes if q in kept)
    classes: dict[frozenset[StateId], tuple[BeliefNode, ...]] = {}
    allowed: dict[frozenset[StateId], set[ActionPair]] = {}
    for belief, members in mdp.classes.items():
        inside = tuple(q for q in members if q in kept)
        if inside:
            classes[belief] = inside
            allowed[belief] = {pair for pair in mdp.trans[inside[0]]
                               if all(s is FINAL or s in kept
                                      for q in inside for s in mdp.trans[q][pair])}
    trans = {q: {pair: succs for pair, succs in mdp.trans[q].items()
                 if pair in allowed[q.belief]}
             for q in nodes}
    return BeliefMDP(game=mdp.game, initial=mdp.initial, nodes=nodes,
                     trans=trans, classes=classes)
