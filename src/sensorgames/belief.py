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
expansion a belief is an int mask with bit s set for state s.  The game
is read once into masks: the observation of each (state, query,
attack) triple, through `get_observation`, the successor support of each
enabled (state, action), and the states where each action is enabled.
A belief's offered actions and their images are computed once per
belief rather than once per node, and the successors a move gains by
landing in s' depend only on (image, s', query), so each such triple
is resolved once.  Nodes are interned: each (state, mask) pair has one
`BeliefNode` and each mask one frozenset, so every successor key in
``trans`` is the very object listed in ``nodes``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Mapping

from .game import (
    ActionId,
    AttackId,
    Game,
    QueryId,
    StateId,
    get_observation,
)


@dataclass(frozen=True)
class BeliefNode:
    """A perceived-game node: true state plus the agent's belief."""

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


class FinalHasNoClassError(Exception):
    """The absorbing node carries no belief, hence no equivalence class."""


def belief_key(belief: frozenset[StateId]) -> tuple[StateId, ...]:
    return tuple(sorted(belief))


def node_key(node: BeliefNode) -> tuple[StateId, tuple[StateId, ...]]:
    """Canonical ordering key: state id first, then the sorted belief."""
    return (node.state, belief_key(node.belief))


def node_label(game: Game, node: BeliefNode) -> str:
    inner = ",".join(game.state_names[s] for s in sorted(node.belief))
    return f"({game.state_names[node.state]},{{{inner}}})"


@dataclass(frozen=True)
class BeliefMDP:
    """The perceived game, fully expanded and immutable.

    ``nodes`` lists every (state, belief) node in canonical order; the
    absorbing `FINAL` node is kept separate.  ``trans[q][(a, qr)]`` maps
    each successor to the set of attacks that produce it.  ``classes``
    groups nodes by belief.
    """

    game: Game
    initial: BeliefNode
    nodes: tuple[BeliefNode, ...]
    trans: Mapping[BeliefNode, Mapping[ActionPair, SuccessorMap]]
    classes: Mapping[frozenset[StateId], tuple[BeliefNode, ...]]

    def offered(self, node: BeliefNode) -> tuple[ActionPair, ...]:
        """Moves available at a node, in canonical order.

        Availability depends only on the belief: the control action must
        be enabled at every state the agent considers possible.
        """
        return tuple(sorted(self.trans[node]))

    def predecessors(self) -> Mapping["BeliefNode | _Final", tuple[tuple[BeliefNode, ActionPair], ...]]:
        """Reverse index: node -> (predecessor, move) pairs, canonical order.

        Predecessors are appended while scanning ``nodes`` in their
        canonical order and each node's moves in sorted order, so every
        list is already in (node_key, move) order.
        """
        back: dict = {q: [] for q in self.nodes}
        back[FINAL] = []
        for q in self.nodes:
            moves = self.trans[q]
            for pair in sorted(moves):
                for succ in moves[pair]:
                    back[succ].append((q, pair))
        return {node: tuple(entries) for node, entries in back.items()}


def _states(mask: int) -> tuple[StateId, ...]:
    """The states of a bit mask, ascending."""
    out = []
    s = 0
    while mask:
        if mask & 1:
            out.append(s)
        mask >>= 1
        s += 1
    return tuple(out)


def build_belief_mdp(game: Game) -> BeliefMDP:
    """Expand the perceived game reachable from the known start.

    Exploration is a worklist sweep from (s0, {s0}).  Whenever a new
    belief appears, every (s', belief) node with s' in the belief is
    materialized and explored too, so equivalence classes are never
    split.  All iteration is in sorted order, making the result
    reproducible node for node.  The sweep runs on masks (see the module
    notes); nodes and frozensets are made once, when a belief is found.
    """
    n_states = game.n_states
    n_actions = len(game.action_names)
    n_queries = len(game.queries)
    goal = sum(1 << s for s in game.goal)
    support_of = {key: sum(1 << s2 for s2 in support)
                  for key, support in game.trans.items()}
    enabled_at = [sum(1 << s for s in range(n_states) if (s, a) in support_of)
                  for a in range(n_actions)]
    # views[s][q]: (attack, observation mask) for every attack enabled at s.
    views = [
        [tuple((att, sum(1 << s2 for s2 in get_observation(game, s, q, att)))
               for att in sorted(game.enabled_attacks[s]))
         for q in range(n_queries)]
        for s in range(n_states)]

    keys: dict[int, tuple[StateId, ...]] = {}  # mask -> sorted states
    members: dict[int, dict[StateId, BeliefNode]] = {}  # mask -> its nodes
    # Each queued node carries its belief's offered (action, image mask)s.
    queue: deque[tuple[BeliefNode, list[tuple[ActionId, int]]]] = deque()

    def discover_belief(mask: int) -> None:
        states = keys[mask] = _states(mask)
        offered = [(a, reduce(or_, (support_of[(s, a)] for s in states)))
                   for a in range(n_actions) if (mask & ~enabled_at[a]) == 0]
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
        for att, view in views[s2][query]:
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
            support = support_of[(node.state, action)]
            outside = _states(support & ~goal)
            to_final = not outside or (support & goal) != 0
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


def equivalence_class(mdp: BeliefMDP, node: "BeliefNode | _Final") -> tuple[BeliefNode, ...]:
    """All nodes the agent cannot tell apart from this one."""
    if isinstance(node, _Final):
        raise FinalHasNoClassError("the absorbing node has no equivalence class")
    return mdp.classes[node.belief]


def restricted(mdp: BeliefMDP, keep: Iterable[BeliefNode]) -> BeliefMDP:
    """Sub-MDP on ``keep``: moves whose successors all stay inside.

    `FINAL` is always retained.  Beliefs whose class gets split by the
    restriction keep only the surviving members.
    """
    kept = set(keep)
    trans: dict[BeliefNode, dict[ActionPair, SuccessorMap]] = {}
    for node in sorted(kept, key=node_key):
        moves = {}
        for pair, succs in mdp.trans[node].items():
            if all(isinstance(s, _Final) or s in kept for s in succs):
                moves[pair] = succs
        trans[node] = moves
    classes: dict[frozenset[StateId], tuple[BeliefNode, ...]] = {}
    for node in sorted(kept, key=node_key):
        classes.setdefault(node.belief, ())
    for belief in classes:
        classes[belief] = tuple(
            n for n in mdp.classes[belief] if n in kept)
    return BeliefMDP(
        game=mdp.game,
        initial=mdp.initial,
        nodes=tuple(sorted(kept, key=node_key)),
        trans=trans,
        classes=classes,
    )
