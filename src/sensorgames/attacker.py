"""Attacker-side solver: keeping the naive agent away from her goal.

Once the agent commits to the maximal multi-strategy computed by the
agent-side solver, her behaviour at every winning node is fixed up to
uniform choice among kept moves.  The jammer, who sees the true state
and the agent's belief, then faces an ordinary MDP: at each winning node
it picks one attack, nature resolves the agent's move and the arena's
successor, and the next node follows from the jammed observation.

The jammer wants to keep the play away from task completion forever.
That is a safety objective, and almost-sure safety against stochastic
opposition coincides with sure safety on supports, so the jammer wins
exactly outside the attractor to completion (Grädel, Thomas & Wilke,
eds., *Automata, Logics, and Infinite Games*, LNCS 2500, 2002).  Any
kept move that can surely or possibly finish the task contributes the
absorbing `FINAL` successor, which no safe attack may allow.

The game is read off the perceived game rather than recomputed: each
successor in `BeliefMDP.succs` already carries the mask of the attacks
that produce it, in `BeliefMDP.attacks`, so the jammer's successors
under one attack are those of the kept moves whose mask has its bit.
The observation rule thus has one home, game.py, reached only through
the belief expansion.  The jammer's game is stored on ints only: node
p is ``AttackerMDP.nodes[p]``, the Win1 nodes in the perceived game's
canonical order, and `FINAL` is ``len(nodes)``.  The build reads each
kept edge once and files it under its target, as one int holding its
source and its attack mask; the solve is one worklist over those
incoming edges, and an attack is a bit throughout.  Nodes are looked up
only for the result, the jammer's strategy.  The game keyed by
attacks, ``AttackerMDP.trans``, is a view built on first read; no stage
reads it.

The *deception gap* is the outcome: nodes where the agent believes she
is sure to finish while the jammer is sure she never will.  That is the
strategy's domain, Win2, since the jammer's game is built over Win1.
Both stages are total: on an empty Win1 the jammer's game is the empty
game and its Win2 is empty.  The pipeline builds no jammer game there,
so documents report its results as null.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, compress
from typing import Mapping

from .belief import BeliefNode
from .game import AttackId, Game, states_of
from .planner import SolveReport


@dataclass(frozen=True)
class AttackerMDP:
    game: Game
    nodes: tuple[BeliefNode, ...]  # Win1, in the perceived game's canonical order
    # offered[p]: the mask of the attacks offered at node p, bit t for attack t.
    offered: tuple[int, ...]
    # incoming[i]: one int ``p << len(game.attacks) | mask`` per kept edge from
    # node p into position i, `FINAL` as len(nodes), launched by the attacks
    # of mask; an edge two kept moves share is listed twice.
    incoming: tuple[list[int], ...]

    def successors(self) -> list[list[tuple[AttackId, list[int]]]]:
        """``successors()[p]``: each attack offered at node p, ascending,
        with its successor positions, `FINAL` included, ascending; a
        successor that two kept moves reach is listed twice."""
        width, offered = len(self.game.attacks), self.offered
        attacks_of = cache(states_of)
        succs = [[[] for _ in range(width)] for _ in offered]
        for i, edges in enumerate(self.incoming):
            for edge in edges:
                p = edge >> width
                for att in attacks_of(edge & offered[p]):
                    succs[p][att].append(i)
        return [[(att, row[att]) for att in attacks_of(mask)] for row, mask in zip(succs, offered)]

    @cached_property
    def trans(self) -> dict[int, dict[AttackId, frozenset[int]]]:
        """``trans[p][att]``: `successors` as sets, built on first read."""
        return {p: {att: frozenset(succs) for att, succs in row}
                for p, row in enumerate(self.successors())}


# One attack per node of the jammer's winning region, in the jammer
# game's node order: the region is the mapping's domain.
AttackStrategy = Mapping[BeliefNode, AttackId]


def build_attacker_mdp(report: SolveReport) -> AttackerMDP:
    """The jammer's one-player game over the agent's winning region, on ints.

    The winning nodes, the domain of ``report.strategy``, are taken in
    ``report.mdp.nodes`` order.  Each one's kept edges are read once
    from ``report.mdp.succs`` and ``report.mdp.attacks``; `FINAL`'s
    mask there, 0, becomes every attack's, as any attack lets the task
    complete.  An attack is offered only if it is enabled at the true
    state of every successor but `FINAL`, so the jammer never commits to
    an attack the arena forbids where the play actually lands; every
    state has an enabled attack, so each non-goal state a kept move can
    reach is a successor.
    Each edge is filed under its target, as the int
    ``p << len(game.attacks) | mask``.  By the closure property of the
    agent's solution the successors all lie back inside the winning
    region.  An empty winning region gives the empty game: no node and
    no edge.
    """
    mdp, game = report.mdp, report.mdp.game
    width, full = len(game.attacks), (1 << len(game.attacks)) - 1
    inside = [q in report.strategy.allowed for q in mdp.nodes]
    position = list(accumulate(inside, initial=0))  # by perceived-game id, FINAL last
    nodes = tuple(compress(mdp.nodes, inside))
    by_state = [sum(1 << att for att in atts) for atts in game.enabled_attacks]
    enabled = [by_state[q.state] for q in nodes] + [full]  # `FINAL` bars none
    incoming: tuple[list[int], ...] = tuple([] for _ in range(len(nodes) + 1))
    offered, allowed, moves = [], report.strategy.allowed, mdp.moves
    rows = compress(zip(mdp.node_moves, mdp.succs, mdp.attacks), inside)
    for p, (q, (ks, succs, attacks)) in enumerate(zip(nodes, rows)):
        kept, mask, source = allowed[q], full, p << width
        for k, targets, atts in zip(ks, succs, attacks):
            if moves[k] in kept:
                for j, on in zip(targets, atts):
                    i = position[j]
                    mask &= enabled[i]
                    incoming[i].append(source | (on or full))
        offered.append(mask)
    return AttackerMDP(game=game, nodes=nodes, offered=tuple(offered), incoming=incoming)


def solve_p2_safety(attacker: AttackerMDP) -> tuple[frozenset[BeliefNode], AttackStrategy]:
    """The complement of the attractor to completion, by one worklist.

    ``good[p]`` starts as the mask of the attacks offered at node p.  The
    worklist is seeded with `FINAL`, the goal-state nodes and the nodes
    offered no attack.  Each popped position clears, at every edge into
    it, that edge's attacks from its source's ``good``; a source falls,
    and is pushed, once its ``good`` is 0.  The nodes that never fall are
    Win2, the largest set the jammer can keep the play in, and the
    attacks left in ``good`` are those whose successors all lie in
    Win2.  Each Win2 node is mapped to its lowest such attack, in
    ``nodes`` order.
    """
    nodes, goal = attacker.nodes, attacker.game.goal
    width, incoming = len(attacker.game.attacks), attacker.incoming
    good = [0 if q.state in goal else mask for q, mask in zip(nodes, attacker.offered)]
    fallen = [len(nodes), *(p for p, mask in enumerate(good) if not mask)]
    while fallen:
        for edge in incoming[fallen.pop()]:
            p = edge >> width
            if good[p]:
                good[p] &= ~edge
                if not good[p]:
                    fallen.append(p)
    won = {q: (mask & -mask).bit_length() - 1 for q, mask in zip(nodes, good) if mask}
    return frozenset(won), won


def deception_gap(strategy: AttackStrategy) -> AttackStrategy:
    """Nodes where the agent is sure she wins and the jammer is sure she
    does not, each mapped to the jammer's chosen attack there: the
    strategy itself.  Its domain is Win2, which lies inside Win1 because
    the jammer's game is built over Win1.  This stage stays only because
    the benchmark in ``perfbench/`` times it by name; every other reader
    uses the strategy."""
    return strategy
