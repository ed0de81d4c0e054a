"""Attacker-side solver: keeping the naive agent away from her goal.

Once the agent commits to the maximal multi-strategy computed by the
agent-side solver, her behaviour at every winning node is fixed up to
uniform choice among kept moves.  The jammer, who sees the true state
and the agent's belief, then faces an ordinary MDP: at each winning node
it picks one attack, nature resolves the agent's move and the arena's
successor, and the next node follows from the jammed observation.

The jammer wants to keep the play away from task completion forever.
That is a safety objective, and almost-sure safety against stochastic
opposition coincides with sure safety on supports, so a greatest
fixpoint over one-step support containment settles it.  Any kept move
that can surely or possibly finish the task contributes the absorbing
`FINAL` successor, which no safe attack may allow.

The game is read off the perceived game rather than recomputed: each
successor in `BeliefMDP.succs` already carries the mask of the attacks
that produce it, in `BeliefMDP.attacks`, so the jammer's successors
under one attack are those of the kept moves whose mask has its bit.
The observation rule thus has one home, game.py, reached only through
the belief expansion.  The jammer's game is stored on ints, as the
perceived game is: node p is ``AttackerMDP.nodes[p]``, the Win1 nodes
in the perceived game's canonical order, and `FINAL` is
``len(nodes)``.  The build lists each node's kept edges once, as
(position, attack mask) pairs, and reads both the offered attacks and
each attack's successors from that list; the safety solve runs its
rounds on sets of positions.  Nodes are looked up only for the
result, the jammer's strategy.  Each node's attacks come in ascending
order, so the solver walks them as they are.

The *deception gap* is the outcome: nodes where the agent believes she
is sure to finish while the jammer is sure she never will.  That is the
strategy's domain, Win2, since the jammer's game is built over Win1.
Both stages are total: on an empty Win1 the jammer's game is the empty
game and its Win2 is empty.  The pipeline builds no jammer game there,
so documents report its results as null.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Mapping

from .belief import BeliefNode
from .game import AttackId, Game
from .planner import SolveReport


@dataclass(frozen=True)
class AttackerMDP:
    game: Game
    nodes: tuple[BeliefNode, ...]  # Win1, in the perceived game's canonical order
    # trans[p][att]: the successor positions of attack att at node p, with
    # `FINAL` as len(nodes), for each offered attack in ascending order.
    trans: Mapping[int, Mapping[AttackId, frozenset[int]]]


# One attack per node of the jammer's winning region, in the jammer
# game's node order: the region is the mapping's domain.
AttackStrategy = Mapping[BeliefNode, AttackId]


def build_attacker_mdp(report: SolveReport) -> AttackerMDP:
    """The jammer's one-player game over the agent's winning region.

    The winning nodes are taken in ``report.mdp.nodes`` order.  Each one's
    kept edges are listed once, as (position, attack mask) pairs read
    from ``report.mdp.succs`` and ``report.mdp.attacks``; `FINAL`,
    whose mask there is 0, is listed with the mask -1, every bit set, as
    any attack lets the task complete.  An attack is offered only if it
    is enabled at the true state of every listed successor but `FINAL`,
    so the jammer never commits to an attack the arena forbids where the
    play actually lands; every state has an enabled attack, so each
    non-goal state a kept move can reach is listed.  Each offered
    attack's successors are the listed positions whose mask has its bit.
    By the closure property of the agent's solution the successors all
    lie back inside the winning region.  An empty winning region gives
    the empty game: no node and no edge.
    """
    mdp = report.mdp
    game = mdp.game
    every = frozenset(range(len(game.attacks)))
    inside = [q in report.win for q in mdp.nodes]
    position = list(accumulate(inside, initial=0))  # by perceived-game id, FINAL last
    nodes, trans = tuple(compress(mdp.nodes, inside)), {}
    # enabled[i]: the attacks enabled at node i's state; `FINAL` bars none.
    enabled = [game.enabled_attacks[q.state] for q in nodes] + [every]
    rows = compress(zip(mdp.node_moves, mdp.succs, mdp.attacks), inside)
    for p, (ks, succs, attacks) in enumerate(rows):
        kept = report.strategy.allowed[nodes[p]]
        edges = [(position[j], on or -1)  # FINAL's mask is 0: any attack completes
                 for k, targets, atts in zip(ks, succs, attacks) if mdp.moves[k] in kept
                 for j, on in zip(targets, atts)]
        offered = every.intersection(*{enabled[i] for i, _ in edges})
        trans[p] = {att: frozenset([i for i, on in edges if on >> att & 1])
                    for att in sorted(offered)}
    return AttackerMDP(game=game, nodes=nodes, trans=trans)


def solve_p2_safety(attacker: AttackerMDP) -> tuple[frozenset[BeliefNode], AttackStrategy]:
    """Greatest fixpoint of one-step safe containment.

    Start from all nodes whose true state is outside the goal and shrink:
    a node survives a round only if some offered attack keeps the whole
    successor support inside the surviving set, which never holds
    `FINAL`.  Each round records the lowest such attack at every
    surviving node; once a round removes nothing, its record is the
    jammer's stationary strategy, and its domain is Win2.  The rounds
    run on positions; the result is keyed by nodes.
    """
    goal, nodes = attacker.game.goal, attacker.nodes
    safe = {p for p, q in enumerate(nodes) if q.state not in goal}
    while True:
        choice: dict[int, AttackId] = {}
        for p, offered in attacker.trans.items():
            if p in safe:
                for att, succs in offered.items():
                    if succs <= safe:
                        choice[p] = att
                        break
        if len(choice) == len(safe):
            won = {nodes[p]: att for p, att in choice.items()}
            return frozenset(won), won
        safe = set(choice)


def deception_gap(strategy: AttackStrategy) -> AttackStrategy:
    """Nodes where the agent is sure she wins and the jammer is sure she
    does not, each mapped to the jammer's chosen attack there: the
    strategy itself.  Its domain is Win2, which lies inside Win1 because
    the jammer's game is built over Win1.  This stage stays only because
    the benchmark in ``perfbench/`` times it by name; every other reader
    uses the strategy."""
    return strategy
