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
successor in ``BeliefMDP.dense`` already carries the attacks that
produce it, so the jammer's successors under one attack are those of
the kept moves annotated with it.  The build reads each kept move's
successor ids once, files every id under its attacks, and turns each
attack's ids into nodes once.  The observation rule thus has one home,
game.py, reached only through the belief expansion.  Nodes come in the
perceived game's canonical order and each node's attacks in ascending
order, so the solver and the gap walk them as they are.

The *deception gap* is the outcome: nodes where the agent believes she
is sure to finish while the jammer is sure she never will.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .belief import FINAL, BeliefNode
from .game import AttackId, Game
from .planner import SolveReport


class EmptyWin1Error(Exception):
    """The agent wins nowhere, so there is no attacker game to build."""


@dataclass(frozen=True)
class AttackerMDP:
    game: Game
    nodes: tuple[BeliefNode, ...]  # in the perceived game's canonical order
    # trans[q][att]: the successor set, `FINAL` included, of attack att at
    # q, for each offered attack in ascending order.
    trans: Mapping[BeliefNode, Mapping[AttackId, frozenset]]


@dataclass(frozen=True)
class AttackStrategy:
    """One attack per node of the jammer's winning region."""

    choice: Mapping[BeliefNode, AttackId]  # in the jammer game's node order


def build_attacker_mdp(report: SolveReport) -> AttackerMDP:
    """The jammer's one-player game over the agent's winning region.

    The winning nodes are taken in ``report.mdp.nodes`` order.  At each
    one, every kept move's successor ids in ``report.mdp.dense`` are
    read once, and each is filed under the attacks it is annotated with;
    `FINAL`, which some kept move may reach, is filed under every attack.
    Each attack's ids become nodes once, at the end.  The
    landing states are the true states of the non-`FINAL` successors:
    every state has an enabled attack, so each non-goal state a kept
    move can reach yields at least one successor.  An attack is offered
    only if it is enabled at every landing state, so the jammer never
    commits to an attack the arena forbids where the play actually
    lands.  By the closure property of the agent's solution the
    successors all lie back inside the winning region.
    """
    if not report.win:
        raise EmptyWin1Error("the agent has no winning node to be deceived at")
    mdp = report.mdp
    dense, game, node_of = mdp.dense, mdp.game, mdp.nodes + (FINAL,)
    every = frozenset(range(len(game.attacks)))
    trans: dict[BeliefNode, dict[AttackId, frozenset]] = {}
    for node, ks, succs, attacks in zip(mdp.nodes, dense.node_moves, dense.succs, dense.attacks):
        if node not in report.win:
            continue
        kept = report.strategy.allowed[node]
        reached, landing = {att: set() for att in every}, set()  # successor ids, states
        for k, targets, atts in zip(ks, succs, attacks):
            if dense.moves[k] in kept:
                for j, on in zip(targets, atts):
                    if node_of[j] is FINAL:
                        on = every  # completion happens under any attack
                    else:
                        landing.add(node_of[j].state)
                    for att in on:
                        reached[att].add(j)
        offered = every.intersection(*(game.enabled_attacks[s] for s in landing))
        trans[node] = {att: frozenset(map(node_of.__getitem__, reached[att]))
                       for att in sorted(offered)}
    return AttackerMDP(game=game, nodes=tuple(trans), trans=trans)


def solve_p2_safety(attacker: AttackerMDP) -> tuple[frozenset[BeliefNode], AttackStrategy]:
    """Greatest fixpoint of one-step safe containment.

    Start from all nodes whose true state is outside the goal and shrink:
    a node survives a round only if some offered attack keeps the whole
    successor support inside the surviving set, which never holds
    `FINAL`.  Each round records the lowest such attack at every
    surviving node; once a round removes nothing, its record is the
    jammer's stationary strategy.
    """
    goal = attacker.game.goal
    safe = {q for q in attacker.nodes if q.state not in goal}
    while True:
        choice: dict[BeliefNode, AttackId] = {}
        for node in attacker.nodes:
            if node in safe:
                for att, succs in attacker.trans[node].items():
                    if succs <= safe:
                        choice[node] = att
                        break
        if len(choice) == len(safe):
            return frozenset(safe), AttackStrategy(choice=choice)
        safe = set(choice)


def deception_gap(
    report: SolveReport,
    win2: frozenset[BeliefNode],
    strategy: AttackStrategy,
) -> dict[BeliefNode, AttackId]:
    """Nodes where the agent is sure she wins and the jammer is sure she
    does not, each mapped to the jammer's chosen attack there.  The gap
    lies inside ``win2``, the strategy's domain, and keeps its order."""
    return {node: att for node, att in strategy.choice.items()
            if node in win2 and node in report.win}
