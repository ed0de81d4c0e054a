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
successor in ``BeliefMDP.trans`` already carries the attacks that
produce it, so the jammer's successors under one attack are those of
the kept moves annotated with it.  The build reads each kept move's
successor map once and files every successor under its attacks.  The
observation rule thus has one home, game.py, reached only through the
belief expansion.  Nodes come in the perceived game's canonical order
and each node's attacks in ascending order, so the solver and the gap
walk them as they are.

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
    one, every kept move's successor map is read once, and each
    successor is filed under the attacks it is annotated with; `FINAL`,
    which some kept move may reach, is filed under every attack.  The
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
    game = mdp.game
    every = frozenset(range(len(game.attacks)))
    nodes = tuple(q for q in mdp.nodes if q in report.win)
    trans: dict[BeliefNode, dict[AttackId, frozenset]] = {}
    for node in nodes:
        moves = mdp.trans[node]
        reached: dict[AttackId, set] = {att: set() for att in every}
        landing: set = set()
        for move in report.strategy.allowed[node]:
            for succ, atts in moves[move].items():
                if succ is FINAL:
                    atts = every  # completion happens under any attack
                else:
                    landing.add(succ.state)
                for att in atts:
                    reached[att].add(succ)
        offered = every.intersection(*(game.enabled_attacks[s] for s in landing))
        trans[node] = {att: frozenset(reached[att]) for att in sorted(offered)}
    return AttackerMDP(game=game, nodes=nodes, trans=trans)


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
