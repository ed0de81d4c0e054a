"""Graphviz export for the perceived game and the jammer's game.

Output is deterministic: nodes appear in the canonical order they are
handed in and are named by their rank there, successors follow the
same ranks with `FINAL` last, and moves, attacks and annotations are
in ascending order, so the same model always renders to the same bytes.
"""

from __future__ import annotations

from .attacker import AttackerMDP, AttackStrategy
from .belief import FINAL, BeliefMDP, BeliefNode, move_label, node_label
from .game import Game


def _attack_set_label(game: Game, attacks: frozenset[int]) -> str:
    if not attacks:
        return "·"
    return "{" + ",".join(game.attacks[a].name for a in sorted(attacks)) + "}"


def export_belief_dot(mdp: BeliefMDP, shade: frozenset[BeliefNode] = frozenset()) -> str:
    """Render the perceived game; ``shade`` nodes are filled grey."""
    rank = {node: i for i, node in enumerate(mdp.nodes + (FINAL,))}
    lines = ["digraph perceived {", "  rankdir=LR;", '  node [shape=ellipse];']
    uses_final = any(
        any(FINAL in succs for succs in moves.values())
        for moves in mdp.trans.values())
    for node in mdp.nodes:
        attrs = [f'label="{node_label(mdp.game, node)}"']
        if node == mdp.initial:
            attrs.append("penwidth=2")
        if node in shade:
            attrs.append('style=filled fillcolor=lightgrey')
        lines.append(f'  n{rank[node]} [{" ".join(attrs)}];')
    if uses_final:
        lines.append('  final [label="final" shape=doublecircle];')
    for node in mdp.nodes:
        for move, succs in mdp.trans[node].items():
            for succ in sorted(succs, key=rank.__getitem__):
                target = "final" if succ is FINAL else f"n{rank[succ]}"
                label = (f"{move_label(mdp.game, move)}, "
                         f"{_attack_set_label(mdp.game, succs[succ])}")
                lines.append(f'  n{rank[node]} -> {target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_attacker_dot(
    attacker: AttackerMDP,
    shade: frozenset[BeliefNode] = frozenset(),
    strategy: AttackStrategy | None = None,
) -> str:
    """Render the jammer's game; ``shade`` nodes (its winning region,
    typically) are filled red, chosen-attack edges are drawn bold."""
    rank = {node: i for i, node in enumerate(attacker.nodes + (FINAL,))}
    lines = ["digraph jammer {", "  rankdir=LR;", '  node [shape=ellipse];']
    uses_complete = any(
        any(FINAL in succs for succs in atts.values())
        for atts in attacker.trans.values())
    for node in attacker.nodes:
        attrs = [f'label="{node_label(attacker.game, node)}"']
        if node in shade:
            attrs.append('style=filled fillcolor=lightcoral')
        lines.append(f'  n{rank[node]} [{" ".join(attrs)}];')
    if uses_complete:
        lines.append('  complete [label="task complete" shape=doublecircle];')
    for node in attacker.nodes:
        for att, succs in attacker.trans[node].items():
            chosen = strategy is not None and strategy.choice.get(node) == att
            for succ in sorted(succs, key=rank.__getitem__):
                target = "complete" if succ is FINAL else f"n{rank[succ]}"
                attrs = [f'label="{attacker.game.attacks[att].name}"']
                if chosen:
                    attrs.append("penwidth=2")
                lines.append(f'  n{rank[node]} -> {target} [{" ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
