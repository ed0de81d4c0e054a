"""Graphviz export for the perceived game and the jammer's game.

Output is deterministic: nodes appear in canonical order, successors
and annotations are sorted, so the same model always renders to the
same bytes.
"""

from __future__ import annotations

from .attacker import AttackerMDP, AttackStrategy
from .belief import FINAL, BeliefMDP, BeliefNode, move_label, node_key, node_label
from .game import Game


def _attack_set_label(game: Game, attacks: frozenset[int]) -> str:
    if not attacks:
        return "·"
    return "{" + ",".join(game.attacks[a].name for a in sorted(attacks)) + "}"


def _successor_key(succ) -> tuple:
    """Canonical successor order: nodes by `node_key`, then `FINAL`."""
    return (1, ()) if succ is FINAL else (0, node_key(succ))


def export_belief_dot(mdp: BeliefMDP, shade: frozenset[BeliefNode] = frozenset()) -> str:
    """Render the perceived game; ``shade`` nodes are filled grey."""
    ids = {node: f"n{i}" for i, node in enumerate(mdp.nodes)}
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
        lines.append(f'  {ids[node]} [{" ".join(attrs)}];')
    if uses_final:
        lines.append('  final [label="final" shape=doublecircle];')
    for node in mdp.nodes:
        for move in sorted(mdp.trans[node]):
            succs = mdp.trans[node][move]
            for succ in sorted(succs, key=_successor_key):
                target = "final" if succ is FINAL else ids[succ]
                label = (f"{move_label(mdp.game, move)}, "
                         f"{_attack_set_label(mdp.game, succs[succ])}")
                lines.append(f'  {ids[node]} -> {target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_attacker_dot(
    attacker: AttackerMDP,
    shade: frozenset[BeliefNode] = frozenset(),
    strategy: AttackStrategy | None = None,
) -> str:
    """Render the jammer's game; ``shade`` nodes (its winning region,
    typically) are filled red, chosen-attack edges are drawn bold."""
    ids = {node: f"n{i}" for i, node in enumerate(attacker.nodes)}
    lines = ["digraph jammer {", "  rankdir=LR;", '  node [shape=ellipse];']
    uses_complete = any(
        any(FINAL in succs for succs in atts.values())
        for atts in attacker.trans.values())
    for node in attacker.nodes:
        attrs = [f'label="{node_label(attacker.game, node)}"']
        if node in shade:
            attrs.append('style=filled fillcolor=lightcoral')
        lines.append(f'  {ids[node]} [{" ".join(attrs)}];')
    if uses_complete:
        lines.append('  complete [label="task complete" shape=doublecircle];')
    for node in attacker.nodes:
        for att in attacker.available(node):
            chosen = strategy is not None and strategy.choice.get(node) == att
            for succ in sorted(attacker.trans[node][att], key=_successor_key):
                target = "complete" if succ is FINAL else ids[succ]
                attrs = [f'label="{attacker.game.attacks[att].name}"']
                if chosen:
                    attrs.append("penwidth=2")
                lines.append(f'  {ids[node]} -> {target} [{" ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
