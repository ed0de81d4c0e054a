"""Graphviz export for the perceived game and the jammer's game.

One walk, `_render`, draws both views.  Each exporter hands it only
what differs: the graph's name, each node's attributes (the start
outline, grey or red shading), each node's edge groups (a move's
successors with their attack-set annotations, or an attack's
successors, bold where the jammer's strategy chose it) and the sink's
name and label.  The walk works on positions: a node is its position
in the order handed in and `FINAL` the position after the last.  Both
games are stored on those positions already, `BeliefMDP` and
`AttackerMDP.trans`, so neither view ranks or hashes a node per edge.
Each move label and each distinct attack set's label is made once per
render, not once per edge.

Output is deterministic: nodes appear in the canonical order they are
handed in and are named ``n<i>`` by their position there, successors
follow the same positions with `FINAL` last, and moves, attacks and
annotations are in ascending order, so the same model always renders
to the same bytes.  The sink is drawn only when an edge reaches it.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Iterable

from .attacker import AttackerMDP, AttackStrategy
from .belief import BeliefMDP, BeliefNode, move_label, node_label
from .game import Game


def _attack_set_label(game: Game, attacks: frozenset[int]) -> str:
    return "{" + ",".join(game.attacks[a].name for a in sorted(attacks)) + "}" if attacks else "·"


def _render(graph: str, nodes: list[str], edge_groups: Iterable, sink: tuple[str, str]) -> str:
    """The one walk.  ``nodes`` holds each node's attributes, in order,
    and node i is drawn as ``n<i>``; `FINAL` is ``len(nodes)``.
    ``edge_groups`` yields (i, group) pairs in node order, where a group
    maps the ids of node i's successors under one move or attack to the
    attributes of the edge drawn to each.  ``sink`` is `FINAL`'s name
    and label."""
    names = [f"n{i}" for i in range(len(nodes))] + [sink[0]]
    lines = [f"digraph {graph} {{", "  rankdir=LR;", "  node [shape=ellipse];",
             *(f"  n{i} [{attrs}];" for i, attrs in enumerate(nodes))]
    edges, reached = [], False
    for i, group in edge_groups:
        reached = reached or len(nodes) in group
        edges += [f"  n{i} -> {names[j]} [{group[j]}];" for j in sorted(group)]
    if reached:
        lines.append(f'  {sink[0]} [label="{sink[1]}" shape=doublecircle];')
    return "\n".join(lines + edges + ["}"]) + "\n"


def export_belief_dot(mdp: BeliefMDP, shade: frozenset[BeliefNode] = frozenset()) -> str:
    """Render the perceived game; ``shade`` nodes are filled grey."""
    game = mdp.game
    moves, attack_sets = cache(partial(move_label, game)), cache(partial(_attack_set_label, game))
    nodes = [f'label="{node_label(game, q)}"' + (" penwidth=2" if i == mdp.start else "")
             + (" style=filled fillcolor=lightgrey" if q in shade else "")
             for i, q in enumerate(mdp.nodes)]
    groups = ((i, {j: f'label="{moves(mdp.moves[k])}, {attack_sets(on)}"'
                   for j, on in zip(*edges)})
              for i, ks in enumerate(mdp.node_moves)
              for k, *edges in zip(ks, mdp.succs[i], mdp.attacks[i]))
    return _render("perceived", nodes, groups, ("final", "final"))


def export_attacker_dot(
    attacker: AttackerMDP,
    shade: frozenset[BeliefNode] = frozenset(),
    strategy: AttackStrategy | None = None,
) -> str:
    """Render the jammer's game; ``shade`` nodes (its winning region,
    typically) are filled red, chosen-attack edges are drawn bold."""
    game = attacker.game
    choice = strategy.choice if strategy is not None else {}
    labels = [f'label="{attack.name}"' for attack in game.attacks]
    chosen = [choice.get(q) for q in attacker.nodes]
    nodes = [f'label="{node_label(game, q)}"'
             + (" style=filled fillcolor=lightcoral" if q in shade else "")
             for q in attacker.nodes]
    groups = ((p, dict.fromkeys(succs, labels[att] + (" penwidth=2" if chosen[p] == att else "")))
              for p, offered in attacker.trans.items() for att, succs in offered.items())
    return _render("jammer", nodes, groups, ("complete", "task complete"))
