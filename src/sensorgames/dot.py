"""Graphviz export for the perceived game and the jammer's game.

Each view takes the result it draws: `export_belief_dot(report)` draws
the perceived game ``report.mdp`` with the agent's winning region
shaded, and `export_attacker_dot(attacker, strategy)` draws the
jammer's game with its strategy marked.

One walk, `_render`, draws both views.  Each exporter hands it only
what differs: the graph's name, each node's attributes (the start
outline, grey shading, or red over the jammer's strategy's domain),
each node's edge groups (a move's successors, each labelled with the
set of attacks its mask in `BeliefMDP.attacks` holds, or an attack's
successors, bold where the jammer's strategy chose it) and the sink's
name and label.  The walk works on positions: a node is its position
in the order handed in and `FINAL` the position after the last.  Both
games are stored on those positions already, `BeliefMDP` and
`AttackerMDP`, so neither view ranks or hashes a node per edge.  The
jammer's view reads `AttackerMDP.successors`, the lists its lazy
``trans`` view is built from, and never builds that view's frozensets.
Each move label and each distinct attack mask's label is made once per
render, and each edge source's name once per group, not once per edge;
a mask is decoded with `states_of`, so its attacks are named in
ascending order.

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
from .belief import move_label, node_label
from .game import Game, states_of
from .planner import SolveReport


def _attack_set_label(game: Game, mask: int) -> str:
    return "{" + ",".join(game.attacks[a].name for a in states_of(mask)) + "}" if mask else "·"


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
        head = f"  n{i} -> "
        edges += [f"{head}{names[j]} [{group[j]}];" for j in sorted(group)]
    if reached:
        lines.append(f'  {sink[0]} [label="{sink[1]}" shape=doublecircle];')
    return "\n".join(lines + edges + ["}"]) + "\n"


def export_belief_dot(report: SolveReport) -> str:
    """Render the perceived game, ``report.mdp``; the agent's winning
    region, the domain of ``report.strategy``, is filled grey."""
    mdp, game = report.mdp, report.mdp.game
    moves, attack_sets = cache(partial(move_label, game)), cache(partial(_attack_set_label, game))
    nodes = [f'label="{node_label(game, q)}"' + (" penwidth=2" if i == mdp.start else "")
             + (" style=filled fillcolor=lightgrey" if q in report.strategy.allowed else "")
             for i, q in enumerate(mdp.nodes)]
    groups = ((i, {j: f'label="{moves(mdp.moves[k])}, {attack_sets(on)}"'
                   for j, on in zip(*edges)})
              for i, ks in enumerate(mdp.node_moves)
              for k, *edges in zip(ks, mdp.succs[i], mdp.attacks[i]))
    return _render("perceived", nodes, groups, ("final", "final"))


def export_attacker_dot(attacker: AttackerMDP, strategy: AttackStrategy) -> str:
    """Render the jammer's game; the nodes of ``strategy``'s domain, its
    winning region, are filled red and its chosen attacks' edges are
    drawn bold."""
    game = attacker.game
    labels = [f'label="{attack.name}"' for attack in game.attacks]
    chosen = [strategy.get(q) for q in attacker.nodes]
    nodes = [f'label="{node_label(game, q)}"'
             + ("" if att is None else " style=filled fillcolor=lightcoral")
             for q, att in zip(attacker.nodes, chosen)]
    groups = ((p, dict.fromkeys(succs, labels[att] + (" penwidth=2" if chosen[p] == att else "")))
              for p, row in enumerate(attacker.successors()) for att, succs in row)
    return _render("jammer", nodes, groups, ("complete", "task complete"))
