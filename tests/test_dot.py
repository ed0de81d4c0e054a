"""Graphviz rendering."""

from sensorgames import export_attacker_dot, export_belief_dot

from .inputs import restricted


def test_belief_dot_structure(fig4):
    out = export_belief_dot(fig4.mdp, shade=fig4.report.win)
    assert out.startswith("digraph perceived {")
    assert out.endswith("}\n")
    assert out.count("style=filled fillcolor=lightgrey") == len(fig4.report.win)
    assert 'final [label="final" shape=doublecircle];' in out
    assert "penwidth=2" in out  # the start node is outlined


def test_attacker_dot_structure(fig4):
    out = export_attacker_dot(
        fig4.attacker, shade=fig4.win2, strategy=fig4.attack_strategy)
    assert out.startswith("digraph jammer {")
    assert out.count("fillcolor=lightcoral") == len(fig4.win2)
    assert 'complete [label="task complete" shape=doublecircle];' in out
    # Chosen-attack edges are drawn bold.
    assert "penwidth=2" in out


def test_empty_model_renders_header_only(fig4):
    out = export_belief_dot(restricted(fig4.mdp, []))
    assert out == (
        "digraph perceived {\n"
        "  rankdir=LR;\n"
        "  node [shape=ellipse];\n"
        "}\n")
