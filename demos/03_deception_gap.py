"""The jammer's side, and the gap between the two analyses.

The agent's plan from the previous demo is naive about the jammer: it
prices sensor failures as random noise.  A real jammer sees everything
and picks attacks.  Over the agent's own winning region we build the
jammer's decision process: per attack, where can the play go, and can
the agent ever become sure the task is done?  The jammer wins (keeps
the agent unsure forever) on the greatest set of nodes from which some
attack stays inside the set and never fires a completion edge.

Nodes the agent counted as winning that the jammer also wins are the
deception gap: confidence the arena cannot cash.
"""

from sensorgames import bundled_game_text, node_label, run_stages

run = run_stages(bundled_game_text("fig4"))
game = run.game

print("the confidence-farming arena:")
print("  a0 shuffles s0/s1; a1 finishes from s1 but traps from s0.")
print("  The s1-detector g0 is the only way to tell the two apart.")
print()

print(f"agent's analysis: {len(run.report.win)} winning nodes")
for node in run.report.win:
    print(f"  {node_label(game, node)}")
print()

print("jammer's analysis over those nodes:")
print(f"  winning nodes: {len(run.attack_strategy)}")
for node, attack in sorted(run.attack_strategy.items(),
                           key=lambda kv: node_label(game, kv[0])):
    print(f"  {node_label(game, node)}: launch {game.attacks[attack].name}")
print()

print(f"deception gap ({len(run.attack_strategy)} nodes):")
for node, attack in run.attack_strategy.items():
    print(f"  {node_label(game, node)} (attack {game.attacks[attack].name})")
print()
print("killing g0 every round keeps the belief merged at {s0,s1}, where")
print("only the shuffle is safe: the agent keeps playing, never finishes,")
print("and her own model keeps telling her everything is fine.")
print()

# The gap is not universal: the agent's one-node-of-certainty (s1,{s1})
# stays out of it, because every attack there still lets her finish.
out = [q for q in run.report.win if q not in run.attack_strategy]
print("nodes the jammer cannot hold:")
for node in out:
    print(f"  {node_label(game, node)}")
