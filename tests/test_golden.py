"""Frozen outputs: any change of representation must keep them.

Each case pins the full sha256 of the canonical JSON document, trace
included, so the elimination order is covered as well as the verdicts
and the strategy.  The ladder rungs are seeded random games large enough
to exercise every phase of the agent solver and the jammer; 14/5/7 (the
14:7 benchmark arena) is the one whose jammer wins somewhere.

The DOT cases pin both Graphviz renderings.  They are the only output
that lists the jammer's game edge by edge: every offered attack and its
whole successor set, which the result document does not show.  Besides
the figures and rungs they pin a game whose goal no move reaches (the
belief view draws no sink) and a generated game whose
``[enabled-attacks]`` section varies the attack-set annotations.  Each
view takes the result it draws, the agent's `SolveReport` or the
jammer's game and strategy, so every rendering shades the run's Win1
or marks its jammer strategy; neither view has another form to pin.

The perceived-game cases pin `build_belief_mdp` itself, read through
``trans``: the start node, the nodes and classes in order, each node's
moves in order and each move's successors in order, with their attack
sets.  The DOT renderings sort each move's successors, so only these
cases pin the order ``trans`` lists them in, which `check_soundness`
reports the first offending successor by.  They cover the figures, the
``[enabled-attacks]`` case and, under one digest, the 350 corpus games.

The jammer-game case pins `build_attacker_mdp` and `solve_p2_safety`
the same way, read through ``conftest.jammer_trans``: each node, each
offered attack and its successors, then Win2 and the chosen attacks.
Its games are every soundness game whose agent wins somewhere and the
first 100 per-state-attack games, 16 of them with a nonempty Win2.
"""

import hashlib

import pytest

from sensorgames import (
    bundled_game_text,
    export_attacker_dot,
    export_belief_dot,
    run_pipeline,
    solve_p1,
)
from sensorgames.belief import FINAL

from .conftest import jammer_trans, node_views
from .inputs import (
    attack_subset_runs,
    case_id,
    case_run,
    corpus_runs,
    ladder_text,
    split_classes,
)

FIGURES = {
    "fig1": "942fef2e50a9e7d0b163ad89c0ba02649194e5663cd5836e7d4e0e4d8bd08893",
    "fig1_noattack": "742781a9bd1d1f013c98226716861c50abdd81f382858bf636c4ca557a7fb982",
    "fig1_nosense": "3008e6aae90c39fa01523c6c7cdff0c8a22afda1be915f8190c389e524b59f67",
    "fig4": "ac05b639e756f244cdba85fd19548d209de2c012ab8324f2b029c00d7d7d6be6",
}

# (n_states, n_sensors, seed) -> digest
LADDER = {
    (10, 4, 9): "a5bc146b2e7a547d0a03a2921c5153cd0101e503fb97de418e296b0d6a4590fe",
    (16, 5, 4): "b6d8c521b126c43b4602c0fdc5b33e2ea15f1ed24c7a89718e6c49495b55dccf",
    (17, 5, 7): "0f0de54142f38b5a2c980d5a32d44eee04dc38e0bc7a5fd68b00e37e6400a4ec",
    (16, 5, 7): "ba9aee7b804f063e4b6658d9695153035eb87afd47624cf9e0698563f7d28c8a",
    (14, 5, 7): "e034c77cd77e85770cb1a633ba4825e0bb04f1ae3cb48ff5a04a79e0775796ee",
}

# figure name, extra case or ladder rung -> (belief DOT digest, jammer
# DOT digest); the jammer digest is None where the agent wins nowhere.
DOT = {
    "fig1": ("c17dc439eeb57d4f8827a71bbaceef264db9669dcb02077eb046c1d1e67b48fc",
             "d9e97722b1919dbe69efa8ca5706e7cee7f89d3d73e3e1ff779aa8a6bff3bbab"),
    "fig1_noattack": ("08d370e1dc66c19ab555b391b01d19ed502e3bdfa060673b4d0732e5148afa33",
                      "9e9692fc63ccf9db1065b88d12a31f2edbd76a81785ce3ad0c425b4e882c1fe4"),
    "fig1_nosense": ("a426e411ed4dc5032a0988b11ee748a9c693b39a6f95a6743962892a2c0f88f1",
                     None),
    "fig4": ("a1c18f570e2ee9ef82e6b919e94a1a3949bda6d5b0214e814abe31d3f989b38e",
             "2239d3ff7d7ef8a72f3df17852486e73246e3e9fe6afbec63254f324ca474460"),
    (10, 4, 9): ("f08129f9a88fc888627132266d8f18ba34074a5cb2123c30e5021355970fcd71",
                 "4add37ad817a2a5205ff41743b163a0988dda36e9f05c6b3ccd2d2757a577391"),
    (16, 5, 4): ("14b48a6d2afce129af3ff463b659c4235f6851876192e275edd5d4972bb18aec",
                 "0def0117d82daad1831ecc5701a7dfed50dc7fe1066c2a488d632fcd09065c19"),
    (17, 5, 7): ("9462537df3506df1ad56cf9ec3769bf7282e9959db7320f2b2e4e0b3a36b694e",
                 "8a28b60f4c6105c64c536348e01571684c619b3181452d68b8070b39ee725d5e"),
    (14, 5, 7): ("53fb40288b70de7dd6f71d611b0929da7b621cf530bc2c6ade58aaeccdc01a94",
                 "63f4c7b42ef644285d70acfef46916dfc76eff4a508f454b99e2d6be93bb949a"),
    "unreachable-goal": ("65bd63d29efd9b634e8e7794d7709cf9a9265377ab723a352b97d91e22846680",
                         None),
    "enabled-attacks": ("5ae67ba1b0bc686e88234ad846ed6a5b9e16d9453a0c26e101222119e6f3ba6f",
                        "ecd8963325e3cc84a9de01fb4008b63f74a8e8c6c73b8f6eda6615a516c6af78"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def document_digest(text: str) -> str:
    return sha256(run_pipeline(text, include_trace=True).to_json())


def dot_digests(run) -> tuple[str, str | None]:
    belief = sha256(export_belief_dot(run.report))
    if run.attacker is None:
        return belief, None
    return belief, sha256(export_attacker_dot(run.attacker, run.attack_strategy))


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_document_frozen(name):
    assert document_digest(bundled_game_text(name)) == FIGURES[name]


@pytest.mark.parametrize("rung", sorted(LADDER), ids=lambda r: "%d-%d-%d" % r)
def test_ladder_document_frozen(rung):
    assert document_digest(ladder_text(*rung)) == LADDER[rung]


@pytest.mark.parametrize("case", list(DOT), ids=case_id)
def test_dot_frozen(case):
    assert dot_digests(case_run(case)) == DOT[case]


# figure name, "enabled-attacks" or "corpus" -> digest of `perceived_dump`
PERCEIVED = {
    "fig1": "d761c4848625730ebc8d402bb8d8a5d8c5bcf6456f9d18a2ae4934433d27efff",
    "fig1_noattack": "4bac9874d7e13cc544f2eaabfc323f361bdcd17838c29a0017ecade3a07443ef",
    "fig1_nosense": "a621f556376d6e5efc2667bd0ccc7610df91faf236703ae9804e9fa0da0b26bf",
    "fig4": "5918deafc8315ce5e95a08e3a4013d271d098f837c6a6dc44ead767b2207f819",
    "enabled-attacks": "c0c1d6df6e1fc4cfddc91f51aebca397d464ff1d77e4ae2f8093c0868544ec06",
    "corpus": "7668d4a417b981455c567409956543099be4c5398ae9de68c5b2849433796d63",
}


def perceived_dump(mdp) -> str:
    """The perceived game as text: nodes by their position in ``nodes``
    (`FINAL` is ``F``), attack sets as sorted ids, everything in the
    order ``mdp`` holds it."""
    trans, classes = node_views(mdp)
    index = {q: str(i) for i, q in enumerate(mdp.nodes)}
    index[FINAL] = "F"
    lines = [f"initial {index[mdp.initial]}"]
    lines += [f"node {q.state} {sorted(q.belief)}" for q in mdp.nodes]
    lines += [f"class {sorted(belief)}: {[index[q] for q in members]}"
              for belief, members in classes.items()]
    for q in mdp.nodes:
        for move, succs in trans[q].items():
            lines.append(f"{index[q]} {move}: " + " ".join(
                f"{index[s]}{sorted(atts)}" for s, atts in succs.items()))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", list(PERCEIVED))
def test_perceived_game_frozen(case):
    if case == "corpus":
        mdps = [run.mdp for run in corpus_runs()]
        assert len(mdps) == 350
    else:
        mdps = [case_run(case).mdp]
    digest = hashlib.sha256()
    for mdp in mdps:
        digest.update(perceived_dump(mdp).encode())
    assert digest.hexdigest() == PERCEIVED[case]


# sha256 of `jammer_dump` over every soundness game with a nonempty Win1
# (180) and the first 100 `per_state_attack_game`s with a nonempty Win1
# (73, attack subsets drawn from Random(k)).
JAMMER = "0e0a1010752076a6de1802a0d6a5d247146f37f9fc77ab594c111c7d2259eb45"


def jammer_dump(adv, strategy) -> str:
    """The jammer's game and its solution as text: nodes by their
    position in ``adv.nodes`` (`FINAL` is ``F``), each node's attacks in
    the order offered, each attack's successors by ascending position
    with ``F`` last, then Win2 and the chosen attacks in order."""
    index = {q: i for i, q in enumerate(adv.nodes)}
    index[FINAL] = len(adv.nodes)
    name = [*map(str, range(len(adv.nodes))), "F"]
    trans = jammer_trans(adv)
    lines = [f"node {q.state} {sorted(q.belief)}" for q in adv.nodes]
    for q in adv.nodes:
        for att, succs in trans[q].items():
            lines.append(f"{index[q]} {att}: " + " ".join(
                name[i] for i in sorted(map(index.__getitem__, succs))))
    lines.append(f"win2 {sorted(map(index.__getitem__, strategy))}")
    lines += [f"choose {index[q]} {att}" for q, att in strategy.items()]
    return "\n".join(lines) + "\n"


def test_jammer_game_frozen():
    digest, games, won = hashlib.sha256(), 0, 0
    for run in corpus_runs("soundness") + attack_subset_runs():
        if run.report.win:
            digest.update(jammer_dump(run.attacker, run.attack_strategy).encode())
            games, won = games + 1, won + bool(run.attack_strategy)
    assert (games, won) == (180 + 73, 16)
    assert digest.hexdigest() == JAMMER


# sha256 of `report_dump` over the figures, the `enabled-attacks` case,
# the 10/4/9 and 17/5/7 rungs, the 350 corpus games and each corpus game
# restricted to its nodes less the first member of its first class with
# two or more members, which splits that class (236 of them have one).
SOLVER = "938f3989278f685d379cb0ae4c897c2cdf9f1a6e0007a22535587243331378c4"


def report_dump(report) -> str:
    """A `SolveReport` as text on the perceived game's ids: each round's
    doomed nodes, the removals in order, the Win1 ids and each node's
    kept move ids, ascending, none at a node the strategy does not
    list."""
    mdp = report.mdp
    index = {q: i for i, q in enumerate(mdp.nodes)}
    move_id = {move: k for k, move in enumerate(mdp.moves)}
    lines = [f"level {[index[q] for q in level]}" for level in report.levels]
    lines.append(f"removals {list(report._removals)}")
    lines.append(f"win {sorted(map(index.__getitem__, report.win))}")
    lines += [f"{i} {sorted(map(move_id.__getitem__, report.strategy.allowed.get(q, ())))}"
              for i, q in enumerate(mdp.nodes)]
    return "\n".join(lines) + "\n"


def test_solver_report_frozen():
    cases = [*FIGURES, "enabled-attacks", (10, 4, 9), (17, 5, 7)]
    reports = [case_run(case).report for case in cases]
    reports += [run.report for run in corpus_runs()]
    subs = [sub for sub in split_classes() if sub is not None]
    reports += map(solve_p1, subs)
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report_dump(report).encode())
    assert (len(subs), digest.hexdigest()) == (236, SOLVER)
