"""Shared fixtures: bundled games solved once per session."""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from sensorgames import bundled_game_text, run_stages, validate_game
from sensorgames.belief import FINAL, BeliefMDP, BeliefNode
from sensorgames.game import Game
from sensorgames.oracle import CapExceededError, GeneratorParams, OracleResult, generate_spec
from sensorgames.planner import certify_almost_sure_reach
from sensorgames.specfile import EnablingDecl


def load_corpus():
    path = resources.files("sensorgames.specs") / "corpus.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def fig1_text():
    return bundled_game_text("fig1")


@pytest.fixture(scope="session")
def fig1(fig1_text):
    return run_stages(fig1_text)


@pytest.fixture(scope="session")
def fig1_nosense():
    return run_stages(bundled_game_text("fig1_nosense"))


@pytest.fixture(scope="session")
def fig1_noattack():
    return run_stages(bundled_game_text("fig1_noattack"))


@pytest.fixture(scope="session")
def fig4_text():
    return bundled_game_text("fig4")


@pytest.fixture(scope="session")
def fig4(fig4_text):
    return run_stages(fig4_text)


def bnode(game, state: str, belief: list[str]) -> BeliefNode:
    """Build a belief node from state names."""
    return BeliefNode(game.state(state), game.state_set(belief))


def jammer_trans(adv):
    """The jammer's game keyed by nodes: ``jammer_trans(adv)[q][att]`` is
    the set of successor nodes, `FINAL` included, of attack att at node
    q, with each node's attacks ascending.  It maps ``adv.trans``, which
    holds positions in ``adv.nodes``, back to nodes."""
    node_of = adv.nodes + (FINAL,)
    return {node_of[p]: {att: frozenset(map(node_of.__getitem__, succs))
                         for att, succs in offered.items()}
            for p, offered in adv.trans.items()}


def per_state_attack_game(seed: int, pick) -> Game:
    """A small generated game whose ``[enabled-attacks]`` section gives
    each state ``pick(attack names)``, a non-empty subset."""
    doc = generate_spec(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed))
    names = [a.name for a in doc.attacks]
    rows = tuple(EnablingDecl(state.name, tuple(sorted(pick(names)))) for state in doc.states)
    return validate_game(replace(doc, enabled_attacks=rows))


@st.composite
def per_state_attack_games(draw):
    """`per_state_attack_game` with a drawn seed and attack subsets."""
    return per_state_attack_game(
        draw(st.integers(0, 10_000)),
        lambda names: draw(st.sets(st.sampled_from(names), min_size=1)))


def plain_brute_force(mdp: BeliefMDP, cap: int = 1_000_000) -> OracleResult:
    """`brute_force_win1` without the prefix refutation: the reference
    it must equal.  It certifies every assignment in product order, the
    first class varying slowest and each class's subsets largest first,
    and counts each one; the cap estimate is the same."""
    start, node_moves = mdp.start, mdp.node_moves
    if start is None:
        return OracleResult(False, 0, 0)
    final = len(mdp.succs)
    reached, seen = [start], {start, final}
    for i in reached:
        fresh = {j for targets in mdp.succs[i] for j in targets} - seen
        seen |= fresh
        reached += fresh

    classes = [members for members in mdp.members if not seen.isdisjoint(members)]
    per_class: list[list[tuple]] = []
    estimate = 1
    for members in classes:
        offered = node_moves[members[0]]
        if not offered:
            per_class.append([()])
            continue
        subsets = [combo for size in range(len(offered), 0, -1)
                   for combo in combinations(offered, size)]
        estimate *= len(subsets)
        if estimate > cap:
            raise CapExceededError(estimate, cap)
        per_class.append(subsets)

    cls = [0] * final
    for c, members in enumerate(classes):
        for i in members:
            cls[i] = c
    succ: list = [None] * final
    for i in reached:
        moves = dict(zip(node_moves[i], mdp.succs[i]))
        succ[i] = [[j for k in subset for j in moves[k]] for subset in per_class[cls[i]]]

    checked = 0
    for choice in product(*(range(len(subsets)) for subsets in per_class)):
        checked += 1
        ok, _ = certify_almost_sure_reach(start, lambda i: succ[i][choice[cls[i]]], final)
        if ok:
            return OracleResult(True, checked, len(classes))
    return OracleResult(False, checked, len(classes))
