"""Shared fixtures: bundled games solved once per session."""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import strategies as st

from sensorgames import bundled_game_text, run_stages, validate_game
from sensorgames.belief import FINAL, BeliefNode
from sensorgames.game import Game
from sensorgames.oracle import GeneratorParams, generate_spec
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
