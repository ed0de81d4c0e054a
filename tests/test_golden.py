"""Frozen result documents: any change of representation must keep them.

Each case pins the full sha256 of the canonical JSON document, trace
included, so the elimination order is covered as well as the verdicts
and the strategy.  The ladder rungs are seeded random games large enough
to exercise every phase of the agent solver and the jammer.
"""

import hashlib

import pytest

from sensorgames import bundled_game_text, run_pipeline, serialize_spec
from sensorgames.oracle import GeneratorParams, generate_spec

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
}


def document_digest(text: str) -> str:
    doc = run_pipeline(text, include_trace=True).to_json()
    return hashlib.sha256(doc.encode()).hexdigest()


def ladder_text(n_states: int, n_sensors: int, seed: int) -> str:
    return serialize_spec(generate_spec(GeneratorParams(
        n_states=n_states, n_actions=3, n_sensors=n_sensors, n_queries=3,
        n_attacks=4, max_support=3, goal_fraction=0.15, seed=seed)))


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_document_frozen(name):
    assert document_digest(bundled_game_text(name)) == FIGURES[name]


@pytest.mark.parametrize("rung", sorted(LADDER), ids=lambda r: "%d-%d-%d" % r)
def test_ladder_document_frozen(rung):
    assert document_digest(ladder_text(*rung)) == LADDER[rung]
