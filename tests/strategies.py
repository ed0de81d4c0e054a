"""The hypothesis strategies the test modules share.

They live apart from `inputs`, so the shared builders there import
without hypothesis.
"""

from __future__ import annotations

from hypothesis import strategies as st

from sensorgames import validate_game
from sensorgames.oracle import GeneratorParams, generate_spec

from .inputs import per_state_attack_game


def small_games():
    return st.integers(min_value=0, max_value=10_000).map(
        lambda seed: validate_game(generate_spec(GeneratorParams(
            n_states=5, n_actions=3, n_sensors=3, n_queries=3, n_attacks=3,
            max_support=2, goal_fraction=0.25, seed=seed))))


@st.composite
def per_state_attack_games(draw):
    """`per_state_attack_game` with a drawn seed and attack subsets."""
    return per_state_attack_game(
        draw(st.integers(0, 10_000)),
        lambda names: draw(st.sets(st.sampled_from(names), min_size=1)))
