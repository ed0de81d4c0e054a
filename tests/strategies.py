"""The hypothesis strategies the test modules share.

They live apart from `inputs`, so the shared builders there import
without hypothesis.
"""

from __future__ import annotations

from functools import cache

from hypothesis import strategies as st

from sensorgames import validate_game
from sensorgames.oracle import GeneratorParams, generate_spec

from .inputs import per_state_attack_game


def generated_games(**params):
    """`generate_spec` games with a drawn seed; ``params`` override the
    5-state defaults."""
    params = dict(n_states=5, n_actions=3, n_sensors=3, n_queries=3, n_attacks=3,
                  max_support=2, goal_fraction=0.25) | params
    return st.integers(min_value=0, max_value=10_000).map(
        lambda seed: validate_game(generate_spec(GeneratorParams(**params, seed=seed))))


@cache
def attack_subsets(names: tuple[str, ...]):
    """Nonempty subsets of ``names``: one strategy per tuple of names,
    since building and validating a strategy costs more than a draw."""
    return st.sets(st.sampled_from(names), min_size=1)


@st.composite
def per_state_attack_games(draw):
    """`per_state_attack_game` with a drawn seed and attack subsets."""
    return per_state_attack_game(
        draw(st.integers(0, 10_000)), lambda names: draw(attack_subsets(tuple(names))))
