"""The inputs the test modules share, each built once per session.

Test modules read these instead of building them again: the corpus
blocks' games through `run_stages` and their split-class sub-MDPs, the
first 100 per-state-attack games, a block of games the jammer wins, the
ladder and case texts and their runs, and the small hand-written games.
Each reader is handed the same objects, so a test that needs fresh
objects, or changes what it is given, builds its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from functools import cache
from importlib import resources
from itertools import accumulate, filterfalse
from typing import Iterable

from hypothesis import strategies as st

from sensorgames import bundled_game_text, run_stages, serialize_spec, validate_game
from sensorgames.belief import BeliefMDP, BeliefNode
from sensorgames.game import Game
from sensorgames.oracle import GeneratorParams, generate_game, generate_spec
from sensorgames.pipeline import PipelineRun
from sensorgames.specfile import EnablingDecl, GameSpecDocument

MINI = """\
[states]
s0 initial
s1 goal

[actions]
a0

[transitions]
s0 a0 -> s0 s1
s1 a0 -> s1

[sensors]
g0: s1

[queries]
q0: g0

[attacks]
none:
"""

# A three-state line whose jammer may not launch 'jam' at s1.
FORBIDDEN_AT_S1 = """\
[states]
s0 initial
s1
s2 goal

[actions]
a0

[transitions]
s0 a0 -> s1
s1 a0 -> s2
s2 a0 -> s2

[sensors]
g0: s1

[queries]
q0: g0

[attacks]
none:
jam: g0

[enabled-attacks]
s1: none
"""

# No move reaches the goal, so the perceived game has no `FINAL`.
UNREACHABLE_GOAL = """\
[states]
s0 initial
s1
g goal

[actions]
a0

[transitions]
s0 a0 -> s0 s1
s1 a0 -> s0
g a0 -> g

[sensors]
c: s1

[queries]
q0: c

[attacks]
none:
x: c
"""


def small_games():
    return st.integers(min_value=0, max_value=10_000).map(
        lambda seed: generate_game(GeneratorParams(
            n_states=5, n_actions=3, n_sensors=3, n_queries=3, n_attacks=3,
            max_support=2, goal_fraction=0.25, seed=seed)))


def per_state_attack_doc(seed: int, pick) -> GameSpecDocument:
    """A small generated game whose ``[enabled-attacks]`` section gives
    each state ``pick(attack names)``, a non-empty subset."""
    doc = generate_spec(GeneratorParams(
        n_states=5, n_actions=2, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=2, goal_fraction=0.25, seed=seed))
    names = [a.name for a in doc.attacks]
    rows = tuple(EnablingDecl(state.name, tuple(sorted(pick(names)))) for state in doc.states)
    return replace(doc, enabled_attacks=rows)


def per_state_attack_game(seed: int, pick) -> Game:
    """`per_state_attack_doc`, validated."""
    return validate_game(per_state_attack_doc(seed, pick))


@st.composite
def per_state_attack_games(draw):
    """`per_state_attack_game` with a drawn seed and attack subsets."""
    return per_state_attack_game(
        draw(st.integers(0, 10_000)),
        lambda names: draw(st.sets(st.sampled_from(names), min_size=1)))


@cache
def attack_subset_runs() -> tuple[PipelineRun, ...]:
    """`run_stages` on the first 100 per-state-attack games: game k
    draws each state's attacks from ``Random(k)``."""
    runs = []
    for k in range(100):
        rng = random.Random(k)
        doc = per_state_attack_doc(k, lambda names: rng.sample(names, rng.randint(1, len(names))))
        runs.append(run_stages(serialize_spec(doc)))
    return tuple(runs)


@cache
def load_corpus() -> dict:
    path = resources.files("sensorgames.specs") / "corpus.json"
    return json.loads(path.read_text())


@cache
def corpus_runs(block: str | None = None) -> tuple[PipelineRun, ...]:
    """`run_stages` on each game of the corpus block ``block``, in seed
    order, or on every block's games in corpus order where ``block`` is
    None (350 games)."""
    if block is None:
        return tuple(run for name in load_corpus() for run in corpus_runs(name))
    spec = load_corpus()[block]
    return tuple(
        run_stages(serialize_spec(generate_spec(GeneratorParams(**spec["params"], seed=seed))))
        for seed in (entry["seed"] if isinstance(entry, dict) else entry
                     for entry in spec["seeds"]))


# The first 40 seeds from 200 on, past the soundness block's, whose game
# under the soundness block's parameters has a nonempty Win2.
JAMMER_WIN_SEEDS = (
    210, 221, 265, 270, 285, 289, 298, 308, 332, 343, 352, 371, 430, 433,
    434, 456, 480, 485, 490, 507, 523, 612, 634, 644, 656, 661, 669, 675,
    677, 705, 730, 732, 733, 735, 750, 758, 762, 780, 785, 829)


@cache
def jammer_win_runs() -> tuple[PipelineRun, ...]:
    """`run_stages` on the soundness block's generator at each of
    `JAMMER_WIN_SEEDS`, in order."""
    params = load_corpus()["soundness"]["params"]
    return tuple(run_stages(serialize_spec(generate_spec(GeneratorParams(**params, seed=seed))))
                 for seed in JAMMER_WIN_SEEDS)


def restricted(mdp: BeliefMDP, keep: Iterable[BeliefNode]) -> BeliefMDP:
    """Sub-MDP on ``keep``: a class keeps a move only if, from every kept
    member, the move's successors all stay inside.

    `FINAL` is always retained.  Beliefs whose class gets split by the
    restriction keep only the surviving members, and class-mates keep
    the same moves.  Nodes and classes keep ``mdp``'s order, and nodes
    are renumbered in that order.  ``start`` is None where ``keep``
    leaves the start node out.  ``keep`` is matched by equality.
    """
    kept = set(keep)
    inside = [q in kept for q in mdp.nodes] + [True]
    new = list(accumulate(inside, initial=0))  # new[i]: node i's id in the sub-MDP
    node_moves, succs, attacks = ([()] * new[len(mdp.nodes)] for _ in range(3))
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}  # row -> its one renumbered tuple
    members = []
    for ids in mdp.members:
        if ids := [i for i in ids if inside[i]]:
            members.append(tuple(new[i] for i in ids))
            offered = mdp.node_moves[ids[0]]
            allowed = [t for t in range(len(offered))
                       if all(inside[j] for i in ids for j in mdp.succs[i][t])]
            ks = tuple(offered[t] for t in allowed)  # one tuple per class
            for i in ids:
                node_moves[new[i]] = ks
                rows = [mdp.succs[i][t] for t in allowed]
                for row in filterfalse(pool.__contains__, rows):
                    pool[row] = tuple([new[j] for j in row])
                succs[new[i]] = tuple(map(pool.__getitem__, rows))
                attacks[new[i]] = tuple(mdp.attacks[i][t] for t in allowed)
    return BeliefMDP(
        game=mdp.game, nodes=tuple(q for q, flag in zip(mdp.nodes, inside) if flag),
        moves=mdp.moves, node_moves=tuple(node_moves), succs=tuple(succs),
        attacks=tuple(attacks), members=tuple(members),
        start=new[i] if (i := mdp.start) is not None and inside[i] else None)


def split_class(mdp: BeliefMDP) -> BeliefMDP | None:
    """``mdp`` restricted to its nodes less the first member of its first
    class with two or more members, or None where it has no such class."""
    for ids in mdp.members:
        if len(ids) > 1:
            return restricted(mdp, [q for i, q in enumerate(mdp.nodes) if i != ids[0]])
    return None


@cache
def split_classes(block: str | None = None) -> tuple[BeliefMDP | None, ...]:
    """`split_class` of each perceived game of ``corpus_runs(block)``,
    in the same order."""
    if block is None:
        return tuple(sub for name in load_corpus() for sub in split_classes(name))
    return tuple(split_class(run.mdp) for run in corpus_runs(block))


@cache
def ladder_text(n_states: int, n_sensors: int, seed: int) -> str:
    return serialize_spec(generate_spec(GeneratorParams(
        n_states=n_states, n_actions=3, n_sensors=n_sensors, n_queries=3,
        n_attacks=4, max_support=3, goal_fraction=0.15, seed=seed)))


def enabled_attacks_text(n_states: int, n_sensors: int, seed: int) -> str:
    """A generated game whose states each enable a seeded random subset
    of the attacks."""
    doc = generate_spec(GeneratorParams(
        n_states=n_states, n_actions=3, n_sensors=n_sensors, n_queries=3,
        n_attacks=4, max_support=3, goal_fraction=0.15, seed=seed))
    rng = random.Random(seed)
    names = [a.name for a in doc.attacks]
    rows = tuple(
        EnablingDecl(s.name, tuple(sorted(rng.sample(names, rng.randint(1, len(names))))))
        for s in doc.states)
    return serialize_spec(replace(doc, enabled_attacks=rows))


@cache
def case_text(case) -> str:
    """The text of a named case: a bundled figure, ``unreachable-goal``,
    ``enabled-attacks`` or a ladder rung (n_states, n_sensors, seed)."""
    if case == "unreachable-goal":
        return UNREACHABLE_GOAL
    if case == "enabled-attacks":  # 259 nodes, 80 in Win1, 18 in Win2
        return enabled_attacks_text(8, 4, 27)
    return bundled_game_text(case) if isinstance(case, str) else ladder_text(*case)


@cache
def case_run(case) -> PipelineRun:
    """`run_stages` on ``case_text(case)``."""
    return run_stages(case_text(case))


def case_id(case) -> str:
    return case if isinstance(case, str) else "%d-%d-%d" % case


def release() -> None:
    """Drop the cached runs and sub-MDPs.  Freed while the session ends,
    they are not walked by the garbage collections that close it."""
    for builder in (attack_subset_runs, corpus_runs, jammer_win_runs, split_classes, case_run):
        builder.cache_clear()
