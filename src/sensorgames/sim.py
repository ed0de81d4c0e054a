"""Play engine: runs the real arena against a strategy pair.

A play alternates arena moves and sensing rounds.  The agent, driven
only by her belief, samples uniformly among the moves her multi-strategy
keeps available; the arena samples a successor from the declared weights
(uniformly when none are given); the attack policy picks a jam; the
belief then shrinks by the resulting observation.  That update reads
the game's tables, `Game.masks`, as the belief expansion does, so the
two compute every belief the same way.  A policy is any object with
``choose(rng, game, node, next_state)``: it sees the pre-move node and
the true successor, never the agent's move, since the paper's jammer
fixes its attack per perceived node.

The play runs on the belief's bit mask, one record per perceived node.
`_Records` is the one step table of a game's plays under one strategy,
kept in `Game.plays` by the strategy's id while the strategy lives:
each (state, belief mask)'s record, built on its first visit and shared
by every later play of the same game and strategy.  A record holds the
node, the belief, the kept moves in ascending order (read once from
`MultiStrategy.for_belief`), and per move the sorted successors with
their cumulative weights, the action's image of the mask, from the
table's caches, and a memo per successor, made at its first miss.  A
step unpacks one record, draws a move and a successor index, and hands
the attack policy the record's node and the successor.  The
successor's memo maps the attack the policy returned to the finished
transition: the `Step`, whether the play is now known complete, and the
next record.  Only a miss ANDs the move's image with the observation's
mask from the table's views, looks up the next record and checks the
attack; so a hit is that very attack object, already accepted at that
successor, and every later play of the game and strategy shares the
`Step`.  The jammer's computed strategy is the plain mapping
`solve_p2_safety` returns, which `TableAttack` reads directly.

A play that starts inside the goal draws nothing and seeds no
generator; every other play has its own `random.Random(seed)`.  A move,
and a successor index of an unweighted row, is drawn inline from the
generator's `getrandbits` exactly as `Random.randrange` draws it,
``n.bit_length()`` bits at a time until the value is below ``n``; a
choice among one still draws.  A weighted row's index is drawn by
`Random.choices` over ``range(m)``, which uses the generator as a draw
over the successors would.  `TRACES_DIGEST`, `SWEEP_DIGEST` and
`test_draws_follow_randbelow` in the tests pin this.  Each `Step` is
built once, by `tuple.__new__`: the same named tuple as the
constructor's, without its Python-level call.

A play ends when the agent *knows* the task is complete -- her belief
sits entirely inside the goal -- or when the step budget runs out.  If
the play wanders to a belief her strategy never covered, that is a
strategy gap: a hard error carrying the offending node, never a silent
default move.  Likewise an attack policy that picks an attack the arena
does not enable at the successor stops the play with an error.
"""

from __future__ import annotations

import enum
import random
import sys
import weakref
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Callable, NamedTuple

from .attacker import AttackStrategy
from .belief import BeliefNode, node_label
from .game import AttackId, Game, Observation, StateId, states_of, weighted_successors
from .planner import MultiStrategy


class Outcome(enum.Enum):
    TASK_KNOWN_COMPLETE = "task-known-complete"
    STEP_LIMIT = "step-limit"


class Step(NamedTuple):
    state: StateId          # where the move was taken
    action: int
    query: int
    attack: AttackId
    observation: Observation  # readings produced at the successor state
    belief_after: frozenset[StateId]


@dataclass(frozen=True)
class PlayTrace:
    steps: tuple[Step, ...]
    outcome: Outcome
    final_state: StateId
    seed: int


class StrategyGapError(Exception):
    """The play reached a belief the agent's strategy does not cover."""

    def __init__(self, game: Game, node: BeliefNode):
        self.node = node
        super().__init__(f"no move available at {node_label(game, node)}")


class FixedAttack:
    """Always launch the same attack; a play that reaches a state where
    it is not enabled is refused."""

    def __init__(self, attack: AttackId):
        self.attack = attack

    def choose(self, rng, game, node, next_state) -> AttackId:
        return self.attack


class UniformRandomAttack:
    """Sample uniformly among the attacks enabled at the successor."""

    def choose(self, rng, game, node, next_state) -> AttackId:
        return rng.choice(game.enabled_attacks[next_state])


class TableAttack:
    """Follow a computed attack strategy, the mapping `solve_p2_safety`
    returns, keyed by the pre-move node.

    Off the table (the play left the jammer's winning region) it falls
    back to the lowest-id attack enabled at the successor, so the policy
    stays total.
    """

    def __init__(self, strategy: AttackStrategy):
        self.strategy = strategy

    def choose(self, rng, game, node, next_state) -> AttackId:
        att = self.strategy.get(node)
        if att is not None:
            return att
        return game.enabled_attacks[next_state][0]


def _ask_on_stderr(prompt: str) -> str:
    """Read an answer from standard input, prompting on standard error so
    that standard output carries only the simulation's report.  At end
    of input the unanswered prompt's line is ended before `EOFError`
    propagates."""
    sys.stderr.write(prompt)
    sys.stderr.flush()
    try:
        return input()
    except EOFError:
        sys.stderr.write("\n")
        raise


class PromptAttack:
    """Ask a callable (by default, standard input) for the attack name."""

    def __init__(self, ask: Callable[[str], str] = _ask_on_stderr):
        self.ask = ask

    def choose(self, rng, game, node, next_state) -> AttackId:
        names = sorted(game.attacks[a].name for a in game.enabled_attacks[next_state])
        while True:
            answer = self.ask(f"attack ({'/'.join(names)}): ").strip()
            if answer in names:
                return game.attack(answer)


# Each successor's memo until its first miss: an empty mapping that
# cannot be written, shared by every row, so a record costs no dict per
# successor it never reaches.
_UNSEEN = MappingProxyType({})


class _Records(dict):
    """The step records of one game's plays under one strategy: (state,
    belief mask) -> (node, belief, n, n.bit_length(), rows), built on
    first read.  Row i is the i-th move kept at the belief, ascending,
    pre-joined with what a step under it reads: (successors, cumulative
    weights, their count m, m.bit_length(), memos, action, query, the
    action's image of the mask).  ``memos[r]`` is successor r's memo:
    the shared, empty `_UNSEEN` until `simulate` first misses there,
    then a dict from each accepted attack to (that attack, its `Step`,
    whether the step's belief lies inside the goal, the next record).  The table holds the strategy's
    mapping in a `MultiStrategy` of its own, never the strategy, so a
    dropped strategy is freed, and a weak reference to the strategy then
    drops the table from `Game.plays`, before another object can take
    its id.  The reference lives in the table, so a game freed before
    its strategy takes its tables along (at the next collection, as the
    callback holds `Game.plays`).

    A record is built from the table's caches: ``succs(s, a)`` is
    `weighted_successors` of that support, ``image(mask, a)`` a belief
    mask's action image and ``states(mask)`` the mask's states as one
    frozenset.  ``views[s][q][att]`` is `Masks.views`'s observation
    together with its states as a frozenset.  The caches hold the
    game's ``trans`` and `Masks`, never the game."""

    def __init__(self, game: Game, p1: MultiStrategy):
        trans, masks = game.trans, game.masks
        self.p1 = MultiStrategy(p1.allowed)
        self.owner = weakref.ref(p1, lambda _, plays=game.plays, key=id(p1): plays.pop(key, None))
        self.succs = cache(lambda s, a: weighted_successors(trans[s, a]))
        self.image = cache(lambda mask, a: masks.image(states_of(mask), a))
        self.states = cache(lambda mask: frozenset(states_of(mask)))
        self.views = tuple(tuple({att: (view, self.states(view)) for att, view in row.items()}
                                 for row in per_query) for per_query in masks.views)

    def __missing__(self, key):
        state, mask = key
        belief = self.states(mask)
        rows = []
        for action, query in self.p1.for_belief(belief):
            succs, cum_weights = self.succs(state, action)
            rows.append((succs, cum_weights, len(succs), len(succs).bit_length(),
                         [_UNSEEN] * len(succs), action, query, self.image(mask, action)))
        record = self[key] = (BeliefNode(state, belief), belief, len(rows),
                              len(rows).bit_length(), tuple(rows))
        return record


def simulate(
    game: Game,
    p1: MultiStrategy,
    p2,
    max_steps: int,
    seed: int,
) -> PlayTrace:
    """Run one play.  Same inputs and seed, same trace, step for step.

    Raises `StrategyGapError` when the agent has no move, and ValueError
    when ``p2`` picks an attack the game does not declare or does not
    enable at the successor state.
    """
    outside = ~game.masks.goal
    state = game.initial
    mask = 1 << state

    if not mask & outside:
        return PlayTrace((), Outcome.TASK_KNOWN_COMPLETE, state, seed)

    rng = random.Random(seed)
    records = game.plays.get(id(p1))
    if records is None:
        records = game.plays[id(p1)] = _Records(game, p1)
    # Bound once per play; `tuple.__new__` builds a named tuple without
    # its Python-level constructor.
    getrandbits, choices, choose, views = rng.getrandbits, rng.choices, p2.choose, records.views
    new = tuple.__new__
    node, _, n, k, rows = records[state, mask]
    steps: list[Step] = []
    while len(steps) < max_steps:
        if not n:
            raise StrategyGapError(game, node)
        # Each index is drawn as `Random.randrange(n)` draws it: k bits
        # at a time until the value is below n.
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        succs, cum_weights, m, j, memos, action, query, image = rows[r]
        if cum_weights is None:
            r = getrandbits(j)
            while r >= m:
                r = getrandbits(j)
        else:
            r = choices(range(m), cum_weights=cum_weights)[0]
        next_state = succs[r]
        attack = choose(rng, game, node, next_state)
        memo = memos[r]
        hit = memo.get(attack)
        # A hit is this very object, already accepted at this successor:
        # an equal one of another type (True for 1) would print otherwise.
        if hit is None or hit[0] is not attack:
            seen = views[next_state][query].get(attack)
            if seen is None:
                if attack not in range(len(game.attacks)):
                    raise ValueError(f"attack id {attack!r} is not declared "
                                     f"(the game declares {len(game.attacks)} attacks)")
                raise ValueError(
                    f"attack '{game.attacks[attack].name}' is not enabled at "
                    f"state '{game.state_names[next_state]}'")
            view, observation = seen
            mask = image & view
            record = records[next_state, mask]
            step = new(Step, (state, action, query, attack, observation, record[1]))
            if memo is _UNSEEN:
                memo = memos[r] = {}
            hit = memo[attack] = (attack, step, not mask & outside, record)
        _, step, complete, (node, _, n, k, rows) = hit
        steps.append(step)
        state = next_state
        if complete:
            return PlayTrace(tuple(steps), Outcome.TASK_KNOWN_COMPLETE, state, seed)

    return PlayTrace(tuple(steps), Outcome.STEP_LIMIT, state, seed)
