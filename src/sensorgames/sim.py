"""Play engine: runs the real arena against a strategy pair.

A play alternates arena moves and sensing rounds.  The agent, driven
only by her belief, samples uniformly among the moves her multi-strategy
keeps available; the arena samples a successor from the declared weights
(uniformly when none are given); the attack policy, which may peek at
everything including the true successor, picks a jam; the belief then
shrinks by the resulting observation.  That update reads the game's
tables, `Game.masks`, as the belief expansion does, so the two compute
every belief the same way.

The play runs on the belief's bit mask.  Each step reads tables that
are filled on first use and shared by every later play of the same
objects: from `Game.memo`, each (state, action)'s sorted successors
with their cumulative weights, each (belief mask, action)'s image, one
frozenset per mask and each state's attacks in ascending order; from
`MultiStrategy.for_belief`, each belief's sorted moves.  Sampling draws
from these in the order a play without them would, so a seed gives the
same trace either way.  The jammer's computed strategy is the plain
mapping `solve_p2_safety` returns, which `TableAttack` reads directly.

Each play has its own `random.Random(seed)`.  A move, and a successor
of an unweighted row, is drawn by `randbelow` from the generator's
`getrandbits` exactly as `Random.randrange` draws it,
``n.bit_length()`` bits at a time until the value is below ``n``; a
choice among one still draws.  A weighted row is drawn by
`Random.choices`.  `TRACES_DIGEST`, `SWEEP_DIGEST` and
`test_randbelow_is_randrange` in the tests pin this.  The node handed
to the attack policy and each `Step` are built by `tuple.__new__`: the
same named tuple as the constructor's, without its Python-level call.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .attacker import AttackStrategy
from .belief import BeliefNode, node_label
from .game import AttackId, Game, Observation, StateId
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

    def choose(self, rng, game, node, move, next_state) -> AttackId:
        return self.attack


class UniformRandomAttack:
    """Sample uniformly among the attacks enabled at the successor."""

    def choose(self, rng, game, node, move, next_state) -> AttackId:
        return rng.choice(game.memo.attacks[next_state])


class TableAttack:
    """Follow a computed attack strategy, the mapping `solve_p2_safety`
    returns, keyed by the pre-move node.

    Off the table (the play left the jammer's winning region) it falls
    back to the lowest-id attack enabled at the successor, so the policy
    stays total.
    """

    def __init__(self, strategy: AttackStrategy):
        self.strategy = strategy

    def choose(self, rng, game, node, move, next_state) -> AttackId:
        att = self.strategy.get(node)
        if att is not None:
            return att
        return game.memo.attacks[next_state][0]


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

    def __init__(self, ask: Callable[[str], str] | None = None):
        self.ask = ask

    def choose(self, rng, game, node, move, next_state) -> AttackId:
        ask = self.ask if self.ask is not None else _ask_on_stderr
        names = sorted(game.attacks[a].name for a in game.enabled_attacks[next_state])
        while True:
            answer = ask(f"attack ({'/'.join(names)}): ").strip()
            if answer in names:
                return game.attack(answer)


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform index below ``n``, drawn as `random.Random.randrange(n)`
    draws it: ``n.bit_length()`` bits at a time until the value is below
    ``n``.  ``n == 1`` still draws, so later draws do not shift."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


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
    rng = random.Random(seed)
    memo, views = game.memo, game.masks.views
    outside = ~game.masks.goal
    state = game.initial
    mask = 1 << state
    belief = memo.states(mask)

    if not mask & outside:
        return PlayTrace((), Outcome.TASK_KNOWN_COMPLETE, state, seed)

    # Bound once per play; `tuple.__new__` builds a named tuple without
    # its Python-level constructor.
    getrandbits, choices, choose = rng.getrandbits, rng.choices, p2.choose
    moves_of, succs_of, image, states = p1.for_belief, memo.succs, memo.image, memo.states
    new = tuple.__new__
    steps: list[Step] = []
    while len(steps) < max_steps:
        moves = moves_of(belief)
        if not moves:
            raise StrategyGapError(game, BeliefNode(state, belief))
        action, query = move = moves[randbelow(getrandbits, len(moves))]
        succs, cum_weights = succs_of(state, action)
        if cum_weights is None:
            next_state = succs[randbelow(getrandbits, len(succs))]
        else:
            next_state = choices(succs, cum_weights=cum_weights)[0]
        attack = choose(rng, game, new(BeliefNode, (state, belief)), move, next_state)
        view = views[next_state][query].get(attack)
        if view is None:
            if attack not in range(len(game.attacks)):
                raise ValueError(f"attack id {attack!r} is not declared "
                                 f"(the game declares {len(game.attacks)} attacks)")
            raise ValueError(
                f"attack '{game.attacks[attack].name}' is not enabled at "
                f"state '{game.state_names[next_state]}'")
        mask = image(mask, action) & view
        belief = states(mask)
        steps.append(new(Step, (state, action, query, attack, states(view), belief)))
        state = next_state
        if not mask & outside:
            return PlayTrace(tuple(steps), Outcome.TASK_KNOWN_COMPLETE, state, seed)

    return PlayTrace(tuple(steps), Outcome.STEP_LIMIT, state, seed)
