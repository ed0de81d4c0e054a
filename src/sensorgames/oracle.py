"""Seeded game generator and a brute-force cross-check for the solver.

The generator turns a parameter record and a seed into a game document,
deterministically: the same inputs serialize to byte-identical text.  It
exists to mass-produce small instances for differential testing.
`GeneratorParams` holds the defaults, and `gen-random` builds its flags
from its fields; a game is ``validate_game(generate_spec(params))``.

The brute-force check answers one question only, by sheer enumeration:
does the agent have *any* belief-uniform multi-strategy that completes
the task almost surely from the start?  It decides every assignment of a
nonempty move subset to every belief class, and an assignment wins when
the plain Markov-chain certificate (completion stays reachable
everywhere the chain can go) holds for its induced chain.  Classes no
move sequence can reach from the start are skipped: their assignment
cannot touch the chain.  The combination count is checked against a
hard cap first, so a blow-up is an explicit refusal rather than a silent
week of CPU time.  The referee reads the perceived game's own numbering,
the ints `BeliefMDP` stores, and nothing of the solver's: it imports
nothing from `planner`, so the solver and its audit share no code with
it.  It enumerates classes in the order `BeliefMDP.members` holds them.

The assignments are walked depth first, one class at a time, and each
class's choice is tried once by a *prefix refutation*: a node reached
from the start through decided nodes alone is reached by every
completion, and a completion's chain only ever has fewer edges than the
graph in which each undecided node keeps all its class's moves, since
every nonempty subset is part of that union.  So if such a surely
reached node cannot reach `FINAL` even in that graph, every completion
fails, and the whole block is decided at once.  With every class
decided the refutation is the certificate itself: the sure nodes are
all the chain's nodes, so a choice of the last class that survives it
wins.  `OracleResult.assignments_checked` counts the assignments
decided, those ruled out as a block included, so it is the same as for
a loop that certifies every assignment in turn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .belief import BeliefMDP
from .specfile import (
    ActionDecl,
    GameSpecDocument,
    SelectionDecl,
    SensorDecl,
    StateDecl,
    TransitionDecl,
)


@dataclass(frozen=True)
class GeneratorParams:
    """What `generate_spec` draws from; the defaults are `gen-random`'s."""

    n_states: int = 4
    n_actions: int = 2
    n_sensors: int = 2
    n_queries: int = 2
    n_attacks: int = 3  # includes the always-present empty attack
    max_support: int = 2
    goal_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_states", "n_actions", "n_sensors", "n_queries", "n_attacks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not (1 <= self.max_support <= self.n_states):
            raise ValueError("max_support must be between 1 and n_states")
        if not (0.0 <= self.goal_fraction <= 1.0):
            raise ValueError("goal_fraction must lie in [0, 1]")


def generate_spec(params: GeneratorParams) -> GameSpecDocument:
    """Draw a game document; identical params give identical documents."""
    rng = random.Random(params.seed)
    states = [f"s{i}" for i in range(params.n_states)]
    actions = [f"a{i}" for i in range(params.n_actions)]
    sensors = [f"g{i}" for i in range(params.n_sensors)]

    n_goal = round(params.goal_fraction * params.n_states)
    goal = set(rng.sample(states, n_goal))
    state_decls = tuple(
        StateDecl(name, initial=(i == 0), goal=(name in goal))
        for i, name in enumerate(states))

    transitions = []
    for s in states:
        if s in goal:
            # Goal states are absorbing under every action: arrival
            # completes the task, so nothing may lead back out.
            for a in actions:
                transitions.append(TransitionDecl(s, a, ((s, None),)))
            continue
        enabled = [a for a in actions if rng.random() < 0.75] or [rng.choice(actions)]
        for a in enabled:
            support = rng.sample(states, rng.randint(1, params.max_support))
            transitions.append(TransitionDecl(s, a, tuple((succ, None) for succ in support)))

    sensor_decls = tuple(
        SensorDecl(name, tuple(s for s in states if rng.random() < 0.5))
        for name in sensors)
    query_decls = tuple(
        SelectionDecl(f"q{i}", tuple(g for g in sensors if rng.random() < 0.5))
        for i in range(params.n_queries))
    attack_decls = [SelectionDecl("none", ())]
    for i in range(1, params.n_attacks):
        attack_decls.append(SelectionDecl(
            f"b{i}", tuple(g for g in sensors if rng.random() < 0.5)))

    return GameSpecDocument(
        states=state_decls,
        actions=tuple(ActionDecl(a) for a in actions),
        transitions=tuple(transitions),
        sensors=sensor_decls,
        queries=query_decls,
        attacks=tuple(attack_decls),
    )


class CapExceededError(Exception):
    """The enumeration would be too large; carries the estimate."""

    def __init__(self, estimate: int, cap: int):
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"brute force would try about {estimate} assignments, cap is {cap}")


@dataclass(frozen=True)
class OracleResult:
    initial_winning: bool
    assignments_checked: int
    class_count: int


def brute_force_win1(mdp: BeliefMDP, cap: int = 1_000_000) -> OracleResult:
    """Exhaustive answer to "is the start node winning for the agent?".

    Decides every belief-uniform assignment of nonempty move subsets,
    independently of the solver, by a refuted prefix or, once every
    class is decided, by the same refutation acting as the certificate on
    its induced chain (see the module notes).  Only classes with a node
    reachable from the start (under any moves) are enumerated; whatever
    is assigned elsewhere can never alter the chain the start node sees.
    A class offering no move has the one empty choice, a dead end that
    fails the certificate if the chain can touch it.  Where the start
    node is not among the MDP's nodes (``start`` is None, which only a
    sub-MDP can leave), no chain runs and the answer is no.

    The reached nodes are found by walking ``mdp.succs``, and the
    classes they touch are enumerated in ``mdp.members`` order, the first
    class varying slowest and each class's subsets largest first.  A
    subset is a tuple of positions into the class's shared
    ``node_moves`` tuple, so each reached node's successor ids under
    every subset are read from its ``mdp.succs`` row once and the walk
    runs on ints.  After each class's choice the refutation runs on the
    classes decided so far; where it holds, the block of completions,
    the product of the later classes' subset counts, is counted as
    decided and the walk moves to the next choice.  A winning game's
    count is the 1-based position of its first unrefuted full
    assignment in product order, and a losing game's is the whole
    product.
    """
    start, node_moves = mdp.start, mdp.node_moves
    if start is None:  # a sub-MDP without the start node
        return OracleResult(False, 0, 0)
    final = len(mdp.succs)
    reached, seen = [start], {start, final}
    for i in reached:
        fresh = {j for targets in mdp.succs[i] for j in targets} - seen
        seen |= fresh
        reached += fresh

    classes = [members for members in mdp.members if not seen.isdisjoint(members)]
    # per_class[c]: class c's subsets as positions into its moves tuple.
    per_class: list[list[tuple[int, ...]]] = []
    estimate = 1
    for members in classes:
        offered = range(len(node_moves[members[0]]))
        subsets = [combo for size in range(len(offered), 0, -1)
                   for combo in combinations(offered, size)] or [()]
        estimate *= len(subsets)
        if offered and estimate > cap:  # a class without moves is never refused
            raise CapExceededError(estimate, cap)
        per_class.append(subsets)

    cls: list[int] = [0] * final  # each node's index in ``classes``
    for c, members in enumerate(classes):
        for i in members:
            cls[i] = c
    # succ[i][j]: successor ids of node i under the j-th subset of its class.
    succ: list = [None] * final
    for i in reached:
        rows = mdp.succs[i]
        succ[i] = [[j for k in subset for j in rows[k]] for subset in per_class[cls[i]]]

    # Depth-first over the classes in product order.  ``choice[c]`` is
    # class c's subset index; a class not yet decided holds 0, its
    # largest subset, which is all the moves it offers.
    sizes = [len(subsets) for subsets in per_class]
    block = [1] * len(sizes)  # block[c]: assignments per choice at class c
    for c in range(len(sizes) - 1, 0, -1):
        block[c - 1] = block[c] * sizes[c]
    choice = [0] * len(sizes)

    def refuted(depth: int) -> bool:
        """Whether every completion of the first ``depth`` classes'
        choices fails: some node that every completion reaches cannot
        reach `FINAL` even with all moves at the undecided nodes."""
        preds: dict[int, list[int]] = {start: []}
        queue = [start]
        for i in queue:
            if i != final:
                for j in succ[i][choice[cls[i]]]:
                    if j in preds:
                        preds[j].append(i)
                    else:
                        preds[j] = [i]
                        queue.append(j)
        if final not in preds:
            return True
        can_finish = {final}
        queue = [final]
        for j in queue:
            for i in preds[j]:
                if i not in can_finish:
                    can_finish.add(i)
                    queue.append(i)
        # The surely reached nodes: undecided ones end the walk.
        sure, queue = {start}, [start]
        for i in queue:
            if i not in can_finish:
                return True
            if i != final and cls[i] < depth:
                for j in succ[i][choice[cls[i]]]:
                    if j not in sure:
                        sure.add(j)
                        queue.append(j)
        return False

    last = len(sizes) - 1
    checked, c = 0, 0
    while True:
        if refuted(c + 1):
            checked += block[c]
        elif c == last:
            return OracleResult(True, checked + 1, len(classes))
        else:
            c += 1
            continue
        # the next choice in product order, undoing the classes that are spent
        choice[c] += 1
        while choice[c] == sizes[c]:
            choice[c] = 0
            if c == 0:
                return OracleResult(False, checked, len(classes))
            c -= 1
            choice[c] += 1
