"""Arena model: states, actions, Boolean sensors, queries, and attacks.

The arena is an explicit-state nondeterministic transition system with a
designated initial state and a set of goal states.  The planning agent
cannot see the state directly.  Each round she picks a *query*, a subset
of the sensor bank to read; each sensor answers whether the current
state lies in its coverage set.  The attacker simultaneously picks an
*attack*, a subset of sensors to jam.  A jammed sensor returns a failure
value that carries no information, so the round's information content is
exactly the sensors in ``query minus attack``.

Everything downstream (belief tracking, both solvers, the simulator)
consumes the immutable `Game` built here by `validate_game`.
`get_observation` is the set-based statement of the observation rule.
`Game.masks` holds the game's tables on bit masks, built once per game:
the goal, each successor support, the states where each action is
enabled, and each observation.  The observations come from one coverage
mask per sensor: at state s a sensor reads the same on its coverage if
s is covered, else on the complement, and an observation is the AND of
those agreement masks over the sensors in ``query minus attack``.  The
tests hold every table to `get_observation`.  Each state's enabled
attacks have one form, `Game.enabled_attacks`: an ascending tuple,
sorted once by `validate_game`.  The observation tables are keyed in
its order, and the simulator's jammers and the jammer game read it;
`Masks` keeps no copy.  The belief expansion and
the simulator both read `Game.masks`, so the belief update -- the
action image filtered by the observation -- is computed one way.
`Game.plays` is a dict field, empty when the game is built and left
out of its constructor, equality and repr, that the simulator fills
with its tables by strategy id and empties of each table when its
strategy is freed; a `Game` cannot key a table itself, since its
``trans`` is a dict.

`validate_game` accepts documents built in code as well as parsed ones,
so it checks again, in the parser's words, every document rule the
parser checks on text: each declared name matches specfile's name
pattern, exactly one state is marked initial, no name, transition row
or enabling row is declared twice, and a row's successors carry
weights all or none, each within specfile's weight bound (a number,
finite and > 0).  Each section's label and duplicate key come from
specfile's section table, and the five named sections -- states,
actions, sensors, queries, attacks -- are checked in one loop.  The
semantic rules -- names resolve, supports are non-empty and list each
successor once, a row's weights have a finite total, every state
enables an action and an attack, the game declares a query (every move
of the agent is an action paired with a query) -- are the validator's
alone.

A transition row reports its issues in one order: each successor it
lists twice, its weights, then each successor that does not resolve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
from typing import Iterable, Mapping, Sequence

from .specfile import (_NAME, _SECTIONS, GameSpecDocument, _format_successor, _name_ok, _summary,
                       _weight_ok)

StateId = int
ActionId = int
SensorId = int
QueryId = int
AttackId = int

# An observation is the set of states consistent with one round of
# sensor readings.
Observation = frozenset[StateId]


@dataclass(frozen=True)
class Sensor:
    """A Boolean sensor: reports whether the current state is covered."""

    name: str
    coverage: frozenset[StateId]


@dataclass(frozen=True)
class SensorSelection:
    """A named subset of the sensor bank: a query or an attack."""

    name: str
    sensors: frozenset[SensorId]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "unknown-id" | "empty-support" | "no-enabled-action"
    #            | "empty-attack-set" | "duplicate-name" | "duplicate-initial"
    #            | "bad-name" | "bad-weight" | "no-query"
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line else ""
        return f"{where}{self.message}"


class GameValidationError(Exception):
    """Raised by `validate_game`; carries every violation found."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = tuple(issues)
        super().__init__(_summary(self.issues))


@dataclass(frozen=True)
class Game:
    """A validated arena.  All identifiers are dense indices.

    ``trans`` maps an enabled (state, action) pair to its successor
    support; each successor optionally carries a positive weight used
    only by the simulator.  ``enabled_attacks`` gives, per state, the
    attacks the attacker may launch while the agent is there, ascending
    and each once.
    """

    state_names: tuple[str, ...]
    action_names: tuple[str, ...]
    initial: StateId
    goal: frozenset[StateId]
    trans: Mapping[tuple[StateId, ActionId], Mapping[StateId, float | None]]
    sensors: tuple[Sensor, ...]
    queries: tuple[SensorSelection, ...]
    attacks: tuple[SensorSelection, ...]
    enabled_attacks: tuple[tuple[AttackId, ...], ...]
    warnings: tuple[str, ...] = field(default=(), compare=False, repr=False)
    # The simulator's tables for plays of this game, by strategy id; each
    # goes when its strategy is freed.
    plays: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def has_weights(self) -> bool:
        return any(w is not None for support in self.trans.values() for w in support.values())

    @cached_property
    def masks(self) -> Masks:
        """This game's tables on bit masks, built on first use."""
        support = {key: _mask(succs) for key, succs in self.trans.items()}
        enabled = [0] * len(self.action_names)
        for s, a in support:
            enabled[a] |= 1 << s
        everything = (1 << self.n_states) - 1
        cover = [_mask(sensor.coverage) for sensor in self.sensors]
        readable = [[tuple(q.sensors - att.sensors) for att in self.attacks]
                    for q in self.queries]

        # Plain loops: on rows of a few sensors they run about twice as
        # fast as `reduce` over a `map`.
        views = []
        for s, atts in enumerate(self.enabled_attacks):
            # Each sensor's agreement mask at s: the states it reads the same on.
            agree = [c if c >> s & 1 else everything ^ c for c in cover]
            per_query = []
            for row in readable:
                view = {}
                for att in atts:
                    mask = everything
                    for i in row[att]:
                        mask &= agree[i]
                    view[att] = mask
                per_query.append(view)
            views.append(tuple(per_query))
        return Masks(
            goal=_mask(self.goal),
            support=support,
            enabled=tuple(enabled),
            views=tuple(views))

    def counts(self) -> dict[str, int]:
        """How many of each declaration the arena has, in file order."""
        return {
            "states": self.n_states,
            "actions": len(self.action_names),
            "sensors": len(self.sensors),
            "queries": len(self.queries),
            "attacks": len(self.attacks),
        }

    # Name lookups, mostly for tests and the command line.
    def state(self, name: str) -> StateId:
        return _lookup("state", self.state_names, name)

    def action(self, name: str) -> ActionId:
        return _lookup("action", self.action_names, name)

    def query(self, name: str) -> QueryId:
        return _lookup("query", [q.name for q in self.queries], name)

    def attack(self, name: str) -> AttackId:
        return _lookup("attack", [a.name for a in self.attacks], name)


@dataclass(frozen=True, slots=True)
class Masks:
    """A game's tables on int masks, bit s standing for state s.

    ``goal`` is the goal set, ``support[(s, a)]`` the successor support
    of each enabled (state, action) and ``enabled[a]`` the states where
    action a is enabled.  ``views[s][q][att]`` is the observation at s
    under query q and attack att, for each attack enabled at s, keyed
    in the ascending order of ``Game.enabled_attacks[s]``: the AND, over
    the sensors q reads and att leaves unjammed, of the states each
    sensor reads the same on as at s.  It equals `get_observation`, the
    set-based rule the tests compare it to.  The attacks enabled at s
    are read from ``Game.enabled_attacks``, not from here.
    """

    goal: int
    support: Mapping[tuple[StateId, ActionId], int]
    enabled: tuple[int, ...]
    views: tuple[tuple[Mapping[AttackId, int], ...], ...]

    def image(self, states: Iterable[StateId], action: ActionId) -> int:
        """The action image of a belief, before any observation; the
        action must be enabled at each of its states."""
        return reduce(or_, [self.support[(s, action)] for s in states])


def weighted_successors(support: Mapping[StateId, float | None]
                        ) -> tuple[tuple[StateId, ...], list[float] | None]:
    """A support's successors, ascending, with their cumulative weights
    as `random.choices` forms them, or None when the row is unweighted."""
    succs = tuple(sorted(support))
    if all(support[s] is None for s in succs):
        return succs, None
    return succs, list(accumulate(float(support[s]) for s in succs))


def _mask(states: Iterable[StateId]) -> int:
    """The bit mask of some states.  A plain loop: on a few states it runs
    about twice as fast as `sum` over a generator."""
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def states_of(mask: int) -> tuple[StateId, ...]:
    """The states of a bit mask, ascending."""
    out = []
    s = 0
    while mask:
        if mask & 1:
            out.append(s)
        mask >>= 1
        s += 1
    return tuple(out)


def _lookup(kind: str, names: Sequence[str], name: str) -> int:
    """Position of ``name`` among ``names``; an unknown name is a ValueError
    that says what kind of name was asked for."""
    try:
        return names.index(name)
    except ValueError:
        raise ValueError(f"unknown {kind} {name!r}") from None


def observation_for_sensors(
    game: Game, state: StateId, sensors: Iterable[SensorId]
) -> Observation:
    """States indistinguishable from ``state`` given the sensors read.

    Start from the whole state space and intersect, for each readable
    sensor, either its coverage or the complement, depending on which
    side the true state is on.  Reading nothing yields the whole space.
    """
    if not (0 <= state < game.n_states):
        raise ValueError(f"unknown state id {state}")
    view = set(range(game.n_states))
    for i in sorted(set(sensors)):
        if not (0 <= i < len(game.sensors)):
            raise ValueError(f"unknown sensor id {i}")
        coverage = game.sensors[i].coverage
        if state in coverage:
            view &= coverage
        else:
            view -= coverage
    return frozenset(view)


def get_observation(
    game: Game, state: StateId, query: QueryId, attack: AttackId
) -> Observation:
    """One round of readings at ``state`` under a query and an attack.

    Jammed sensors are skipped outright: a failure value rules nothing
    out, so only sensors in the query but not the attack contribute.
    """
    if not (0 <= query < len(game.queries)):
        raise ValueError(f"unknown query id {query}")
    if not (0 <= attack < len(game.attacks)):
        raise ValueError(f"unknown attack id {attack}")
    readable = game.queries[query].sensors - game.attacks[attack].sensors
    return observation_for_sensors(game, state, readable)


def _resolve(
    names: Mapping[str, int], name: str, what: str, line: int,
    issues: list[ValidationIssue],
) -> int | None:
    idx = names.get(str(name))
    if idx is None:
        issues.append(ValidationIssue(
            "unknown-id", f"unknown {what} '{name}'", line))
    return idx


def _resolve_all(names: Mapping[str, int], members, what: str, line: int,
                 issues: list[ValidationIssue]) -> frozenset[int]:
    """The ids of the ``members`` that resolve; each other one is reported."""
    ids = list(map(names.get, map(str, members)))
    if None not in ids:
        return frozenset(ids)
    issues += [ValidationIssue("unknown-id", f"unknown {what} '{name}'", line)
               for name, idx in zip(members, ids) if idx is None]
    return frozenset(idx for idx in ids if idx is not None)


def _first_rows(doc: GameSpecDocument, section: str, issues: list[ValidationIssue]):
    """Each row of ``section`` whose key no earlier row has, with its key's
    text; each other row is reported as the parser reports it."""
    table = _SECTIONS[section]
    seen: set[str] = set()
    for decl in getattr(doc, table.field):
        k = str(table.key(decl))
        if k in seen:
            issues.append(ValidationIssue(
                "duplicate-name", f"{table.what} '{k}' declared twice", decl.line))
        else:
            seen.add(k)
            yield k, decl


def validate_game(doc: GameSpecDocument) -> Game:
    """Resolve names, check every semantic invariant, and build a `Game`.

    All violations are collected before raising, so one failed run
    reports everything wrong with the file.  Non-fatal oddities (a
    sensor that covers nothing) become warnings on the returned game.
    """
    issues: list[ValidationIssue] = []
    warnings: list[str] = []

    # Each named section's first row of each name, every row's name checked.
    # Rows, ids and lookups are keyed by a name's text, so a name that is
    # not a `str`, in a document built in code, is reported as a bad or
    # unknown name even where it cannot be hashed.
    rows: dict[str, dict] = {}
    for section in ("states", "actions", "sensors", "queries", "attacks"):
        table = _SECTIONS[section]
        issues += [ValidationIssue("bad-name", f"bad {table.what} name '{decl.name}' "
                                   f"(expected {_NAME.pattern})", decl.line)
                   for decl in getattr(doc, table.field)
                   if not (isinstance(decl.name, str) and _name_ok(decl.name))]
        rows[section] = dict(_first_rows(doc, section, issues))
    state_rows = rows["states"]
    state_ids, action_ids, sensor_ids, _, attack_ids = (
        {name: i for i, name in enumerate(named)} for named in rows.values())

    initials = [s for s in state_rows.values() if s.initial]
    initial = state_ids.get(str(initials[0].name)) if initials else None
    issues += [ValidationIssue("duplicate-initial", f"state '{s.name}' marked initial, "
                               f"but '{initials[0].name}' already is", s.line)
               for s in initials[1:]]
    goal = frozenset(state_ids[name] for name, s in state_rows.items() if s.goal)

    trans: dict[tuple[StateId, ActionId], dict[StateId, float | None]] = {}
    acting: set[StateId] = set()  # the states with an outgoing row
    leaving: set[StateId] = set()  # the goal states with a row leaving the goal
    for _, t in _first_rows(doc, "transitions", issues):
        s = _resolve(state_ids, t.state, "state", t.line, issues)
        a = _resolve(action_ids, t.action, "action", t.line, issues)
        if not t.successors:
            issues.append(ValidationIssue(
                "empty-support",
                f"transition '{t.state} {t.action}' has an empty successor set",
                t.line))
            continue
        # Unknown successors are reported after the row's other issues; a
        # name can repeat only if one is unknown or the support is short.
        support: dict[StateId, float | None] = {}
        unknown: list[ValidationIssue] = []
        weighted = 0
        for name, weight in t.successors:
            weighted += weight is not None
            if (succ := state_ids.get(str(name))) is None:
                unknown.append(ValidationIssue("unknown-id", f"unknown state '{name}'", t.line))
            else:
                support[succ] = weight
        if unknown or len(support) < len(t.successors):
            names = [str(name) for name, _weight in t.successors]
            issues += [ValidationIssue(
                "duplicate-name", f"transition '{t.state} {t.action}' lists successor "
                f"'{name}' twice", t.line) for name, count in Counter(names).items() if count > 1]
        if 0 < weighted < len(t.successors):
            issues.append(ValidationIssue(
                "bad-weight", "either every successor carries a weight or none does", t.line))
        if weighted:
            issues += [ValidationIssue("bad-weight", f"bad successor '{_format_successor(succ)}' "
                                       "(expected 'name' or 'name:weight', weight > 0)", t.line)
                       for succ in t.successors if succ[1] is not None and not _weight_ok(succ[1])]
        issues += unknown
        if (weighted and support and all(map(_weight_ok, support.values()))
                and not math.isfinite(total := weighted_successors(support)[1][-1])):
            issues.append(ValidationIssue(
                "bad-weight", f"the weights of transition '{t.state} {t.action}' sum to "
                f"{total} (expected a finite total)", t.line))
        if s is not None and a is not None and support:
            trans[(s, a)] = support
            acting.add(s)
            if s in goal and not goal.issuperset(support):
                leaving.add(s)
    for decl in state_rows.values():
        if state_ids[str(decl.name)] in leaving:
            warnings.append(
                f"goal state '{decl.name}' has a transition leaving the goal "
                f"set; solver guarantees assume absorbing goal states")

    sensors = []
    for decl in rows["sensors"].values():
        covered = _resolve_all(state_ids, decl.covers, "state", decl.line, issues)
        if not covered:
            warnings.append(f"sensor '{decl.name}' covers no state")
        sensors.append(Sensor(decl.name, covered))

    def selections(decls) -> list[SensorSelection]:
        return [SensorSelection(d.name, _resolve_all(sensor_ids, d.sensors, "sensor", d.line,
                                                     issues)) for d in decls]

    queries = selections(rows["queries"].values())
    attacks = selections(rows["attacks"].values())
    if not queries:  # every move is an (action, query) pair
        issues.append(ValidationIssue("no-query", "no query declared, so the agent has no move"))

    for name, sid in state_ids.items():
        if sid not in acting:
            issues.append(ValidationIssue(
                "no-enabled-action", f"state '{name}' has no enabled action",
                state_rows[name].line))

    enabled: list[tuple[AttackId, ...]] = [tuple(range(len(attack_ids)))] * len(state_ids)
    for _, decl in _first_rows(doc, "enabled-attacks", issues):
        sid = _resolve(state_ids, decl.state, "state", decl.line, issues)
        listed = _resolve_all(attack_ids, decl.attacks, "attack", decl.line, issues)
        if sid is not None:
            enabled[sid] = tuple(sorted(listed))
    for name, sid in state_ids.items():
        if not enabled[sid]:
            line = next((e.line for e in doc.enabled_attacks if str(e.state) == name),
                        state_rows[name].line)
            issues.append(ValidationIssue(
                "empty-attack-set", f"state '{name}' has no enabled attack", line))

    if initial is None:
        issues.append(ValidationIssue("unknown-id", "no resolvable initial state",
                                      doc.states[0].line if doc.states else None))

    if issues:
        raise GameValidationError(issues)
    assert initial is not None

    return Game(
        state_names=tuple([s.name for s in doc.states]),
        action_names=tuple([a.name for a in doc.actions]),
        initial=initial,
        goal=goal,
        trans=trans,
        sensors=tuple(sensors),
        queries=tuple(queries),
        attacks=tuple(attacks),
        enabled_attacks=tuple(enabled),
        warnings=tuple(warnings),
    )
