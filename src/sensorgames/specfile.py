"""Plain-text game files: parsing, diagnostics, canonical serialization.

A game file is line oriented.  Section headers sit in square brackets,
``#`` starts a comment, blank lines are ignored.  The parser is purely
syntactic: it resolves nothing and keeps declarations in file order, so
identifier resolution and semantic checks live with the validator, which
can point back at declaration lines.

    [states]
    s0 initial
    s4 goal

    [actions]
    a0

    [transitions]
    s0 a0 -> s0 s1 s2
    s1 a0 -> s4:2 s5:1        # optional positive weights

    [sensors]
    red: s0 s1

    [queries]
    sigma0: red blue

    [attacks]
    beta0: red
    none:                     # jamming nothing is spelled out explicitly

    [enabled-attacks]         # optional; default is every attack everywhere
    s0: beta0 none

Parsing never stops at the first problem.  Every malformed line is
recorded as a `Diagnostic` with its line and column, and `parse_spec`
raises a `SpecParseError` carrying the whole list once the scan is done.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

SECTION_NAMES = (
    "states",
    "actions",
    "transitions",
    "sensors",
    "queries",
    "attacks",
    "enabled-attacks",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    kind: str  # "syntax" | "unknown-field" | "duplicate-definition"
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


class SpecParseError(Exception):
    """Raised when a game file has syntax problems; carries all of them."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        first = self.diagnostics[0]
        rest = len(self.diagnostics) - 1
        tail = f" (and {rest} more)" if rest else ""
        super().__init__(f"{first}{tail}")


@dataclass(frozen=True)
class StateDecl:
    name: str
    initial: bool = False
    goal: bool = False
    line: int = 0


@dataclass(frozen=True)
class ActionDecl:
    name: str
    line: int = 0


@dataclass(frozen=True)
class TransitionDecl:
    state: str
    action: str
    successors: tuple[tuple[str, float | None], ...]
    line: int = 0


@dataclass(frozen=True)
class SensorDecl:
    name: str
    covers: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class SelectionDecl:
    """A named selection of sensors: a query or an attack."""

    name: str
    sensors: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class EnablingDecl:
    state: str
    attacks: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class GameSpecDocument:
    states: tuple[StateDecl, ...] = ()
    actions: tuple[ActionDecl, ...] = ()
    transitions: tuple[TransitionDecl, ...] = ()
    sensors: tuple[SensorDecl, ...] = ()
    queries: tuple[SelectionDecl, ...] = ()
    attacks: tuple[SelectionDecl, ...] = ()
    enabled_attacks: tuple[EnablingDecl, ...] = ()


_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokens(text: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(text)]


class _Scan:
    """Mutable parse state: collected declarations plus diagnostics."""

    def __init__(self) -> None:
        self.states: list[StateDecl] = []
        self.actions: list[ActionDecl] = []
        self.transitions: list[TransitionDecl] = []
        self.sensors: list[SensorDecl] = []
        self.queries: list[SelectionDecl] = []
        self.attacks: list[SelectionDecl] = []
        self.enabled: list[EnablingDecl] = []
        self.diagnostics: list[Diagnostic] = []
        self.seen_sections: set[str] = set()

    def issue(self, line: int, column: int, kind: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(line, column, kind, message))

    def check_name(self, line: int, column: int, name: str, what: str) -> None:
        """Flag a declared name outside ``[A-Za-z_][A-Za-z0-9_]*``."""
        if not _NAME.fullmatch(name):
            self.issue(line, column, "syntax",
                       f"bad {what} name '{name}' (expected {_NAME.pattern})")


def _split_named_list(
    scan: _Scan, lineno: int, raw: str, what: str
) -> tuple[str, tuple[str, ...], int] | None:
    """Parse ``name: member member ...``; members may be empty."""
    head, sep, tail = raw.partition(":")
    if not sep:
        scan.issue(lineno, 1, "syntax", f"expected '{what}-name: ...' with a colon")
        return None
    head_tokens = _tokens(head)
    if len(head_tokens) != 1:
        scan.issue(lineno, 1, "syntax", f"expected exactly one {what} name before ':'")
        return None
    name, column = head_tokens[0]
    members = tuple(tok for tok, _ in _tokens(tail))
    return name, members, column


def _parse_state_line(scan: _Scan, lineno: int, raw: str) -> None:
    toks = _tokens(raw)
    name, column = toks[0]
    scan.check_name(lineno, column, name, "state")
    initial = goal = False
    for tok, col in toks[1:]:
        if tok == "initial":
            initial = True
        elif tok == "goal":
            goal = True
        else:
            scan.issue(lineno, col, "unknown-field",
                       f"unknown state flag '{tok}' (expected 'initial' or 'goal')")
    if any(s.name == name for s in scan.states):
        scan.issue(lineno, column, "duplicate-definition",
                   f"state '{name}' declared twice")
        return
    scan.states.append(StateDecl(name, initial, goal, lineno))


def _parse_action_line(scan: _Scan, lineno: int, raw: str) -> None:
    toks = _tokens(raw)
    if len(toks) != 1:
        scan.issue(lineno, toks[1][1], "syntax", "one action name per line")
        return
    name, col = toks[0]
    scan.check_name(lineno, col, name, "action")
    if any(a.name == name for a in scan.actions):
        scan.issue(lineno, col, "duplicate-definition", f"action '{name}' declared twice")
        return
    scan.actions.append(ActionDecl(name, lineno))


def _parse_successor(tok: str) -> tuple[str, float | None] | None:
    """A successor token is ``name`` or ``name:weight`` with weight > 0."""
    name, sep, weight = tok.partition(":")
    if not sep:
        return tok, None
    try:
        value = float(weight)
    except ValueError:
        return None
    if not name or value <= 0:
        return None
    return name, value


def _parse_transition_line(scan: _Scan, lineno: int, raw: str) -> None:
    toks = _tokens(raw)
    if len(toks) < 3 or toks[2][0] != "->":
        scan.issue(lineno, 1, "syntax", "expected 'state action -> successors...'")
        return
    state, action = toks[0][0], toks[1][0]
    successors: list[tuple[str, float | None]] = []
    for tok, col in toks[3:]:
        succ = _parse_successor(tok)
        if succ is None:
            scan.issue(lineno, col, "syntax",
                       f"bad successor '{tok}' (expected 'name' or 'name:weight', weight > 0)")
            return
        successors.append(succ)
    weighted = [s for s in successors if s[1] is not None]
    if weighted and len(weighted) != len(successors):
        scan.issue(lineno, toks[3][1], "syntax",
                   "either every successor carries a weight or none does")
        return
    if any(t.state == state and t.action == action for t in scan.transitions):
        scan.issue(lineno, toks[0][1], "duplicate-definition",
                   f"transition '{state} {action}' declared twice")
        return
    scan.transitions.append(TransitionDecl(state, action, tuple(successors), lineno))


def _parse_enabling_line(scan: _Scan, lineno: int, raw: str) -> None:
    parsed = _split_named_list(scan, lineno, raw, "state")
    if parsed is None:
        return
    state, attacks, column = parsed
    if any(e.state == state for e in scan.enabled):
        scan.issue(lineno, column, "duplicate-definition",
                   f"attack enabling for state '{state}' declared twice")
        return
    scan.enabled.append(EnablingDecl(state, attacks, lineno))


def _parse_selection_line(
    scan: _Scan, lineno: int, raw: str, bucket: list, what: str
) -> None:
    parsed = _split_named_list(scan, lineno, raw, what)
    if parsed is None:
        return
    name, members, column = parsed
    scan.check_name(lineno, column, name, what)
    if any(d.name == name for d in bucket):
        scan.issue(lineno, column, "duplicate-definition", f"{what} '{name}' declared twice")
        return
    if what == "sensor":
        bucket.append(SensorDecl(name, members, lineno))
    else:
        bucket.append(SelectionDecl(name, members, lineno))


def parse_spec(text: str) -> GameSpecDocument:
    """Parse game-file text into a document, or raise `SpecParseError`.

    All diagnostics found in one scan are reported together; a malformed
    line or unknown section is skipped and scanning continues.
    """
    scan = _Scan()
    section: str | None = None
    states_header_line = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        raw = line.split("#", 1)[0].rstrip()
        if not raw.strip():
            continue
        stripped = raw.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                scan.issue(lineno, 1, "syntax", "unterminated section header")
                section = None
                continue
            name = stripped[1:-1].strip()
            if name not in SECTION_NAMES:
                scan.issue(lineno, 1, "unknown-field", f"unknown section '[{name}]'")
                section = None
                continue
            section = name
            scan.seen_sections.add(name)
            if name == "states":
                states_header_line = lineno
            continue
        if section is None:
            scan.issue(lineno, 1, "syntax", "content outside any known section")
            continue
        if section == "states":
            _parse_state_line(scan, lineno, raw)
        elif section == "actions":
            _parse_action_line(scan, lineno, raw)
        elif section == "transitions":
            _parse_transition_line(scan, lineno, raw)
        elif section == "sensors":
            _parse_selection_line(scan, lineno, raw, scan.sensors, "sensor")
        elif section == "queries":
            _parse_selection_line(scan, lineno, raw, scan.queries, "query")
        elif section == "attacks":
            _parse_selection_line(scan, lineno, raw, scan.attacks, "attack")
        elif section == "enabled-attacks":
            _parse_enabling_line(scan, lineno, raw)

    if "states" not in scan.seen_sections:
        scan.issue(1, 1, "syntax", "missing states section")
    else:
        initials = [s for s in scan.states if s.initial]
        if not initials:
            scan.issue(states_header_line, 1, "syntax", "no state marked initial")
        for extra in initials[1:]:
            scan.issue(extra.line, 1, "syntax",
                       f"state '{extra.name}' marked initial, but "
                       f"'{initials[0].name}' already is")

    if scan.diagnostics:
        raise SpecParseError(scan.diagnostics)

    return GameSpecDocument(
        states=tuple(scan.states),
        actions=tuple(scan.actions),
        transitions=tuple(scan.transitions),
        sensors=tuple(scan.sensors),
        queries=tuple(scan.queries),
        attacks=tuple(scan.attacks),
        enabled_attacks=tuple(scan.enabled),
    )


def _format_successor(succ: tuple[str, float | None]) -> str:
    name, weight = succ
    if weight is None:
        return name
    return f"{name}:{weight:g}"


def serialize_spec(doc: GameSpecDocument) -> str:
    """Render a document back to canonical text.

    Declaration order is preserved (it defines the numeric identifiers),
    comments are gone, and weights use one fixed number format, so equal
    documents serialize to byte-identical text.
    """
    out: list[str] = ["[states]"]
    for s in doc.states:
        flags = ("",) + ((" initial",) if s.initial else ()) + ((" goal",) if s.goal else ())
        out.append(s.name + "".join(flags))
    out.append("")
    out.append("[actions]")
    out.extend(a.name for a in doc.actions)
    out.append("")
    out.append("[transitions]")
    for t in doc.transitions:
        succs = " ".join(_format_successor(s) for s in t.successors)
        out.append(f"{t.state} {t.action} -> {succs}".rstrip())
    out.append("")
    out.append("[sensors]")
    for sensor in doc.sensors:
        out.append(f"{sensor.name}: {' '.join(sensor.covers)}".rstrip())
    out.append("")
    out.append("[queries]")
    for q in doc.queries:
        out.append(f"{q.name}: {' '.join(q.sensors)}".rstrip())
    out.append("")
    out.append("[attacks]")
    for a in doc.attacks:
        out.append(f"{a.name}: {' '.join(a.sensors)}".rstrip())
    if doc.enabled_attacks:
        out.append("")
        out.append("[enabled-attacks]")
        for e in doc.enabled_attacks:
            out.append(f"{e.state}: {' '.join(e.attacks)}".rstrip())
    out.append("")
    return "\n".join(out)
