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

One table, `_SECTIONS`, lists the sections in file order and gives each
its `GameSpecDocument` field, its label (what one declaration is), the
key of a declaration, unique per section in a valid file, the parser of
one of its lines and the formatter that writes one declaration back.
`parse_spec` and `serialize_spec` both walk it.  A line parser returns
only the declaration; one check per section then reports a key declared
twice, as "<label> '<key>' declared twice".

The validator checks again every rule the parser checks here, since a
document built in code never passes through the parser: the name
test, `_name_ok`, and its pattern, `_NAME`, the weight bound,
`_weight_ok`, and each section's label and key, from `_SECTIONS`, are
taken from this module, and one initial state and no key declared twice
are checked there too, in the same words.  `_summary` writes the message
of both `SpecParseError` and the validator's `GameValidationError`: the
first finding, and how many more there are.

Parsing never stops at the first problem.  Every malformed line is
recorded as a `Diagnostic` with its line and column, and `parse_spec`
raises a `SpecParseError` carrying the whole list once the scan is done.
Lines end at ``\\n``, ``\\r\\n`` and ``\\r`` only: the other separators
`str.splitlines` knows (``\\x85``, ``\\u2028``, ``\\v``, ...) end neither
a line nor a comment.  A line's tokens are what `str.split` gives, which
takes those separators for whitespace.  Columns are found only for a
diagnostic, by `_column`, which counts ``\\S+`` matches: the two split a
line at the same places, so a well-formed line costs no column work.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    kind: str  # "syntax" | "unknown-field" | "duplicate-definition"
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


def _summary(findings: tuple) -> str:
    """An error's message: its first finding, and how many more it has."""
    rest = len(findings) - 1
    return f"{findings[0]}" + (f" (and {rest} more)" if rest else "")


class SpecParseError(Exception):
    """Raised when a game file has syntax problems; carries all of them."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__(_summary(self.diagnostics))


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


def _name_ok(name: str) -> bool:
    """Whether ``name`` is one `_NAME` matches: an ASCII identifier,
    tested without the cost of a match."""
    return name.isascii() and name.isidentifier()


def _column(raw: str, index: int) -> int:
    """The 1-based column of a line's ``index``-th token.  `str.split`
    and ``\\S+`` split a line at the same places, so this is the column
    of ``raw.split()[index]``."""
    return next(islice(_TOKEN.finditer(raw), index, None)).start() + 1


class _Scan:
    """Mutable parse state: each section's declarations by key, in file
    order, under the section's document field, plus diagnostics."""

    def __init__(self) -> None:
        self.decls: dict[str, dict[str, object]] = {t.field: {} for t in _SECTIONS.values()}
        self.diagnostics: list[Diagnostic] = []

    def issue(self, line: int, column: int, kind: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(line, column, kind, message))

    def check_name(self, line: int, raw: str, name: str, what: str) -> None:
        """Flag a declared name, the first token of line ``raw``, outside
        ``[A-Za-z_][A-Za-z0-9_]*``."""
        if not _name_ok(name):
            self.issue(line, _column(raw, 0), "syntax",
                       f"bad {what} name '{name}' (expected {_NAME.pattern})")


def _split_named_list(
    scan: _Scan, lineno: int, raw: str, what: str
) -> tuple[str, tuple[str, ...]] | None:
    """Parse ``name: member member ...``; members may be empty.  The name
    is then the line's first token."""
    head, sep, tail = raw.partition(":")
    if not sep:
        scan.issue(lineno, 1, "syntax", f"expected '{what}-name: ...' with a colon")
        return None
    head_tokens = head.split()
    if len(head_tokens) != 1:
        scan.issue(lineno, 1, "syntax", f"expected exactly one {what} name before ':'")
        return None
    return head_tokens[0], tuple(tail.split())


# A line parser is called as ``parse(scan, lineno, raw, what)``, with
# ``what`` its section's label.  It returns the line's declaration, or
# None for a malformed line.


def _state_line(scan: _Scan, lineno: int, raw: str, what: str) -> StateDecl:
    name, *flags = raw.split()
    scan.check_name(lineno, raw, name, what)
    for i, tok in enumerate(flags, 1):
        if tok not in ("initial", "goal"):
            scan.issue(lineno, _column(raw, i), "unknown-field",
                       f"unknown state flag '{tok}' (expected 'initial' or 'goal')")
    return StateDecl(name, "initial" in flags, "goal" in flags, lineno)


def _action_line(scan: _Scan, lineno: int, raw: str, what: str) -> ActionDecl | None:
    toks = raw.split()
    if len(toks) != 1:
        scan.issue(lineno, _column(raw, 1), "syntax", "one action name per line")
        return None
    scan.check_name(lineno, raw, toks[0], what)
    return ActionDecl(toks[0], lineno)


def _weight_ok(value: object) -> bool:
    """The weight bound, shared with the validator: a number > 0 and
    within the float range.  A bool is not a number here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _parse_successor(tok: str) -> tuple[str, float | None] | None:
    """A successor token is ``name`` or ``name:weight`` with a finite
    weight > 0."""
    name, sep, weight = tok.partition(":")
    if not sep:
        return tok, None
    try:
        value = float(weight)
    except ValueError:
        return None
    if not name or not _weight_ok(value):
        return None
    return name, value


def _transition_line(scan: _Scan, lineno: int, raw: str, what: str) -> TransitionDecl | None:
    toks = raw.split()
    if len(toks) < 3 or toks[2] != "->":
        scan.issue(lineno, 1, "syntax", "expected 'state action -> successors...'")
        return None
    if ":" not in raw:  # no weights
        return TransitionDecl(toks[0], toks[1], tuple([(tok, None) for tok in toks[3:]]), lineno)
    successors: list[tuple[str, float | None]] = []
    for i, tok in enumerate(toks[3:], 3):
        succ = _parse_successor(tok)
        if succ is None:
            scan.issue(lineno, _column(raw, i), "syntax",
                       f"bad successor '{tok}' (expected 'name' or 'name:weight', weight > 0)")
            return None
        successors.append(succ)
    if 0 < sum(w is not None for _, w in successors) < len(successors):
        scan.issue(lineno, _column(raw, 3), "syntax",
                   "either every successor carries a weight or none does")
        return None
    return TransitionDecl(toks[0], toks[1], tuple(successors), lineno)


def _selection_line(decl: type, scan: _Scan, lineno: int, raw: str, what: str):
    """A ``name: member ...`` line declaring a sensor (its members are
    states), a query or an attack (sensors); ``decl`` is its type."""
    parsed = _split_named_list(scan, lineno, raw, what)
    if parsed is None:
        return None
    scan.check_name(lineno, raw, parsed[0], what)
    return decl(*parsed, lineno)


def _enabling_line(scan: _Scan, lineno: int, raw: str, what: str) -> EnablingDecl | None:
    parsed = _split_named_list(scan, lineno, raw, "state")
    return None if parsed is None else EnablingDecl(*parsed, lineno)


def _format_successor(succ: tuple[str, float | None]) -> str:
    """``name``, or ``name:weight`` with the weight in ``:g`` form where
    that reads back exactly and as its ``repr`` where it does not.  A
    weight that is not a number (a bool included), or an int beyond the
    float range, which only a document built in code can hold, is
    written as `str` gives it."""
    name, weight = succ
    if weight is None:
        return name
    if (not isinstance(weight, (int, float)) or isinstance(weight, bool)
            or abs(weight) > sys.float_info.max):
        return f"{name}:{weight}"
    short = f"{weight:g}"
    return f"{name}:{short if float(short) == weight else repr(weight)}"


def _named_list(name: str, members: tuple[str, ...]) -> str:
    return f"{name}: {' '.join(members)}".rstrip()


class _Section(NamedTuple):
    field: str  # the document field that holds the section's declarations
    what: str  # what one declaration is, in messages
    key: Callable[..., str]  # a declaration's key, unique in a valid section
    parse: Callable  # the parser of one line
    format: Callable[..., str]  # writes one declaration back as a line


_name = attrgetter("name")

# The format's one table: each section, in file order.  The parser and
# the validator both report a declaration whose key an earlier one of its
# section has as "<what> '<key>' declared twice".
_SECTIONS: dict[str, _Section] = {
    "states": _Section(
        "states", "state", _name, _state_line,
        lambda s: s.name + (" initial" if s.initial else "") + (" goal" if s.goal else "")),
    "actions": _Section("actions", "action", _name, _action_line, _name),
    # Tokens hold no whitespace, so "state action" names the pair uniquely.
    "transitions": _Section(
        "transitions", "transition", lambda t: f"{t.state} {t.action}", _transition_line,
        lambda t: f"{t.state} {t.action} -> "
                  f"{' '.join(map(_format_successor, t.successors))}".rstrip()),
    "sensors": _Section("sensors", "sensor", _name, partial(_selection_line, SensorDecl),
                        lambda s: _named_list(s.name, s.covers)),
    "queries": _Section("queries", "query", _name, partial(_selection_line, SelectionDecl),
                        lambda q: _named_list(q.name, q.sensors)),
    "attacks": _Section("attacks", "attack", _name, partial(_selection_line, SelectionDecl),
                        lambda a: _named_list(a.name, a.sensors)),
    "enabled-attacks": _Section(
        "enabled_attacks", "attack enabling for state", attrgetter("state"), _enabling_line,
        lambda e: _named_list(e.state, e.attacks)),
}


def parse_spec(text: str) -> GameSpecDocument:
    """Parse game-file text into a document, or raise `SpecParseError`.

    All diagnostics found in one scan are reported together; a malformed
    line or unknown section is skipped and scanning continues.
    """
    scan = _Scan()
    parse = None  # the current section's line parser, with its label, key and declarations
    states_header_line = 0

    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        raw = (line[:line.index("#")] if "#" in line else line).rstrip()
        if not raw:
            continue
        stripped = raw.lstrip()
        if stripped[0] == "[":
            parse = None
            name = stripped[1:-1].strip()
            if stripped[-1] != "]":
                scan.issue(lineno, 1, "syntax", "unterminated section header")
            elif name not in _SECTIONS:
                scan.issue(lineno, 1, "unknown-field", f"unknown section '[{name}]'")
            else:
                field, what, key_of, parse, _ = _SECTIONS[name]
                decls = scan.decls[field]
                if name == "states":
                    states_header_line = lineno
            continue
        if parse is None:
            scan.issue(lineno, 1, "syntax", "content outside any known section")
            continue
        decl = parse(scan, lineno, raw, what)
        if decl is None:
            continue
        key = key_of(decl)
        if key in decls:
            scan.issue(lineno, _column(raw, 0), "duplicate-definition",
                       f"{what} '{key}' declared twice")
        else:
            decls[key] = decl

    if not states_header_line:
        scan.issue(1, 1, "syntax", "missing states section")
    else:
        initials = [s for s in scan.decls["states"].values() if s.initial]
        if not initials:
            scan.issue(states_header_line, 1, "syntax", "no state marked initial")
        for extra in initials[1:]:
            scan.issue(extra.line, 1, "syntax",
                       f"state '{extra.name}' marked initial, but "
                       f"'{initials[0].name}' already is")

    if scan.diagnostics:
        raise SpecParseError(scan.diagnostics)

    return GameSpecDocument(**{field: tuple(decls.values())
                               for field, decls in scan.decls.items()})


def serialize_spec(doc: GameSpecDocument) -> str:
    """Render a document back to canonical text.

    Declaration order is preserved (it defines the numeric identifiers),
    comments are gone, and each weight has one spelling that reads back
    exactly, so equal documents serialize to byte-identical text and
    parsing the text gives the document back.  An empty
    ``[enabled-attacks]`` section is left out.
    """
    out: list[str] = []
    for name, table in _SECTIONS.items():
        decls = getattr(doc, table.field)
        if decls or name != "enabled-attacks":
            out += [f"[{name}]", *map(table.format, decls), ""]
    return "\n".join(out)
