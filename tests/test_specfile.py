"""Parser and serializer: diagnostics, round-trips, canonical form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgames import (
    SpecParseError,
    bundled_game_text,
    parse_spec,
    serialize_spec,
)
from sensorgames.oracle import GeneratorParams, generate_spec
from sensorgames.specfile import _NAME, _TOKEN, _column, _name_ok

from .inputs import MINI

def diags(text):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    return err.value.diagnostics


def test_parse_mini_structure():
    doc = parse_spec(MINI)
    assert [s.name for s in doc.states] == ["s0", "s1"]
    assert doc.states[0].initial and not doc.states[0].goal
    assert doc.states[1].goal and not doc.states[1].initial
    assert [a.name for a in doc.actions] == ["a0"]
    assert doc.transitions[0].successors == (("s0", None), ("s1", None))
    assert doc.sensors[0].covers == ("s1",)
    assert doc.queries[0].sensors == ("g0",)
    assert doc.attacks[0].sensors == ()
    assert doc.enabled_attacks == ()


def test_parse_weights_and_enabling():
    text = MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:0.25 s1:0.75")
    text += "\n[enabled-attacks]\ns0: none\n"
    doc = parse_spec(text)
    assert doc.transitions[0].successors == (("s0", 0.25), ("s1", 0.75))
    (decl,) = doc.enabled_attacks
    assert (decl.state, decl.attacks) == ("s0", ("none",))


def test_comments_and_blank_lines_ignored():
    noisy = "# banner\n\n" + MINI.replace("[actions]", "# pre\n[actions]")
    assert serialize_spec(parse_spec(noisy)) == serialize_spec(parse_spec(MINI))


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d", "\x1e"],
                         ids=lambda sep: f"U+{ord(sep):04X}")
def test_only_newlines_end_a_line(sep):
    # `str.splitlines` would end a line at each of these, even inside a
    # comment; a line's tokens already take them for whitespace.
    commented = MINI.replace("s0 a0 -> s0 s1", f"s0 a0 -> s0 s1  # via s1{sep}s0 a0 -> s1")
    assert parse_spec(commented) == parse_spec(MINI)
    assert diags(commented + "[bogus]\n") == diags(MINI + "[bogus]\n")
    assert parse_spec(MINI.replace("s0 a0 -> s0", f"s0{sep}a0 ->{sep}s0")) == parse_spec(MINI)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_other_newlines(newline):
    assert parse_spec(MINI.replace("\n", newline)) == parse_spec(MINI)
    text = MINI.replace("\n", newline) + f"[bogus]{newline}"
    assert diags(text) == diags(MINI + "[bogus]\n")


def test_missing_states_section():
    d = diags("[actions]\na0\n")
    assert d[0].kind == "syntax"
    assert "missing states section" in d[0].message
    assert (d[0].line, d[0].column) == (1, 1)


def test_two_initial_states():
    d = diags(MINI.replace("s1 goal", "s1 goal initial"))
    assert d[0].kind == "syntax"
    assert "already is" in d[0].message


def test_duplicate_state():
    d = diags(MINI.replace("s1 goal", "s1 goal\ns0"))
    assert d[0].kind == "duplicate-definition"
    assert "declared twice" in d[0].message


def test_duplicate_sensor():
    d = diags(MINI.replace("g0: s1", "g0: s1\ng0: s0"))
    assert d[0].kind == "duplicate-definition"
    assert "sensor 'g0' declared twice" in d[0].message


def test_no_initial_state_is_a_parse_error():
    d = diags(MINI.replace("s0 initial", "s0"))
    assert d[0].kind == "syntax"
    assert "no state marked initial" in d[0].message


def test_unknown_state_flag():
    d = diags(MINI.replace("s0 initial", "s0 initial shiny"))
    assert d[0].kind == "unknown-field"
    assert "unknown state flag 'shiny'" in d[0].message
    assert d[0].column == len("s0 initial ") + 1


def test_unknown_section_and_orphan_content():
    d = diags(MINI + "\n[wat]\nstuff here\n")
    kinds = [x.kind for x in d]
    assert "unknown-field" in kinds and "syntax" in kinds
    assert any("unknown section '[wat]'" in x.message for x in d)
    assert any("content outside any known section" in x.message for x in d)


def test_names_outside_the_grammar_rejected():
    text = (MINI
            .replace("s1 goal", 's1 goal\ns"0\n  s,1 goal')
            .replace("a0\n\n", "a0\na(0\n\n")
            .replace("g0: s1", "g0: s1\n9g: s0")
            .replace("q0: g0", "q0: g0\nq-0:")
            .replace("none:", "none:\n jam!: g0"))
    lines = text.splitlines()
    expected = [
        (lines.index('s"0') + 1, 1, "state", 's"0'),
        (lines.index("  s,1 goal") + 1, 3, "state", "s,1"),
        (lines.index("a(0") + 1, 1, "action", "a(0"),
        (lines.index("9g: s0") + 1, 1, "sensor", "9g"),
        (lines.index("q-0:") + 1, 1, "query", "q-0"),
        (lines.index(" jam!: g0") + 1, 2, "attack", "jam!"),
    ]
    d = diags(text)
    assert [(x.line, x.column, x.kind) for x in d] == \
        [(line, col, "syntax") for line, col, _, _ in expected]
    for x, (_, _, what, name) in zip(d, expected):
        assert x.message.startswith(f"bad {what} name '{name}'")
    # Underscores and inner digits are fine.
    parse_spec(MINI.replace("s1 goal", "s1 goal\n_s_2"))


def test_zero_weight_rejected():
    d = diags(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:0 s1"))
    assert d[0].kind == "syntax"
    assert "bad successor 's0:0'" in d[0].message


@pytest.mark.parametrize("weight", ["nan", "NaN", "inf", "Infinity", "1e309"])
def test_non_finite_weight_rejected(weight):
    d = diags(MINI.replace("s0 a0 -> s0 s1", f"s0 a0 -> s0:1 s1:{weight}"))
    assert [(x.line, x.column, x.kind) for x in d] == [(9, 15, "syntax")]
    assert d[0].message.startswith(f"bad successor 's1:{weight}'")


def test_mixed_weights_rejected():
    d = diags(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:0.5 s1"))
    assert d[0].kind == "syntax"
    assert "every successor carries a weight or none does" in d[0].message


def test_empty_successor_list_is_a_validation_matter():
    doc = parse_spec(MINI.replace("s1 a0 -> s1", "s1 a0 ->"))
    assert doc.transitions[1].successors == ()


def test_all_diagnostics_collected():
    bad = (MINI
           .replace("s0 a0 -> s0 s1", "s0 a0 -> s0:0 s1:0")
           .replace("s1 goal", "s1 goal\ns1"))
    d = diags(bad)
    assert len(d) >= 2
    err = SpecParseError(list(d))
    assert "and" in str(err) and "more" in str(err)


def test_diagnostic_str_format():
    d = diags("[actions]\na0\n")
    assert str(d[0]).startswith("line 1, col 1: ")


@pytest.mark.parametrize("name", ["fig1", "fig1_nosense", "fig1_noattack", "fig4"])
def test_bundled_round_trip(name):
    doc = parse_spec(bundled_game_text(name))
    once = serialize_spec(doc)
    assert serialize_spec(parse_spec(once)) == once


def test_serializer_weight_format():
    text = MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:0.5 s1:2")
    out = serialize_spec(parse_spec(text))
    assert "s0:0.5" in out and "s1:2" in out and "s1:2.0" not in out


def test_close_weights_serialize_apart():
    texts = [serialize_spec(parse_spec(MINI.replace("s0 a0 -> s0 s1", f"s0 a0 -> s0:{w} s1:1")))
             for w in ("0.1234567", "0.1234568")]
    assert "s0:0.1234567 " in texts[0] and "s0:0.1234568 " in texts[1]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
def test_weights_read_back_exactly(weight):
    doc = parse_spec(MINI.replace("s0 a0 -> s0 s1", f"s0 a0 -> s0:{weight!r} s1:1"))
    assert doc.transitions[0].successors[0] == ("s0", weight)
    assert parse_spec(serialize_spec(doc)) == doc


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_specs_round_trip(seed):
    doc = generate_spec(GeneratorParams(
        n_states=5, n_actions=3, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=3, goal_fraction=0.3, seed=seed))
    text = serialize_spec(doc)
    assert serialize_spec(parse_spec(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(" \t\u3000\xa0\x1f\x85\u200b"))))
def test_split_matches_token_pattern(line):
    # The line parsers split with `str.split` and look a column up with
    # ``\S+`` only for a diagnostic, so both must see the same tokens.
    tokens = line.split()
    assert tokens == _TOKEN.findall(line)
    for i, token in enumerate(tokens):
        assert line.startswith(token, _column(line, i) - 1)


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from("aZ_09$-\xe9\u0661\xb2\u210c")),
               max_size=4))
def test_names_are_ascii_identifiers(name):
    # The parser and the validator test a name with `_name_ok`, which
    # holds of exactly the names `_NAME` matches.
    assert _name_ok(name) == bool(_NAME.fullmatch(name))


# Malformed files and every diagnostic each one gives, in order, as
# (line, column, kind, message).
MALFORMED = {
    "named-lists": MINI
        .replace("g0: s1", "g0: s1\ng1 s0\n  g2 g3: s0")
        .replace("q0: g0", "q0: g0\n: g0\nq1 g0")
        .replace("none:", "none:\nb0 b1:\nb2")
        + "\n[enabled-attacks]\ns0 none\ns1 s2: none\n: none\ns1: none\n",
    "duplicates": MINI
        .replace("s1 goal", "s1 goal\ns0 shiny\ns-2\ns-2 goal\n s1")
        .replace("a0\n\n", "a0\na0\na(0\na(0\n\n")
        .replace("s1 a0 -> s1", "s1 a0 -> s1\n  s0 a0 -> s1\ns1 a0 -> s0:0\ns1 a0 -> s0:2 s1:1")
        .replace("g0: s1", "g0: s1\ng0: s0\n 9g:\n9g: s1")
        .replace("q0: g0", "q0: g0\nq0:\nq0 : g0")
        .replace("none:", "none:\nnone: g0\n  none:")
        + "\n[enabled-attacks]\ns0: none\ns0:\n s1: none\n s1 : none\n",
    "transitions": MINI.replace(
        "s1 a0 -> s1",
        "s1 a0 -> s1\ns0\ns0 a0\ns0 a0 s1\ns0 a0 => s1\n"
        "s1 a0 -> s0:0 s1:x\ns1 a0 -> s0:-1\ns1 a0 -> :1\n"
        "s1 a0 -> s0:1 s1\ns1 a0 -> s0 s1:2 s1:3\ns1 a0 -> s0:1e-3 s1:2.5E2\n"
        "x y -> a:1 b:c"),
    "actions": MINI.replace("a0\n\n", "a0\na1 a2\n  a3   a4 a5\n7a\n\n"),
    "sections": "stray before\n[bogus]\nline under bogus\n[states\n s9\n"
        + MINI.replace("[actions]", "[ actions ]\n[Actions]\nafter\n[actions]")
        + "[]\nx\n",
    "initials": MINI.replace("s1 goal", "s1 goal initial\ns2 initial initial\ns3 goal goal\ns0 initial"),
    "no-initial": MINI.replace("s0 initial", "s0") + "\n[states]\ns5\n",
    "empty-states": "# header\n\n[states]\n\n[actions]\na0\n",
    "missing-states": "[actions]\na0 a1\n[sensors]\ng0\n",
    "flags": MINI.replace("s0 initial", "s0 initial Initial GOAL goal"),
    "comments": MINI.replace("s1 goal", "s1 goal # s1 shiny\n# [bogus]\n  \t\ns2 # initial\ns2#dup"),
}

PINNED_DIAGNOSTICS = {
    "named-lists": [
        (14, 1, "syntax", "expected 'sensor-name: ...' with a colon"),
        (15, 1, "syntax", "expected exactly one sensor name before ':'"),
        (19, 1, "syntax", "expected exactly one query name before ':'"),
        (20, 1, "syntax", "expected 'query-name: ...' with a colon"),
        (24, 1, "syntax", "expected exactly one attack name before ':'"),
        (25, 1, "syntax", "expected 'attack-name: ...' with a colon"),
        (28, 1, "syntax", "expected 'state-name: ...' with a colon"),
        (29, 1, "syntax", "expected exactly one state name before ':'"),
        (30, 1, "syntax", "expected exactly one state name before ':'"),
    ],
    "duplicates": [
        (4, 4, "unknown-field", "unknown state flag 'shiny' (expected 'initial' or 'goal')"),
        (4, 1, "duplicate-definition", "state 's0' declared twice"),
        (5, 1, "syntax", "bad state name 's-2' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (6, 1, "syntax", "bad state name 's-2' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (6, 1, "duplicate-definition", "state 's-2' declared twice"),
        (7, 2, "duplicate-definition", "state 's1' declared twice"),
        (11, 1, "duplicate-definition", "action 'a0' declared twice"),
        (12, 1, "syntax", "bad action name 'a(0' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (13, 1, "syntax", "bad action name 'a(0' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (13, 1, "duplicate-definition", "action 'a(0' declared twice"),
        (18, 3, "duplicate-definition", "transition 's0 a0' declared twice"),
        (19, 10, "syntax", "bad successor 's0:0' (expected 'name' or 'name:weight', weight > 0)"),
        (20, 1, "duplicate-definition", "transition 's1 a0' declared twice"),
        (24, 1, "duplicate-definition", "sensor 'g0' declared twice"),
        (25, 2, "syntax", "bad sensor name '9g' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (26, 1, "syntax", "bad sensor name '9g' (expected [A-Za-z_][A-Za-z0-9_]*)"),
        (26, 1, "duplicate-definition", "sensor '9g' declared twice"),
        (30, 1, "duplicate-definition", "query 'q0' declared twice"),
        (31, 1, "duplicate-definition", "query 'q0' declared twice"),
        (35, 1, "duplicate-definition", "attack 'none' declared twice"),
        (36, 3, "duplicate-definition", "attack 'none' declared twice"),
        (40, 1, "duplicate-definition", "attack enabling for state 's0' declared twice"),
        (42, 2, "duplicate-definition", "attack enabling for state 's1' declared twice"),
    ],
    "transitions": [
        (11, 1, "syntax", "expected 'state action -> successors...'"),
        (12, 1, "syntax", "expected 'state action -> successors...'"),
        (13, 1, "syntax", "expected 'state action -> successors...'"),
        (14, 1, "syntax", "expected 'state action -> successors...'"),
        (15, 10, "syntax", "bad successor 's0:0' (expected 'name' or 'name:weight', weight > 0)"),
        (16, 10, "syntax", "bad successor 's0:-1' (expected 'name' or 'name:weight', weight > 0)"),
        (17, 10, "syntax", "bad successor ':1' (expected 'name' or 'name:weight', weight > 0)"),
        (18, 10, "syntax", "either every successor carries a weight or none does"),
        (19, 10, "syntax", "either every successor carries a weight or none does"),
        (20, 1, "duplicate-definition", "transition 's1 a0' declared twice"),
        (21, 12, "syntax", "bad successor 'b:c' (expected 'name' or 'name:weight', weight > 0)"),
    ],
    "actions": [
        (7, 4, "syntax", "one action name per line"),
        (8, 8, "syntax", "one action name per line"),
        (9, 1, "syntax", "bad action name '7a' (expected [A-Za-z_][A-Za-z0-9_]*)"),
    ],
    "sections": [
        (1, 1, "syntax", "content outside any known section"),
        (2, 1, "unknown-field", "unknown section '[bogus]'"),
        (3, 1, "syntax", "content outside any known section"),
        (4, 1, "syntax", "unterminated section header"),
        (5, 1, "syntax", "content outside any known section"),
        (11, 1, "unknown-field", "unknown section '[Actions]'"),
        (12, 1, "syntax", "content outside any known section"),
        (28, 1, "unknown-field", "unknown section '[]'"),
        (29, 1, "syntax", "content outside any known section"),
    ],
    "initials": [
        (6, 1, "duplicate-definition", "state 's0' declared twice"),
        (3, 1, "syntax", "state 's1' marked initial, but 's0' already is"),
        (4, 1, "syntax", "state 's2' marked initial, but 's0' already is"),
    ],
    "no-initial": [
        (21, 1, "syntax", "no state marked initial"),
    ],
    "empty-states": [
        (3, 1, "syntax", "no state marked initial"),
    ],
    "missing-states": [
        (2, 4, "syntax", "one action name per line"),
        (4, 1, "syntax", "expected 'sensor-name: ...' with a colon"),
        (1, 1, "syntax", "missing states section"),
    ],
    "flags": [
        (2, 12, "unknown-field", "unknown state flag 'Initial' (expected 'initial' or 'goal')"),
        (2, 20, "unknown-field", "unknown state flag 'GOAL' (expected 'initial' or 'goal')"),
    ],
    "comments": [
        (7, 1, "duplicate-definition", "state 's2' declared twice"),
    ],
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_diagnostics_pinned(name):
    d = diags(MALFORMED[name])
    assert [(x.line, x.column, x.kind, x.message) for x in d] == PINNED_DIAGNOSTICS[name]
