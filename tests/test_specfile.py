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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_specs_round_trip(seed):
    doc = generate_spec(GeneratorParams(
        n_states=5, n_actions=3, n_sensors=3, n_queries=2, n_attacks=3,
        max_support=3, goal_fraction=0.3, seed=seed))
    text = serialize_spec(doc)
    assert serialize_spec(parse_spec(text)) == text
