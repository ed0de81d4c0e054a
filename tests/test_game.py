"""Validation and the observation channel."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgames import (
    GameValidationError,
    ValidationIssue,
    get_observation,
    observation_for_sensors,
    SpecParseError,
    parse_spec,
    serialize_spec,
    validate_game,
)
from sensorgames.belief import BeliefNode
from sensorgames.game import states_of
from sensorgames.oracle import GeneratorParams, generate_spec
from sensorgames.specfile import EnablingDecl, GameSpecDocument, SelectionDecl

from .inputs import MINI, per_state_attack_games, small_games


def issues_of(text):
    with pytest.raises(GameValidationError) as err:
        validate_game(parse_spec(text))
    return err.value.issues


@st.composite
def wide_sensor_games(draw):
    """A generated game of 6-8 states and 4-6 sensors whose queries and
    attacks are drawn freely.  Its last sensor covers nothing, and its
    last attack jams every sensor, so no sensor is readable under it."""
    n_sensors = draw(st.integers(4, 6))
    doc = generate_spec(GeneratorParams(
        n_states=draw(st.integers(6, 8)), n_actions=2, n_sensors=n_sensors, n_queries=1,
        n_attacks=1, max_support=3, goal_fraction=0.25, seed=draw(st.integers(0, 10_000))))
    sensors = doc.sensors[:-1] + (replace(doc.sensors[-1], covers=()),)
    names = [g.name for g in sensors]
    picks = st.lists(st.sets(st.sampled_from(names)).map(sorted).map(tuple),
                     min_size=1, max_size=3)
    queries = tuple(SelectionDecl(f"q{i}", pick) for i, pick in enumerate(draw(picks)))
    attacks = tuple(SelectionDecl(f"b{i}", pick) for i, pick in enumerate(draw(picks)))
    return validate_game(replace(doc, sensors=sensors, queries=queries,
                                 attacks=attacks + (SelectionDecl("all", tuple(names)),)))


# --- validation ---------------------------------------------------------

def test_validate_mini():
    game = validate_game(parse_spec(MINI))
    assert game.state_names == ("s0", "s1")
    assert game.initial == 0
    assert game.goal == frozenset({1})
    assert not game.has_weights
    assert game.warnings == ()
    # No enabled-attacks section: every attack is available everywhere.
    assert game.enabled_attacks == (frozenset({0}), frozenset({0}))


def test_unknown_identifiers_reported():
    text = MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0 ghost")
    issues = issues_of(text)
    assert any(i.kind == "unknown-id" and "ghost" in i.message for i in issues)


def test_empty_support():
    issues = issues_of(MINI.replace("s1 a0 -> s1", "s1 a0 ->"))
    assert any(i.kind == "empty-support" for i in issues)
    # The state also ends up with no enabled action; both are reported.
    assert any(i.kind == "no-enabled-action" and "'s1'" in i.message for i in issues)


def test_no_enabled_action():
    issues = issues_of(MINI.replace("s1 a0 -> s1\n", ""))
    assert any(i.kind == "no-enabled-action" for i in issues)


def test_empty_attack_set():
    issues = issues_of(MINI + "\n[enabled-attacks]\ns1:\n")
    assert [i.kind for i in issues] == ["empty-attack-set"]
    assert "'s1'" in issues[0].message


def test_duplicate_names_in_programmatic_document():
    # The parser refuses textual duplicates; a document assembled in
    # code can still carry them and must be caught here.
    doc = parse_spec(MINI)
    doc = replace(doc, sensors=doc.sensors + doc.sensors)
    with pytest.raises(GameValidationError) as err:
        validate_game(doc)
    assert any(i.kind == "duplicate-name" and "'g0'" in i.message
               for i in err.value.issues)


def test_duplicate_successor():
    # Text and programmatic documents alike: a successor listed twice is
    # refused rather than keeping its last weight.
    issue = ValidationIssue(
        "duplicate-name", "transition 's0 a0' lists successor 's1' twice", 9)
    assert issues_of(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s1:1 s1:2 s0:1")) == (issue,)
    doc = parse_spec(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s1 s1 s0"))
    doc = replace(doc, transitions=tuple(replace(t, line=0) for t in doc.transitions))
    with pytest.raises(GameValidationError) as err:
        validate_game(doc)
    assert err.value.issues == (replace(issue, line=0),)


def test_no_initial_state_in_programmatic_document():
    doc = parse_spec(MINI)
    doc = replace(doc, states=tuple(replace(s, initial=False) for s in doc.states))
    with pytest.raises(GameValidationError) as err:
        validate_game(doc)
    assert any("initial" in i.message for i in err.value.issues)


def test_document_without_states():
    # Nothing to be initial, so the validator says so rather than
    # returning a game without a start.
    with pytest.raises(GameValidationError) as err:
        validate_game(GameSpecDocument())
    assert err.value.issues == (
        ValidationIssue("unknown-id", "no resolvable initial state", None),)


def _with_s0_a0(*successors):
    return lambda d: replace(d, transitions=(
        replace(d.transitions[0], successors=successors), *d.transitions[1:]))


# Rules the parser checks on text, broken in MINI's document as code
# could build it, each with the issue the validator reports: the
# parser's message at the offending row's line.
PARSER_RULES = {
    "two-initials": (
        lambda d: replace(d, states=(d.states[0], replace(d.states[1], initial=True))),
        ValidationIssue("duplicate-initial", "state 's1' marked initial, but 's0' already is", 3)),
    "sensor-twice": (
        lambda d: replace(d, sensors=d.sensors + (
            replace(d.sensors[0], covers=("ghost",), line=14),)),
        ValidationIssue("duplicate-name", "sensor 'g0' declared twice", 14)),
    "initial-state-twice": (
        lambda d: replace(d, states=(d.states[0], replace(d.states[0], line=3), d.states[1])),
        ValidationIssue("duplicate-name", "state 's0' declared twice", 3)),
    "transition-twice": (
        lambda d: replace(d, transitions=d.transitions + (
            replace(d.transitions[0], successors=(("s1", None),), line=20),)),
        ValidationIssue("duplicate-name", "transition 's0 a0' declared twice", 20)),
    "enabling-twice": (
        lambda d: replace(d, enabled_attacks=(
            EnablingDecl("s0", ("none",), 21), EnablingDecl("s0", ("none",), 22))),
        ValidationIssue("duplicate-name", "attack enabling for state 's0' declared twice", 22)),
    "mixed-weights": (
        _with_s0_a0(("s0", 1.0), ("s1", None)),
        ValidationIssue("bad-weight", "either every successor carries a weight or none does", 9)),
    "nan-weight": (
        _with_s0_a0(("s0", math.nan), ("s1", 1.0)),
        ValidationIssue("bad-weight", "bad successor 's0:nan' "
                        "(expected 'name' or 'name:weight', weight > 0)", 9)),
    "negative-weight": (
        _with_s0_a0(("s0", -1.0), ("s1", 1.0)),
        ValidationIssue("bad-weight", "bad successor 's0:-1' "
                        "(expected 'name' or 'name:weight', weight > 0)", 9)),
    "int-beyond-float-range": (
        _with_s0_a0(("s0", 10**400), ("s1", 1.0)),
        ValidationIssue("bad-weight", f"bad successor 's0:{10**400}' "
                        "(expected 'name' or 'name:weight', weight > 0)", 9)),
    "bad-name": (
        lambda d: replace(d, queries=(replace(d.queries[0], name='a"0'),)),
        ValidationIssue("bad-name", """bad query name 'a"0' (expected [A-Za-z_][A-Za-z0-9_]*)""",
                        16)),
}


@pytest.mark.parametrize("rule", list(PARSER_RULES))
def test_parser_rules_in_programmatic_document(rule):
    mutate, issue = PARSER_RULES[rule]
    doc = mutate(parse_spec(MINI))
    with pytest.raises(GameValidationError) as err:
        validate_game(doc)
    assert err.value.issues == (issue,)
    # The same defect written as text gets the same message from the parser.
    with pytest.raises(SpecParseError) as err:
        parse_spec(serialize_spec(doc))
    assert issue.message in [d.message for d in err.value.diagnostics]


def test_weight_that_is_not_a_number():
    # Written as text, 's0:2' reads back as the number 2, so this rule
    # has no text form for the round trip above.  A bool is an int to
    # Python, but not a weight.
    for weight in ("2", True):
        doc = _with_s0_a0(("s0", weight), ("s1", 1.0))(parse_spec(MINI))
        with pytest.raises(GameValidationError) as err:
            validate_game(doc)
        assert err.value.issues == (ValidationIssue(
            "bad-weight",
            f"bad successor 's0:{weight}' (expected 'name' or 'name:weight', weight > 0)", 9),)


def test_weights_with_an_infinite_total():
    # Each weight is finite, but `random.choices` refuses a total that is not.
    issues = issues_of(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:1e308 s1:1e308"))
    assert issues == (ValidationIssue(
        "bad-weight", "the weights of transition 's0 a0' sum to inf (expected a finite total)",
        9),)
    validate_game(parse_spec(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:1e308 s1:7e307")))


def test_all_issues_collected_at_once():
    text = (MINI
            .replace("s0 a0 -> s0 s1", "s0 a0 -> ghost")
            .replace("s1 a0 -> s1", "s1 a0 ->"))
    issues = issues_of(text)
    assert len(issues) >= 3
    kinds = {i.kind for i in issues}
    assert {"unknown-id", "empty-support"} <= kinds


def test_nonabsorbing_goal_warns():
    text = MINI.replace("s1 a0 -> s1", "s1 a0 -> s0")
    game = validate_game(parse_spec(text))
    assert any("absorbing" in w for w in game.warnings)


def test_coverage_free_sensor_warns():
    text = MINI.replace("g0: s1", "g0: s1\nidle:").replace(
        "q0: g0", "q0: g0 idle")
    game = validate_game(parse_spec(text))
    assert any("covers no state" in w for w in game.warnings)


# --- name lookups and the mask tables -----------------------------------

def test_lookups_and_enabled_actions(fig1):
    g = fig1.game
    assert g.n_states == 6
    assert g.state("s4") == 4 and g.action("a2") == 2
    assert g.query("sigma1") == 1 and g.attack("none") == 3
    assert [a for a in range(len(g.action_names)) if (g.state("s0"), a) in g.trans] == [0, 1, 2]
    # A belief is offered the actions enabled at every state in it.
    s1_s2 = fig1.mdp.trans[BeliefNode(g.state("s1"), g.state_set(["s1", "s2"]))]
    assert sorted({action for action, _query in s1_s2}) == [0, 1]


@pytest.mark.parametrize("kind", ["state", "action", "query", "attack"])
def test_unknown_name_is_named(fig1, kind):
    with pytest.raises(ValueError) as err:
        getattr(fig1.game, kind)("nosuch")
    assert str(err.value) == f"unknown {kind} 'nosuch'"


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_games(), per_state_attack_games(), wide_sensor_games()))
def test_masks_match_trans_and_observation(game):
    masks = game.masks
    assert game.masks is masks
    assert frozenset(states_of(masks.goal)) == game.goal
    assert {key: states_of(mask) for key, mask in masks.support.items()} == \
        {key: tuple(sorted(support)) for key, support in game.trans.items()}
    for a in range(len(game.action_names)):
        enabled = tuple(s for s in range(game.n_states) if (s, a) in game.trans)
        assert states_of(masks.enabled[a]) == enabled
        # Every belief the action is enabled on: the union of supports.
        for belief in range(1, 1 << game.n_states):
            states = states_of(belief)
            if set(states) <= set(enabled):
                assert frozenset(states_of(masks.image(states, a))) == \
                    frozenset().union(*(game.trans[(s, a)] for s in states))
    for s in range(game.n_states):
        for q in range(len(game.queries)):
            views = masks.views[s][q]
            assert list(views) == sorted(game.enabled_attacks[s])
            for att, view in views.items():
                assert frozenset(states_of(view)) == get_observation(game, s, q, att)


# --- the observation channel --------------------------------------------

def test_observation_frozen_facts(fig1):
    g = fig1.game
    s1 = g.state("s1")
    assert get_observation(g, s1, g.query("sigma0"), g.attack("beta0")) == \
        g.state_set(["s1", "s2"])
    assert get_observation(g, s1, g.query("sigma0"), g.attack("none")) == \
        g.state_set(["s1"])
    # Reading every sensor pins s1 exactly.
    assert observation_for_sensors(g, s1, range(len(g.sensors))) == \
        g.state_set(["s1"])
    # Reading nothing reveals nothing.
    assert observation_for_sensors(g, s1, ()) == frozenset(range(g.n_states))


def test_observation_contains_true_state(fig1):
    g = fig1.game
    for s in range(g.n_states):
        for q in range(len(g.queries)):
            for a in range(len(g.attacks)):
                assert s in get_observation(g, s, q, a)


def test_observation_bad_ids(fig1):
    g = fig1.game
    with pytest.raises(ValueError):
        get_observation(g, 0, 99, 0)
    with pytest.raises(ValueError):
        get_observation(g, 0, 0, 99)


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_observation_classes_partition(game):
    # Under any fixed query and attack, "same observation" is an
    # equivalence: each state's observation is exactly the set of
    # states producing that same observation.
    for q in range(len(game.queries)):
        for a in range(len(game.attacks)):
            views = [get_observation(game, s, q, a) for s in range(game.n_states)]
            for s, view in enumerate(views):
                assert view == frozenset(
                    t for t in range(game.n_states) if views[t] == view)


@settings(max_examples=60, deadline=None)
@given(small_games(), st.data())
def test_more_sensors_refine_the_view(game, data):
    n = len(game.sensors)
    smaller = data.draw(st.sets(st.integers(0, n - 1)))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    for s in range(game.n_states):
        wide = observation_for_sensors(game, s, smaller)
        narrow = observation_for_sensors(game, s, smaller | extra)
        assert narrow <= wide


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_jamming_never_sharpens(game):
    # An attack can only blunt a query: the jammed view is a superset
    # of the unjammed one.
    for q in range(len(game.queries)):
        for a in range(len(game.attacks)):
            for s in range(game.n_states):
                jammed = get_observation(game, s, q, a)
                clear = observation_for_sensors(game, s, game.queries[q].sensors)
                assert clear <= jammed
