"""End-to-end pipeline: reproducibility, digests, stage errors."""

import json
import re
from dataclasses import replace

import pytest

from sensorgames import (
    BUNDLED_GAMES,
    PipelineError,
    build_belief_mdp,
    bundled_game_text,
    parse_spec,
    run_pipeline,
    run_stages,
    serialize_spec,
)
from sensorgames import pipeline
from sensorgames.specfile import SensorDecl

from .inputs import MINI, case_id, case_text, ladder_text


@pytest.mark.parametrize("name", BUNDLED_GAMES)
def test_repeated_runs_byte_identical(name):
    text = bundled_game_text(name)
    first = run_pipeline(text, source=name).to_json()
    second = run_pipeline(text, source=name).to_json()
    assert first == second


def test_document_shape(fig1_text):
    doc = run_pipeline(fig1_text, source="fig1.game")
    assert doc.version == 1
    assert doc.source == "fig1.game"
    assert doc.counts["states"] == 6
    assert doc.counts["belief_nodes"] == 52
    assert doc.counts["belief_classes"] == 23
    assert doc.counts["win1"] == 13 == len(doc.win1)
    assert doc.counts["win2"] == 0 and doc.counts["gap"] == 0
    assert doc.initial_winning
    assert sorted(doc.strategy) == sorted(doc.win1)
    assert doc.win2 == [] and doc.gap == []
    assert doc.trace is None and doc.timings_ms is None
    assert not doc.weighted
    assert doc.warnings == []


def test_fig4_document_gap(fig4_text):
    doc = run_pipeline(fig4_text)
    assert doc.source == "<memory>"
    assert doc.gap == [
        {"node": "(s0,{s0})", "attack": "beta0"},
        {"node": "(s0,{s0,s1})", "attack": "beta0"},
        {"node": "(s1,{s0,s1})", "attack": "beta0"},
    ]
    assert doc.attack_strategy == {
        "(s0,{s0})": "beta0",
        "(s0,{s0,s1})": "beta0",
        "(s1,{s0,s1})": "beta0",
    }


def test_losing_game_has_no_jammer_sections():
    text = bundled_game_text("fig1_nosense")
    doc = run_pipeline(text)
    assert not doc.initial_winning
    assert doc.win1 == [] and doc.strategy == {}
    assert doc.win2 is None and doc.attack_strategy is None and doc.gap is None
    assert doc.counts["win2"] is None and doc.counts["gap"] is None


def test_to_json_is_canonical(fig1_text):
    out = run_pipeline(fig1_text).to_json()
    assert out.endswith("\n")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_digest_ignores_comments_not_content(fig1_text):
    base = run_pipeline(fig1_text).digest
    assert len(base) == 64
    commented = "# extra banner\n" + fig1_text
    assert run_pipeline(commented).digest == base
    changed = fig1_text.replace("s0 a2 -> s2 s3", "s0 a2 -> s2")
    assert run_pipeline(changed).digest != base


def test_trace_and_timings_are_opt_in(fig1_text):
    doc = run_pipeline(fig1_text, include_trace=True, include_timings=True)
    assert doc.trace and {"round", "node", "move", "cause"} == set(doc.trace[0])
    assert doc.timings_ms is not None and doc.timings_ms["total"] > 0
    # The trace is deterministic even though timings are not.
    again = run_pipeline(fig1_text, include_trace=True)
    assert again.trace == doc.trace


def test_run_stages_objects_cohere(fig1_text):
    run = run_stages(fig1_text)
    assert run.mdp.game is run.game
    assert run.report.mdp is run.mdp
    assert run.attacker is not None
    assert set(run.attacker.nodes) == set(run.report.win)
    assert run.attack_strategy == {}


def test_masks_are_built_before_the_expansion(fig1_text, monkeypatch):
    # The game's tables are built right after validation, so a span
    # around the expansion times the expansion alone.
    seen = []

    def expand(game):
        seen.append("masks" in vars(game))
        return build_belief_mdp(game)

    monkeypatch.setattr(pipeline, "build_belief_mdp", expand)
    run_stages(fig1_text)
    assert seen == [True]


def test_parse_stage_error():
    with pytest.raises(PipelineError) as err:
        run_stages("[actions]\na0\n")
    assert err.value.stage == "parse"


def test_validate_stage_error():
    with pytest.raises(PipelineError) as err:
        run_stages(MINI.replace("s1 a0 -> s1", "s1 a0 -> ghost"))
    assert err.value.stage == "validate"
    assert "ghost" in str(err.value)


def _node(label: str) -> tuple[str, frozenset[str]]:
    """A node label's state name and belief names; `node_label` lists
    the names by id, so the belief is read as a set."""
    state, names = label[1:-2].split(",{")
    return state, frozenset(names.split(","))


def _answer(text: str) -> dict:
    """The pipeline's counts, verdict and node sets, up to the ids
    behind the names."""
    doc = run_pipeline(text)
    return {
        "counts": doc.counts, "initial_winning": doc.initial_winning,
        "win1": set(map(_node, doc.win1)), "win2": set(map(_node, doc.win2 or ())),
        "gap": {_node(row["node"]): row["attack"] for row in doc.gap or ()},
        "strategy": {_node(q): set(moves) for q, moves in doc.strategy.items()},
        "attack_strategy": {_node(q): att for q, att in (doc.attack_strategy or {}).items()},
    }


@pytest.mark.parametrize("case", ["fig1", "fig4", "enabled-attacks", (10, 4, 9)], ids=case_id)
def test_reversed_declarations_change_nothing(case):
    # Ids follow declaration order, so reversing renumbers states,
    # actions, sensors and queries.  Attacks keep theirs: the jammer
    # picks the lowest attack id.
    doc = parse_spec(case_text(case))
    flipped = replace(doc, states=doc.states[::-1], actions=doc.actions[::-1],
                      sensors=doc.sensors[::-1], queries=doc.queries[::-1])
    assert serialize_spec(flipped) != serialize_spec(doc)
    assert _answer(serialize_spec(flipped)) == _answer(case_text(case))


def _with_sensor(doc, covers, queries, attacks):
    """``doc`` with one more sensor, ``added``, that covers ``covers``
    and is held by the queries named in ``queries`` and the attacks
    named in ``attacks``.  It is declared last, so every id is kept."""
    def hold(decls, names):
        return tuple(replace(d, sensors=(*d.sensors, "added")) if d.name in names else d
                     for d in decls)
    return replace(doc, sensors=(*doc.sensors, SensorDecl("added", covers)),
                   queries=hold(doc.queries, queries), attacks=hold(doc.attacks, attacks))


def _holding(decls, sensor) -> set[str]:
    """The names of the queries or attacks in ``decls`` that hold ``sensor``."""
    return {d.name for d in decls if sensor in d.sensors}


def _unseen_sensors(doc):
    """The sensors the observation rule, the sensors in query less
    attack, cannot tell from the original game: one that covers no
    state and one that covers every state, each added to every query,
    and a copy of the first sensor, held by exactly the queries and
    attacks that hold the original."""
    every = {d.name for d in doc.queries}
    first = doc.sensors[0]
    return [_with_sensor(doc, (), every, ()),
            _with_sensor(doc, tuple(d.name for d in doc.states), every, ()),
            _with_sensor(doc, first.covers, _holding(doc.queries, first.name),
                         _holding(doc.attacks, first.name))]


def _document(doc) -> dict:
    """The result document of ``doc``, trace included, less its digest,
    its sensor count and its warnings."""
    result = json.loads(run_pipeline(serialize_spec(doc), include_trace=True).to_json())
    del result["digest"], result["counts"]["sensors"], result["warnings"]
    return result


@pytest.mark.parametrize("case", [*BUNDLED_GAMES, "enabled-attacks", (10, 4, 9)], ids=case_id)
def test_unseen_sensors_change_nothing(case):
    doc = parse_spec(case_text(case))
    original = _document(doc)
    for variant in _unseen_sensors(doc):
        assert _document(variant) == original


def test_a_copy_left_out_of_the_attacks_leaks():
    # Held by the original's queries but not by its attacks, the copy
    # shows the reading the attacks jam: the relation above is not
    # vacuous on this game.
    doc = parse_spec(ladder_text(8, 3, 3))
    first = doc.sensors[0]
    leaky = _with_sensor(doc, first.covers, _holding(doc.queries, first.name), ())
    counts = [run_pipeline(serialize_spec(d)).counts for d in (doc, leaky)]
    assert [(c["win1"], c["belief_nodes"]) for c in counts] == [(0, 402), (243, 356)]


def _renamed(doc):
    """``doc`` with each section's names reversed -- the i-th of k
    declared names becomes the (k-1-i)-th -- and the map from each new
    name back to its old one.  Declarations keep their order, so every
    id is kept."""
    st, ac, se, qu, at = (
        {d.name: new.name for d, new in zip(decls, decls[::-1])}
        for decls in (doc.states, doc.actions, doc.sensors, doc.queries, doc.attacks))
    renamed = replace(
        doc,
        states=tuple(replace(d, name=st[d.name]) for d in doc.states),
        actions=tuple(replace(d, name=ac[d.name]) for d in doc.actions),
        transitions=tuple(replace(t, state=st[t.state], action=ac[t.action],
                                  successors=tuple((st[n], w) for n, w in t.successors))
                          for t in doc.transitions),
        sensors=tuple(replace(d, name=se[d.name], covers=tuple(map(st.get, d.covers)))
                      for d in doc.sensors),
        queries=tuple(replace(d, name=qu[d.name], sensors=tuple(map(se.get, d.sensors)))
                      for d in doc.queries),
        attacks=tuple(replace(d, name=at[d.name], sensors=tuple(map(se.get, d.sensors)))
                      for d in doc.attacks),
        enabled_attacks=tuple(replace(e, state=st[e.state], attacks=tuple(map(at.get, e.attacks)))
                              for e in doc.enabled_attacks))
    back = {new: old for names in (st, ac, se, qu, at) for old, new in names.items()}
    assert len(back) == sum(map(len, (st, ac, se, qu, at)))  # no name in two sections
    return renamed, back


def _named_back(value, back):
    """``value`` with every name token in every string mapped by ``back``."""
    if isinstance(value, str):
        return re.sub(r"[A-Za-z_][A-Za-z0-9_]*", lambda m: back.get(m[0], m[0]), value)
    if isinstance(value, dict):
        return {_named_back(k, back): _named_back(v, back) for k, v in value.items()}
    if isinstance(value, list):
        return [_named_back(v, back) for v in value]
    return value


@pytest.mark.parametrize("case", ["fig1", "fig4", "fig1_nosense", "enabled-attacks", (10, 4, 9)],
                         ids=case_id)
def test_renamed_declarations_change_nothing(case):
    # Names reach the result only as labels; mapped back, the renamed
    # game's document, trace included, is the original's but for the
    # digest of its text.
    doc = parse_spec(case_text(case))
    renamed, back = _renamed(doc)
    assert serialize_spec(renamed) != serialize_spec(doc)
    original, result = (json.loads(run_pipeline(serialize_spec(d), include_trace=True).to_json())
                        for d in (doc, renamed))
    assert original.pop("digest") != result.pop("digest")
    assert _named_back(result, back) == original
