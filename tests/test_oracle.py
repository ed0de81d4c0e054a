"""Random-game generator and the brute-force cross-check."""

import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sensorgames import (
    CapExceededError,
    brute_force_win1,
    build_belief_mdp,
    serialize_spec,
    solve_p1,
    validate_game,
)
from sensorgames import oracle
from sensorgames.oracle import GeneratorParams, OracleResult, generate_spec
from sensorgames.specfile import SensorDecl

from .conftest import plain_brute_force
from .inputs import corpus_runs, restricted, split_classes


SMALL = dict(n_states=4, n_actions=2, n_sensors=2, n_queries=2, n_attacks=3,
             max_support=2, goal_fraction=0.25)


def params(seed, **overrides):
    return GeneratorParams(**{**SMALL, **overrides, "seed": seed})


def test_generation_is_deterministic():
    a = generate_spec(params(7))
    b = generate_spec(params(7))
    assert a == b
    assert serialize_spec(a) == serialize_spec(b)


def test_different_seeds_differ():
    texts = {serialize_spec(generate_spec(params(s))) for s in range(20)}
    assert len(texts) > 1


def test_generated_names_and_attacks():
    doc = generate_spec(params(3))
    assert [s.name for s in doc.states] == ["s0", "s1", "s2", "s3"]
    assert doc.states[0].initial
    assert [a.name for a in doc.actions] == ["a0", "a1"]
    assert doc.attacks[0].name == "none" and doc.attacks[0].sensors == ()
    assert doc.enabled_attacks == ()


def test_generated_goals_are_absorbing():
    for seed in range(30):
        game = validate_game(generate_spec(params(seed)))
        for s in game.goal:
            for a in range(len(game.action_names)):
                assert dict(game.trans[(s, a)]) == {s: None}
        assert not game.warnings or all("absorbing" not in w for w in game.warnings)


def test_generated_games_validate():
    for seed in range(30):
        game = validate_game(generate_spec(params(seed)))
        assert game.initial == 0
        assert {s for s, _action in game.trans} == set(range(game.n_states))


def test_param_validation():
    with pytest.raises(ValueError):
        params(0, n_states=0)
    with pytest.raises(ValueError):
        params(0, max_support=9)
    with pytest.raises(ValueError):
        params(0, goal_fraction=1.5)


def test_oracle_on_certain_win():
    game = validate_game(generate_spec(params(5, n_states=1, goal_fraction=1.0, max_support=1)))
    mdp = build_belief_mdp(game)
    result = brute_force_win1(mdp)
    assert result.initial_winning
    assert result.class_count >= 1
    assert solve_p1(mdp).initial_winning


def test_oracle_on_certain_loss():
    game = validate_game(generate_spec(params(5, goal_fraction=0.0)))
    mdp = build_belief_mdp(game)
    result = brute_force_win1(mdp)
    assert not result.initial_winning
    assert not solve_p1(mdp).initial_winning


def test_cap_refusal(fig1):
    with pytest.raises(CapExceededError) as err:
        brute_force_win1(fig1.mdp, cap=1)
    assert err.value.estimate > err.value.cap == 1
    assert "cap is 1" in str(err.value)
    # A class offering no move has one choice and is never refused, even
    # at cap 0: in this sub-MDP the start node keeps no move.
    mdp = fig1.mdp
    first = {j for targets in mdp.succs[mdp.start] for j in targets}
    sub = restricted(mdp, [q for i, q in enumerate(mdp.nodes) if i == mdp.start or i not in first])
    assert sub.node_moves[sub.start] == ()
    assert brute_force_win1(sub, cap=0) == plain_brute_force(sub, cap=0) == OracleResult(False, 1, 1)


def test_early_exit_counts(fig4):
    result = brute_force_win1(fig4.mdp)
    assert result.initial_winning
    assert result.class_count == 5
    # Deterministic enumeration order: the first certified assignment
    # is always found at the same position.
    assert result.assignments_checked == 270001


# (initial_winning, assignments_checked, class_count) for the first eight
# corpus seeds within the cap; the counts pin the enumeration order.
MANIFEST_SLICE = {
    0: (False, 405, 4), 1: (False, 243, 5), 2: (True, 1, 1), 4: (True, 1, 2),
    5: (False, 135, 3), 6: (True, 1, 1), 7: (False, 3, 1), 8: (True, 1, 1),
}


def test_manifest_slice_agrees(corpus):
    block = corpus["differential"]
    seen = {}
    for entry, run in zip(block["seeds"], corpus_runs("differential")):
        if not entry["within_cap"]:
            continue
        mdp, rep = run.mdp, run.report
        assert rep.initial_winning == entry["solver_winning"]
        result = brute_force_win1(mdp, cap=block["cap"])
        assert result.initial_winning == entry["oracle_winning"]
        assert rep.initial_winning == result.initial_winning
        seen[entry["seed"]] = (
            result.initial_winning, result.assignments_checked, result.class_count)
        if len(seen) == 8:
            break
    assert seen == MANIFEST_SLICE


def oracle_line(key, mdp, cap=1_000_000, referee=brute_force_win1) -> str:
    """``referee``'s result on ``mdp``, or its cap estimate, as one line
    of text headed by ``key``."""
    try:
        result = referee(mdp, cap=cap)
    except CapExceededError as err:
        return f"{key} cap {err.estimate}\n"
    return f"{key} {result.initial_winning} {result.assignments_checked} {result.class_count}\n"


# sha256 of `oracle_line` over the 137 differential seeds within the cap
# (seed 60 gives (True, 324001, 6), seed 41 (False, 59049, 10)), then
# over each of the 350 corpus games restricted by `split_class`, keyed
# by its position in the corpus: 236 of them have a class to split, 142
# of those are refused at the cap.  The counts pin the enumeration order
# and the cap estimate.
ORACLE_COUNTS = "12bce1dd8afb2e3c45e2072382933d4b8aac4fbbb66d6bb61d8e9b827577eeac"


def test_oracle_counts_frozen(corpus):
    block = corpus["differential"]
    digest, within, split = hashlib.sha256(), 0, 0
    for entry, run in zip(block["seeds"], corpus_runs("differential")):
        if entry["within_cap"]:
            digest.update(oracle_line(entry["seed"], run.mdp, block["cap"]).encode())
            within += 1
    for k, sub in enumerate(split_classes()):
        if sub is not None:
            digest.update(oracle_line(k, sub, block["cap"]).encode())
            split += 1
    assert (within, split, digest.hexdigest()) == (137, 236, ORACLE_COUNTS)


REFERENCE_CAP = 20_000


@pytest.mark.parametrize("name", ["fig1", "fig1_noattack", "fig1_nosense", "fig4"])
def test_plain_enumeration_agrees_on_figures(name, request):
    # Under the reference cap fig1_nosense is enumerated in full and the
    # others are refused with the same estimate; fig4's full count is
    # pinned by `test_early_exit_counts`.
    mdp = request.getfixturevalue(name).mdp
    assert (oracle_line(name, mdp, REFERENCE_CAP)
            == oracle_line(name, mdp, REFERENCE_CAP, plain_brute_force))


def test_plain_enumeration_agrees_on_corpus(corpus):
    # Every differential game and its split-class variant: 232 calls,
    # 127 winning, 66 losing, 39 refused at the reference cap.
    block = corpus["differential"]
    outcomes = []
    for entry, run, sub in zip(block["seeds"], corpus_runs("differential"),
                               split_classes("differential")):
        for key, m in ((entry["seed"], run.mdp), (f"{entry['seed']}-split", sub)):
            if m is not None:
                line = oracle_line(key, m, REFERENCE_CAP)
                assert line == oracle_line(key, m, REFERENCE_CAP, plain_brute_force)
                outcomes.append(line.split()[1])
    assert [outcomes.count(word) for word in ("True", "False", "cap")] == [127, 66, 39]


def test_full_losing_enumeration(fig1_nosense):
    # All 1701 assignments are decided and all fail: the count includes
    # those ruled out as a block from a failing prefix.
    assert brute_force_win1(fig1_nosense.mdp) == OracleResult(False, 1701, 6)


def imported_names(path: Path) -> list[str]:
    """Every module, and every name taken from one, that the Python
    source at ``path`` imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def test_oracle_imports_nothing_from_planner():
    # The referee shares no code with the solver's module, so the two
    # cannot agree by a common fault.
    modules = imported_names(Path(oracle.__file__))
    assert not [name for name in modules if "planner" in name.split(".")]


def test_no_test_module_imports_another():
    # Shared inputs live in `tests/inputs.py` and fixtures and helpers in
    # `tests/conftest.py`, so no test module depends on another's.
    found = [(path.name, name) for path in sorted(Path(__file__).parent.glob("test_*.py"))
             for name in imported_names(path) if name.split(".")[-1].startswith("test_")]
    assert found == []


def test_oracle_without_the_start_node(fig1_noattack):
    # Only a sub-MDP can leave the start node out; no chain starts there.
    mdp = fig1_noattack.mdp
    sub = restricted(mdp, [q for q in mdp.nodes if q != mdp.initial])
    assert sub.start is None and sub.initial is None
    assert brute_force_win1(sub) == OracleResult(False, 0, 0)
    assert not solve_p1(sub).initial_winning


def test_oracle_on_a_split_class():
    # Seed 107 of the corpus's differential block, less the first member
    # of its second class: class-mates there keep the same moves, so the
    # referee enumerates each class's moves as a whole.
    mdp = corpus_runs("differential")[107].mdp
    first = mdp.nodes[mdp.members[1][0]]
    sub = restricted(mdp, [q for q in mdp.nodes if q != first])
    assert brute_force_win1(sub) == OracleResult(True, 11, 5)
    assert solve_p1(sub).initial_winning


def with_isolating_sensors(doc):
    """Add one unjammable sensor per state to every query."""
    extra = tuple(
        SensorDecl(f"iso{i}", (s.name,)) for i, s in enumerate(doc.states))
    queries = tuple(
        replace(q, sensors=q.sensors + tuple(e.name for e in extra))
        for q in doc.queries)
    return replace(doc, sensors=doc.sensors + extra, queries=queries)


def test_perfect_information_never_hurts():
    # The differential block's games are ``params(seed)``'s, seeds 0-149.
    for seed, before in zip(range(15), corpus_runs("differential")):
        doc = generate_spec(params(seed))
        sharper = validate_game(with_isolating_sensors(doc))
        after = solve_p1(build_belief_mdp(sharper))
        if before.report.initial_winning:
            assert after.initial_winning
