"""Acceptance gate: one test and one printed verdict line per criterion.

Criteria 1-3 freeze the worked examples exactly, 4-5 sweep the frozen
random corpora, 6 demonstrates the persistence effect statistically,
and 7 pins byte-level determinism.  Each test prints a single
``criterion N PASS/FAIL`` line so the suite output doubles as the
acceptance report.
"""

import time
from contextlib import contextmanager

from sensorgames import (
    FixedAttack,
    Outcome,
    TableAttack,
    brute_force_win1,
    build_attacker_mdp,
    build_belief_mdp,
    bundled_game_text,
    export_attacker_dot,
    export_belief_dot,
    run_pipeline,
    run_stages,
    simulate,
    solve_p1,
    solve_p2_safety,
)
from sensorgames.belief import node_key, node_label
from sensorgames.game import validate_game
from sensorgames.oracle import GeneratorParams, generate_spec

from .conftest import check_agent_result, check_jammer_game, load_corpus


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number} FAIL: {title} "
              f"({elapsed:.2f}s over the {budget_s:.0f}s budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    print(f"criterion {number} PASS: {title} ({elapsed:.2f}s)")


def moves(game, report, node):
    return {
        (game.action_names[a], game.queries[q].name)
        for a, q in report.strategy.allowed[node]
    }


def test_criterion_1_fig1_reproduction():
    with criterion(1, "fig1: start winning, sigma1 kept, sigma0 dropped", 1.0):
        run = run_stages(bundled_game_text("fig1"))
        assert run.report.initial_winning
        kept = moves(run.game, run.report, run.mdp.initial)
        assert ("a0", "sigma0") not in kept
        assert ("a0", "sigma1") in kept


def test_criterion_2_fig1_variants():
    with criterion(2, "fig1 variants: no sensing loses, no attacks win", 1.0):
        blind = run_stages(bundled_game_text("fig1_nosense"))
        assert not blind.report.initial_winning
        quiet = run_stages(bundled_game_text("fig1_noattack"))
        assert quiet.report.initial_winning
        assert ("a0", "sigma0") in moves(quiet.game, quiet.report, quiet.mdp.initial)


def test_criterion_3_fig4_gap():
    with criterion(3, "fig4: gap is three nodes, beta0 everywhere", 1.0):
        run = run_stages(bundled_game_text("fig4"))
        g = run.game
        gap = run.attack_strategy
        assert [node_label(g, q) for q in sorted(gap, key=node_key)] == [
            "(s0,{s0})", "(s0,{s0,s1})", "(s1,{s0,s1})"]
        assert all(g.attacks[a].name == "beta0" for a in gap.values())


def test_criterion_4_oracle_agreement():
    block = load_corpus()["differential"]
    p = block["params"]
    with criterion(4, "solver equals brute force on 100 random games", 60.0):
        done = 0
        for entry in block["seeds"]:
            if not entry["within_cap"]:
                continue
            game = validate_game(generate_spec(GeneratorParams(**p, seed=entry["seed"])))
            mdp = build_belief_mdp(game)
            rep = solve_p1(mdp)
            result = brute_force_win1(mdp, cap=block["cap"])
            assert rep.initial_winning == result.initial_winning, (
                f"seed {entry['seed']}: solver "
                f"{rep.initial_winning}, oracle {result.initial_winning}")
            assert rep.initial_winning == entry["solver_winning"]
            assert result.initial_winning == entry["oracle_winning"]
            done += 1
            if done == 100:
                break
        assert done == 100


def test_criterion_5_soundness_sweep():
    block = load_corpus()["soundness"]
    p = block["params"]
    with criterion(5, "certificates hold on 200 random games", 120.0):
        win1_nonempty = 0
        gap_nonempty = 0
        for seed in block["seeds"]:
            game = validate_game(generate_spec(GeneratorParams(**p, seed=seed)))
            mdp = build_belief_mdp(game)
            rep = solve_p1(mdp)
            check_agent_result(f"seed {seed}", rep)
            if not rep.strategy.allowed:
                continue
            win1_nonempty += 1
            adv = build_attacker_mdp(rep)
            _win2, strategy = solve_p2_safety(adv)
            check_jammer_game(f"seed {seed}", rep, adv, strategy)
            if strategy:
                gap_nonempty += 1
        assert len(block["seeds"]) >= 200
        assert win1_nonempty == block["expect"]["win1_nonempty"]
        assert gap_nonempty == block["expect"]["gap_nonempty"]


def test_criterion_6_persistence_demo():
    with criterion(6, "fig4: table attack starves 1000 plays, beta1 frees them"):
        run = run_stages(bundled_game_text("fig4"))
        g, strat = run.game, run.report.strategy

        jammer = TableAttack(run.attack_strategy)
        completed = sum(
            simulate(g, strat, jammer, max_steps=100, seed=s).outcome
            is Outcome.TASK_KNOWN_COMPLETE
            for s in range(1000))
        assert completed == 0

        slipped = FixedAttack(g.attack("beta1"))
        freed = sum(
            simulate(g, strat, slipped, max_steps=200, seed=s).outcome
            is Outcome.TASK_KNOWN_COMPLETE
            for s in range(1000))
        assert freed >= 950


def test_criterion_7_byte_determinism():
    with criterion(7, "pipeline and DOT output byte-identical across runs"):
        for name in ("fig1", "fig1_nosense", "fig1_noattack", "fig4"):
            text = bundled_game_text(name)
            doc_a = run_pipeline(text, source=name).to_json()
            doc_b = run_pipeline(text, source=name).to_json()
            assert doc_a == doc_b, name

            run_a = run_stages(text)
            run_b = run_stages(text)
            assert export_belief_dot(run_a.report) == export_belief_dot(run_b.report), name
            if run_a.attacker is not None:
                jam_a = export_attacker_dot(run_a.attacker, run_a.attack_strategy)
                jam_b = export_attacker_dot(run_b.attacker, run_b.attack_strategy)
                assert jam_a == jam_b, name
