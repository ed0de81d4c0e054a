"""Command-line behavior: exit codes, output formats, error paths."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sensorgames import bundled_game_text
from sensorgames.cli import main

from .inputs import FORBIDDEN_AT_S1, MINI, case_text

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    for name in ("fig1", "fig1_nosense", "fig1_noattack", "fig4"):
        (root / f"{name}.game").write_text(bundled_game_text(name))
    (root / "mini.game").write_text(MINI)
    (root / "forbidden.game").write_text(FORBIDDEN_AT_S1)
    (root / "broken.game").write_text("[actions]\na0\n")
    (root / "invalid.game").write_text(
        MINI.replace("s1 a0 -> s1", "s1 a0 -> ghost"))
    (root / "badname.game").write_text(MINI.replace("s1 goal", "s1 goal\ns,1"))
    return root


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate --------------------------------------------------------------

def test_validate_ok(spec_dir, capsys):
    code, out, err = run(capsys, "validate", spec_dir / "fig1.game")
    assert code == 0 and err == ""
    assert out.startswith("ok: 6 states, 3 actions, 4 sensors")


def test_validate_structured(spec_dir, capsys):
    code, out, _ = run(capsys, "validate", spec_dir / "fig1.game",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["counts"]["states"] == 6


def test_validate_syntax_error(spec_dir, capsys):
    code, out, err = run(capsys, "validate", spec_dir / "broken.game")
    assert code == 2 and out == ""
    assert "error:" in err and "missing states section" in err


def test_validate_semantic_error(spec_dir, capsys):
    code, _, err = run(capsys, "validate", spec_dir / "invalid.game")
    assert code == 2
    assert "ghost" in err


def test_byte_order_mark_is_skipped(spec_dir, tmp_path, capsys):
    # Editors on some platforms save UTF-8 with a leading byte-order mark.
    plain = spec_dir / "fig1.game"
    marked = tmp_path / "fig1.game"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run(capsys, "validate", marked) == run(capsys, "validate", plain)
    views = []
    for path in (plain, marked):
        code, out, err = run(capsys, "gap", path, "--format", "structured")
        doc = json.loads(out)
        assert doc.pop("source") == str(path)
        views.append((code, doc, err))
    assert views[0] == views[1]


def test_validate_bad_name(spec_dir, capsys):
    code, out, err = run(capsys, "validate", spec_dir / "badname.game")
    assert code == 2 and out == ""
    assert err == "error: line 4, col 1: bad state name 's,1' " \
        "(expected [A-Za-z_][A-Za-z0-9_]*)\n"


def test_validate_reports_every_line(tmp_path, capsys):
    path = tmp_path / "badflag.game"
    path.write_text("[states]\ns0 initial shiny\n[actions]\na0 a1\n")
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == ("error: line 2, col 12: unknown state flag 'shiny' "
                   "(expected 'initial' or 'goal')\n"
                   "error: line 4, col 4: one action name per line\n")


def test_validate_no_query(tmp_path, capsys):
    path = tmp_path / "noquery.game"
    path.write_text(MINI.replace("[queries]\nq0: g0\n", ""))
    code, out, err = run(capsys, "validate", path)
    assert (code, out, err) == (2, "", "error: no query declared, so the agent has no move\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.game")
    assert code == 2 and "error:" in err


# --- solve-p1 ----------------------------------------------------------------

def test_solve_p1_text(spec_dir, capsys):
    code, out, _ = run(capsys, "solve-p1", spec_dir / "fig1.game")
    assert code == 0
    assert "verdict: initial node winning" in out
    assert "winning nodes: 13 of 52" in out
    assert "(s0,{s0}): (a0,sigma1) (a1,sigma1)" in out


def test_solve_p1_trace(spec_dir, capsys):
    code, out, _ = run(capsys, "solve-p1", spec_dir / "fig1.game", "--trace")
    assert code == 0
    assert "eliminations:" in out and "dropped" in out


def test_solve_p1_structured(spec_dir, capsys):
    code, out, _ = run(capsys, "solve-p1", spec_dir / "fig4.game",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["initial_winning"] is True
    assert payload["counts"]["win1"] == 4
    assert payload["strategy"]["(s0,{s0})"] == ["(a0,sigma0)", "(a0,sigma1)"]


def test_solve_p1_expect_mismatch(spec_dir, capsys):
    code, _, err = run(capsys, "solve-p1", spec_dir / "fig1.game",
                       "--expect", "losing")
    assert code == 1
    assert "expected losing, got winning" in err
    code, _, _ = run(capsys, "solve-p1", spec_dir / "fig1.game",
                     "--expect", "winning")
    assert code == 0


def test_solve_p1_expect_losing_holds(spec_dir, capsys):
    code, _, _ = run(capsys, "solve-p1", spec_dir / "fig1_nosense.game",
                     "--expect", "losing")
    assert code == 0


# --- solve-p2 and gap --------------------------------------------------------

def test_solve_p2_text(spec_dir, capsys):
    code, out, _ = run(capsys, "solve-p2", spec_dir / "fig4.game")
    assert code == 0
    assert "jammer winning nodes: 3 of 4" in out
    assert "(s0,{s0}): beta0" in out


def test_solve_p2_no_jammer_game(spec_dir, capsys):
    code, out, _ = run(capsys, "solve-p2", spec_dir / "fig1_nosense.game")
    assert code == 0
    assert "no jammer game" in out


def test_gap_text_and_expect(spec_dir, capsys):
    code, out, _ = run(capsys, "gap", spec_dir / "fig4.game")
    assert code == 0 and "deception gap: 3 nodes" in out

    code, _, _ = run(capsys, "gap", spec_dir / "fig4.game",
                     "--expect", "nonempty")
    assert code == 0

    code, _, err = run(capsys, "gap", spec_dir / "fig1.game",
                       "--expect", "nonempty")
    assert code == 1 and "expected nonempty gap, got empty" in err

    code, _, _ = run(capsys, "gap", spec_dir / "fig1.game", "--expect", "empty")
    assert code == 0


def test_gap_structured(spec_dir, capsys):
    code, out, _ = run(capsys, "gap", spec_dir / "fig4.game",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert [g["node"] for g in payload["gap"]] == [
        "(s0,{s0})", "(s0,{s0,s1})", "(s1,{s0,s1})"]
    assert {g["attack"] for g in payload["gap"]} == {"beta0"}


# --- simulate ----------------------------------------------------------------

def test_simulate_table_attack(spec_dir, capsys):
    code, out, _ = run(capsys, "simulate", spec_dir / "fig4.game",
                       "--runs", "5", "--max-steps", "40", "--p2", "table")
    assert code == 0
    assert "outcomes: 0 complete, 5 hit the step limit" in out


def test_simulate_fixed_attack(spec_dir, capsys):
    code, out, _ = run(capsys, "simulate", spec_dir / "fig4.game",
                       "--runs", "5", "--max-steps", "200",
                       "--p2", "fixed:beta1", "--seed", "9")
    assert code == 0
    assert "outcomes: 5 complete, 0 hit the step limit" in out


def test_simulate_structured_trace(spec_dir, capsys):
    code, out, _ = run(capsys, "simulate", spec_dir / "fig4.game",
                       "--runs", "2", "--max-steps", "10", "--p2", "table",
                       "--trace", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == 2
    assert payload["outcomes"]["step-limit"] == 2
    step = payload["traces"][0]["steps"][0]
    assert {"state", "action", "query", "attack", "belief"} == set(step)


def test_simulate_reproducible(spec_dir, capsys):
    args = ("simulate", spec_dir / "fig1.game", "--runs", "3",
            "--max-steps", "60", "--p2", "random", "--seed", "4",
            "--trace")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0


@pytest.mark.parametrize("flag", ["--runs", "--max-steps"])
def test_simulate_refuses_negative_counts(spec_dir, capsys, flag):
    code, out, err = run(capsys, "simulate", spec_dir / "fig4.game", flag, "-3")
    assert (code, out, err) == (2, "", f"error: {flag} must not be negative, got -3\n")
    code, out, _ = run(capsys, "simulate", spec_dir / "fig4.game", flag, "0")
    assert code == 0 and out.endswith("hit the step limit\n")


def test_simulate_prompt_policy(spec_dir, capsys, monkeypatch):
    answers = iter(["beta0"] * 40)
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(capsys, "simulate", spec_dir / "fig4.game",
                       "--runs", "1", "--max-steps", "20", "--p2", "prompt")
    assert code == 0
    assert "hit the step limit" in out


def test_simulate_prompt_on_closed_stdin(spec_dir, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "simulate", spec_dir / "fig4.game",
                       "--runs", "1", "--p2", "prompt")
    assert code == 2
    assert err == "attack (beta0/beta1/beta2/none): \nerror: EOF when reading a line\n"


def test_simulate_prompt_structured_output_is_json(spec_dir, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("beta0\n" * 40))
    code, out, err = run(capsys, "simulate", spec_dir / "fig4.game", "--runs", "1",
                         "--max-steps", "20", "--p2", "prompt", "--format", "structured")
    assert code == 0
    json.loads(out)
    prompt = "attack (beta0/beta1/beta2/none): "
    assert err.startswith(prompt) and err == prompt * err.count(prompt)


def test_simulate_prompt_reports_each_run_as_it_ends(spec_dir, monkeypatch):
    transcript = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO("beta0\n" * 4))
    monkeypatch.setattr("sys.stdout", transcript)
    monkeypatch.setattr("sys.stderr", transcript)
    code = main(["simulate", str(spec_dir / "fig4.game"), "--runs", "2",
                 "--max-steps", "2", "--p2", "prompt"])
    prompt = "attack (beta0/beta1/beta2/none): "
    assert code == 0
    assert transcript.getvalue() == (
        f"{prompt * 2}run 0 (seed 0): step-limit after 2 steps\n"
        f"{prompt * 2}run 1 (seed 1): step-limit after 2 steps\n"
        "outcomes: 0 complete, 2 hit the step limit\n")


def test_simulate_unknown_attack(spec_dir, capsys):
    code, out, err = run(capsys, "simulate", spec_dir / "fig4.game", "--p2", "fixed:nosuch")
    assert code == 2 and out == ""
    assert err == "error: unknown attack 'nosuch'\n"


def test_simulate_strategy_gap(spec_dir, capsys):
    code, _, err = run(capsys, "simulate", spec_dir / "fig1_nosense.game",
                       "--runs", "1", "--p2", "random")
    assert code == 2 and err == "error: no move available at (s0,{s0})\n"


def test_simulate_disabled_attack(spec_dir, capsys):
    code, out, err = run(capsys, "simulate", spec_dir / "forbidden.game",
                         "--p2", "fixed:jam", "--trace")
    assert code == 2 and out == ""
    assert "attack 'jam' is not enabled at state 's1'" in err


def test_simulate_infinite_weight_total(tmp_path, capsys):
    path = tmp_path / "heavy.game"
    path.write_text(MINI.replace("s0 a0 -> s0 s1", "s0 a0 -> s0:1e308 s1:1e308"))
    code, out, err = run(capsys, "simulate", path, "--runs", "1")
    assert code == 2 and out == ""
    assert err == ("error [validate]: line 9: the weights of transition 's0 a0' sum to inf "
                   "(expected a finite total)\n")


def test_simulate_table_needs_jammer_strategy(spec_dir, capsys):
    code, _, err = run(capsys, "simulate", spec_dir / "fig1_nosense.game",
                       "--runs", "1", "--p2", "table")
    assert code == 2 and "no attack table" in err


def test_simulate_unknown_policy(spec_dir, capsys):
    code, _, err = run(capsys, "simulate", spec_dir / "fig1.game",
                       "--p2", "psychic")
    assert code == 2 and "unknown attack policy" in err


# --- oracle --------------------------------------------------------------------

def test_oracle_agrees(spec_dir, capsys):
    code, out, _ = run(capsys, "oracle", spec_dir / "mini.game")
    assert code == 0
    assert "brute force: initial node winning" in out
    assert "agreement: yes" in out


def test_oracle_structured(spec_dir, capsys):
    code, out, _ = run(capsys, "oracle", spec_dir / "mini.game",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["brute_force_winning"] is True
    assert payload["classes"] == 1


def test_oracle_cap(spec_dir, capsys):
    code, _, err = run(capsys, "oracle", spec_dir / "fig1.game", "--cap", "10")
    assert code == 2 and "cap is 10" in err


def test_oracle_default_cap(capsys, tmp_path):
    path = tmp_path / "g3.game"
    path.write_text(run(capsys, "gen-random", "--seed", "3")[1])
    code, out, err = run(capsys, "oracle", path)
    assert (code, out, err) == (
        2, "", "error: brute force would try about 1366875 assignments, cap is 1000000\n")


def test_oracle_refuses_negative_cap(spec_dir, capsys):
    code, out, err = run(capsys, "oracle", spec_dir / "fig4.game", "--cap", "-1")
    assert (code, out, err) == (2, "", "error: --cap must not be negative, got -1\n")
    code, out, err = run(capsys, "oracle", spec_dir / "fig4.game", "--cap", "0")
    assert (code, out) == (2, "") and err.endswith("cap is 0\n")


# --- gen-random ------------------------------------------------------------------

def test_gen_random_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen-random", "--seed", "42")
    assert code == 0
    path = tmp_path / "generated.game"
    path.write_text(out)
    code, check, _ = run(capsys, "validate", path)
    assert code == 0 and check.startswith("ok:")
    code, again, _ = run(capsys, "gen-random", "--seed", "42")
    assert code == 0 and again == out


def test_gen_random_is_solvable_input(capsys, tmp_path):
    code, out, _ = run(capsys, "gen-random", "--seed", "7", "--states", "5")
    path = tmp_path / "g.game"
    path.write_text(out)
    code, _, _ = run(capsys, "solve-p1", path)
    assert code == 0


def test_gen_random_defaults(capsys):
    code, out, err = run(capsys, "gen-random")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "55d1406d83c9aa20801b0cdfd49a9c2c6a0100d3aa22c2e314a9fd55ad2ae85d")


def test_gen_random_every_flag(capsys):
    code, out, err = run(capsys, "gen-random", "--states", 6, "--actions", 3, "--sensors", 3,
                         "--queries", 1, "--attacks", 2, "--max-support", 3,
                         "--goal-fraction", 0.3, "--seed", 11)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "73fd8ae30e6f76229cbb837cbc29a485af32d9fe0f97f581d3a3af9327e6edb4")


# --- export-dot --------------------------------------------------------------------

def test_export_dot_belief(spec_dir, capsys):
    code, out, _ = run(capsys, "export-dot", spec_dir / "fig4.game")
    assert code == 0
    assert out.startswith("digraph perceived {")
    assert "final" in out and "->" in out


def test_export_dot_attacker(spec_dir, capsys):
    code, out, _ = run(capsys, "export-dot", spec_dir / "fig4.game",
                       "--graph", "attacker")
    assert code == 0
    assert out.startswith("digraph jammer {")
    assert "task complete" in out


def test_export_dot_attacker_needs_win1(spec_dir, capsys):
    code, _, err = run(capsys, "export-dot", spec_dir / "fig1_nosense.game",
                       "--graph", "attacker")
    assert code == 2
    assert "no jammer game to draw" in err


def test_export_dot_deterministic(spec_dir, capsys):
    a = run(capsys, "export-dot", spec_dir / "fig1.game")
    b = run(capsys, "export-dot", spec_dir / "fig1.game")
    assert a == b


# --- the module run as a program ------------------------------------------------

def test_module_as_program(tmp_path):
    # `python -m sensorgames.cli` in its own interpreter: the exit code
    # reaches the shell through the module's `__main__` guard.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    missing = tmp_path / "nowhere.game"
    calls = [
        (("gap", SRC / "sensorgames" / "specs" / "fig1.game", "--expect", "nonempty"),
         1, "deception gap: 0 nodes\n", "expected nonempty gap, got empty\n"),
        (("validate", missing),
         2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"),
    ]
    for argv, code, out, err in calls:
        done = subprocess.run([sys.executable, "-m", "sensorgames.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Sets and dicts of ints and strs iterate in an order that may follow
    # the interpreter's hash seed; no output may.  Each call runs in its
    # own interpreter under two seeds, and the bytes must be equal.
    game = tmp_path / "enabled-attacks.game"
    game.write_text(case_text("enabled-attacks"))
    calls = [("gap", SRC / "sensorgames" / "specs" / "fig4.game", "--format", "structured"),
             ("solve-p1", game, "--trace", "--format", "structured")]
    for argv in calls:
        outs = [subprocess.run([sys.executable, "-m", "sensorgames.cli", *map(str, argv)],
                               env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
                               capture_output=True)
                for seed in ("0", "1")]
        assert [(done.returncode, done.stderr) for done in outs] == [(0, b"")] * 2, argv
        assert outs[0].stdout and outs[0].stdout == outs[1].stdout, argv
