"""`tools/bench_pairs.py`'s summary of paired runs and its ``--json``
record, on made-up run lists: no benchmark runs and no process
starts."""

import argparse
import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_quartiles_spread_and_wins():
    row = summarize(BASE, [v + 5 for v in BASE], "higher")
    assert row["base"] == (99.25, 100.0, 100.75)
    assert row["change"] == (104.25, 105.0, 105.75)
    assert row["spread"] == 1.5 and row["wins"] == 10


def test_gain_needs_nine_tenths_and_more_than_the_spread():
    assert summarize(BASE, [v + 5 for v in BASE], "higher")["marks"] == ["gain"]
    # Nine wins of ten still claim it; eight do not.
    nine = [v + 5 for v in BASE[:9]] + [BASE[9] - 1]
    assert "gain" in summarize(BASE, nine, "higher")["marks"]
    eight = [v + 5 for v in BASE[:8]] + [BASE[8] - 1, BASE[9] - 1]
    assert "gain" not in summarize(BASE, eight, "higher")["marks"]
    # Every pair won, but the medians differ by less than the spread.
    assert "gain" not in summarize(BASE, [v + 1 for v in BASE], "higher")["marks"]
    # Lower is better: the same shift downwards is the gain.
    assert summarize(BASE, [v - 5 for v in BASE], "lower")["marks"] == ["gain"]
    assert summarize(BASE, [v + 5 for v in BASE], "lower")["wins"] == 0


def test_worse_beyond_the_bound():
    # An end-to-end metric whose median is 10% worse, against bounds of 5%
    # and 25%, for each direction.
    assert summarize(BASE, [v * 0.9 for v in BASE], "higher", 0.05)["marks"] == ["worse"]
    assert summarize(BASE, [v * 0.9 for v in BASE], "higher", 0.25)["marks"] == []
    assert summarize(BASE, [v * 1.1 for v in BASE], "lower", 0.05)["marks"] == ["worse"]
    assert summarize(BASE, [v * 1.1 for v in BASE], "higher", 0.05)["marks"] == ["gain"]
    # Per-layer metrics have no bound, so they are never marked worse.
    assert summarize(BASE, [v * 0.5 for v in BASE], "higher")["marks"] == []


def test_unresolved_where_the_base_spreads_wider_than_the_bound():
    wide = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    # A spread of 20 on a median of 100 is wider than a 5% bound.
    assert summarize(wide, wide, "higher", 0.05)["marks"] == ["unresolved"]
    assert summarize(wide, wide, "higher", 0.25)["marks"] == []
    # Unless every run of the change is better than every run of the base.
    above = [v + 41 for v in wide]
    assert "unresolved" not in summarize(wide, above, "higher", 0.05)["marks"]
    assert "unresolved" in summarize(wide, [v + 39 for v in wide], "higher", 0.05)["marks"]
    below = [v - 41 for v in wide]
    assert "unresolved" not in summarize(wide, below, "lower", 0.05)["marks"]


def test_no_direction_no_marks():
    row = summarize(BASE, [v * 2 for v in BASE])
    assert row["marks"] == [] and "wins" not in row


def test_record_holds_the_pairs_run_so_far():
    # The second pair's base run is done, its change run is not: the
    # record holds the first pair only.
    args = argparse.Namespace(workload="corpus-sweep", seeds=[5, 6, 7], seconds=8.0, trace=0)
    runs = {"base": [{"games_per_s": 100.0}, {"games_per_s": 101.0}],
            "change": [{"games_per_s": 102.0}]}
    assert json.loads(bench_pairs.record(args, runs)) == {
        "workload": "corpus-sweep", "seeds": [5], "seconds": 8.0, "trace": 0,
        "base": runs["base"][:1], "change": runs["change"]}
