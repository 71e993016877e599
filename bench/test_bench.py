"""Tests of the benchmark's own parts.  Run: python3 -m pytest bench"""

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ratshare.report import Report  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from travelers import brute_force_deletion, travelers_dilemma  # noqa: E402


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("seed", range(5))
def test_planted_oracle_matches_brute_force(seed, k):
    doc, lowest = travelers_dilemma(seed, k)
    rounds, survivors = brute_force_deletion(doc)
    assert rounds == k - 1
    assert survivors == [[lowest], [lowest]]


def test_game_depends_only_on_the_seed():
    random.seed(1)
    first = travelers_dilemma(7, 12)
    random.seed(2)
    assert travelers_dilemma(7, 12) == first
    assert travelers_dilemma(8, 12) != first
    labels = [doc["strategies"][0] for doc, _ in (travelers_dilemma(s, 12) for s in range(5))]
    by_claim = sorted(labels[0], key=lambda label: int(label[1:]))
    assert any(order != by_claim for order in labels)


def test_brute_force_finds_a_non_dominated_game():
    # Matching pennies: nothing is weakly dominated.
    doc = {"strategies": [["h", "t"], ["h", "t"]],
           "payoffs": {"h,h": ["1", "-1"], "h,t": ["-1", "1"],
                       "t,h": ["-1", "1"], "t,t": ["1", "-1"]}}
    assert brute_force_deletion(doc) == (0, [["h", "t"], ["h", "t"]])


def test_result_text_matches_report():
    report = Report("demo")
    report.section("config").add("command", "demo")
    report.section("results.demo").add("x", 1.5).add("ok", True)
    report.section("timing").add("wall-clock-seconds", 0.25)
    result = workloads.CliResult(["demo"], 0, report.render(), "")
    assert result.result_text() == report.result_text()
    assert result.fields() == {"schema": "ratshare.report.v1", "artifact": "ratshare 0.1.0",
                               "command": "demo", "x": "1.5", "ok": "true"}


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for build in workloads.WORKLOADS.values():
        assert [c.metric for c in build(None, 0, 0, str(tmp_path))] == ["cmd1_ref", "cmd2_ref", "cmd3_ref"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "cmd1_ref", "cmd2_ref", "cmd3_ref", "peak_rss_mb"}
