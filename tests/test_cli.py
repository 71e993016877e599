"""Command-line interface: reports, determinism, exit codes."""

import copy
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from enum import IntEnum
from pathlib import Path
from random import Random

import numpy as np
import pytest

from ratshare.cli import (
    MAX_TRIALS,
    _dump_size,
    _dumped_runs,
    build_parser,
    main,
    run_command,
)
from ratshare import analysis, cli, montecarlo, transcript
from ratshare.engine import DEFAULT_CAP, run_mechanism
from ratshare.lifts import lift_2_of_n, lift_m_of_n
from ratshare.protocol import (
    IterationTranscript,
    MessageKind,
    RoundMessage,
    RunOutcome,
    Step,
    TerminalCause,
)
from ratshare.shamir import DEFAULT_PRIME, FieldElement, Share, ShareIssuer, Subshare
from ratshare.strategies import (
    DEVIATIONS,
    UtilityTable,
    all_info_vectors,
    canonical_table,
    deviation_profile,
    info_key,
    parse_deviation,
)
from ratshare.transcript import (
    LINE_BYTES,
    _jsonl_line,
    _line_head,
    _payload_json,
    _payload_record,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _config(out: str) -> list[str]:
    """The lines of the [config] section."""
    return out.partition("[config]\n")[2].partition("\n\n")[0].splitlines()


def result_sections(text: str) -> str:
    """Everything up to the [timing] section."""
    head, _, _ = text.partition("[timing]")
    return head


def test_simulate_alpha_one(capsys):
    code, out = run_cli(capsys, "simulate", "--alpha", "1", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "mean-iterations = 1" in out
    assert "cause.AllLearned.count = 10" in out
    assert "honest-expected-steps = 5" in out


def test_simulate_mean_steps_near_forty(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "0.5", "--trials", "50000", "--seed", "42"
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("mean-total-steps"))
    mean = float(line.split(" = ")[1])
    assert abs(mean - 40) / 40 < 0.02


def test_simulate_deviant_fraction(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "0.8", "--trials", "50000", "--seed", "7",
        "--deviant", "1:withhold",
    )
    assert code == 0
    line = next(
        l for l in out.splitlines() if l.startswith("deviant.only-deviator-learned-fraction")
    )
    assert abs(float(line.split(" = ")[1]) - 0.9412) < 0.01


def test_deviant_simulate_builds_the_info_histogram_once(monkeypatch, capsys):
    from ratshare.montecarlo import TrialStats

    calls = []
    real = TrialStats.info_histogram
    monkeypatch.setattr(TrialStats, "info_histogram", lambda self: calls.append(1) or real(self))
    code, out = run_cli(
        capsys, "simulate", "--alpha", "0.8", "--trials", "1000", "--seed", "7",
        "--deviant", "1:withhold",
    )
    assert code == 0
    assert "deviant.only-deviator-learned-fraction" in out
    assert calls == [1]


# At alpha 1e-310 and below the withholder's absorbing weight is subnormal:
# the geometric draw of restarts overflows to inf, past the cap, quietly.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, deviant",
    [("1e-200", []), ("1e-200", ["--deviant", "1:withhold"]),
     ("1e-310", ["--deviant", "1:withhold"])],
    ids=["honest", "withhold", "withhold-subnormal-weight"],
)
def test_simulate_at_underflowing_alpha_hits_the_cap(alpha, deviant, capsys):
    code = main(["simulate", "--alpha", alpha, "--trials", "3", "--seed", "1", *deviant])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "cause.IterationCapHit.fraction = 1\n" in out
    assert f"mean-iterations = {DEFAULT_CAP}\n" in out
    assert "honest-expected-steps = inf\n" in out


@pytest.mark.filterwarnings("error")
def test_audit_at_underflowing_alpha_finds_no_incentive(capsys):
    for alpha in ("1e-300", "1e-320"):
        code = main(["audit", "--alpha", alpha, "--trials", "10000", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        # Every run of every profile hits the cap, where nobody learns.
        estimates = [line for line in out.splitlines() if ".mc-estimate = " in line]
        assert len(estimates) == 15
        assert all(line.endswith(" = 0") for line in estimates)
        assert "any-profitable = false\n" in out


def test_simulate_auto_alpha(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "auto", "--trials", "100", "--seed", "3"
    )
    assert code == 0
    assert "resolved-alpha = 0.25" in out


def test_simulate_parameterized_deviant(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "0.4", "--trials", "5000", "--seed", "11",
        "--deviant", "2:biased-coin:0.9",
    )
    assert code == 0
    # Coin bias alone never breaks all-or-nothing learning.
    assert "cause.AllLearned.fraction = 1" in out
    assert "cause.CheatStop.count = 0" in out


def test_repeat_invocations_are_byte_identical(capsys):
    argv = ("simulate", "--alpha", "0.5", "--trials", "20000", "--seed", "42")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert result_sections(first) == result_sections(second)


def test_alpha_star_command(capsys):
    code, out = run_cli(capsys, "alpha-star", "--u-only", "2", "--u-all", "1", "--u-none", "0")
    assert code == 0
    assert "global = 0.5" in out


def test_alpha_star_from_file(tmp_path, capsys):
    doc = {"players": 3, "u_only": 5, "u_all": 1, "u_none": 0}
    path = tmp_path / "utilities.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "alpha-star", "--utilities", str(path))
    assert code == 0
    assert "global = 0.333333333333" in out


@pytest.mark.parametrize(
    "argv, players, echoed",
    [(["alpha-star"], 3, ["utilities = {path}"]),
     (["dominance", "--builtin", "bounded-r2"], 2,
      ["builtin = bounded-r2", "game = none", "utilities = {path}", "profile = none"]),
     (["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1", "--deviations", "withhold",
       "--deviators", "1"], 3,
      ["alpha = 0.25", "trials = 10000", "seed = 1", "cap = 1000000", "deviations = withhold",
       "deviators = 1", "utilities = {path}"]),
     (["simulate", "--alpha", "auto", "--trials", "10", "--seed", "1"], 3,
      ["alpha = auto", "trials = 10", "seed = 1", "cap = 1000000", "deviant = none",
       "utilities = {path}"])],
    ids=["alpha-star", "dominance", "audit", "simulate-auto"],
)
def test_config_names_the_utilities_file_in_place_of_the_scalars(argv, players, echoed, tmp_path,
                                                                  capsys):
    path = tmp_path / "utilities.json"
    path.write_text(json.dumps({"players": players, "u_only": 5, "u_all": 1, "u_none": 0}))
    code, out = run_cli(capsys, *argv, "--utilities", str(path))
    assert code == 0
    assert _config(out) == [f"command = {argv[0]}", *(line.format(path=path) for line in echoed)]


@pytest.mark.parametrize(
    "argv",
    [["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1", "--deviations", "withhold",
      "--deviators", "1"],
     ["simulate", "--alpha", "auto", "--trials", "10", "--seed", "1"]],
    ids=["audit", "simulate-auto"],
)
def test_config_names_the_table_analysed(argv, capsys):
    # The results differ with the table, so [config] must too.
    outs = [run_cli(capsys, *argv, *flag)[1] for flag in ([], ["--u-only", "5"])]
    assert _config(outs[0])[-4:] == ["u-only = 2", "u-all = 1", "u-none = 0", "utilities = none"]
    assert _config(outs[1])[-4:] == ["u-only = 5", "u-all = 1", "u-none = 0", "utilities = none"]
    results = [result_sections(out).partition("[results")[2] for out in outs]
    assert results[0] != results[1]


def test_audit_config_names_the_cap(capsys):
    # A cap of 3 cuts off many withholding runs, so the estimate moves, and
    # [config] must move with it.
    argv = ["audit", "--alpha", "0.3", "--trials", "10000", "--seed", "1", "--deviations",
            "withhold", "--deviators", "1"]
    outs = [run_cli(capsys, *argv, *flag)[1] for flag in ([], ["--cap", "3"])]
    assert [line for line in _config(outs[0]) if line.startswith("cap")] == ["cap = 1000000"]
    assert [line for line in _config(outs[1]) if line.startswith("cap")] == ["cap = 3"]
    estimates = [line for out in outs for line in out.splitlines() if ".mc-estimate" in line]
    assert estimates == ["withhold.deviator1.mc-estimate = 0.3126",
                         "withhold.deviator1.mc-estimate = 0.1304"]
# R = (u_all - u_none) / (u_only - u_all) overflows to inf in the first
# table and underflows to 0 in the second; the axioms accept both.
@pytest.mark.parametrize(
    "scalars, threshold",
    [((1e-300, 0.0, -1e300), 1.0), ((1e300, 0.0, -1e-300), 1e-300)],
    ids=["ratio-inf", "ratio-zero"],
)
def test_alpha_star_at_the_float_extremes(scalars, threshold, capsys):
    star = analysis.alpha_star(UtilityTable.from_scalars(*scalars))
    assert all(0 < value <= 1 for value in star.per_player.values())
    assert star.per_player == pytest.approx({1: threshold, 2: threshold, 3: threshold}, rel=1e-12)
    flags = [f"--{name}={value!r}" for name, value in zip(("u-only", "u-all", "u-none"), scalars)]
    code, out = run_cli(capsys, "audit", "--alpha", "auto", "--trials", "10000", "--seed", "1",
                        *flags)
    assert code == 0
    errors = [float(line.rpartition(" = ")[2]) for line in out.splitlines() if ".std-error = " in line]
    assert len(errors) == 15 and all(math.isfinite(se) for se in errors)
    assert run_cli(capsys, "simulate", "--alpha", "auto", "--trials", "10", "--seed", "1",
                   *flags)[0] == 0


def test_alpha_star_when_gain_and_loss_overflow(tmp_path, capsys):
    # Payoffs by the number of other learners; u_only - u_all overflows.
    learning, missing = (1.7e308, 0.0, -1.7e308), (-1.75e308, -1.76e308, -1.77e308)
    payoffs = {
        str(player): {
            info_key(vec): (learning if vec[player - 1] else missing)[sum(vec) - vec[player - 1]]
            for vec in all_info_vectors(3)
        }
        for player in (1, 2, 3)
    }
    doc = {"players": 3, "payoffs": payoffs}
    star = analysis.alpha_star(UtilityTable.from_doc(doc, 3))
    assert all(0 < value <= 1 for value in star.per_player.values())
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "audit", "--alpha", "auto", "--trials", "10000", "--seed", "1",
                   "--utilities", str(path))[0] == 0


# Rational strings reach past the float range: R = 1e-600 and 1e800, whose
# thresholds are 1e-300 and 1 - 1e-400, and a square root of each payoff
# would overflow.
@pytest.mark.parametrize(
    "scalars, threshold",
    [(("1e700", "0", "-1e100"), "1e-300"), (("1e-100", "0", "-1e700"), "1")],
    ids=["ratio-1e-600", "ratio-1e800"],
)
def test_alpha_star_past_the_float_range(scalars, threshold, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(zip(("u_only", "u_all", "u_none"), scalars))))
    code, out = run_cli(capsys, "alpha-star", "--utilities", str(path))
    assert code == 0
    assert f"global = {threshold}\n" in out


RATIONAL_DOC = {"u_only": "2", "u_all": "1/3", "u_none": 0}


@pytest.mark.parametrize(
    "argv, table",
    [(["alpha-star"], RATIONAL_DOC),
     (["audit", "--alpha", "auto", "--trials", "10000", "--seed", "1"], RATIONAL_DOC),
     (["simulate", "--alpha", "auto", "--trials", "10", "--seed", "1"], RATIONAL_DOC),
     (["alpha-star"], "5/2"),
     (["alpha-star", "--u-all", "1/3"], None)],
    ids=["alpha-star-scalars", "audit-auto-scalars", "simulate-auto-scalars", "alpha-star-map",
         "alpha-star-flag"],
)
def test_rational_strings_in_every_table_form(argv, table, tmp_path, capsys):
    if table is not None:
        path = tmp_path / "utilities.json"
        path.write_text(json.dumps(table) if isinstance(table, dict)
                        else _canonical_map(1, "100", table))
        argv = [*argv, "--utilities", str(path)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "alpha-star" and table != "5/2":
        # R = (1/3) / (5/3) = 1/5 for every player.
        assert "player1.ratio = 0.2\n" in out
        assert f"global = {math.sqrt(0.2) / (1 + math.sqrt(0.2)):.12g}\n" in out


@pytest.mark.parametrize(
    "alpha, verdict",
    [("0.3090169943749474", "NoIncentive"), ("0.30901699437494745", "ProfitableDeviation")],
)
def test_withhold_verdict_beside_an_irrational_threshold(alpha, verdict, capsys):
    # alpha* = (sqrt(5) - 1) / 4 = 0.30901699437494742410... lies between the two.
    code, out = run_cli(capsys, "audit", "--alpha", alpha, "--u-only", "0.7", "--u-all", "0.2",
                        "--u-none", "0.1", "--deviations", "withhold", "--deviators", "1",
                        "--trials", "10000", "--seed", "1")
    assert code == 0
    assert f"withhold.deviator1.verdict = {verdict}\n" in out


HUGE_DOC = json.dumps({"u_only": "1e400", "u_all": "0", "u_none": "-1"})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, lines",
    [(["--alpha", "0.25", "--trials", "10000", "--seed", "1", "--u-only", "2", "--u-all", "0.7",
       "--u-none", "0", "--deviations", "biased-coin:1"],
      [f"biased-coin:1.deviator{d}.{key}" for d in (1, 2, 3)
       for key in ("mc-estimate = 0.7", "std-error = 0", "verdict = NoIncentive")]
      + ["any-profitable = false"]),
     (["--alpha", "0.3", "--trials", "20000", "--seed", "3", "--u-only", "0.7", "--u-all", "0.2",
       "--u-none", "0.1"],
      [f"{spec}.deviator{d}.{key}" for spec, u in (("biased-coin:1", "0.2"), ("always-silent", "0.1"))
       for d in (1, 2, 3) for key in (f"mc-estimate = {u}", "std-error = 0")]),
     (["--alpha", "0.25", "--trials", "10000", "--seed", "1", "--deviations", "withhold",
       "--deviators", "1", "--utilities", "HUGE"],
      ["withhold.deviator1.mc-estimate = inf", "withhold.deviator1.std-error = inf",
       "withhold.deviator1.verdict = ProfitableDeviation"])],
    ids=["constant-at-the-baseline", "constant-samples", "past-the-float-range"],
)
def test_audit_statistics_are_exact_sums(argv, lines, tmp_path, capsys):
    # A constant sample has a standard error of exactly 0, and one past the
    # float range an infinite one, never nan.
    path = tmp_path / "huge.json"
    path.write_text(HUGE_DOC)
    code, out = run_cli(capsys, "audit", *[str(path) if a == "HUGE" else a for a in argv])
    assert code == 0
    for line in lines:
        assert f"\n{line}\n" in out


def test_audit_below_threshold(capsys):
    code, out = run_cli(
        capsys, "audit", "--alpha", "0.25", "--trials", "10000", "--seed", "5",
        "--deviators", "1",
    )
    assert code == 0
    assert "any-profitable = false" in out
    assert out.count("verdict = NoIncentive") == 5


def test_audit_flags_withholding_above_threshold(capsys):
    code, out = run_cli(
        capsys, "audit", "--alpha", "0.8", "--trials", "10000", "--seed", "5",
        "--deviations", "withhold", "--deviators", "1,2,3",
    )
    assert code == 0
    assert out.count("verdict = ProfitableDeviation") == 3
    assert "any-profitable = true" in out


def test_dominance_oneshot(capsys):
    code, out = run_cli(capsys, "dominance", "--builtin", "oneshot-2of2")
    assert code == 0
    assert "surviving.player1 = withhold" in out
    assert "recommended.practical = false" in out
    assert "deletion-rounds = 1" in out


def test_dominance_bounded(capsys):
    code, out = run_cli(capsys, "dominance", "--builtin", "bounded-r2")
    assert code == 0
    assert "recommended.survives = false" in out


def test_dominance_game_file(tmp_path, capsys):
    from ratshare.dominance import prisoners_dilemma

    path = tmp_path / "pd.json"
    path.write_text(json.dumps(prisoners_dilemma().to_doc()))
    code, out = run_cli(
        capsys, "dominance", "--game", str(path), "--profile", "defect,defect"
    )
    assert code == 0
    assert "recommended.practical = true" in out


def test_dominance_game_file_echoes_no_builtin_and_no_table(tmp_path, capsys):
    # A loaded game reads neither a builtin nor a utility table, so [config]
    # echoes none for each.
    from ratshare.dominance import prisoners_dilemma

    path = tmp_path / "pd.json"
    path.write_text(json.dumps(prisoners_dilemma().to_doc()))
    code, out = run_cli(capsys, "dominance", "--game", str(path), "--profile", "defect,defect")
    assert code == 0
    assert _config(out) == ["command = dominance", "builtin = none", f"game = {path}",
                            "u-only = none", "u-all = none", "u-none = none",
                            "profile = defect,defect"]


# Player 1's a and c tie exactly and both beat b only through float-derived
# gaps (1e-300 against 0, 0.1 against 1/10); player 2's y beats x by the same
# gap, then z falls once b is gone.  Deletion takes two rounds.
TIES_AND_FLOATS = {
    "name": "ties-and-floats",
    "players": 2,
    "strategies": [["a", "b", "c"], ["x", "y", "z"]],
    "payoffs": {
        "a,x": [1e-300, "1/10"], "a,y": [0.1, 0.1], "a,z": ["1", 0],
        "b,x": [0, 0], "b,y": ["1/10", 0], "b,z": [1, 5],
        "c,x": [1e-300, "1/10"], "c,y": [0.1, 0.1], "c,z": [1, "0"],
    },
}

# sha256 of Report.result_text() for `dominance --builtin B` and for
# `dominance --game TIES_AND_FLOATS --profile a,y`, recorded while deletion
# still compared Fractions pair by pair; ties-and-floats re-pinned when a
# loaded game's [config] stopped echoing a builtin and a table it never read.
GOLDEN_DOMINANCE = {
    "oneshot-2of2": "098837cf9fd51c22ed659994022325bc46656bfc3163b289a24ac1239e65d725",
    "bounded-r1": "8e8066355170d6214e66e3d9cc285b839acdb1d5e08c749ddedee9cc775882f4",
    "bounded-r2": "257e845954627336c8f1fb34bb104e8e98d3724033bbee119e3a3400cc43432c",
    "prisoners-dilemma": "c67c0843fa094d029c8f9209349bd4456b8a2f7850c65c67973aaea8423ba3cd",
    "ties-and-floats": "0918583a849981505e9cba5897ab39fd000987e6594d8c9501b320a339926e02",
}


@pytest.mark.parametrize("name", list(GOLDEN_DOMINANCE))
def test_dominance_reports_match_golden_digests(name, tmp_path, monkeypatch):
    if name == "ties-and-floats":
        # [config] echoes the path, so keep it relative.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "game.json").write_text(json.dumps(TIES_AND_FLOATS))
        argv = ["dominance", "--game", "game.json", "--profile", "a,y"]
    else:
        argv = ["dominance", "--builtin", name]
    args = build_parser().parse_args(argv)
    digest = hashlib.sha256(run_command(args).result_text().encode()).hexdigest()
    assert digest == GOLDEN_DOMINANCE[name]


def test_hiding_command(capsys):
    code, out = run_cli(capsys, "hiding")
    assert code == 0
    assert "all-pass = true" in out
    assert "m2.hiding-subset-size1 = uniform" in out


# sha256 of Report.result_text() for `hiding --prime P --n N`, recorded
# while every reconstruction recomputed its Lagrange weights and the
# hiding check re-evaluated each polynomial per subset.
GOLDEN_HIDING = {
    (5, 4): "1f7368c3025a1fcb131132a170c3593727f1d251b72a7bfb950a7a56479914ff",
    (7, 3): "d302b0649ed6cf60bab0e4baaf0dc223f8afb02c8aebbc2305e1550edeae30c8",
    (11, 5): "122fe574fea600c5fd253bbfcf5fdcd4905b8c83375a0230367754822f6f18b8",
    (13, 3): "5d6d55795b6e020f955a9f390fa08cbb39f4feb04a31f36f9a702a9ecd29b0d4",
}


@pytest.mark.parametrize("prime, n", list(GOLDEN_HIDING))
def test_hiding_reports_match_golden_digests(prime, n):
    args = build_parser().parse_args(["hiding", "--prime", str(prime), "--n", str(n)])
    digest = hashlib.sha256(run_command(args).result_text().encode()).hexdigest()
    assert digest == GOLDEN_HIDING[(prime, n)]


def test_transcript_dump(tmp_path, capsys):
    path = tmp_path / "transcripts.jsonl"
    code, out = run_cli(
        capsys, "simulate", "--alpha", "1", "--trials", "3", "--seed", "9",
        "--dump-transcripts", str(path),
    )
    assert code == 0
    assert "sampler = reference-engine" in out
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert {rec["trial"] for rec in lines} == {0, 1, 2}
    kinds = {rec["kind"] for rec in lines}
    assert {"CoinPlus", "CoinMinus", "MaskedBit", "ShareBroadcast"} <= kinds
    share_records = [rec for rec in lines if rec["kind"] == "ShareBroadcast"]
    assert all({"epoch", "holder", "x", "y", "tag"} <= set(r["payload"]) for r in share_records)
    # Byte-identical on repeat.
    first = path.read_text()
    run_cli(
        capsys, "simulate", "--alpha", "1", "--trials", "3", "--seed", "9",
        "--dump-transcripts", str(path),
    )
    assert path.read_text() == first


# sha256 of the JSONL and of Report.result_text() for
# `simulate --alpha 0.5 --trials 5 --seed 3 --dump-transcripts FILE [--deviant ...]`.
# The reports' were recorded before the dump and the report shared one
# engine pass; the dumps' were re-derived when tags became the linear
# rule's ints, which changed only the tags.
GOLDEN_DUMPS = {
    None: (
        "1e959647c8d8db4255960bd5ac2a2260314d7afff3af28dca1e5b3873e0637c9",
        "63cb087ce29a147d1fdc724adbe1ca99d7d8369585ca419cd71779ee2d9a6d51",
    ),
    "2:garble-step2": (
        "28e4e5a7cdd611b32832b46cd4be5d228882270463b9a41870ac66803542865f",
        "168f790bf1a04619dca6674a367c3de05ee2bbf073f36967e11097f571fe3b55",
    ),
    "1:always-silent": (
        "5637afd895160630f3ab8f5cc0c154144716523d3645fafb51e26c7f7bcd983f",
        "c326265cb1309f905f85fb846a09e16b159710bdc0c70a5caeafeb481709bbd6",
    ),
    "3:withhold": (
        "e9559ef3da0befa68f2c84237ae96d11f1bcfb3625daa4a90ddbdade88061dd5",
        "6d2934bda959c96b60a9ba0b835f8d0a1508d584bf3e3c4bb334023ad4e4d7d6",
    ),
    "2:biased-coin:0.3": (
        "bc446fc3dfda40bef76d54de53b03acfe03a03fce0407bd8e0eac3122ae85d27",
        "2437c78683944de7608de5cbdbaa2accf0b38e46f4d63701f395b6dfa17d8352",
    ),
}


@pytest.mark.parametrize(
    "deviant",
    list(GOLDEN_DUMPS),
    ids=["honest", "garble-step2", "always-silent", "withhold", "biased-coin-0.3"],
)
def test_dump_and_report_match_golden_digests(deviant, tmp_path):
    path = tmp_path / "run.jsonl"
    argv = ["simulate", "--alpha", "0.5", "--trials", "5", "--seed", "3",
            "--dump-transcripts", str(path)]
    if deviant:
        argv += ["--deviant", deviant]
    args = build_parser().parse_args(argv)
    report = run_command(args)
    dump_digest, report_digest = GOLDEN_DUMPS[deviant]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == dump_digest
    assert hashlib.sha256(report.result_text().encode()).hexdigest() == report_digest


def test_dump_with_multi_digit_numbers_matches_golden_digests(tmp_path):
    # Trial numbers reach 11 and iteration and epoch numbers three digits,
    # so each line's trial/iteration/epoch head is exercised past one digit.
    # Recorded while every line was formatted whole; the dump's re-derived
    # when tags became the linear rule's ints.
    path = tmp_path / "run.jsonl"
    argv = ["simulate", "--alpha", "0.3", "--trials", "12", "--seed", "3",
            "--dump-transcripts", str(path)]
    args = build_parser().parse_args(argv)
    report = run_command(args)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "ff2acda5e5f751f0d091b4c7e332f3dd050cb8f5d1085f40cab762714dd43bbc"
    )
    assert (
        hashlib.sha256(report.result_text().encode()).hexdigest()
        == "04adaff45a94686c47de9ed268c206c3557da89a97a05ea79282e98c1cbdbc77"
    )


@pytest.mark.parametrize(
    "alpha, trials, deviant",
    [("0.5", 5, deviant) for deviant in GOLDEN_DUMPS] + [("0.3", 12, None)],
    ids=["honest", "garble-step2", "always-silent", "withhold", "biased-coin-0.3", "multi-digit"],
)
def test_dump_lines_are_the_recorded_messages_in_order(alpha, trials, deviant, tmp_path):
    # Each message the recorded runs sent is written exactly once, in
    # sending order, under its trial and its transcript's iteration and epoch.
    path = tmp_path / "run.jsonl"
    argv = ["simulate", "--alpha", alpha, "--trials", str(trials), "--seed", "3",
            "--dump-transcripts", str(path)]
    profile = None
    if deviant:
        argv += ["--deviant", deviant]
        head, _, spec = deviant.partition(":")
        name, alpha_prime = parse_deviation(spec)
        profile = deviation_profile(name, int(head), alpha_prime)
    run_command(build_parser().parse_args(argv))
    records = [
        {"trial": t, "iteration": tr.iteration, "epoch": tr.epoch, "step": int(m.step),
         "kind": m.kind.value, "sender": m.sender, "receiver": m.receiver,
         "payload": _payload_record(m.payload)}
        for t in range(trials)
        for tr in run_mechanism(5, float(alpha), profile, 3, record=True, trial=t).transcripts
        for m in tr.messages
    ]
    assert [json.loads(line) for line in path.read_text().splitlines()] == records


# The honest profile and every registry deviation, by player 1 to 3.
DUMP_PROFILES = [(None, None, None)] + [
    (name, deviator, 0.2 if name == "biased-coin" else None)
    for name in DEVIATIONS
    for deviator in (1, 2, 3)
]


def _dump(trials, alpha, name, deviator, alpha_prime):
    """What a dump of these runs writes: (bytes, iterations, the guard's estimate)."""
    profile = deviation_profile(name, deviator, alpha_prime)
    fh = io.StringIO()
    iterations = sum(o.iterations for o in _dumped_runs(fh, trials, alpha, 17, profile, DEFAULT_CAP))
    estimate = _dump_size(trials, alpha, DEFAULT_CAP, name, deviator, profile)
    return len(fh.getvalue().encode()), iterations, estimate


def _expected_run(alpha, name, deviator, alpha_prime, cap=DEFAULT_CAP):
    """The kernel's expected iterations and messages of each kind per run."""
    profile = deviation_profile(name, deviator, alpha_prime)
    return montecarlo.expected_run(alpha, profile, montecarlo.iteration_kernel(name, deviator), cap)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_dump_bytes_per_iteration_bounds_honest_dumps(alpha):
    # Each profile's own figure: its expected bytes per run, every line at
    # its widest, over its expected iterations per run.
    for spec in DUMP_PROFILES:
        size, iterations, estimate = _dump(20, alpha, *spec)
        expected_iterations, _ = _expected_run(alpha, *spec)
        assert size / iterations <= estimate / (20 * expected_iterations), spec


def test_dump_size_estimate_bounds_every_profile():
    # At alpha 1 an honest run takes one iteration; biased-coin:0.2 runs
    # take five on average, so sizing them as honest undercounts them
    # about threefold.
    for spec in DUMP_PROFILES:
        size, _, estimate = _dump(100, 1.0, *spec)
        assert size <= estimate, spec


def test_dump_size_counts_the_abort_iteration_after_a_stop():
    # At alpha 0.5 every pattern ends a garble-step2 run, and in all but
    # all-ones the others abort one iteration later: 1 + 7/8 iterations.
    for deviator in (1, 2, 3):
        iterations, _ = _expected_run(0.5, "garble-step2", deviator, None)
        assert iterations == 15 / 8
        assert _expected_run(0.5, "garble-step2", deviator, None, cap=1)[0] == 1
    # Honest runs end only when all three coins are 1 and never abort.
    assert _expected_run(0.5, None, None, None)[0] == 8
    # The expected iterations are the sampler's mean iteration count, for every profile.
    for spec in DUMP_PROFILES:
        runs = montecarlo.sample_runs(0.5, 20_000, 5, *spec).iterations
        iterations, _ = _expected_run(0.5, *spec)
        assert abs(runs.mean() - iterations) <= 4 * runs.std(ddof=1) / math.sqrt(len(runs)) + 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_expected_messages_match_recorded_runs(alpha):
    # The mean count of each message kind over recorded engine runs lies
    # within five standard errors of the kernel's expectation (a normal
    # tail of 6e-7 per count; the seed is fixed, so the test is repeatable).
    trials = 200
    for name, deviator, alpha_prime in DUMP_PROFILES:
        profile = deviation_profile(name, deviator, alpha_prime)
        counts = np.array([
            [sum(m.kind == kind for tr in out.transcripts for m in tr.messages) for kind in MessageKind]
            for out in (run_mechanism(5, alpha, profile, 23, record=True, trial=t) for t in range(trials))
        ])
        _, expected = _expected_run(alpha, name, deviator, alpha_prime)
        bound = 5 * counts.std(axis=0, ddof=1) / math.sqrt(trials) + 1e-9
        assert (abs(counts.mean(axis=0) - expected) <= bound).all(), (name, deviator)


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.37, 0.5, 0.8, 1.0])
def test_honest_dump_size_is_the_hand_count(alpha):
    # An honest iteration sends six coin pieces and three masked bits.  When
    # exactly one coin is 1 its owner broadcasts to the other two and all
    # three ask for a restart; when all three are 1 all broadcast and the
    # run ends; otherwise all three ask for a restart.  A run lasts 1/alpha^3
    # iterations.
    success, lone = alpha**3, 3 * alpha * (1 - alpha) ** 2
    per_iteration = (
        9 * LINE_BYTES[MessageKind.MASKED_BIT]
        + 3 * (1 - success) * LINE_BYTES[MessageKind.RESTART_REQUEST]
        + 2 * (lone + 3 * success) * LINE_BYTES[MessageKind.SHARE_BROADCAST]
    )
    estimate = _dump_size(1, alpha, DEFAULT_CAP, None, None, {})
    assert estimate == pytest.approx(per_iteration / success, rel=1e-15)


def test_dump_line_sizes_bound_the_widest_lines():
    wide = MAX_TRIALS - 1  # 7 digits, as are iterations up to the default cap
    assert len(str(DEFAULT_CAP)) == len(str(wide))
    share = Share(3, FieldElement(DEFAULT_PRIME - 1, DEFAULT_PRIME), wide, DEFAULT_PRIME - 1)
    cases = [
        (Step.COIN_EXCHANGE, MessageKind.COIN_PLUS, 1),
        (Step.COIN_EXCHANGE, MessageKind.COIN_MINUS, 1),
        (Step.MASKED_BIT, MessageKind.MASKED_BIT, 1),
        (Step.DECIDE, MessageKind.RESTART_REQUEST, None),
        (Step.BROADCAST, MessageKind.SHARE_BROADCAST, share),
    ]
    widths = {}
    for step, kind, payload in cases:
        line = _jsonl_line(_line_head(wide, wide, wide), 3, 3, step, kind, _payload_json(payload))
        widths[kind] = len(line.encode())
    # "CoinPlus" is a byte shorter than "CoinMinus"; both take the bit width.
    assert widths == {**LINE_BYTES, MessageKind.COIN_PLUS: LINE_BYTES[MessageKind.COIN_PLUS] - 1}


def _record(payload):
    """The dump's JSON value of a payload, built here from the item's fields
    as the README states the format, not by `ratshare.transcript`."""
    if isinstance(payload, Share):
        return {"epoch": payload.epoch, "holder": payload.holder, "x": payload.holder,
                "y": payload.y.value, "tag": payload.tag}
    if isinstance(payload, Subshare):
        return {"epoch": payload.epoch, "parent": payload.parent_holder, "index": payload.index,
                "value": payload.value.value, "tag": payload.tag}
    if isinstance(payload, tuple):
        return [_record(item) for item in payload]
    return payload


def _dump_line(trial, iteration, epoch, msg) -> str:
    record = {"trial": trial, "iteration": iteration, "epoch": epoch, "step": int(msg.step),
              "kind": msg.kind.value, "sender": msg.sender, "receiver": msg.receiver,
              "payload": _record(msg.payload)}
    return json.dumps(record, separators=(",", ":"))


class _Three(IntEnum):
    THREE = 3


# Field values the public constructors refuse or do not expect, set
# behind their checks as `object.__setattr__` can.
ODD_FIELD_VALUES = {"true": True, "float": 1.0, "str": "7", "big": 2**70, "intenum": _Three.THREE}


def _with_field(item, field, value):
    """A copy of `item` with `field` (for `y` and `value`, the element's value) set to `value`."""
    item = copy.copy(item)
    if field in ("y", "value"):
        element = copy.copy(getattr(item, field))
        object.__setattr__(element, "value", value)
        value = element
    object.__setattr__(item, field, value)
    return item


def _payloads() -> dict:
    issuer = ShareIssuer(b"line", modulus=101)
    coefficients = issuer.draw_coefficients(2, Random(0))
    issuer.open_epoch(4, [1, 2, 3, (1, 1), (1, 2), (1, 3)])
    shares = issuer.issue_shares(FieldElement(9, 101), 4, coefficients, (1, 2, 3))
    first = shares[0]
    subshares = issuer.split_subshares((first.holder, first.y.value, first.epoch), 3, Random(1))
    payloads = {
        "zero": 0, "one": 1, "int": 7, "none": None, "true": True, "false": False,
        "str": "text", "float": 0.25, "share": shares[1], "share-tuple": tuple(shares),
        "subshare-tuple": tuple(subshares), "mixed-tuple": (0, None),
        "share-built-with-epoch-true": Share(shares[1].holder, shares[1].y, True, shares[1].tag),
    }
    for name, value in ODD_FIELD_VALUES.items():
        for field in ("holder", "epoch", "y", "tag"):
            payloads[f"share-{field}-{name}"] = _with_field(shares[1], field, value)
        for field in ("parent_holder", "index", "epoch", "value", "tag"):
            payloads[f"subshare-{field}-{name}"] = _with_field(subshares[0], field, value)
    return payloads


PAYLOADS = _payloads()


@pytest.mark.parametrize("name", list(PAYLOADS))
def test_jsonl_line_is_json_dumps_of_the_record(name):
    payload = PAYLOADS[name]
    for kind in MessageKind:
        msg = RoundMessage(2, 3, Step.BROADCAST, kind, payload)
        line = _jsonl_line(_line_head(6, 11, 4), *msg[:4], _payload_json(payload))
        assert line == _dump_line(6, 11, 4, msg) + "\n"


TAIL_PAYLOADS = [0, 1, None, True, False, 1.0]


def _written_lines(trial, transcripts) -> list[str]:
    outcome = RunOutcome(len(transcripts), (0, 0, 0), TerminalCause.ITERATION_CAP_HIT, transcripts)
    fh = io.StringIO()
    transcript.write(fh, trial, outcome)
    return fh.getvalue().splitlines()


@pytest.mark.parametrize("order", [TAIL_PAYLOADS, TAIL_PAYLOADS[::-1]], ids=["int-first", "bool-first"])
def test_cached_tail_lines_are_json_dumps_of_the_record(order):
    # Every (step, kind) pair with each payload, in two iterations, so the
    # second reads the tails the first cached.  1 and True (and 0 and False)
    # compare and hash alike, yet must never share a tail.
    messages = [
        RoundMessage(2, 3, step, kind, payload)
        for step in Step for kind in MessageKind for payload in order
    ]
    lines = _written_lines(6, [IterationTranscript(11, 4, messages),
                               IterationTranscript(12, 5, messages)])
    assert lines == [_dump_line(6, iteration, epoch, m)
                     for iteration, epoch in ((11, 4), (12, 5)) for m in messages]


def test_the_tail_cache_is_bounded():
    messages = [RoundMessage(sender, 0, Step.DECIDE, MessageKind.RESTART_REQUEST, None)
                for sender in range(transcript._TAIL_CACHE_SIZE + 10)]
    assert _written_lines(1, [IterationTranscript(1, 0, messages)]) == [
        _dump_line(1, 1, 0, m) for m in messages
    ]
    assert 0 < len(transcript._tails) <= transcript._TAIL_CACHE_SIZE


RECORDED_RUNS = {
    "honest": lambda t: run_mechanism(5, 0.5, {}, 3, trial=t),
    **{
        f"2:{name}": lambda t, name=name: run_mechanism(
            5, 0.5, deviation_profile(name, 2, 0.3 if name == "biased-coin" else None), 3,
            cap=40, trial=t)
        for name in DEVIATIONS
    },
    "3-of-6": lambda t: lift_m_of_n(5, 3, 6, 0.5, seed=3, trial=t),
    "2-of-5": lambda t: lift_2_of_n(5, 5, 0.5, seed=3, trial=t),
}


@pytest.mark.parametrize("name", list(RECORDED_RUNS))
def test_written_lines_are_json_dumps_of_the_recorded_messages(name):
    outcomes = [RECORDED_RUNS[name](t) for t in range(4)]
    fh = io.StringIO()
    for t, outcome in enumerate(outcomes):
        transcript.write(fh, t, outcome)
    assert fh.getvalue().splitlines() == [
        _dump_line(t, tr.iteration, tr.epoch, m)
        for t, outcome in enumerate(outcomes)
        for tr in outcome.transcripts
        for m in tr.messages
    ]


def test_dump_runs_each_trial_once(tmp_path, monkeypatch, capsys):
    import ratshare.cli as cli
    import ratshare.engine as engine

    calls = []
    for module in (cli, engine):
        real = module.run_mechanism
        monkeypatch.setattr(
            module, "run_mechanism", lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
        )
    code, _ = run_cli(
        capsys, "simulate", "--alpha", "0.5", "--trials", "7", "--seed", "4",
        "--dump-transcripts", str(tmp_path / "run.jsonl"),
    )
    assert code == 0
    assert len(calls) == 7


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, _ = run_cli(
        capsys, "--out", str(path), "simulate", "--alpha", "1", "--trials", "5", "--seed", "2"
    )
    assert code == 0
    assert path.read_text().startswith("schema = ratshare.report.v1")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, what",
    [
        (["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1",
          "--dump-transcripts", "/dev/full"], "transcripts"),
        (["--out", "/dev/full", "alpha-star"], "the report"),
    ],
    ids=["dump", "report"],
)
def test_a_failed_write_is_a_config_error(argv, what, capsys):
    # /dev/full opens but fails every write with ENOSPC, here when the file
    # is flushed on close.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: cannot write {what} to /dev/full: "
                            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


def test_a_closed_stdout_pipe_is_a_config_error():
    # The pipe's read end is closed before the command starts, so writing
    # the report fails with EPIPE (Python ignores SIGPIPE).
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ratshare.cli", "simulate", "--alpha", "0.5", "--trials", "200",
             "--seed", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.decode() == (
        f"config error: cannot write the report to stdout: [Errno {errno.EPIPE}] "
        f"{os.strerror(errno.EPIPE)}\n"
    )


def test_a_dump_failing_mid_run_keeps_the_trials_written_before(tmp_path, monkeypatch, capsys):
    real = transcript.write

    def write(fh, trial, outcome):
        if trial == 2:
            raise OSError(errno.EIO, "write refused")
        real(fh, trial, outcome)

    monkeypatch.setattr(transcript, "write", write)
    path = tmp_path / "run.jsonl"
    code = main(["simulate", "--alpha", "0.5", "--trials", "5", "--seed", "3",
                 "--dump-transcripts", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: cannot write transcripts to {path}: [Errno {errno.EIO}] write refused\n"
    )
    monkeypatch.undo()
    kept = io.StringIO()
    for _ in _dumped_runs(kept, 2, 0.5, 3, {}, DEFAULT_CAP):
        pass
    assert path.read_text() == kept.getvalue() != ""


# --- exit codes -------------------------------------------------------------------


def test_bad_alpha_is_a_config_error(capsys):
    assert main(["simulate", "--alpha", "1.5", "--trials", "10", "--seed", "1"]) == 2
    assert main(["simulate", "--alpha", "zero", "--trials", "10", "--seed", "1"]) == 2


def test_invalid_utility_table_is_a_config_error(capsys):
    code = main(["alpha-star", "--u-only", "1", "--u-all", "2", "--u-none", "0"])
    assert code == 2


def test_bad_deviant_is_a_config_error(capsys):
    code = main(
        ["simulate", "--alpha", "0.5", "--trials", "10", "--seed", "1", "--deviant", "1:bogus"]
    )
    assert code == 2


def test_too_few_audit_trials_is_a_config_error(capsys):
    code = main(["audit", "--alpha", "0.5", "--trials", "100", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1", "--dump-transcripts", ""],
         "cannot write transcripts to : "),
        (["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1", "--deviant", ""],
         "--deviant must look like PLAYER:NAME, got ''"),
        (["alpha-star", "--utilities", ""], "cannot load utilities from : "),
        (["dominance", "--game", ""], "cannot load game from : "),
        (["--out", "", "alpha-star"], "cannot write the report to : "),
    ],
    ids=["dump-transcripts", "deviant", "utilities", "game", "out"],
)
def test_an_empty_flag_value_is_a_config_error(argv, message, capsys):
    # An empty value is a given value, refused like any other bad one, not
    # read as an absent flag.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1, err


def _canonical_map(player: int, key: str, value) -> str:
    """The canonical table's explicit-map document, one entry replaced, as JSON."""
    doc = canonical_table().to_doc()
    doc["payoffs"][str(player)][key] = value
    return json.dumps(doc)


# json writes float("inf") as Infinity, which json.load reads back as inf.
INFINITE_DOC = _canonical_map(1, "100", float("inf"))
NOT_A_PAYOFF = "must be a finite number or a rational string, got"
TINY_STAR_DOC = json.dumps({"u_only": "1e1000", "u_all": "1", "u_none": "0"})
HUGE_EXPONENT = "has a decimal exponent past 4,300, got"
HUGE_EXPONENT_DOC = json.dumps({"u_only": "1e999999999", "u_all": 1, "u_none": 0})
HUGE_EXPONENT_GAME = json.dumps({"strategies": [["a"], ["b"]], "payoffs": {"a,b": ["1e-999999999", 1]}})

PD_DOC = json.dumps({
    "strategies": [["cooperate", "defect"], ["cooperate", "defect"]],
    "payoffs": {"cooperate,cooperate": [2, 2], "cooperate,defect": [0, 3],
                "defect,cooperate": [3, 0], "defect,defect": [1, 1]},
})
# A name, a label or an argument with a line break would add report lines
# of its own: a forged section, a ninth player, a [config] key.
FORGED_NAME_GAME = json.dumps({"name": "g\n[results.fake]\nrecommended.practical = true",
                               **json.loads(PD_DOC)})
FORGED_LABEL_GAME = PD_DOC.replace("defect", "defect\\nsurviving.player9 = x")
NUMBER_NAME_GAME = json.dumps({"name": 5, **json.loads(PD_DOC)})
# `str.splitlines` also breaks lines at U+2028, U+0085 and a vertical tab.
SEPARATOR_NAME_GAME = json.dumps({"name": "g\u2028fake.section = 1", **json.loads(PD_DOC)})
NEL_LABEL_GAME = PD_DOC.replace("defect", "defect\\u0085surviving.player9 = x")
# Payoffs of 5,001 digits, past Python's limit on an int string, as a flag
# and as JSON integers, which `json` alone refuses in Python's own words.
LONG_PAYOFF = "1" + "0" * 5000
LONG_PAYOFF_DOC = f'{{"u_only": {LONG_PAYOFF}, "u_all": 1, "u_none": 0}}'
LONG_PAYOFF_GAME = f'{{"strategies": [["a"], ["b"]], "payoffs": {{"a,b": [{LONG_PAYOFF}, 1]}}}}'
LONG_PAYOFF_ERROR = "has more than 4,300 digits, got '1" + "0" * 38


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1", "--deviators", "x"],
        ["simulate", "--alpha", "0.5", "--trials", "0", "--seed", "1"],
        ["simulate", "--alpha", "0.5", "--trials", "-5", "--seed", "1"],
        ["hiding", "--prime", "8"],
        ["hiding", "--n", "9"],
        # Both samplers share the engine's run-configuration check.
        ["simulate", "--alpha", "0.5", "--trials", "10", "--seed", "1", "--cap", "0"],
        ["simulate", "--alpha", "0.5", "--trials", "10", "--seed", "1", "--cap", "0",
         "--dump-transcripts", "DUMP"],
        # Paths that cannot be written.
        ["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1",
         "--dump-transcripts", "NODIR"],
        ["--out", "NODIR", "alpha-star"],
        # Documents of the wrong shape.
        ["dominance", "--game", 'DOC:{"strategies": 5, "payoffs": {}}'],
        ["dominance", "--game", "DOC:[1, 2]"],
        ["dominance", "--game", 'DOC:{"strategies": ["ab", "ab"], "payoffs": '
         '{"a,a": [1, 1], "a,b": [0, 0], "b,a": [0, 0], "b,b": [1, 1]}}'],
        ["dominance", "--game", 'DOC:{"strategies": [["a"], ["b"]], "payoffs": {"a,b": "12"}}'],
        ["dominance", "--game", 'DOC:{"strategies": [["a", "a"], ["b"]], "payoffs": '
         '{"a,b": [1, 2]}}'],
        ["dominance", "--game", 'DOC:{"strategies": [["a"], ["b"]], "payoffs": '
         '{"a,b": [1e999, 2]}}'],
        ["dominance", "--game", 'DOC:{"strategies": [["a"], ["b"]], "payoffs": '
         '{"a,b": ["1/0", "1"]}}'],
        ["alpha-star", "--utilities", 'DOC:{"players": 3, "payoffs": {"1": [1, 2]}}'],
        ["alpha-star", "--utilities", "DOC:[]"],
        # A player count that is not an int is not rounded or coerced.
        ["alpha-star", "--utilities", 'DOC:{"players": 3.9, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["alpha-star", "--utilities", 'DOC:{"players": true, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["alpha-star", "--utilities", 'DOC:{"players": "3", "u_only": 2, "u_all": 1, "u_none": 0}'],
        # Fields too large to enumerate.
        ["hiding", "--prime", "1009"],
        ["hiding", "--prime", "2305843009213693951"],
        ["hiding", "--prime", "13", "--n", "12"],
        # An --n whose subset count alone is too large to sum.
        ["hiding", "--prime", "2305843009213693951", "--n", "20000"],
        ["hiding", "--prime", "2305843009213693951", "--n", "2305843009213693950"],
        # Utility tables of the wrong size for the command.
        ["alpha-star", "--utilities", 'DOC:{"players": 1, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["alpha-star", "--utilities", 'DOC:{"players": 1, "payoffs": {"1": {"1": 1, "0": 0}}}'],
        ["alpha-star", "--utilities", 'DOC:{"players": 0, "payoffs": {}}'],
        ["alpha-star", "--utilities", 'DOC:{"players": 4, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1",
         "--utilities", 'DOC:{"players": 2, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1",
         "--utilities", 'DOC:{"players": 4, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["simulate", "--alpha", "auto", "--trials", "10", "--seed", "1",
         "--utilities", 'DOC:{"players": 1, "payoffs": {"1": {"1": 1, "0": 0}}}'],
        ["dominance", "--builtin", "oneshot-2of2",
         "--utilities", 'DOC:{"players": 3, "u_only": 2, "u_all": 1, "u_none": 0}'],
        ["dominance", "--builtin", "bounded-r2",
         "--utilities", 'DOC:{"players": 3, "u_only": 2, "u_all": 1, "u_none": 0}'],
        # A loaded game uses no builtin and no utility table, so a flag that
        # names one is refused, even at its default value.
        ["dominance", "--game", f"DOC:{PD_DOC}", "--u-only", "5", "--utilities",
         "/nonexistent.json"],
        ["dominance", "--game", f"DOC:{PD_DOC}", "--builtin", "oneshot-2of2"],
        ["dominance", "--game", f"DOC:{PD_DOC}", "--u-none", "0"],
        # Labels the game does not have.
        ["dominance", "--game", f"DOC:{PD_DOC}", "--profile", "X,Y"],
        ["dominance", "--builtin", "oneshot-2of2", "--profile", "send,sned"],
        # More trials than fit in memory; rejected before anything is allocated.
        ["simulate", "--alpha", "0.5", "--trials", "100000000000000000000", "--seed", "1"],
        ["simulate", "--alpha", "0.5", "--trials", "10000001", "--seed", "1"],
        ["simulate", "--alpha", "0.5", "--trials", "100000000000000000000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["audit", "--alpha", "0.25", "--trials", "100000000000000000000", "--seed", "1"],
        # Dumps expected to write past DUMP_BUDGET_BYTES (13, 15 and 15 GB).
        ["simulate", "--alpha", "0.5", "--trials", "1000000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["simulate", "--alpha", "0.1", "--trials", "10000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["simulate", "--alpha", "0.1", "--trials", "10000000", "--seed", "1", "--cap", "1",
         "--dump-transcripts", "DUMP"],
        # A deviant's runs last longer than honest ones: about 4,000 iterations, 391 GB.
        ["simulate", "--alpha", "0.5", "--trials", "60000", "--seed", "1", "--deviant",
         "1:biased-coin:0.001", "--dump-transcripts", "DUMP"],
        # Caps past 2**53, which the samplers cannot count exactly.
        ["simulate", "--alpha", "1e-200", "--trials", "10", "--seed", "1",
         "--cap", "9223372036854775808"],
        ["simulate", "--alpha", "1e-100", "--trials", "3", "--seed", "1",
         "--cap", "9223372036854775807"],
        ["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1",
         "--cap", "9007199254740993", "--dump-transcripts", "DUMP"],
        ["audit", "--alpha", "1e-300", "--trials", "10000", "--seed", "1",
         "--cap", "100000000000000000000000"],
        # A deviant with no player.
        ["simulate", "--alpha", "0.5", "--trials", "3", "--seed", "1", "--deviant", "withhold"],
        # One label for a 2-player game.
        ["dominance", "--builtin", "bounded-r2", "--profile", "S|SSS"],
        # A payoff document with no map for player 2, or a key of the wrong length.
        ["alpha-star", "--utilities", 'DOC:{"players": 3, "payoffs": {"1": {"111": 1}}}'],
        ["alpha-star", "--utilities",
         'DOC:{"players": 3, "payoffs": {"1": {"11": 1}, "2": {}, "3": {}}}'],
        # One payoff for a 2-player profile.
        ["dominance", "--game", 'DOC:{"strategies": [["a"], ["b"]], "payoffs": {"a,b": [1]}}'],
        # A key with more labels than players, and a game with no players.
        ["dominance", "--game", 'DOC:{"strategies": [["a"], ["b"]], "payoffs": {"a,b,c": [1, 1]}}'],
        ["dominance", "--game", 'DOC:{"strategies": [], "payoffs": {}}'],
        # Payoffs that are not finite numbers or rational strings, in every table form.
        ["alpha-star", "--utilities", f"DOC:{INFINITE_DOC}"],
        ["audit", "--alpha", "auto", "--trials", "10000", "--seed", "1",
         "--utilities", f"DOC:{INFINITE_DOC}"],
        ["alpha-star", "--u-only", "inf"],
        ["alpha-star", "--u-only", "nan"],
        ["alpha-star", "--utilities", 'DOC:{"u_only": true, "u_all": 1, "u_none": 0}'],
        ["alpha-star", "--utilities", f"DOC:{_canonical_map(3, '011', False)}"],
        ["dominance", "--builtin", "bounded-r2", "--u-all", "1/0"],
        # An alpha* of about 1e-500, whose half rounds to 0.
        ["audit", "--alpha", "auto", "--trials", "10000", "--seed", "1",
         "--utilities", f"DOC:{TINY_STAR_DOC}"],
        ["simulate", "--alpha", "auto", "--trials", "10", "--seed", "1",
         "--utilities", f"DOC:{TINY_STAR_DOC}"],
        # Decimal exponents whose powers would take seconds to hours to build.
        ["alpha-star", "--u-only", "1e10000000"],
        ["alpha-star", "--utilities", f"DOC:{HUGE_EXPONENT_DOC}"],
        ["dominance", "--game", f"DOC:{HUGE_EXPONENT_GAME}"],
        # An empty profile is one empty label.
        ["dominance", "--builtin", "bounded-r2", "--profile", ""],
        # A withholder's subnormal absorbing weight: a run is expected to last the cap.
        ["simulate", "--alpha", "1e-310", "--trials", "1", "--seed", "1", "--deviant", "1:withhold",
         "--dump-transcripts", "DUMP"],
        # Input that would forge report lines, and a game name that is not a string.
        ["dominance", "--game", f"DOC:{FORGED_NAME_GAME}"],
        ["dominance", "--game", f"DOC:{FORGED_LABEL_GAME}"],
        ["dominance", "--game", f"DOC:{NUMBER_NAME_GAME}"],
        ["alpha-star", "--utilities", "NEWLINE_DOC"],
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", "0.5\n"],
        ["dominance", "--game", f"DOC:{SEPARATOR_NAME_GAME}"],
        ["dominance", "--game", f"DOC:{NEL_LABEL_GAME}"],
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", "0.5\v"],
        # Payoffs past 4,300 digits, in every form.
        ["alpha-star", "--u-only", LONG_PAYOFF],
        ["alpha-star", "--utilities", f"DOC:{LONG_PAYOFF_DOC}"],
        ["dominance", "--game", f"DOC:{LONG_PAYOFF_GAME}"],
    ],
    ids=[
        "audit-deviators-x", "trials-0", "trials-negative", "hiding-prime-8", "hiding-n-9",
        "cap-0-vectorized", "cap-0-dump", "dump-no-dir", "out-no-dir", "game-strategies-int",
        "game-list", "game-strategies-strings", "game-payoff-string", "game-duplicate-labels",
        "game-payoff-infinite", "game-payoff-zero-denominator", "utilities-payoff-list", "utilities-list", "utilities-players-float",
        "utilities-players-bool", "utilities-players-string", "hiding-prime-1009",
        "hiding-prime-2to61", "hiding-n-12", "hiding-n-20000", "hiding-n-2to61",
        "alpha-star-1-player-scalars",
        "alpha-star-1-player-payoffs", "alpha-star-0-players", "alpha-star-4-players",
        "audit-2-players", "audit-4-players", "simulate-auto-1-player", "dominance-oneshot-3-players",
        "dominance-bounded-r2-3-players", "game-with-table-flags", "game-with-builtin",
        "game-with-default-u-none", "game-unknown-labels", "builtin-unknown-label", "trials-1e20", "trials-over-bound", "trials-1e20-dump",
        "audit-trials-1e20", "dump-over-budget", "dump-over-budget-low-alpha",
        "dump-over-budget-cap-1", "dump-over-budget-deviant", "cap-2to63", "cap-2to63-minus-1", "cap-2to53-plus-1-dump",
        "audit-cap-1e23", "deviant-without-player", "profile-one-label",
        "utilities-missing-player-map", "utilities-short-key", "game-one-payoff",
        "game-key-three-labels", "game-no-players", "utilities-map-infinity",
        "audit-auto-map-infinity", "u-only-inf", "u-only-nan", "utilities-scalar-bool",
        "utilities-map-bool", "u-all-zero-denominator", "audit-auto-alpha-star-underflows",
        "simulate-auto-alpha-star-underflows", "u-only-huge-exponent", "utilities-huge-exponent",
        "game-huge-exponent", "profile-empty", "dump-over-budget-subnormal-weight",
        "game-name-line-break", "game-label-line-break", "game-name-int", "utilities-path-line-break",
        "alpha-line-break", "game-name-line-separator", "game-label-next-line",
        "alpha-vertical-tab", "u-only-long", "utilities-long-payoff", "game-long-payoff",
    ],
)
def test_bad_input_exits_two_with_one_line(argv, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused dump started writing")

    # A regressed dump guard then fails at once instead of writing the dump.
    monkeypatch.setattr(cli, "_dumped_runs", refuse)

    count = cli.round_trip_reconstructions

    def small_count(p, n):
        assert n < 64, "hiding started summing subsets of a huge --n"
        return count(p, n)

    # And a regressed --n guard fails at once instead of summing for hours.
    monkeypatch.setattr(cli, "round_trip_reconstructions", small_count)

    def materialize(arg):
        if arg == "DUMP":
            return str(tmp_path / "dump.jsonl")
        if arg == "NODIR":
            return str(tmp_path / "no-such-dir" / "file")
        if arg.startswith("DOC:"):
            path = tmp_path / "doc.json"
            path.write_text(arg[len("DOC:"):])
            return str(path)
        if arg == "NEWLINE_DOC":  # a well-formed table at a path that breaks a line
            path = tmp_path / "u\nfake = 1.json"
            path.write_text('{"u_only": 2, "u_all": 1, "u_none": 0}')
            return str(path)
        return arg

    start = time.perf_counter()
    assert main([materialize(arg) for arg in argv]) == 2
    if argv[0] == "hiding":
        # Refused before any big-int count, not after summing one.
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.endswith("\n") and len(err.splitlines()) == 1
    if "X,Y" in argv or "send,sned" in argv:
        # The message names the first unknown label and its player.
        player, label = (1, "X") if "X,Y" in argv else (2, "sned")
        assert err == f"config error: player {player} has no strategy {label!r}\n"
    # These cases are here to reach one raise each, so the message must be that raise's.
    ends = {
        "withhold": "--deviant must look like PLAYER:NAME, got 'withhold'",
        "S|SSS": "profile needs 2 strategies",
        'DOC:{"players": 3, "payoffs": {"1": {"111": 1}}}': "missing payoff map for player 2",
        'DOC:{"players": 3, "payoffs": {"1": {"11": 1}, "2": {}, "3": {}}}':
            "key '11' has wrong length for 3 players",
        'DOC:{"strategies": [["a"], ["b"]], "payoffs": {"a,b": [1]}}':
            "profile (0, 0) needs one payoff per player",
        'DOC:{"strategies": [["a"], ["b"]], "payoffs": {"a,b,c": [1, 1]}}':
            "payoffs key 'a,b,c' has 3 labels for 2 players",
        'DOC:{"strategies": [], "payoffs": {}}': "every player needs a nonempty strategy set",
        f"DOC:{INFINITE_DOC}": f"payoff of player 1 at '100' {NOT_A_PAYOFF} inf",
        "inf": f"--u-only {NOT_A_PAYOFF} 'inf'",
        "nan": f"--u-only {NOT_A_PAYOFF} 'nan'",
        'DOC:{"u_only": true, "u_all": 1, "u_none": 0}': f"u_only {NOT_A_PAYOFF} True",
        f"DOC:{_canonical_map(3, '011', False)}": f"payoff of player 3 at '011' {NOT_A_PAYOFF} False",
        "1/0": f"--u-all {NOT_A_PAYOFF} '1/0'",
        f"DOC:{TINY_STAR_DOC}": "--alpha auto found an alpha* below the float range; give --alpha",
        "1e10000000": f"--u-only {HUGE_EXPONENT} '1e10000000'",
        f"DOC:{HUGE_EXPONENT_DOC}": f"u_only {HUGE_EXPONENT} '1e999999999'",
        f"DOC:{HUGE_EXPONENT_GAME}": f"payoffs of 'a,b': payoff {HUGE_EXPONENT} '1e-999999999'",
        "": "profile needs 2 strategies",
        f"DOC:{FORGED_NAME_GAME}": "game name must be a one-line string, got 'g\\n[results.fake]"
                                  "\\nrecommended.practica",
        f"DOC:{FORGED_LABEL_GAME}": "player 1 strategies must be a list of distinct one-line strings",
        f"DOC:{NUMBER_NAME_GAME}": "game name must be a one-line string, got 5",
        "NEWLINE_DOC": "contains a line break",
        "0.5\n": "argument '0.5\\n' contains a line break",
        f"DOC:{SEPARATOR_NAME_GAME}": "game name must be a one-line string, got 'g\\u2028fake.section = 1'",
        f"DOC:{NEL_LABEL_GAME}": "player 1 strategies must be a list of distinct one-line strings",
        "0.5\v": "argument '0.5\\x0b' contains a line break",
        LONG_PAYOFF: f"--u-only {LONG_PAYOFF_ERROR}",
        f"DOC:{LONG_PAYOFF_DOC}": f"u_only {LONG_PAYOFF_ERROR}",
        f"DOC:{LONG_PAYOFF_GAME}": f"payoffs of 'a,b': payoff {LONG_PAYOFF_ERROR}",
    }
    if argv[-1] in ends:
        assert err.endswith(f"{ends[argv[-1]]}\n")
    assert not (tmp_path / "dump.jsonl").exists()


LONG_VALUE = "x" * 3000
LONG_INT = "9" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", LONG_VALUE],
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", "0.5", "--deviant", LONG_VALUE],
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", "0.5", "--deviant", f"1:{LONG_VALUE}"],
        ["simulate", "--trials", "10", "--seed", "1", "--alpha", "0.5",
         "--deviant", f"1:biased-coin:{LONG_VALUE}"],
        ["audit", "--alpha", "0.5", "--trials", "10000", "--seed", "1", "--deviations", LONG_VALUE],
        ["audit", "--alpha", "0.5", "--trials", "10000", "--seed", "1",
         "--deviations", "biased-coin:0.5,biased-coin:0.5" + "0" * 3000],
        ["audit", "--alpha", "0.5", "--trials", "10000", "--seed", "1", "--deviators", LONG_VALUE],
        ["audit", "--alpha", "0.5", "--trials", "10000", "--seed", "1",
         "--deviators", f"{LONG_INT},{LONG_INT}"],
        ["dominance", "--builtin", "bounded-r2", "--profile", f"{LONG_VALUE},send"],
    ],
    ids=["alpha", "deviant-shape", "deviant-name", "deviant-biased-coin-param", "deviations",
         "deviations-twice", "deviators", "deviators-twice", "profile-label"],
)
def test_config_errors_quote_at_most_40_characters_of_a_bad_value(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith("\n") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200, err[:100]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--alpha", "0.5", "--seed", "1", "--trials", LONG_VALUE],
        ["simulate", "--alpha", "0.5", "--seed", "1", f"--trials={LONG_VALUE}"],
        ["dominance", "--builtin", LONG_VALUE],
        ["simulate", "--alpha", "0.5", "--seed", "1", LONG_VALUE],
        ["audit", f"--de={LONG_VALUE}"],
        [LONG_VALUE],
    ],
    ids=["int-value", "int-value-after-equals", "choice", "unrecognized", "ambiguous-option",
         "command"],
)
def test_argparse_rejections_are_one_config_error_line(argv, capsys):
    # argparse exits on its own, with status 2, as it always has.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err
    assert captured.out == ""
    assert err.startswith("config error: ") and err.endswith("\n") and len(err.splitlines()) == 1
    # The bad value is echoed, cut to 40 characters (its quote included).
    assert "x" * 35 in err and "x" * 41 not in err
    assert len(err.encode()) < 200, err[:100]


@pytest.mark.parametrize(
    "argv, doc",
    [(["alpha-star"], {"players": 40, "u_only": 2, "u_all": 1, "u_none": 0}),
     (["alpha-star"], {"players": 40, "payoffs": {}}),
     (["dominance", "--builtin", "bounded-r2"], {"players": 40, "u_only": 2, "u_all": 1, "u_none": 0})],
    ids=["scalars", "payoffs", "dominance-scalars"],
)
def test_utilities_size_is_checked_before_the_table_is_expanded(argv, doc, tmp_path, capsys,
                                                                 monkeypatch):
    # 40 players would expand to 2**40 vectors per player.
    def expand(*args):
        raise AssertionError("expanded a table of the wrong size")

    monkeypatch.setattr(UtilityTable, "from_scalars", expand)
    path = tmp_path / "utilities.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, "--utilities", str(path)]) == 2
    needed = 2 if argv[0] == "dominance" else 3
    assert capsys.readouterr().err == f"config error: needs a {needed}-player utility table, got 40\n"


def test_rejected_dump_leaves_existing_file_unchanged(tmp_path, capsys):
    path = tmp_path / "earlier.jsonl"
    path.write_bytes(b'{"trial":0}\n')
    argv = ["simulate", "--alpha", "0.5", "--trials", "10", "--seed", "1", "--cap", "0",
            "--dump-transcripts", str(path)]
    assert main(argv) == 2
    assert path.read_bytes() == b'{"trial":0}\n'


@pytest.mark.parametrize(
    "flags",
    [["--deviations", "withhold,garble-step2,bogus"],
     ["--deviations", "withhold,biased-coin:5"],
     ["--deviations", "withhold", "--deviators", "1,4"],
     # A repeat would sample a profile again and print its report keys twice.
     ["--deviations", "withhold,garble-step2,withhold"],
     ["--deviations", "biased-coin,biased-coin:1"],
     ["--deviators", "1,1"],
     ["--deviations", "withhold,withhold", "--deviators", "1,1"],
     # An empty list is not the default list.
     ["--deviations", ""],
     ["--deviators", ""]],
    ids=["unknown-third-spec", "bad-alpha-prime", "deviator-4", "repeated-spec",
         "same-profile-two-specs", "repeated-deviator", "both-repeated",
         "empty-deviations", "empty-deviators"],
)
def test_audit_checks_every_spec_before_sampling(flags, monkeypatch, capsys):
    from ratshare import montecarlo

    calls = []
    real = montecarlo.sample_runs
    monkeypatch.setattr(montecarlo, "sample_runs", lambda *a, **k: calls.append(1) or real(*a, **k))
    argv = ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert calls == []


def test_main_reuses_one_parser_and_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    from ratshare import cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    out = tmp_path / "star.txt"
    simulate = ["simulate", "--alpha", "0.5", "--trials", "200", "--seed", "3"]
    calls = [
        simulate,
        ["dominance", "--builtin", "bounded-r2"],  # players defaults to 2 here, 3 elsewhere
        ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1",
         "--deviations", "withhold"],
        ["--out", str(out), "alpha-star"],
        ["alpha-star"],
        ["simulate", "--alpha", "0.5", "--trials", "many", "--seed", "1"],  # argparse rejects it
        simulate,
    ]
    for argv in calls:
        try:
            fresh = real().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            with pytest.raises(SystemExit) as reused:
                main(argv)
            assert reused.value.code == 2
            capsys.readouterr()
            continue
        assert vars(cli._parser().parse_args(argv)) == vars(fresh)
        expected = result_sections(run_command(fresh).render())
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if fresh.out:
            assert printed == ""
            printed = out.read_text()
        assert result_sections(printed) == expected
    assert builds == [1]


def test_missing_seed_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--alpha", "0.5", "--trials", "10"])
    assert exc.value.code == 2


def test_invariant_violation_exits_three(monkeypatch, capsys):
    from ratshare.cli import montecarlo as cli_montecarlo
    from ratshare.engine import InvariantViolationError

    def explode(*args, **kwargs):
        raise InvariantViolationError("honest players disagree on parity")

    monkeypatch.setattr(cli_montecarlo, "sample_runs", explode)
    code = main(["simulate", "--alpha", "0.5", "--trials", "10", "--seed", "1"])
    assert code == 3
