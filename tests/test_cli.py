"""Command-line interface: reports, determinism, exit codes."""

import hashlib
import json
from random import Random

import pytest

from ratshare.cli import _jsonl_line, _share_record, build_parser, main
from ratshare.protocol import MessageKind, RoundMessage, Step
from ratshare.shamir import FieldElement, ShareIssuer


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    prisoners_dilemma().save(path)
    code, out = run_cli(
        capsys, "dominance", "--game", str(path), "--profile", "defect,defect"
    )
    assert code == 0
    assert "recommended.practical = true" in out


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
# still compared Fractions pair by pair.
GOLDEN_DOMINANCE = {
    "oneshot-2of2": "098837cf9fd51c22ed659994022325bc46656bfc3163b289a24ac1239e65d725",
    "bounded-r1": "8e8066355170d6214e66e3d9cc285b839acdb1d5e08c749ddedee9cc775882f4",
    "bounded-r2": "257e845954627336c8f1fb34bb104e8e98d3724033bbee119e3a3400cc43432c",
    "prisoners-dilemma": "c67c0843fa094d029c8f9209349bd4456b8a2f7850c65c67973aaea8423ba3cd",
    "ties-and-floats": "6ccb8dc1c3819803b0defe7b68f9bcee336093dfb13ceb29cb5b38e3b8589bc8",
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
    digest = hashlib.sha256(args.handler(args).result_text().encode()).hexdigest()
    assert digest == GOLDEN_DOMINANCE[name]


def test_hiding_command(capsys):
    code, out = run_cli(capsys, "hiding")
    assert code == 0
    assert "all-pass = true" in out
    assert "m2.hiding-subset-size1 = uniform" in out


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
# `simulate --alpha 0.5 --trials 5 --seed 3 --dump-transcripts FILE [--deviant ...]`,
# recorded before the dump and the report shared one engine pass.
GOLDEN_DUMPS = {
    None: (
        "22c238089872d671002571280d034a5c394395229b83e53be161fc7679987b9a",
        "63cb087ce29a147d1fdc724adbe1ca99d7d8369585ca419cd71779ee2d9a6d51",
    ),
    "2:garble-step2": (
        "b43240cd30be86493c0be2a00aab23a6ff5d25b588fdb5286913b27540a8f8cf",
        "168f790bf1a04619dca6674a367c3de05ee2bbf073f36967e11097f571fe3b55",
    ),
    "1:always-silent": (
        "5637afd895160630f3ab8f5cc0c154144716523d3645fafb51e26c7f7bcd983f",
        "c326265cb1309f905f85fb846a09e16b159710bdc0c70a5caeafeb481709bbd6",
    ),
    "3:withhold": (
        "8e7f57df1b814084896b28d5b91f3a22d9a19f27e315d5b8d7bb7704bb0ef658",
        "6d2934bda959c96b60a9ba0b835f8d0a1508d584bf3e3c4bb334023ad4e4d7d6",
    ),
    "2:biased-coin:0.3": (
        "37a346032e2ba7c799faa05d5fe42f418e6f6c331e0130ef61552c465a128908",
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
    report = args.handler(args)
    dump_digest, report_digest = GOLDEN_DUMPS[deviant]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == dump_digest
    assert hashlib.sha256(report.result_text().encode()).hexdigest() == report_digest


def _payloads() -> dict:
    issuer = ShareIssuer(b"line", modulus=101)
    shares = issuer.issue_shares(FieldElement(9, 101), 2, 3, 4, Random(0))
    return {
        "zero": 0, "one": 1, "int": 7, "none": None, "true": True, "false": False,
        "str": "text", "float": 0.25, "share": shares[1], "share-tuple": tuple(shares),
        "subshare-tuple": tuple(issuer.split_subshares(shares[0], 3, Random(1))),
        "mixed-tuple": (0, None),
    }


PAYLOADS = _payloads()


@pytest.mark.parametrize("name", list(PAYLOADS))
def test_jsonl_line_is_json_dumps_of_the_record(name):
    payload = PAYLOADS[name]
    for kind in MessageKind:
        msg = RoundMessage(2, 3, Step.BROADCAST, kind, payload, 11)
        record = {
            "trial": 6,
            "iteration": msg.iteration,
            "epoch": 4,
            "step": int(msg.step),
            "kind": msg.kind.value,
            "sender": msg.sender,
            "receiver": msg.receiver,
            "payload": _share_record(payload),
        }
        assert _jsonl_line(6, 4, msg) == json.dumps(record, separators=(",", ":")) + "\n"


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
        ["alpha-star", "--utilities", 'DOC:{"players": 3, "payoffs": {"1": [1, 2]}}'],
        ["alpha-star", "--utilities", "DOC:[]"],
        # Fields too large to enumerate.
        ["hiding", "--prime", "1009"],
        ["hiding", "--prime", "2305843009213693951"],
        ["hiding", "--prime", "13", "--n", "12"],
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
        # More trials than fit in memory; rejected before anything is allocated.
        ["simulate", "--alpha", "0.5", "--trials", "100000000000000000000", "--seed", "1"],
        ["simulate", "--alpha", "0.5", "--trials", "10000001", "--seed", "1"],
        ["simulate", "--alpha", "0.5", "--trials", "100000000000000000000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["audit", "--alpha", "0.25", "--trials", "100000000000000000000", "--seed", "1"],
        # Dumps expected to write past DUMP_BUDGET_BYTES (11, 14 and 14 GB).
        ["simulate", "--alpha", "0.5", "--trials", "1000000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["simulate", "--alpha", "0.1", "--trials", "10000", "--seed", "1",
         "--dump-transcripts", "DUMP"],
        ["simulate", "--alpha", "0.1", "--trials", "10000000", "--seed", "1", "--cap", "1",
         "--dump-transcripts", "DUMP"],
    ],
    ids=[
        "audit-deviators-x", "trials-0", "trials-negative", "hiding-prime-8", "hiding-n-9",
        "cap-0-vectorized", "cap-0-dump", "dump-no-dir", "out-no-dir", "game-strategies-int",
        "game-list", "game-strategies-strings", "game-payoff-string", "game-duplicate-labels",
        "game-payoff-infinite", "utilities-payoff-list", "utilities-list", "hiding-prime-1009",
        "hiding-prime-2to61", "hiding-n-12", "alpha-star-1-player-scalars",
        "alpha-star-1-player-payoffs", "alpha-star-0-players", "alpha-star-4-players",
        "audit-2-players", "audit-4-players", "simulate-auto-1-player", "dominance-oneshot-3-players",
        "dominance-bounded-r2-3-players", "trials-1e20", "trials-over-bound", "trials-1e20-dump",
        "audit-trials-1e20", "dump-over-budget", "dump-over-budget-low-alpha",
        "dump-over-budget-cap-1",
    ],
)
def test_bad_input_exits_two_with_one_line(argv, tmp_path, capsys):
    def materialize(arg):
        if arg == "DUMP":
            return str(tmp_path / "dump.jsonl")
        if arg == "NODIR":
            return str(tmp_path / "no-such-dir" / "file")
        if arg.startswith("DOC:"):
            path = tmp_path / "doc.json"
            path.write_text(arg[len("DOC:"):])
            return str(path)
        return arg

    assert main([materialize(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "dump.jsonl").exists()


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
     ["--deviations", "withhold", "--deviators", "1,4"]],
    ids=["unknown-third-spec", "bad-alpha-prime", "deviator-4"],
)
def test_audit_checks_every_spec_before_sampling(flags, monkeypatch, capsys):
    from ratshare import montecarlo

    calls = []
    real = montecarlo.sample_runs
    monkeypatch.setattr(montecarlo, "sample_runs", lambda *a, **k: calls.append(1) or real(*a, **k))
    argv = ["audit", "--alpha", "0.25", "--trials", "10000", "--seed", "1", *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert calls == []


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
