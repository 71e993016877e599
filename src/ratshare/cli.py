"""Command-line entry point.

Subcommands:
  simulate    seeded mechanism runs: outcome frequencies, step counts
  alpha-star  honesty threshold from a utility table
  audit       Monte Carlo incentive audit of the catalogued deviations
  dominance   iterated deletion on the built-in or a loaded game
  hiding      exhaustive small-field reconstruction and hiding checks,
              refused past 50,000 reconstructions (prime 31 at n = 3)

`simulate` and `audit` take at most 10,000,000 trials (MAX_TRIALS), and
`simulate --dump-transcripts` refuses a dump expected to pass 1 GB
(DUMP_BUDGET_BYTES).

Exit codes: 0 success, 2 configuration error, 3 protocol invariant
violated during a run (should never happen).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

import numpy as np

from . import analysis, dominance, montecarlo
from .engine import DEFAULT_CAP, InvariantViolationError, check_run_config, run_mechanism
from .protocol import STEPS_PER_ITERATION, TerminalCause
from .report import Report
from .shamir import (
    exhaustive_hiding_check,
    exhaustive_round_trip_check,
    is_prime,
    round_trip_reconstructions,
)
from .strategies import UtilityTable, deviation_profile, parse_deviation


# `hiding` enumerates every polynomial over GF(p); past this many
# reconstructions (p = 31, n = 3 makes 33,852) it runs for minutes to hours.
HIDING_BUDGET = 50_000

# The sampler peaks at about 112 bytes per trial, so this many take about
# 1.1 GB.  A dump of this many runs at alpha 0.5 would be about 114 GB of
# JSONL, so dumps have their own bound below.
MAX_TRIALS = 10_000_000

# A dump writes 11.4 KB per trial at alpha 0.5, whose honest runs take 8
# iterations on average: about 1.4 KB per iteration.  A dump expected to
# write more than DUMP_BUDGET_BYTES (about 89,000 trials at alpha 0.5) is
# refused before its file is opened.
BYTES_PER_ITERATION = 1_400
DUMP_BUDGET_BYTES = 10**9

# What a malformed --game or --utilities document can raise while loading.
_BAD_DOCUMENT = (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError)


class ConfigError(ValueError):
    pass


def _create(path: str, what: str):
    """Open `path` for writing; a path that cannot be written is a config error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to {path}: {exc}")


def _load_table(args) -> UtilityTable:
    """The subcommand's utility table, of the size it needs (`args.players`)."""
    if args.utilities:
        try:
            with open(args.utilities) as fh:
                table = UtilityTable.from_doc(json.load(fh))
        except _BAD_DOCUMENT as exc:
            raise ConfigError(f"cannot load utilities from {args.utilities}: {exc}")
    else:
        table = UtilityTable.from_scalars(args.u_only, args.u_all, args.u_none, args.players)
    try:
        return table.require(args.players)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_alpha(args, table: UtilityTable | None) -> float:
    """Parse --alpha; its range is checked by the sampler or the audit."""
    if args.alpha == "auto":
        return analysis.alpha_star(table).global_star / 2
    try:
        return float(args.alpha)
    except ValueError:
        raise ConfigError(f"--alpha must be a number or 'auto', got {args.alpha!r}")


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ConfigError(f"--trials must be at most {MAX_TRIALS:,}, got {trials}")


def _check_dump_size(trials: int, alpha: float, cap: int) -> None:
    """Refuse a dump whose honest runs would write past DUMP_BUDGET_BYTES."""
    iterations = min(cap, analysis.expected_steps(alpha) / STEPS_PER_ITERATION)
    size = trials * iterations * BYTES_PER_ITERATION
    if size > DUMP_BUDGET_BYTES:
        raise ConfigError(
            f"--dump-transcripts of {trials} trials at alpha {alpha} would write about "
            f"{size / 1e9:.3g} GB, over the budget of {DUMP_BUDGET_BYTES / 1e9:g} GB"
        )


def _config_section(report: Report, args, keys: list[str]) -> None:
    section = report.section("config")
    section.add("command", args.command)
    for key in keys:
        section.add(key.replace("_", "-"), getattr(args, key, None))


def _share_record(payload) -> object:
    if hasattr(payload, "to_record"):
        return payload.to_record()
    if isinstance(payload, tuple):
        return [_share_record(item) for item in payload]
    return payload


# `json.dumps(..., separators=...)` builds an encoder per call; dump lines
# share this one.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _jsonl_line(trial: int, epoch: int, msg) -> str:
    """One dump line: `json.dumps` of the message record, byte for byte."""
    payload = msg.payload
    if type(payload) is int:
        payload = str(payload)
    elif payload is None:
        payload = "null"
    else:
        payload = _encode(_share_record(payload))
    return (
        f'{{"trial":{trial},"iteration":{msg.iteration},"epoch":{epoch},'
        f'"step":{int(msg.step)},"kind":{_encode(msg.kind.value)},'
        f'"sender":{msg.sender},"receiver":{msg.receiver},"payload":{payload}}}\n'
    )


def _dumped_runs(fh, trials: int, alpha: float, seed: int, profile, cap: int):
    """Run each trial once with recording on, write its messages, yield its outcome."""
    for t in range(trials):
        outcome = run_mechanism(5, alpha, profile, seed, cap=cap, record=True, trial=t)
        fh.write(
            "".join(
                _jsonl_line(t, transcript.epoch, msg)
                for transcript in outcome.transcripts
                for msg in transcript.messages
            )
        )
        yield outcome


def cmd_simulate(args) -> Report:
    table = None
    if args.alpha == "auto":
        table = _load_table(args)
    alpha = _resolve_alpha(args, table)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    _check_trials(args.trials)
    deviation = deviator = None
    alpha_prime = None
    try:
        if args.deviant:
            head, _, spec = args.deviant.partition(":")
            if not head.isdecimal():
                raise ValueError(f"--deviant must look like PLAYER:NAME, got {args.deviant!r}")
            deviator = int(head)
            deviation, alpha_prime = parse_deviation(spec)
        # Checked before any run, and before a dump file is opened.
        profile = deviation_profile(deviation, deviator, alpha_prime)
        check_run_config(alpha, args.cap)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.dump_transcripts:
        _check_dump_size(args.trials, alpha, args.cap)

    report = Report("simulate")
    _config_section(report, args, ["alpha", "trials", "seed", "cap", "deviant"])

    start = time.perf_counter()
    if args.dump_transcripts:
        # The report counts the very runs the dump records.
        with _create(args.dump_transcripts, "transcripts") as fh:
            runs = _dumped_runs(fh, args.trials, alpha, args.seed, profile, args.cap)
            stats = montecarlo.TrialStats.from_outcomes(runs)
        sampler = "reference-engine"
    else:
        stats = montecarlo.sample_runs(
            alpha, args.trials, args.seed,
            deviation=deviation, deviator=deviator, alpha_prime=alpha_prime, cap=args.cap,
        )
        sampler = "vectorized"
    elapsed = time.perf_counter() - start

    section = report.section("results.simulate")
    section.add("sampler", sampler)
    section.add("resolved-alpha", alpha)
    cause_counts = stats.cause_counts()
    for cause in montecarlo.CAUSE_ORDER:
        count = cause_counts[cause]
        section.add(f"cause.{cause.value}.count", count)
        section.add(f"cause.{cause.value}.fraction", count / args.trials)
    for key, count in sorted(stats.info_histogram().items()):
        section.add(f"info.{key}.count", count)
    section.add("mean-iterations", float(stats.iterations.mean()))
    section.add("mean-total-steps", float(stats.total_steps.mean()))
    section.add("honest-expected-steps", analysis.expected_steps(alpha))
    if deviation is not None:
        absorbed = int(np.count_nonzero(stats.causes != montecarlo.CAUSE_CODE[TerminalCause.ITERATION_CAP_HIT]))
        only = tuple(1 if p == deviator else 0 for p in (1, 2, 3))
        only_count = int(stats.info_histogram()["".join(map(str, only))])
        section.add("deviant.absorbed-count", absorbed)
        section.add(
            "deviant.only-deviator-learned-fraction",
            only_count / absorbed if absorbed else 0.0,
        )
    report.section("timing").add("wall-clock-seconds", elapsed)
    return report


def cmd_alpha_star(args) -> Report:
    table = _load_table(args)
    report = Report("alpha-star")
    _config_section(report, args, ["u_only", "u_all", "u_none", "utilities"])
    start = time.perf_counter()
    result = analysis.alpha_star(table)
    section = report.section("results.alpha_star")
    for player, value in sorted(result.per_player.items()):
        section.add(f"player{player}.ratio", result.ratio[player])
        section.add(f"player{player}.alpha-star", value)
    section.add("global", result.global_star)
    report.section("timing").add("wall-clock-seconds", time.perf_counter() - start)
    return report


def cmd_audit(args) -> Report:
    table = _load_table(args)
    alpha = _resolve_alpha(args, table)
    _check_trials(args.trials)
    deviations = tuple(args.deviations.split(",")) if args.deviations else analysis.DEFAULT_AUDIT_DEVIATIONS
    try:
        deviators = tuple(int(d) for d in args.deviators.split(",")) if args.deviators else (1, 2, 3)
    except ValueError:
        raise ConfigError(f"--deviators must be a comma list of players, got {args.deviators!r}")
    report = Report("audit")
    _config_section(report, args, ["alpha", "trials", "seed", "deviations", "deviators"])
    start = time.perf_counter()
    try:
        audit = analysis.nash_audit(
            alpha, table, deviations=deviations, trials=args.trials,
            seed=args.seed, deviators=deviators, cap=args.cap,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    section = report.section("results.audit")
    section.add("resolved-alpha", alpha)
    for player in sorted({e.deviator for e in audit.entries}):
        section.add(f"baseline.player{player}", table.u_all(player))
    for entry in audit.entries:
        prefix = f"{entry.deviation}.deviator{entry.deviator}"
        section.add(f"{prefix}.mc-estimate", entry.mc_estimate)
        section.add(f"{prefix}.std-error", entry.std_error)
        section.add(f"{prefix}.closed-form", entry.closed_form)
        section.add(f"{prefix}.verdict", entry.verdict)
    section.add("any-profitable", audit.any_profitable)
    report.section("timing").add("wall-clock-seconds", time.perf_counter() - start)
    return report


_SEND_ALL = dominance.bounded_strategy_label(dominance.SEND, (dominance.SEND,) * 3)
# Each builtin game: its builder from the 2-player table, and the
# recommended profile's labels.
BUILTIN_GAMES = {
    "oneshot-2of2": (dominance.build_oneshot_sharing_game, (dominance.SEND, dominance.SEND)),
    "bounded-r1": (partial(dominance.build_bounded_game, 1), (dominance.SEND, dominance.SEND)),
    "bounded-r2": (partial(dominance.build_bounded_game, 2), (_SEND_ALL, _SEND_ALL)),
    "prisoners-dilemma": (lambda table: dominance.prisoners_dilemma(), ("defect", "defect")),
}


def _build_game(args, table: UtilityTable):
    """The game and its recommended labels (None for a loaded game)."""
    if args.game:
        try:
            return dominance.NormalFormGame.load(args.game), None
        except _BAD_DOCUMENT as exc:
            raise ConfigError(f"cannot load game from {args.game}: {exc}")
    build, labels = BUILTIN_GAMES[args.builtin]
    return build(table), labels


def cmd_dominance(args) -> Report:
    table = _load_table(args) if not args.game else None
    report = Report("dominance")
    _config_section(report, args, ["builtin", "game", "u_only", "u_all", "u_none", "profile"])
    start = time.perf_counter()
    game, labels = _build_game(args, table)
    if args.profile:
        labels = args.profile.split(",")
    recommended = None
    if labels is not None:
        if len(labels) != game.n_players:
            raise ConfigError(f"profile needs {game.n_players} strategies")
        try:
            recommended = tuple(game.index(i + 1, lbl) for i, lbl in enumerate(labels))
        except ValueError as exc:
            raise ConfigError(str(exc))
    trace = dominance.iterate_deletion(game)
    section = report.section("results.dominance")
    section.add("game", game.name)
    for k, rnd in enumerate(trace.rounds, start=1):
        for player in sorted(rnd.deleted):
            for sigma, tau in sorted(rnd.deleted[player].items()):
                section.add(
                    f"round{k}.player{player}.deleted",
                    f"{game.label(player, sigma)} (dominated by {game.label(player, tau)})",
                )
    for player in range(1, game.n_players + 1):
        survivors = sorted(game.label(player, s) for s in trace.surviving[player - 1])
        section.add(f"surviving.player{player}", ";".join(survivors))
    section.add("deletion-rounds", trace.deletion_rounds)
    section.add("fixpoint", trace.fixpoint)
    if recommended is not None:
        verdict = dominance.check_practical(game, recommended, trace)
        section.add(
            "recommended",
            ",".join(game.label(i + 1, s) for i, s in enumerate(recommended)),
        )
        section.add("recommended.is-nash", verdict.is_nash)
        section.add("recommended.survives", verdict.survives)
        section.add("recommended.practical", verdict.practical)
        if verdict.nash_witness:
            player, alt = verdict.nash_witness
            section.add("recommended.nash-witness", f"player{player}:{game.label(player, alt)}")
    report.section("timing").add("wall-clock-seconds", time.perf_counter() - start)
    return report


def cmd_hiding(args) -> Report:
    if not (args.prime < 2**64 and is_prime(args.prime)):
        raise ConfigError(f"--prime must be a prime below 2**64, got {args.prime}")
    if not 3 <= args.n < args.prime:
        raise ConfigError(f"--n must satisfy 3 <= n < prime, got n={args.n}")
    work = round_trip_reconstructions(args.prime, args.n)
    if work > HIDING_BUDGET:
        raise ConfigError(
            f"--prime {args.prime} --n {args.n} needs {work} reconstructions, "
            f"over the budget of {HIDING_BUDGET}"
        )
    report = Report("hiding")
    _config_section(report, args, ["prime", "n"])
    start = time.perf_counter()
    section = report.section("results.hiding")
    all_ok = True
    failures = exhaustive_round_trip_check(p=args.prime, n=args.n, thresholds=(1, 2, 3))
    for m, count in sorted(failures.items()):
        section.add(f"m{m}.roundtrip-failures", count)
        all_ok = all_ok and count == 0
    for m in (2, 3):
        uniform = exhaustive_hiding_check(p=args.prime, m=m, n=args.n)
        for size, ok in sorted(uniform.items()):
            section.add(f"m{m}.hiding-subset-size{size}", "uniform" if ok else "NOT-uniform")
            all_ok = all_ok and ok
    section.add("all-pass", all_ok)
    report.section("timing").add("wall-clock-seconds", time.perf_counter() - start)
    return report


def _add_table_flags(parser, players: int = 3) -> None:
    parser.add_argument("--u-only", type=float, default=2.0,
                        help="payoff when only this player learns (default 2)")
    parser.add_argument("--u-all", type=float, default=1.0,
                        help="payoff when everyone learns (default 1)")
    parser.add_argument("--u-none", type=float, default=0.0,
                        help="payoff when nobody learns (default 0)")
    parser.add_argument("--utilities", metavar="FILE",
                        help="JSON utility table (overrides the scalar flags)")
    parser.set_defaults(players=players)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratshare",
        description="Rational secret sharing: simulation, incentives, dominance.",
    )
    parser.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded mechanism trials")
    p.add_argument("--alpha", required=True, help="coin bias in (0, 1], or 'auto' for alpha*/2")
    p.add_argument("--trials", type=int, default=10_000,
                   help=f"number of runs, at most {MAX_TRIALS:,}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="iteration cap per run")
    p.add_argument("--deviant", metavar="PLAYER:NAME[:PARAM]",
                   help="one player deviates (e.g. 1:withhold, 2:biased-coin:0.9)")
    p.add_argument("--dump-transcripts", metavar="FILE",
                   help="write the JSONL message stream (uses the reference engine; "
                   f"refused when expected to pass {DUMP_BUDGET_BYTES / 1e9:g} GB)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("alpha-star", help="honesty threshold from a utility table")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_alpha_star)

    p = sub.add_parser("audit", help="Monte Carlo incentive audit")
    p.add_argument("--alpha", required=True, help="coin bias in (0, 1), or 'auto' for alpha*/2")
    p.add_argument("--trials", type=int, default=100_000,
                   help=f"runs per deviation and deviator, at most {MAX_TRIALS:,}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--deviations", help="comma list (default: full catalogue)")
    p.add_argument("--deviators", help="comma list of players (default: 1,2,3)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("dominance", help="iterated deletion of weakly dominated strategies")
    p.add_argument("--builtin", choices=list(BUILTIN_GAMES), default="oneshot-2of2")
    p.add_argument("--game", metavar="FILE", help="load a game document instead of a builtin")
    p.add_argument("--profile", metavar="S1,S2", help="recommended profile to check")
    _add_table_flags(p, players=2)
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser(
        "hiding",
        help="exhaustive small-field sharing checks",
        description="Enumerate every polynomial over GF(prime) to check reconstruction "
        f"and hiding.  Inputs needing more than {HIDING_BUDGET:,} reconstructions "
        "(prime 31 is the largest accepted at n = 3) are refused.",
    )
    p.add_argument("--prime", type=int, default=7)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(handler=cmd_hiding)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args).render()
        if args.out:
            with _create(args.out, "the report") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
