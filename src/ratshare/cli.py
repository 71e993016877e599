"""Command-line entry point.

Subcommands:
  simulate    seeded mechanism runs: outcome frequencies, step counts
  alpha-star  honesty threshold from a utility table
  audit       Monte Carlo incentive audit of the catalogued deviations
  dominance   iterated deletion on the built-in or a loaded game
  hiding      exhaustive GF(7) reconstruction and hiding checks

Exit codes: 0 success, 2 configuration error, 3 protocol invariant
violated during a run (should never happen).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import analysis, dominance, montecarlo
from .engine import DEFAULT_CAP, InvariantViolationError, run_mechanism
from .protocol import TerminalCause
from .report import Report
from .shamir import exhaustive_hiding_check, exhaustive_round_trip_check, is_prime
from .strategies import UtilityTable, deviation_profile, parse_deviation, validate_utilities


class ConfigError(ValueError):
    pass


def _load_table(args) -> UtilityTable:
    if getattr(args, "utilities", None):
        try:
            with open(args.utilities) as fh:
                table = UtilityTable.from_doc(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load utilities from {args.utilities}: {exc}")
    else:
        players = getattr(args, "players", 3)
        table = UtilityTable.from_scalars(args.u_only, args.u_all, args.u_none, players)
    report = validate_utilities(table)
    if not report.ok:
        first = report.violations[0]
        raise ConfigError(
            f"utility table violates {first[0]} for player {first[1]} "
            f"({len(report.violations)} violations total)"
        )
    return table


def _resolve_alpha(args, table: UtilityTable | None) -> float:
    if args.alpha == "auto":
        if table is None:
            raise ConfigError("--alpha auto requires a utility table")
        return analysis.alpha_star(table).global_star / 2
    try:
        alpha = float(args.alpha)
    except ValueError:
        raise ConfigError(f"--alpha must be a number or 'auto', got {args.alpha!r}")
    if not 0 < alpha <= 1:
        raise ConfigError(f"--alpha must be in (0, 1], got {alpha}")
    return alpha


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


def _dump_transcripts(path: str, trials: int, alpha: float, seed: int, profile, cap: int) -> None:
    with open(path, "w") as fh:
        for t in range(trials):
            outcome = run_mechanism(5, alpha, profile, seed, cap=cap, record=True, trial=t)
            for transcript in outcome.transcripts:
                for msg in transcript.messages:
                    fh.write(
                        json.dumps(
                            {
                                "trial": t,
                                "iteration": msg.iteration,
                                "epoch": transcript.epoch,
                                "step": int(msg.step),
                                "kind": msg.kind.value,
                                "sender": msg.sender,
                                "receiver": msg.receiver,
                                "payload": _share_record(msg.payload),
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )


def cmd_simulate(args) -> Report:
    table = None
    if args.alpha == "auto":
        table = _load_table(args)
    alpha = _resolve_alpha(args, table)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    deviation = deviator = None
    alpha_prime = None
    if args.deviant:
        head, _, spec = args.deviant.partition(":")
        try:
            deviator = int(head)
        except ValueError:
            raise ConfigError(f"--deviant must look like PLAYER:NAME, got {args.deviant!r}")
        if deviator not in (1, 2, 3):
            raise ConfigError("--deviant player must be 1, 2, or 3")
        try:
            deviation, alpha_prime = parse_deviation(spec)
        except ValueError as exc:
            raise ConfigError(str(exc))

    report = Report("simulate")
    _config_section(report, args, ["alpha", "trials", "seed", "cap", "deviant"])

    start = time.perf_counter()
    sample = montecarlo.sample_runs_reference if args.dump_transcripts else montecarlo.sample_runs
    try:
        stats = sample(
            alpha, args.trials, args.seed,
            deviation=deviation, deviator=deviator, alpha_prime=alpha_prime, cap=args.cap,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.dump_transcripts:
        profile = deviation_profile(deviation, deviator, alpha_prime)
        _dump_transcripts(args.dump_transcripts, args.trials, alpha, args.seed, profile, args.cap)
        sampler = "reference-engine"
    else:
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
        gain = table.u_only(player) - table.u_all(player)
        loss = table.u_all(player) - table.u_none(player)
        section.add(f"player{player}.ratio", loss / gain)
        section.add(f"player{player}.alpha-star", value)
    section.add("global", result.global_star)
    report.section("timing").add("wall-clock-seconds", time.perf_counter() - start)
    return report


def cmd_audit(args) -> Report:
    table = _load_table(args)
    alpha = _resolve_alpha(args, table)
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


BUILTIN_GAMES = ("oneshot-2of2", "bounded-r1", "bounded-r2", "prisoners-dilemma")


def _build_game(args, table: UtilityTable):
    if args.game:
        try:
            return dominance.NormalFormGame.load(args.game), None
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"cannot load game from {args.game}: {exc}")
    if args.builtin == "oneshot-2of2":
        game = dominance.build_oneshot_sharing_game(table)
        recommended = (game.index(1, dominance.SEND), game.index(2, dominance.SEND))
    elif args.builtin == "bounded-r1":
        game = dominance.build_bounded_game(1, table)
        recommended = (game.index(1, dominance.SEND), game.index(2, dominance.SEND))
    elif args.builtin == "bounded-r2":
        game = dominance.build_bounded_game(2, table)
        send_all = dominance.bounded_strategy_label(
            dominance.SEND, (dominance.SEND,) * 3
        )
        recommended = (game.index(1, send_all), game.index(2, send_all))
    elif args.builtin == "prisoners-dilemma":
        game = dominance.prisoners_dilemma()
        recommended = (game.index(1, "defect"), game.index(2, "defect"))
    else:
        raise ConfigError(f"unknown builtin game {args.builtin!r}")
    return game, recommended


def cmd_dominance(args) -> Report:
    table = _load_table(args) if not args.game else None
    report = Report("dominance")
    _config_section(report, args, ["builtin", "game", "u_only", "u_all", "u_none", "profile"])
    start = time.perf_counter()
    game, recommended = _build_game(args, table)
    if args.profile:
        labels = args.profile.split(",")
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
        verdict = dominance.check_practical(game, recommended)
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
    if not is_prime(args.prime):
        raise ConfigError(f"--prime must be prime, got {args.prime}")
    if not 3 <= args.n < args.prime:
        raise ConfigError(f"--n must satisfy 3 <= n < prime, got n={args.n}")
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
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="iteration cap per run")
    p.add_argument("--deviant", metavar="PLAYER:NAME[:PARAM]",
                   help="one player deviates (e.g. 1:withhold, 2:biased-coin:0.9)")
    p.add_argument("--dump-transcripts", metavar="FILE",
                   help="write the JSONL message stream (uses the reference engine)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("alpha-star", help="honesty threshold from a utility table")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_alpha_star)

    p = sub.add_parser("audit", help="Monte Carlo incentive audit")
    p.add_argument("--alpha", required=True, help="coin bias in (0, 1), or 'auto' for alpha*/2")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--deviations", help="comma list (default: full catalogue)")
    p.add_argument("--deviators", help="comma list of players (default: 1,2,3)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("dominance", help="iterated deletion of weakly dominated strategies")
    p.add_argument("--builtin", choices=BUILTIN_GAMES, default="oneshot-2of2")
    p.add_argument("--game", metavar="FILE", help="load a game document instead of a builtin")
    p.add_argument("--profile", metavar="S1,S2", help="recommended profile to check")
    _add_table_flags(p, players=2)
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser("hiding", help="exhaustive small-field sharing checks")
    p.add_argument("--prime", type=int, default=7)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(handler=cmd_hiding)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    text = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
