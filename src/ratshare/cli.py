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
(DUMP_BUDGET_BYTES): the messages of each kind that the iteration kernel
expects a run of the dumped profile to send, each at its widest line.
That size is an expectation, not a bound, so a small dump can write
somewhat more.  The dump runs each trial once through the engine and
hands its messages to `ratshare.transcript`, which owns the format.

`run_command` builds every report around the results section a
subcommand's handler returns: [config] echoes the flags, and [timing]
covers the whole handler.

Exit codes: 0 success, 2 configuration error, 3 protocol invariant
violated during a run (should never happen).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, partial

from . import analysis, dominance, montecarlo, transcript
from .engine import DEFAULT_CAP, InvariantViolationError, check_run_config, run_mechanism
from .protocol import MessageKind, TerminalCause
from .report import Report, Section
from .shamir import (
    exhaustive_hiding_check,
    exhaustive_round_trip_check,
    is_prime,
    round_trip_reconstructions,
)
from .strategies import (
    TableSizeError, UtilityTable, deviation_profile, info_key, parse_deviation, parse_payoff,
)


# `hiding` enumerates every polynomial over GF(p) at 13-21 us per
# reconstruction (p = 31, n = 3 makes 33,852 in 0.44-0.72 s on a 2-CPU
# Xeon).  The count grows as p^3: a prime near 100 would take 15-25 s and
# one near 1,000 four to six hours, so larger inputs are refused.
HIDING_BUDGET = 50_000

# `simulate` on the vectorized sampler peaks at about 34 bytes per trial
# above the import baseline (ru_maxrss of a fresh process: 33.5 at 2*10**6
# trials, 32.3 at 10**7, alpha 0.5), so this many take about 0.34 GB.  A
# dump of this many runs at alpha 0.5 would be about 130 GB of JSONL, so
# dumps have their own bound below.
MAX_TRIALS = 10_000_000

# A dump expected to write more than this is refused before its file is
# opened: about 71,000 honest trials at alpha 0.5 and 640 at alpha 0.1.
DUMP_BUDGET_BYTES = 10**9

TABLE_DEFAULTS = {"u_only": 2.0, "u_all": 1.0, "u_none": 0.0}
# The [config] keys that name the utility table a command analysed.
TABLE_KEYS = "u_only u_all u_none utilities"

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
    """The subcommand's utility table, of the size it needs (`args.players`).

    The scalar flags are parsed by `parse_payoff`, and their exact values
    replace the flags' text, so [config] echoes them like floats.
    """
    if args.utilities:
        try:
            with open(args.utilities) as fh:
                table = UtilityTable.from_doc(json.load(fh), args.players)
        except TableSizeError as exc:
            raise ConfigError(str(exc))
        except _BAD_DOCUMENT as exc:
            raise ConfigError(f"cannot load utilities from {args.utilities}: {exc}")
    else:
        try:
            for dest in TABLE_DEFAULTS:
                flag = f"--{dest.replace('_', '-')}"
                setattr(args, dest, parse_payoff(getattr(args, dest), flag))
        except ValueError as exc:
            raise ConfigError(str(exc))
        table = UtilityTable.from_scalars(args.u_only, args.u_all, args.u_none, args.players)
    try:
        return table.require(args.players)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_alpha(args, table: UtilityTable | None) -> float:
    """Parse --alpha; its range is checked by the sampler or the audit."""
    if args.alpha == "auto":
        alpha = analysis.alpha_star(table).global_star / 2
        if alpha == 0:
            raise ConfigError("--alpha auto found an alpha* below the float range; give --alpha")
        return alpha
    try:
        return float(args.alpha)
    except ValueError:
        raise ConfigError(f"--alpha must be a number or 'auto', got {args.alpha!r}")


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ConfigError(f"--trials must be at most {MAX_TRIALS:,}, got {trials}")


def _dump_size(trials: int, alpha: float, cap: int, deviation, deviator, profile) -> float:
    """Expected dump bytes: the messages of each kind a run under `profile` is
    expected to send (`montecarlo.expected_run`), each at its widest line.

    An expectation, not a bound: sampling noise lets a small dump pass it
    (over seeds 0-9, 40-trial dumps at alpha 0.5 wrote up to 1.05 times it
    for honest play and 1.21 times for biased-coin:0.2)."""
    kernel = montecarlo.iteration_kernel(deviation, deviator)
    _, sent = montecarlo.expected_run(alpha, profile, kernel, cap)
    return trials * sum(count * transcript.LINE_BYTES[kind] for kind, count in zip(MessageKind, sent))


def _dumped_runs(fh, trials: int, alpha: float, seed: int, profile, cap: int):
    """Run each trial once with recording on, write its messages, yield its outcome."""
    for t in range(trials):
        outcome = run_mechanism(5, alpha, profile, seed, cap=cap, record=True, trial=t)
        transcript.write(fh, t, outcome)
        yield outcome


def cmd_simulate(args) -> Section:
    table = None
    if args.alpha == "auto":
        table = _load_table(args)
        args.config_keys = f"{args.config_keys} {TABLE_KEYS}"
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
        size = _dump_size(args.trials, alpha, args.cap, deviation, deviator, profile)
        if size > DUMP_BUDGET_BYTES:
            raise ConfigError(
                f"--dump-transcripts of {args.trials} trials at alpha {alpha} would write about "
                f"{size / 1e9:.3g} GB, over the budget of {DUMP_BUDGET_BYTES / 1e9:g} GB"
            )
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

    section = Section("results.simulate")
    section.add("sampler", sampler)
    section.add("resolved-alpha", alpha)
    cause_counts = stats.cause_counts()
    for cause in montecarlo.CAUSE_ORDER:
        count = cause_counts[cause]
        section.add(f"cause.{cause.value}.count", count)
        section.add(f"cause.{cause.value}.fraction", count / args.trials)
    histogram = stats.info_histogram()
    for key, count in sorted(histogram.items()):
        section.add(f"info.{key}.count", count)
    section.add("mean-iterations", float(stats.iterations.mean()))
    section.add("mean-total-steps", float(stats.total_steps.mean()))
    section.add("honest-expected-steps", analysis.expected_steps(alpha))
    if deviation is not None:
        absorbed = args.trials - cause_counts[TerminalCause.ITERATION_CAP_HIT]
        only_count = histogram[info_key(tuple(int(p == deviator) for p in (1, 2, 3)))]
        section.add("deviant.absorbed-count", absorbed)
        section.add(
            "deviant.only-deviator-learned-fraction",
            only_count / absorbed if absorbed else 0.0,
        )
    return section


def cmd_alpha_star(args) -> Section:
    result = analysis.alpha_star(_load_table(args))
    section = Section("results.alpha_star")
    for player, value in sorted(result.per_player.items()):
        section.add(f"player{player}.ratio", result.ratio[player])
        section.add(f"player{player}.alpha-star", value)
    section.add("global", result.global_star)
    return section


def cmd_audit(args) -> Section:
    table = _load_table(args)
    alpha = _resolve_alpha(args, table)
    _check_trials(args.trials)
    # An empty list is a list with one empty entry, rejected like "withhold,".
    if args.deviations is None:
        deviations = analysis.DEFAULT_AUDIT_DEVIATIONS
    else:
        deviations = tuple(args.deviations.split(","))
    try:
        deviators = (1, 2, 3) if args.deviators is None else tuple(int(d) for d in args.deviators.split(","))
    except ValueError:
        raise ConfigError(f"--deviators must be a comma list of players, got {args.deviators!r}")
    try:
        audit = analysis.nash_audit(
            alpha, table, deviations=deviations, trials=args.trials,
            seed=args.seed, deviators=deviators, cap=args.cap,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    section = Section("results.audit")
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
    return section


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


# `dominance` parses these with no default, so it can tell a given flag from
# an absent one: with --game a given one is an error, since a loaded game
# uses neither a builtin nor a utility table.  The defaults are filled in
# here, so the [config] echo is the same as with parser defaults.
_DOMINANCE_DEFAULTS = {"builtin": "oneshot-2of2", **TABLE_DEFAULTS}


def cmd_dominance(args) -> Section:
    if args.game:
        given = [f"--{dest.replace('_', '-')}" for dest in (*_DOMINANCE_DEFAULTS, "utilities")
                 if getattr(args, dest) is not None]
        if given:
            raise ConfigError(f"--game cannot be combined with {', '.join(given)}")
    for dest, value in _DOMINANCE_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    table = _load_table(args) if not args.game else None
    game, labels = _build_game(args, table)
    if args.profile is not None:
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
    section = Section("results.dominance")
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
    return section


def cmd_hiding(args) -> Section:
    if not (args.prime < 2**64 and is_prime(args.prime)):
        raise ConfigError(f"--prime must be a prime below 2**64, got {args.prime}")
    if not 3 <= args.n < args.prime:
        raise ConfigError(f"--n must satisfy 3 <= n < prime, got n={args.n}")
    # Threshold 1 alone recovers p > n polynomials from each of 2**n - 1
    # subsets, so past this n the count is over budget before it is summed.
    if args.n >= HIDING_BUDGET.bit_length():
        raise ConfigError(
            f"--n {args.n} needs more than 2**{args.n} - 1 reconstructions, "
            f"over the budget of {HIDING_BUDGET}"
        )
    work = round_trip_reconstructions(args.prime, args.n)
    if work > HIDING_BUDGET:
        raise ConfigError(
            f"--prime {args.prime} --n {args.n} needs {work} reconstructions, "
            f"over the budget of {HIDING_BUDGET}"
        )
    section = Section("results.hiding")
    all_ok = True
    failures = exhaustive_round_trip_check(p=args.prime, n=args.n)
    for m, count in sorted(failures.items()):
        section.add(f"m{m}.roundtrip-failures", count)
        all_ok = all_ok and count == 0
    for m in (2, 3):
        uniform = exhaustive_hiding_check(p=args.prime, m=m, n=args.n)
        for size, ok in sorted(uniform.items()):
            section.add(f"m{m}.hiding-subset-size{size}", "uniform" if ok else "NOT-uniform")
            all_ok = all_ok and ok
    section.add("all-pass", all_ok)
    return section


def _add_table_flags(parser, players: int = 3) -> None:
    parser.add_argument("--u-only", default=TABLE_DEFAULTS["u_only"],
                        help="payoff when only this player learns, a number or a "
                        "rational such as 1/3 (default 2)")
    parser.add_argument("--u-all", default=TABLE_DEFAULTS["u_all"],
                        help="payoff when everyone learns (default 1)")
    parser.add_argument("--u-none", default=TABLE_DEFAULTS["u_none"],
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
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="iteration cap per run, at most 2**53")
    p.add_argument("--deviant", metavar="PLAYER:NAME[:PARAM]",
                   help="one player deviates (e.g. 1:withhold, 2:biased-coin:0.9)")
    p.add_argument("--dump-transcripts", metavar="FILE",
                   help="write the JSONL message stream (uses the reference engine; "
                   f"refused when expected to pass {DUMP_BUDGET_BYTES / 1e9:g} GB)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_simulate, config_keys="alpha trials seed cap deviant")

    p = sub.add_parser("alpha-star", help="honesty threshold from a utility table")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_alpha_star, config_keys=TABLE_KEYS)

    p = sub.add_parser("audit", help="Monte Carlo incentive audit")
    p.add_argument("--alpha", required=True, help="coin bias in (0, 1), or 'auto' for alpha*/2")
    p.add_argument("--trials", type=int, default=100_000,
                   help=f"runs per deviation and deviator, at most {MAX_TRIALS:,}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="iteration cap per run, at most 2**53")
    p.add_argument("--deviations", help="comma list (default: full catalogue)")
    p.add_argument("--deviators", help="comma list of players (default: 1,2,3)")
    _add_table_flags(p)
    p.set_defaults(handler=cmd_audit, config_keys=f"alpha trials seed deviations deviators {TABLE_KEYS}")

    p = sub.add_parser("dominance", help="iterated deletion of weakly dominated strategies")
    p.add_argument("--builtin", choices=list(BUILTIN_GAMES),
                   help="built-in game (default oneshot-2of2)")
    p.add_argument("--game", metavar="FILE",
                   help="load a game document instead of a builtin (takes no table flag)")
    p.add_argument("--profile", metavar="S1,S2", help="recommended profile to check")
    _add_table_flags(p, players=2)
    p.set_defaults(**dict.fromkeys(_DOMINANCE_DEFAULTS))
    p.set_defaults(handler=cmd_dominance, config_keys="builtin game u_only u_all u_none profile")

    p = sub.add_parser(
        "hiding",
        help="exhaustive small-field sharing checks",
        description="Enumerate every polynomial over GF(prime) to check reconstruction "
        f"and hiding.  Inputs needing more than {HIDING_BUDGET:,} reconstructions "
        "(prime 31 is the largest accepted at n = 3) are refused.",
    )
    p.add_argument("--prime", type=int, default=7)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(handler=cmd_hiding, config_keys="prime n")

    return parser


def run_command(args) -> Report:
    """The report of one command: [config], the handler's results, [timing].

    [config] echoes the flags named in `args.config_keys`, a --utilities file
    replacing the scalar table flags it overrides; [timing] covers the whole handler.
    """
    start = time.perf_counter()
    results = args.handler(args)
    elapsed = time.perf_counter() - start
    report = Report(args.command)
    config = report.section("config").add("command", args.command)
    keys = args.config_keys.split()
    if getattr(args, "utilities", None):
        keys = ["utilities" if k == "u_only" else k for k in keys
                if k not in ("u_all", "u_none", "utilities")]
    for key in keys:
        config.add(key.replace("_", "-"), getattr(args, key, None))
    report.sections.append(results)
    report.section("timing").add("wall-clock-seconds", elapsed)
    return report


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and reused by the rest.

    Parsing leaves the parser as it was: each call gets a fresh namespace
    filled from the defaults of the subcommand it names.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = run_command(args).render()
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
