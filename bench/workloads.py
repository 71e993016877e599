"""The three benchmark workloads: commands, seed-derived inputs and output checks.

Every workload runs three timed commands against the public entry points
(`ratshare.cli.main`, `lift_m_of_n`, `lift_2_of_n`), one after another in
this process.  A workload has `INPUT_SETS` input sets; every CLI seed,
trial index and generated file of set i comes from the workload seed and
i only.  The three commands of a workload report as `cmd1_ref`, `cmd2_ref`
and `cmd3_ref`; `Command.label` names the user-facing figure each one
stands for.  Sizes below are per input set.

- sampler: vectorized Monte Carlo only.  Honest `simulate` at alpha 0.5
  (short trials) and at alpha 0.1 (about 1000 iterations each), then
  `audit --alpha auto` (many trials that absorb in about 2 iterations).
- engine: message-level execution only.  `simulate --dump-transcripts`
  (record=False, then record=True and JSONL writing), then 3-of-6 and
  2-of-5 lifts with record=False.
- exact: exhaustive and exact-rational work.  `hiding --prime 13`,
  `dominance --game` on seed-generated traveler's dilemmas, then
  `dominance --builtin bounded-r2` and `alpha-star`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from travelers import travelers_dilemma

SECRET = 5

# On a shared host whose CPU speed swings, the fastest of several short
# commands is steadier than the fastest of a few long ones; summing over
# many input sets averages out how much work each seed happens to draw.
INPUT_SETS = 16
SAMPLER_TRIALS = 20_000  # simulate at alpha 0.5
SAMPLER_LOWALPHA_TRIALS = 300  # simulate at alpha 0.1
AUDIT_TRIALS = 10_000  # the audit's minimum, per deviation and deviator
DUMP_TRIALS = 50
MOFN_RUNS = 40  # lift_m_of_n(m=3, n=6)
TWOOFN_RUNS = 20  # lift_2_of_n(n=5)
HIDING_PRIME = 13
# The cost of deletion depends on the seeded label order by about 25%
# per game, so each set runs several games.
TRAVELER_GAMES = 3
TRAVELER_CLAIMS = 20

# A sampled mean further than this many standard errors from its closed
# form fails the check (two-sided probability about 6e-7 per check).
SE_LIMIT = 5.0

JSONL_KEYS = {"trial", "iteration", "epoch", "step", "kind", "sender", "receiver", "payload"}


@dataclass
class Command:
    metric: str  # the end-to-end metric of this command
    label: str  # the user-facing figure it stands for
    work: int | None  # trials or runs per command when `label` is a rate
    run: Callable[[], tuple[str, object]]  # -> (digest material, payload to check)
    check: Callable[[object], list[str]]  # -> problems, empty when correct
    # Checks the payloads of every input set together, where one set is too small.
    pooled: Callable[[list], list[str]] | None = None


def derive_seed(seed: int, *path) -> int:
    """A 63-bit seed for one command, from the workload seed only."""
    text = "/".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


# --- running the CLI ------------------------------------------------------------


@dataclass
class CliResult:
    argv: list[str]
    code: int
    text: str
    error: str

    def result_text(self) -> str:
        """Report.result_text() of the rendered report: all but [timing]."""
        head, sep, _ = self.text.partition("\n\n[timing]\n")
        return head + "\n" if sep else self.text

    def fields(self) -> dict[str, str]:
        out = {}
        for line in self.result_text().splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                out[key] = value
        return out


def call_cli(mods, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(argv, code, out.getvalue(), err.getvalue())


def cli_command(metric, label, work, mods, argv, check, pooled=None) -> Command:
    def run():
        result = call_cli(mods, argv)
        return result.result_text(), result

    return Command(metric, label, work, run, lambda r: _cli_problems(r) or check(r), pooled)


def _cli_problems(result: CliResult) -> list[str]:
    if result.code != 0:
        return [f"{' '.join(result.argv)} exited {result.code}: {result.error.strip()[:200]}"]
    return []


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _expect(f: dict[str, str], key: str, value: str) -> list[str]:
    got = f.get(key)
    return [] if got == value else [f"{key} = {got}, expected {value}"]


# --- checks ---------------------------------------------------------------------


def check_honest_simulate(alpha: float, trials: int, sampler: str):
    """All trials end all-learned; mean steps within SE_LIMIT SEs of 5/alpha^3."""
    p = alpha**3
    closed = 5 / p
    # Iterations are geometric with success probability alpha^3.
    se = 5 * math.sqrt(1 - p) / p / math.sqrt(trials)

    def check(result: CliResult) -> list[str]:
        f = result.fields()
        problems = _expect(f, "sampler", sampler)
        problems += _expect(f, "cause.AllLearned.fraction", "1")
        problems += _expect(f, "cause.AllLearned.count", str(trials))
        mean = float(f.get("mean-total-steps", "nan"))
        if not abs(mean - closed) <= SE_LIMIT * se:
            problems.append(f"mean-total-steps {mean} vs 5/alpha^3 = {closed} (SE {se:.4g})")
        if not _close(float(f.get("honest-expected-steps", "nan")), closed):
            problems.append(f"honest-expected-steps = {f.get('honest-expected-steps')}")
        return problems

    return check


def pooled_steps(alpha: float, trials: int):
    """Mean steps over all input sets within SE_LIMIT pooled SEs of 5/alpha^3."""
    p = alpha**3
    closed = 5 / p

    def check(results: list[CliResult]) -> list[str]:
        means = [float(r.fields().get("mean-total-steps", "nan")) for r in results]
        mean = sum(means) / len(means)
        se = 5 * math.sqrt(1 - p) / p / math.sqrt(trials * len(means))
        if abs(mean - closed) <= SE_LIMIT * se:
            return []
        return [f"mean-total-steps over {len(means)} input sets {mean} vs 5/alpha^3 = "
                f"{closed} (SE {se:.4g})"]

    return check


def check_audit(trials: int):
    """No profitable deviation; withhold MC estimates match the closed form."""
    alpha, u_only, u_none = 0.25, 2.0, 0.0  # --alpha auto on the default table
    q = alpha**2 / (alpha**2 + (1 - alpha) ** 2)  # withholder alone learns
    closed = q * u_only + (1 - q) * u_none
    se = (u_only - u_none) * math.sqrt(q * (1 - q) / trials)

    def check(result: CliResult) -> list[str]:
        f = result.fields()
        problems = _expect(f, "any-profitable", "false")
        if not _close(float(f.get("resolved-alpha", "nan")), alpha):
            problems.append(f"resolved-alpha = {f.get('resolved-alpha')}")
        verdicts = [k for k in f if k.endswith(".verdict")]
        if len(verdicts) != 15:
            problems.append(f"{len(verdicts)} audit entries, expected 15")
        for d in (1, 2, 3):
            prefix = f"withhold.deviator{d}"
            reported = float(f.get(f"{prefix}.closed-form", "nan"))
            mc = float(f.get(f"{prefix}.mc-estimate", "nan"))
            if not _close(reported, closed):
                problems.append(f"{prefix}.closed-form = {reported}, expected {closed}")
            if not abs(mc - closed) <= SE_LIMIT * se:
                problems.append(f"{prefix}.mc-estimate {mc} vs closed form {closed} (SE {se:.4g})")
        return problems

    return check


def check_jsonl(path: str, trials: int) -> list[str]:
    problems = []
    seen = set()
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            try:
                record = json.loads(line)
            except ValueError as exc:
                return [f"{path}:{n}: not JSON ({exc})"]
            if set(record) != JSONL_KEYS:
                return [f"{path}:{n}: keys {sorted(record)}"]
            seen.add(record["trial"])
    if seen != set(range(trials)):
        problems.append(f"transcript trials {len(seen)} of {trials}, missing e.g. "
                        f"{sorted(set(range(trials)) - seen)[:5]}")
    return problems


def check_hiding(result: CliResult) -> list[str]:
    f = result.fields()
    problems = _expect(f, "all-pass", "true")
    for m in (1, 2, 3):
        problems += _expect(f, f"m{m}.roundtrip-failures", "0")
    return problems


def check_traveler(claims: int, lowest: str):
    def check(result: CliResult) -> list[str]:
        f = result.fields()
        problems = _expect(f, "deletion-rounds", str(claims - 1))
        problems += _expect(f, "surviving.player1", lowest)
        problems += _expect(f, "surviving.player2", lowest)
        problems += _expect(f, "fixpoint", "true")
        problems += _expect(f, "recommended.practical", "true")
        return problems

    return check


def check_bounded(result: CliResult) -> list[str]:
    f = result.fields()
    problems = _expect(f, "fixpoint", "true")
    problems += _expect(f, "recommended.practical", "false")
    for player in (1, 2):
        for label in f.get(f"surviving.player{player}", "").split(";"):
            # Survivors withhold in round 1 and at both histories reachable after.
            if not (label.startswith("W|") and label[3:] == "WW"):
                problems.append(f"survivor {label} of player {player} sends")
    return problems


def check_alpha_star(result: CliResult) -> list[str]:
    return _expect(result.fields(), "global", "0.5")


# --- workloads ------------------------------------------------------------------


def sampler(mods, seed: int, index: int, tmp: str) -> list[Command]:
    def simulate(alpha, trials, n):
        return ["simulate", "--alpha", str(alpha), "--trials", str(trials),
                "--seed", str(derive_seed(seed, "sampler", index, n))]

    return [
        cli_command("cmd1_ref", "simulate_trials_per_s", SAMPLER_TRIALS, mods,
                    simulate(0.5, SAMPLER_TRIALS, 1),
                    check_honest_simulate(0.5, SAMPLER_TRIALS, "vectorized"),
                    pooled_steps(0.5, SAMPLER_TRIALS)),
        cli_command("cmd2_ref", "simulate_lowalpha_trials_per_s", SAMPLER_LOWALPHA_TRIALS, mods,
                    simulate(0.1, SAMPLER_LOWALPHA_TRIALS, 2),
                    check_honest_simulate(0.1, SAMPLER_LOWALPHA_TRIALS, "vectorized"),
                    pooled_steps(0.1, SAMPLER_LOWALPHA_TRIALS)),
        cli_command("cmd3_ref", "audit_s", None, mods,
                    ["audit", "--alpha", "auto", "--trials", str(AUDIT_TRIALS),
                     "--seed", str(derive_seed(seed, "sampler", index, 3))],
                    check_audit(AUDIT_TRIALS)),
    ]


def _lift_command(metric, label, runs, lift, seed) -> Command:
    """`runs` lifted runs at alpha 0.5, trials 0..runs-1, record=False."""

    def run():
        outcomes = [lift(t) for t in range(runs)]
        material = ";".join(f"{o.iterations},{o.info},{o.cause.value}" for o in outcomes)
        return material, outcomes

    def check(outcomes) -> list[str]:
        return [
            f"{label} trial {t} (seed {seed}): {o.cause.value} info {o.info}"
            for t, o in enumerate(outcomes)
            if o.cause.value != "AllLearned" or not all(o.info)
        ][:5]

    return Command(metric, label, runs, run, check)


def engine(mods, seed: int, index: int, tmp: str) -> list[Command]:
    path = f"{tmp}/transcripts-{index}.jsonl"
    dump_seed = derive_seed(seed, "engine", index, 1)
    mofn_seed = derive_seed(seed, "engine", index, 2)
    twoofn_seed = derive_seed(seed, "engine", index, 3)
    honest = check_honest_simulate(0.5, DUMP_TRIALS, "reference-engine")
    argv = ["simulate", "--alpha", "0.5", "--trials", str(DUMP_TRIALS),
            "--seed", str(dump_seed), "--dump-transcripts", path]

    def dump():
        result = call_cli(mods, argv)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return result.result_text() + digest, result

    def check_dump(result) -> list[str]:
        return _cli_problems(result) or honest(result) + check_jsonl(path, DUMP_TRIALS)

    # Looked up on the module at every call, so traced runs see the wrappers.
    def mofn(t):
        return mods.lifts.lift_m_of_n(SECRET, 3, 6, 0.5, seed=mofn_seed, record=False, trial=t)

    def twoofn(t):
        return mods.lifts.lift_2_of_n(SECRET, 5, 0.5, seed=twoofn_seed, record=False, trial=t)

    return [
        Command("cmd1_ref", "dump_runs_per_s", DUMP_TRIALS, dump, check_dump,
                pooled_steps(0.5, DUMP_TRIALS)),
        _lift_command("cmd2_ref", "lift_mofn_runs_per_s", MOFN_RUNS, mofn, mofn_seed),
        _lift_command("cmd3_ref", "lift_2ofn_runs_per_s", TWOOFN_RUNS, twoofn, twoofn_seed),
    ]


def exact(mods, seed: int, index: int, tmp: str) -> list[Command]:
    games = []
    for g in range(TRAVELER_GAMES):
        path = f"{tmp}/travelers-{index}-{g}.json"
        doc, lowest = travelers_dilemma(derive_seed(seed, "exact", index, g), TRAVELER_CLAIMS)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        games.append((["dominance", "--game", path, "--profile", f"{lowest},{lowest}"],
                      check_traveler(TRAVELER_CLAIMS, lowest)))

    def dominance():
        results = [call_cli(mods, argv) for argv, _ in games]
        return "".join(r.result_text() for r in results), results

    def check_games(results) -> list[str]:
        return [p for r, (_, check) in zip(results, games) for p in (_cli_problems(r) or check(r))]

    def bounded_and_alpha_star():
        results = [call_cli(mods, ["dominance", "--builtin", "bounded-r2"]),
                   call_cli(mods, ["alpha-star"])]
        return "".join(r.result_text() for r in results), results

    def check_pair(results) -> list[str]:
        bounded, star = results
        return (_cli_problems(bounded) or check_bounded(bounded)) + (
            _cli_problems(star) or check_alpha_star(star)
        )

    return [
        cli_command("cmd1_ref", "hiding_s", None, mods,
                    ["hiding", "--prime", str(HIDING_PRIME)], check_hiding),
        Command("cmd2_ref", "dominance_s", None, dominance, check_games),
        Command("cmd3_ref", "bounded_r2_and_alpha_star_s", None, bounded_and_alpha_star, check_pair),
    ]


WORKLOADS = {"sampler": sampler, "engine": engine, "exact": exact}
