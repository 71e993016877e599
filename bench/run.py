"""Benchmark of the ratshare CLI and library entry points.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sampler --seed 1 --seconds 30 --trace 0

Workloads are defined in `workloads.py`.  The load is a closed loop with
one client in this process: each command starts only after the previous
one returned.  A pass runs the workload's three commands once on one of
its seed-derived input sets, then checks every output; passes cycle over
the input sets until `--seconds` have gone by.

With `--trace 0` the last line reports:
- `setup_s`: importing the ratshare package afresh plus generating the
  inputs of every set, the median of one set-up before the first pass
  and one after every `SETUP_EVERY` passes, in seconds at a fixed host
  speed: scaled by `REFERENCE_SAMPLE_S` over this run's mean fastest
  reference sample, since the host's speed drifts between runs by more
  than the metric's bound;
- `cmd1_ref`, `cmd2_ref`, `cmd3_ref`: each command's fastest pass on
  every input set, summed, over the same sum for the fixed reference
  workload in `reference.py`, which is timed after every pass.  The
  host's CPU speed swings by up to half, over seconds and sometimes for
  a whole run; the fastest pass removes the short swings and the
  reference the long ones.  Raw seconds, medians and slowest passes are
  printed beside it;
- `peak_rss_mb`: the process's peak resident set.

With `--trace 1`, an untraced and a traced pass alternate on each input
set and the last line reports the per-layer metrics of `PER_LAYER`,
summed over the fastest traced pass of every set, plus
`trace.overhead_ratio` (those traced passes over the fastest untraced
ones).  The spans of those passes are written to
`.bench_out/spans-<workload>.jsonl`, one `[set, name, start, end,
parent, root]` per line.

Every pass checks each command's output.  A command fails when it exits
non-zero, raises, fails a check, or its result digest differs from the
first pass (traced passes included); in trace mode also when an exact
count differs between traced passes.  At the end, checks that need more
trials than one input set has run over the outputs of all sets.  `failed` over `attempted` is the
error rate; any failure makes the exit code 1.  A run still going after
`RUN_LIMIT_S` seconds stops with exit code 3 and no result.  Files the
commands read or write live in a temporary directory under `.bench_tmp/`
in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from reference import Reference
from tracer import Tracer, percentile_ms, summarize, write_spans
from workloads import INPUT_SETS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "engine", "lifts", "montecarlo", "analysis", "shamir",
           "dominance", "strategies", "report")
MIN_PASSES = 2 * INPUT_SETS  # every input set twice, to compare digests
SETUP_EVERY = 4  # passes between set-up samples
RUN_LIMIT_S = 170  # a run that takes longer (a command that hangs) fails
# About the fastest reference sample on the baseline host (bench/BASELINE.json);
# set-up times are reported as if the host ran at that speed.
REFERENCE_SAMPLE_S = 0.035


class RunTimeout(BaseException):
    """Raised by the alarm when a run exceeds RUN_LIMIT_S."""


def _run_timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")

# (name, unit, better) as listed under "per_layer" in BENCHMARK.json.
PER_LAYER = [
    ("montecarlo.sample_runs.calls", "count", "lower"),
    ("montecarlo.sample_runs.s", "s", "lower"),
    ("montecarlo.sample_runs.self_s", "s", "lower"),
    ("montecarlo.iteration_outcome.calls", "count", "lower"),
    ("montecarlo.iteration_outcome.s", "s", "lower"),
    ("montecarlo.rows", "count", "lower"),
    ("montecarlo.absorbed_per_row", "ratio", "higher"),
    ("analysis.nash_audit.s", "s", "lower"),
    ("analysis.nash_audit.self_s", "s", "lower"),
    ("engine.run_mechanism.calls", "count", "lower"),
    ("engine.run_mechanism.s", "s", "lower"),
    ("engine.run_mechanism.self_s", "s", "lower"),
    ("engine.run_mechanism.p50_ms", "ms", "lower"),
    ("engine.run_mechanism.p99_ms", "ms", "lower"),
    ("engine.run_mechanism.samples", "count", "higher"),
    ("engine.iterations", "count", "lower"),
    ("engine.issue_round.s", "s", "lower"),
    ("engine.messages", "count", "lower"),
    *[(f"strategies.{m}.{f}", u, "lower")
      for m in ("coins", "masked_bit", "wants_broadcast", "decide")
      for f, u in (("calls", "count"), ("s", "s"))],
    ("shamir.issue_shares.calls", "count", "lower"),
    ("shamir.issue_shares.s", "s", "lower"),
    ("shamir.shares_issued", "count", "lower"),
    ("shamir.verify_tag.calls", "count", "lower"),
    ("shamir.verify_tag.s", "s", "lower"),
    ("shamir.verify_tag.failed", "count", "lower"),
    ("shamir.reconstruct.calls", "count", "lower"),
    ("shamir.reconstruct.s", "s", "lower"),
    ("shamir.split_subshares.calls", "count", "lower"),
    ("shamir.split_subshares.s", "s", "lower"),
    ("seeding.derive.calls", "count", "lower"),
    ("seeding.derive.s", "s", "lower"),
    ("lifts.lift_m_of_n.s", "s", "lower"),
    ("lifts.lift_m_of_n.self_s", "s", "lower"),
    ("lifts.lift_2_of_n.s", "s", "lower"),
    ("lifts.lift_2_of_n.self_s", "s", "lower"),
    ("lifts.iterations", "count", "lower"),
    ("dominance.load.s", "s", "lower"),
    ("dominance.iterate_deletion.s", "s", "lower"),
    ("dominance.weakly_dominated.calls", "count", "lower"),
    ("dominance.weakly_dominated.s", "s", "lower"),
    ("dominance.payoff.calls", "count", "lower"),
    ("dominance.rounds", "count", "lower"),
    ("report.render.s", "s", "lower"),
    ("cli.dump_bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Work counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("montecarlo.iteration_outcome.calls", "engine.iterations",
                "shamir.issue_shares.calls", "dominance.payoff.calls")


def import_ratshare() -> SimpleNamespace:
    """Import the checkout's ratshare package afresh (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "ratshare" or n.startswith("ratshare.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"ratshare.{m}") for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ratshare imported from {mods.cli.__file__}, not from {SRC}")
    return mods


class Bench:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.setup_s: list[float] = []
        self.mods, self.sets = self.set_up()
        self.digests: dict[tuple[int, int], str] = {}
        self.payloads: dict[tuple[int, int], object] = {}
        self.attempted = 0
        self.failed = 0

    def set_up(self):
        start = time.perf_counter()
        mods = import_ratshare()
        build = WORKLOADS[self.workload]
        sets = [build(mods, self.seed, i, self.tmp) for i in range(INPUT_SETS)]
        self.setup_s.append(time.perf_counter() - start)
        return mods, sets

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:5]:
            print(f"FAIL {label}: {problem}", file=sys.stderr)

    def run_pass(self, index: int) -> list[float]:
        """Run every command of input set `index` once; return their wall times."""
        times = []
        for k, command in enumerate(self.sets[index]):
            self.attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                material, payload = command.run()
            except Exception:
                times.append(time.perf_counter() - start)
                self.fail(command.label, [traceback.format_exc()])
                continue
            times.append(time.perf_counter() - start)
            digest = hashlib.sha256(material.encode()).hexdigest()
            first = self.digests.setdefault((index, k), digest)
            self.payloads.setdefault((index, k), payload)
            problems = command.check(payload)
            if digest != first:
                problems.append(f"input set {index}: result digest {digest[:12]} "
                                f"differs from its first pass {first[:12]}")
            if problems:
                self.fail(command.label, problems)
        return times

    def check_pooled(self) -> None:
        """Run each command's check over the outputs of all input sets."""
        for k, command in enumerate(self.sets[0]):
            payloads = [self.payloads[i, k] for i in range(INPUT_SETS) if (i, k) in self.payloads]
            if command.pooled and payloads:
                self.attempted += 1
                problems = command.pooled(payloads)
                if problems:
                    self.fail(command.label, problems)

    def dump_bytes(self) -> int:
        return sum(path.stat().st_size for path in Path(self.tmp).glob("transcripts-*.jsonl"))


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced passes with reference and set-up samples between; end-to-end metrics."""
    deadline = time.perf_counter() + seconds
    times = [[[] for _ in bench.sets[0]] for _ in range(INPUT_SETS)]
    reference = Reference(INPUT_SETS)
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        index = passes % INPUT_SETS
        for k, t in enumerate(bench.run_pass(index)):
            times[index][k].append(t)
        passes += 1
        reference.run(index)
        if passes % SETUP_EVERY == 0:
            bench.set_up()  # timing sample only; passes keep the first import
    ref = reference.best()
    print(f"workload {bench.workload}, seed {bench.seed}: {passes} passes over "
          f"{INPUT_SETS} input sets, {len(bench.setup_s)} set-ups; reference {ref:.6f} s "
          f"from {reference.samples()} samples")
    metrics = {}
    for k, command in enumerate(bench.sets[0]):
        best = sum(min(times[i][k]) for i in range(INPUT_SETS))
        median = sum(statistics.median(times[i][k]) for i in range(INPUT_SETS))
        slowest = sum(max(times[i][k]) for i in range(INPUT_SETS))
        metrics[command.metric] = {"value": best / ref, "unit": "ref"}
        if command.work:
            shown, unit = command.work * INPUT_SETS / best, "1/s"
        else:
            shown, unit = best / INPUT_SETS, "s"
        print(f"{command.metric} = {best / ref:.6f} ref; {best:.6f} s -> {command.label} = "
              f"{shown:.6g} {unit} (fastest pass per set, summed; medians {median:.6f} s, "
              f"slowest {slowest:.6f} s)")
    setup = statistics.median(bench.setup_s)
    metrics["setup_s"] = {"value": setup * REFERENCE_SAMPLE_S * INPUT_SETS / ref, "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
    }
    print(f"setup_s = {metrics['setup_s']['value']:.6f} s at reference speed; measured median "
          f"{setup:.6f} s of {len(bench.setup_s)}, first {bench.setup_s[0]:.6f} s")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB")
    return metrics


def layer_values(summary: dict, counts: dict) -> dict[str, float]:
    """Additive per-layer values of one pass: span fields and counters."""
    values = {}
    for name, _, _ in PER_LAYER:
        if name in counts:
            values[name] = counts[name]
        else:
            span, _, field = name.rpartition(".")
            values[name] = summary.get(span, {}).get(field, 0)
    for name in ("montecarlo.absorbed_rows", "montecarlo.rows"):
        values[name] = counts.get(name, 0)
    return values


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced passes on each input set; per-layer metrics."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced = [[] for _ in range(INPUT_SETS)]
    traced: list[list[tuple[float, dict]]] = [[] for _ in range(INPUT_SETS)]
    fastest_spans: list[list] = [[] for _ in range(INPUT_SETS)]
    run_durations: list[float] = []
    pairs = 0
    while min(len(t) for t in traced) < 2 or time.perf_counter() < deadline:
        index = pairs % INPUT_SETS
        pairs += 1
        untraced[index].append(sum(bench.run_pass(index)))
        tracer.install(bench.mods)
        try:
            total = sum(bench.run_pass(index))
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        summary = summarize(spans)
        values = layer_values(summary, counts)
        if traced[index]:
            first = traced[index][0][1]
            differ = [(n, first[n], values[n]) for n in EXACT_COUNTS if values[n] != first[n]]
            if differ:
                bench.fail("exact counts", [f"input set {index}: differ between traced passes: {differ}"])
        if not traced[index] or total < min(t for t, _ in traced[index]):
            fastest_spans[index] = spans
        run_durations += summary.get("engine.run_mechanism", {}).get("durations", [])
        traced[index].append((total, values))
    fastest = [min(t, key=lambda pass_: pass_[0]) for t in traced]
    totals = {name: sum(values[name] for _, values in fastest) for name in fastest[0][1]}
    totals.update({
        "montecarlo.absorbed_per_row": totals["montecarlo.absorbed_rows"]
        / max(totals["montecarlo.rows"], 1),
        "engine.run_mechanism.p50_ms": percentile_ms(run_durations, 50),
        "engine.run_mechanism.p99_ms": percentile_ms(run_durations, 99),
        "engine.run_mechanism.samples": len(run_durations),
        "cli.dump_bytes": bench.dump_bytes(),
        "trace.overhead_ratio": sum(total for total, _ in fastest)
        / sum(min(u) for u in untraced),
    })
    metrics = {name: {"value": totals[name], "unit": unit} for name, unit, _ in PER_LAYER}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    write_spans(out / f"spans-{bench.workload}.jsonl", fastest_spans)
    print(f"workload {bench.workload}, seed {bench.seed}: {pairs} untraced and {pairs} traced "
          f"passes over {INPUT_SETS} input sets; values sum the fastest traced pass of each "
          f"set; absorbed_per_row base {totals['montecarlo.rows']} rows; p50/p99 over "
          f"{len(run_durations)} run_mechanism calls")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratshare" / "__init__.py").is_file():
        print(f"bench: no ratshare sources at {SRC / 'ratshare'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    signal.signal(signal.SIGALRM, _run_timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
        bench.check_pooled()
    except RunTimeout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still has its directory there
    print(f"error_rate = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed of {bench.attempted} commands and pooled checks attempted)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
