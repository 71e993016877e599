"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ratshare modules with
wrappers, at the binding each caller looks the function up through
(`cli.run_mechanism` and `engine.run_mechanism` are separate bindings;
methods are wrapped on their class).  Nothing under `src/` changes.

A span is `[name, start, end, parent, root]`: `parent` is the index of
the enclosing span (-1 at the top) and `root` the index of the outermost
one, so every CLI command and every lift run gets its own id.  Spans stay
in memory; `summarize` derives per-layer totals and self times from them
and `write_spans` writes them out.  A call nested inside a span of the
same name (a `super()` chain, a delegating strategy) is not recorded
again, so call counts are outermost calls.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

STRATEGY_METHODS = ("coins", "masked_bit", "wants_broadcast", "decide")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, parent, spans[parent][4] if parent >= 0 else index]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        self._patch(owner, attr, lambda fn: self._span(name, fn, on_result))

    def count(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._counter(name, fn))

    def install(self, mods) -> None:
        """Wrap every traced binding of the imported ratshare modules."""
        cli, engine, lifts = mods.cli, mods.engine, mods.lifts
        montecarlo, analysis, shamir = mods.montecarlo, mods.analysis, mods.shamir
        dominance, strategies, report = mods.dominance, mods.strategies, mods.report

        self.span(cli, "main", "cli.main")
        self.span(report.Report, "render", "report.render")

        self.span(montecarlo, "sample_runs", "montecarlo.sample_runs")
        self.span(montecarlo, "iteration_outcome", "montecarlo.iteration_outcome", _count_rows)
        self.span(analysis, "nash_audit", "analysis.nash_audit")

        for owner in (cli, engine):
            self.span(owner, "run_mechanism", "engine.run_mechanism", _count_engine_run)
        for owner in (engine, lifts):
            self.span(owner, "issue_round", "engine.issue_round")
        for cls in vars(strategies).values():
            if isinstance(cls, type) and issubclass(cls, strategies.Strategy):
                for method in STRATEGY_METHODS:
                    if method in cls.__dict__:
                        self.span(cls, method, f"strategies.{method}")

        issuer = shamir.ShareIssuer
        self.span(issuer, "issue_shares", "shamir.issue_shares", _count_shares)
        self.span(issuer, "verify_tag", "shamir.verify_tag", _count_verify)
        self.span(issuer, "split_subshares", "shamir.split_subshares")
        self.span(shamir, "reconstruct", "shamir.reconstruct")

        for owner, attr in (
            (engine, "derive_bytes"), (engine, "derive_rng"),
            (lifts, "derive_bytes"), (lifts, "derive_rng"),
            (montecarlo, "derive_generator"), (analysis, "derive_int"),
        ):
            self.span(owner, attr, "seeding.derive")

        self.span(lifts, "lift_m_of_n", "lifts.lift_m_of_n", _count_lift)
        self.span(lifts, "lift_2_of_n", "lifts.lift_2_of_n", _count_lift)

        game = dominance.NormalFormGame
        self.span(game, "load", "dominance.load")
        self.span(dominance, "iterate_deletion", "dominance.iterate_deletion", _count_rounds)
        self.span(dominance, "weakly_dominated", "dominance.weakly_dominated")
        self.count(game, "payoff", "dominance.payoff.calls")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # --- results --------------------------------------------------------------

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _count_rows(counts, args, kwargs, result) -> None:
    all_restart = result[0]
    counts["montecarlo.rows"] += len(all_restart)
    counts["montecarlo.absorbed_rows"] += len(all_restart) - int(all_restart.sum())


def _count_engine_run(counts, args, kwargs, outcome) -> None:
    counts["engine.iterations"] += outcome.iterations
    counts["engine.messages"] += sum(len(t.messages) for t in outcome.transcripts)


def _count_shares(counts, args, kwargs, shares) -> None:
    counts["shamir.shares_issued"] += len(shares)


def _count_verify(counts, args, kwargs, ok) -> None:
    counts["shamir.verify_tag.failed"] += not ok


def _count_lift(counts, args, kwargs, outcome) -> None:
    counts["lifts.iterations"] += outcome.iterations


def _count_rounds(counts, args, kwargs, trace) -> None:
    counts["dominance.rounds"] += trace.deletion_rounds


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, root in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, root) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        entry["durations"].append(end - start)
    return out


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile (1..99) in milliseconds; 0 without samples."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000
    return statistics.quantiles(durations, n=100)[q - 1] * 1000


def write_spans(path, spans_per_set: list[list[list]]) -> None:
    """One JSON line `[set, name, start, end, parent, root]` per span."""
    with open(path, "w") as fh:
        for index, spans in enumerate(spans_per_set):
            for span in spans:
                fh.write(json.dumps([index, *span], separators=(",", ":")) + "\n")
