"""Apply each listed source mutant to a copy of the repository and run the test meant to kill it.

    python tools/mutants.py

A mutant is one textual replacement in one file under `src/ratshare`
that a named test must notice.  The script copies `src`, `tests`,
`bench`, `pyproject.toml` and `README.md` into a temporary directory,
first runs every listed test on the unmutated copy (they must pass), then
for each mutant replaces its old text, runs only its test with `-x`, and
restores the file.  A mutant is killed when that test fails.  The exit
code is 0 when every mutant was killed.

Grow the list with each new closed form or protocol rule.
`tests/test_mutants.py` checks that every old text still occurs exactly
once in its file, that every mutated file still parses, and that every
named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    test: str  # pytest node id, relative to the repository root


MUTANTS = [
    # Protocol rules, closed forms, the sampler, tags and hiding.
    Mutant("restart-rule", "src/ratshare/protocol.py",
           "(parity == 1 and observed_count == 1)", "(parity == 1 and observed_count == 2)",
           "tests/test_protocol.py::test_restart_rule"),
    Mutant("alpha-star-max-over-players", "src/ratshare/analysis.py",
           "min(per_player.values())", "max(per_player.values())",
           "tests/test_analysis.py::test_asymmetric_global_star_is_the_minimum"),
    Mutant("sampler-strict-cdf-edge", "src/ratshare/montecarlo.py",
           "row += v >= edge", "row += v > edge",
           "tests/test_montecarlo.py::test_sampler_matches_searchsorted_oracle"),
    Mutant("tag-check-always-passes", "src/ratshare/shamir.py",
           "return hmac.compare_digest(item.tag, self._mac(msg))", "return True",
           "tests/test_shamir.py::test_tags_and_verification_agree_with_an_hmac_oracle"),
    Mutant("withhold-closed-form-scaled", "src/ratshare/analysis.py",
           "table.u_none(player)) / (a2 + b2)", "table.u_none(player)) / (a2 + b2) * 1.0001",
           "tests/test_montecarlo.py::test_kernel_matches_closed_forms_exactly"),
    Mutant("zero-coin-masks", "src/ratshare/strategies.py",
           "CoinTriple.make(c, rng.getrandbits(1))", "CoinTriple.make(c, 0)",
           "tests/test_cli.py::test_dump_and_report_match_golden_digests"),
    Mutant("expected-steps-plus-one", "src/ratshare/analysis.py",
           "return STEPS_PER_ITERATION / cube if cube", "return STEPS_PER_ITERATION / cube + 1 if cube",
           "tests/test_montecarlo.py::test_kernel_matches_closed_forms_exactly"),
    Mutant("tag-cache-unbounded", "src/ratshare/shamir.py",
           "@lru_cache(maxsize=_MAC_CACHE_SIZE)", "@lru_cache(maxsize=None)",
           "tests/test_shamir.py::test_remembered_tags_are_bounded_and_kept_for_one_epoch"),
    Mutant("share-holder-unranged", "src/ratshare/shamir.py",
           "if type(self.holder) is not int or not 0 <= self.holder < p:",
           "if type(self.holder) is not int:",
           "tests/test_shamir.py::test_share_holder_is_an_int_point_of_the_field"),
    Mutant("reconstruct-unreduced", "src/ratshare/shamir.py",
           "sum(map(mul, ys, weights)) % p", "sum(map(mul, ys, weights))",
           "tests/test_shamir.py::test_hand_lagrange"),
    Mutant("subshare-tagged-as-share", "src/ratshare/shamir.py",
           "_subshare_msg(self.modulus, item.epoch, item.parent_holder, item.index,",
           "_share_msg(self.modulus, item.epoch, item.parent_holder,",
           "tests/test_shamir.py::test_verify_tag_formats_each_item_by_its_type"),
    Mutant("hiding-check-always-passes", "src/ratshare/shamir.py",
           "return bool((counts.min(axis=1) == counts.max(axis=1)).all())", "return True",
           "tests/test_shamir.py::test_hiding_check_matches_counting_oracle"),
    Mutant("no-clip-at-cap", "src/ratshare/montecarlo.py",
           "np.minimum(k, cap, out=k)", "np.minimum(k, np.inf, out=k)",
           "tests/test_montecarlo.py::test_cap_leaves_cause_cap_hit"),
    Mutant("cap-outcome-learned", "src/ratshare/montecarlo.py",
           "(TerminalCause.ITERATION_CAP_HIT, (0, 0, 0))",
           "(TerminalCause.ITERATION_CAP_HIT, (1, 1, 1))",
           "tests/test_montecarlo.py::test_cap_leaves_cause_cap_hit"),
    Mutant("no-parity-agreement-guard", "src/ratshare/engine.py",
           "if len(parities) > 1:", "if len(parities) > 3:",
           "tests/test_lifts.py::test_honest_lift_checks_parity_agreement"),
    Mutant("audit-thirty-standard-errors", "src/ratshare/analysis.py",
           "(mc - baseline) / 3 > se", "(mc - baseline) / 30 > se",
           "tests/test_analysis.py::test_audit_flags_a_sampled_gain_past_three_standard_errors"),
    Mutant("population-standard-deviation", "src/ratshare/montecarlo.py",
           "(n - 1) * n * n * den * den", "n * n * n * den * den",
           "tests/test_montecarlo.py::test_mean_utility_uses_the_sample_standard_deviation"),
    Mutant("closed-form-ties-profit", "src/ratshare/analysis.py",
           "closed > baseline", "closed >= baseline",
           "tests/test_analysis.py::test_audit_at_the_threshold_finds_no_incentive"),
    Mutant("partition-without-spread", "src/ratshare/lifts.py",
           "key = (max(sizes), sum(x * x for x in sizes), s2, s3)", "key = (max(sizes), s2, s3)",
           "tests/test_lifts.py::test_partition_known_cases"),
    Mutant("float-extreme-gain-loss-swapped", "src/ratshare/analysis.py",
           "root_loss / (root_loss + root_gain)", "root_gain / (root_loss + root_gain)",
           "tests/test_cli.py::test_alpha_star_at_the_float_extremes"),
    Mutant("audit-withhold-in-float", "src/ratshare/analysis.py",
           "withhold_lhs(Fraction(alpha), table, deviator)", "withhold_lhs(alpha, table, deviator)",
           "tests/test_analysis.py::test_withhold_verdict_at_the_threshold_is_exact"),
    Mutant("audit-verdict-in-float", "src/ratshare/analysis.py",
           "(mc - baseline) / 3 > se", "float_view(mc) - float_view(baseline) > 3 * se",
           "tests/test_analysis.py::test_audit_verdict_is_decided_in_exact_rationals"),
    # The one payoff rule.
    Mutant("payoff-parser-accepts-non-finite", "src/ratshare/strategies.py",
           "math.isfinite(u) if isinstance(u, float) else isinstance(u, (int, str))",
           "isinstance(u, (int, float, str))",
           "tests/test_cli.py::test_bad_input_exits_two_with_one_line"),
    Mutant("broadcast-without-own-coin", "src/ratshare/protocol.py",
           "return parity == 1 and own_c == 1", "return parity == 1",
           "tests/test_acceptance.py::test_acceptance_01_running_time"),
    Mutant("parity-without-own-coin", "src/ratshare/protocol.py",
           "return c_plus_from_pred ^ masked_from_succ ^ own_c",
           "return c_plus_from_pred ^ masked_from_succ",
           "tests/test_acceptance.py::test_acceptance_01_running_time"),
    Mutant("masked-bit-without-own-coin", "src/ratshare/protocol.py",
           "return c_minus_from_succ ^ own_c", "return c_minus_from_succ",
           "tests/test_acceptance.py::test_acceptance_01_running_time"),
    Mutant("two-of-n-learns-one-subshare-short", "src/ratshare/lifts.py",
           "for k in range(1, n)}", "for k in range(1, n - 1)}",
           "tests/test_lifts.py::test_tampered_subshare_treated_as_missing"),
    Mutant("two-of-n-forgets-earlier-epochs", "src/ratshare/lifts.py",
           "if state.learned_earlier:\n            return True", "if False:\n            return True",
           "tests/test_engine.py::test_what_an_earlier_epoch_taught_is_kept"),
    Mutant("no-partial-info-guard", "src/ratshare/engine.py",
           "if self.honest and any(info) and not all(info):", "if False:",
           "tests/test_lifts.py::test_honest_guard_rejects_a_partial_info_vector"),
    Mutant("item-key-parent-and-index-swapped", "src/ratshare/engine.py",
           'else ("sub", holder, index)', 'else ("sub", index, holder)',
           "tests/test_lifts.py::test_two_of_n_learns_by_the_keys_of_the_items_an_epoch_issues"),
    Mutant("m-of-n-n-below-p-unchecked", "src/ratshare/engine.py",
           "require_points(self.n, self.secret.modulus)", "None",
           "tests/test_lifts.py::test_m_of_n_needs_fewer_players_than_the_field_size"),
    Mutant("two-of-n-points-unchecked", "src/ratshare/lifts.py",
           "require_points(len(self.holders), self.secret.modulus)", "None",
           "tests/test_lifts.py::test_two_of_n_needs_a_field_past_its_two_holders"),
    Mutant("own-keys-only-for-players-1-to-m", "src/ratshare/engine.py",
           "item_key(p) for p in self.players}", "item_key(p) for p in range(1, self.threshold + 1)}",
           "tests/test_lifts.py::test_a_player_past_m_learns_through_its_own_key"),
    Mutant("m-of-n-issues-to-every-player", "src/ratshare/engine.py",
           "issue_round(self.issuer, self.secret, self.threshold, epoch, self.issuer_rng,\n"
           "                             coefficients, (player,))",
           "{share.holder: share for share in self.issuer.issue_shares(\n"
           "            self.secret, self.threshold, self.n, epoch, self.issuer_rng, coefficients)}",
           "tests/test_lifts.py::test_each_epoch_issues_shares_only_to_players_who_can_send"),
    Mutant("m-of-n-builds-the-next-players-share", "src/ratshare/engine.py",
           "coefficients, (player,))", "coefficients, (player % self.threshold + 1,))",
           "tests/test_cli.py::test_dump_and_report_match_golden_digests"),
    Mutant("m-of-n-epoch-built-eagerly", "src/ratshare/engine.py",
           "self.bundles = _EpochBundles(partial(self._build, epoch, coefficients))",
           "self.bundles = _EpochBundles(partial(self._build, epoch, coefficients))"
           "\n        self.bundles[1]",
           "tests/test_lifts.py::test_each_epoch_issues_shares_only_to_players_who_can_send"),
    Mutant("coefficients-drawn-at-build", "src/ratshare/engine.py",
           "coefficients = self.issuer.draw_coefficients(self.threshold, self.issuer_rng)",
           "coefficients = None",
           "tests/test_cli.py::test_dump_and_report_match_golden_digests"),
    Mutant("epoch-guard-lets-a-repeat-through", "src/ratshare/engine.py",
           "if epoch <= self.issued:", "if epoch < self.issued:",
           "tests/test_engine.py::test_a_second_run_is_refused_before_it_touches_anything"),
    Mutant("leader-is-last-of-group", "src/ratshare/engine.py",
           "[group[0] for group in groups]", "[group[-1] for group in groups]",
           "tests/test_lifts.py::test_each_delivered_item_is_checked_once_and_judged_for_every_receiver"),
    Mutant("forced-coins-drops-broadcast-payload", "src/ratshare/strategies.py",
           "return self.inner.broadcast_payload(state, payload)", "return payload",
           "tests/test_engine.py::test_tampered_broadcast_counts_as_missing"),
    # Weak-dominance deletion.
    Mutant("last-dominator-witness", "src/ratshare/dominance.py",
           "witness = dominates.argmax(0)", "witness = len(mine) - 1 - dominates[::-1].argmax(0)",
           "tests/test_dominance.py::test_witness_is_the_lowest_index_dominator"),
    Mutant("dominance-without-strictness", "src/ratshare/dominance.py",
           "dominates = ge & ~ge.T", "dominates = ge",
           "tests/test_dominance.py::test_witness_is_the_lowest_index_dominator"),
    Mutant("fortran-order-columns", "src/ratshare/dominance.py",
           "for j, ks in enumerate(ordered):", "for j, ks in reversed(list(enumerate(ordered))):",
           "tests/test_dominance.py::test_witness_is_the_lowest_index_dominator"),
    Mutant("survival-of-any-player", "src/ratshare/dominance.py",
           "survives = all(trace.survives(", "survives = any(trace.survives(",
           "tests/test_dominance.py::test_survival_needs_every_players_strategy_to_survive"),
    # Bit delivery, epochs, stale items, the kernel's message counts and the dump.
    Mutant("masked-bit-kept-by-sender", "src/ratshare/engine.py",
           "states[pred[pid]].masked_from_succ = bit", "states[pid].masked_from_succ = bit",
           "tests/test_engine.py::test_honest_parity_agreement_and_atomicity_all_64"),
    Mutant("step-1-delivered-while-acting", "src/ratshare/engine.py",
           "states[pid].coins = strategies[pid].coins(states[pid], rngs[pid], self.alpha)",
           "triple = states[pid].coins = strategies[pid].coins(states[pid], rngs[pid], self.alpha)\n"
           "            if triple is not None:\n"
           "                states[succ[pid]].bit_from_pred = triple.c_plus\n"
           "                states[pred[pid]].bit_from_succ = triple.c_minus",
           "tests/test_engine.py::test_no_strategy_reads_a_bit_of_the_step_that_sends_it"),
    Mutant("no-epoch-check", "src/ratshare/engine.py",
           "or item.epoch != epoch:", ":",
           "tests/test_engine.py::test_replayed_payload_of_an_earlier_epoch_is_stale"),
    Mutant("bundle-judged-by-first-item", "src/ratshare/engine.py",
           "elif self.issuer.verify_tag(item):", "elif self.issuer.verify_tag(items[0]):",
           "tests/test_lifts.py::test_each_delivered_item_is_checked_once_and_judged_for_every_receiver"),
    Mutant("evidence-to-first-receiver-only", "src/ratshare/engine.py",
           "state.cheat_evidence += evidence",
           "state.cheat_evidence += evidence if pid == receivers[0] else ()",
           "tests/test_lifts.py::test_each_delivered_item_is_checked_once_and_judged_for_every_receiver"),
    Mutant("forged-split-piece-bundled", "src/ratshare/engine.py",
           "states[receivers[i]].cheat_evidence.append(found)",
           "states[receivers[i]].cheat_evidence.append(found)\n"
           "                self.bundles[receivers[i]].append(item)",
           "tests/test_lifts.py::test_a_bundle_is_the_valid_items_its_sender_was_handed"),
    Mutant("ring-sends-a-one-share-bundle", "src/ratshare/engine.py",
           "self.bare_share = self.n == 3", "self.bare_share = False",
           "tests/test_cli.py::test_dump_and_report_match_golden_digests"),
    Mutant("share-record-keys-swapped", "src/ratshare/transcript.py",
           '"x":{holder},"y":{y},', '"y":{y},"x":{holder},',
           "tests/test_cli.py::test_dump_and_report_match_golden_digests"),
    Mutant("share-direct-format-accepts-bool", "src/ratshare/transcript.py",
           "type(y) is int", "isinstance(y, int)",
           "tests/test_cli.py::test_jsonl_line_is_json_dumps_of_the_record"),
    Mutant("tail-cache-bool-as-int", "src/ratshare/transcript.py",
           "if item is None or type(item) is int:", "if item is None or isinstance(item, int):",
           "tests/test_cli.py::test_cached_tail_lines_are_json_dumps_of_the_record"),
    Mutant("payload-text-always-reused", "src/ratshare/transcript.py",
           "if text is None or item is not payload:", "if text is None:",
           "tests/test_cli.py::test_dump_lines_are_the_recorded_messages_in_order"),
    Mutant("kernel-drops-restart-requests", "src/ratshare/montecarlo.py",
           "return [counts[kind] for kind in MessageKind]",
           "return [counts[kind] if kind != MessageKind.RESTART_REQUEST else 0 for kind in MessageKind]",
           "tests/test_cli.py::test_dump_bytes_per_iteration_bounds_honest_dumps"),
    Mutant("earlier-epoch-forgotten", "src/ratshare/engine.py",
           "state.learned_earlier = self._learned(state)", "state.learned_earlier = False",
           "tests/test_engine.py::test_what_an_earlier_epoch_taught_is_kept"),
]


def _pytest(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ratshare-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        baseline = _pytest(copy, sorted({m.test for m in MUTANTS}))
        if baseline != 0:
            print(f"the listed tests fail on the unmutated copy (pytest exit {baseline})")
            return 1
        survivors = 0
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: old text occurs {original.count(m.old)} times in {m.file}")
                return 1
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code = _pytest(copy, [m.test])
            finally:
                path.write_text(original)
            # pytest exits 1 when a test failed; anything else (0 passed,
            # 2-5 an error, -1 a timeout) does not count as a kill.
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (exit {code})"
            survivors += code != 1
            print(f"{m.name:34} {verdict:10} {time.perf_counter() - start:6.1f} s  {m.test}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
