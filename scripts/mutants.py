#!/usr/bin/env python3
"""The committed mutant catalogue: deliberate faults in ``src/mconcave``,
each with the tests that must kill it.

An entry names a module of the package, an exact snippet of it, the
snippet's replacement and the tests that must fail once the replacement
is in. For each selected entry the script copies ``src``, ``tests``,
``scripts`` and ``pyproject.toml`` into a temporary directory, applies
the replacement there and runs the entry's tests with a timeout; a run
past it counts as a kill. The checkout is never edited. It prints one
line per mutant and exits 1 when a snippet does not occur exactly once,
or a mutant survives: some listed test still passes.

Usage:
    python3 scripts/mutants.py [NAME ...]
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from shutil import copyfile, copytree
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Seconds for one mutant's pytest run.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/mconcave
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, each of which must fail


MUTANTS = [
    Mutant("interval_min_max_swapped", "exchange.py",
           "np.minimum(v[:, 0], v[:, 2], out=v[:, 1])\n"
           "    for v in views:\n"
           "        np.maximum(v[:, 0], v[:, 2], out=v[:, 3])",
           "np.maximum(v[:, 0], v[:, 2], out=v[:, 1])\n"
           "    for v in views:\n"
           "        np.minimum(v[:, 0], v[:, 2], out=v[:, 3])",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",
            "tests/test_cli.py::test_lemmas_2_8_prints_the_same_lines_on_both_sides_of_the_gate")),
    Mutant("interval_digit_3_from_0_and_1", "exchange.py",
           "np.maximum(v[:, 0], v[:, 2], out=v[:, 3])",
           "np.maximum(v[:, 0], v[:, 1], out=v[:, 3])",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",)),
    Mutant("interval_size_bound_inclusive", "exchange.py",
           "quad[xs ^ ys]] > kx",
           "quad[xs ^ ys]] >= kx",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",
            "tests/test_cli.py::test_lemmas_2_8_prints_the_same_lines_on_both_sides_of_the_gate")),
    Mutant("interval_scan_descending", "exchange.py",
           "deposit(np.arange(1 << int(d[p]).bit_count()), d[p], n)",
           "deposit(np.arange(1 << int(d[p]).bit_count())[::-1], d[p], n)",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",)),
    Mutant("sweep_count_row_past_x", "exchange.py",
           "triples += int(rows[starts[ax]:x].sum())",
           "triples += int(rows[starts[ax]:x + 1].sum())",
           ("tests/test_sweep_batched.py::test_random_tables",
            "tests/test_lift_on_f.py::test_every_rule_position_maps_to_its_lifted_triple",
            "tests/test_golden.py::test_exchange_report_bytes")),
    Mutant("sweep_count_rule_inclusive", "exchange.py",
           "triples += (xm & ~ym & ((1 << rule) - 1)).bit_count() + 1",
           "triples += (xm & ~ym & ((1 << (rule + 1)) - 1)).bit_count() + 1",
           ("tests/test_sweep_batched.py::test_random_tables",
            "tests/test_lift_on_f.py::test_every_rule_position_maps_to_its_lifted_triple",
            "tests/test_golden.py::test_exchange_report_bytes")),
    Mutant("lemma_facts_rule_inclusive", "exchange.py",
           "checked += (xm & ~ym & ((1 << r) - 1)).bit_count()",
           "checked += (xm & ~ym & ((1 << (r + 1)) - 1)).bit_count()",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",)),
    Mutant("facts_swap_at_equal_size", "exchange.py",
           "kx, ky = size[rows] + (rule == n)[:, None], size[cols]",
           "kx, ky = size[rows] + (rule <= n)[:, None], size[cols]",
           ("tests/test_lift_on_f.py::test_shared_rules_hold_pair_by_pair",
            "tests/test_lift_on_f.py::"
            "test_each_lift_rule_holds_on_a_pair_where_its_lifted_element_does",
            "tests/test_lift_on_f.py::test_partial_rule_chunks_match_the_lift",
            "tests/test_multi_batched.py::test_lemma_facts_match_the_loop")),
    Mutant("augment_at_equal_size", "exchange.py",
           "kx, ky = size[rows] + (rule == n)[:, None], size[cols]",
           "kx, ky = size[rows] + (rule > n)[:, None], size[cols]",
           ("tests/test_lift_on_f.py::test_shared_sweep_is_the_two_sweeps",
            "tests/test_lift_on_f.py::test_partial_rule_chunks_match_the_lift",
            "tests/test_lift_on_f.py::test_random_tables_match_the_lift",
            "tests/test_multi_batched.py::test_lemma_facts_match_the_loop",
            "tests/test_golden.py::test_exchange_report_bytes")),
    Mutant("facts_given_the_drop", "exchange.py",
           "if k == 0 else kx[:, blk, None] > ky",
           "if k == 0 else (a[n] <= b[n]) | (kx[:, blk, None] > ky)",
           ("tests/test_lift_on_f.py::test_shared_rules_hold_pair_by_pair",
            "tests/test_lift_on_f.py::test_partial_rule_chunks_match_the_lift",
            "tests/test_lift_on_f.py::"
            "test_each_lift_rule_holds_on_a_pair_where_its_lifted_element_does")),
    Mutant("sweep_comparison_strict", "exchange.py",
           "ok |= a[j] <= b[j]",
           "ok |= a[j] < b[j]",
           ("tests/test_sweep_batched.py::test_random_tables",
            "tests/test_sweep_batched.py::test_partial_rule_chunks",
            "tests/test_lift_on_f.py::test_shared_sweep_is_the_two_sweeps",
            "tests/test_golden.py::test_exchange_report_bytes")),
    Mutant("sweep_count_pad_index_low", "exchange.py",
           "n + by + 1",
           "n + by",
           ("tests/test_lift_on_f.py::test_every_rule_position_maps_to_its_lifted_triple",)),
    Mutant("restriction_skip_on_every_domain", "exchange.py",
           "len(dm) == 1 << n",
           "True",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",)),
    Mutant("sweep_row_cut_once_any_failed", "exchange.py",
           "if all(best[k] is not None for k in live):\n"
           "            rows = rows[rows <= max(best[k][0] for k in live)]",
           "if any(best[k] is not None for k in live):\n"
           "            rows = rows[rows <= max(best[k][0] for k in live if best[k])]",
           ("tests/test_multi_batched.py::test_lemma_facts_match_the_loop",
            "tests/test_lift_on_f.py::test_shared_sweep_is_the_two_sweeps",
            "tests/test_lift_on_f.py::test_partial_rule_chunks_match_the_lift")),
    # Only a chunk of several rules compares a rule where it does not apply.
    Mutant("sweep_rule_compared_where_it_does_not_apply", "exchange.py",
           "a = np.where(xin[:, blk], fv[rows[blk]] - moved, low)[..., None]",
           "a = (fv[rows[blk]] - moved)[..., None]",
           ("tests/test_lift_on_f.py::test_random_tables_match_the_lift",
            "tests/test_lift_on_f.py::test_shared_sweep_is_the_two_sweeps",
            "tests/test_lift_on_f.py::test_partial_rule_chunks_match_the_lift",
            "tests/test_multi_batched.py::test_lemma_facts_match_the_loop",
            "tests/test_golden.py::test_lift_and_lemmas_report_bytes")),
    # A block compares the moves that all its rows hold, and only those.
    Mutant("sweep_block_moves_inverted", "exchange.py",
           "if not held[r0 // step] >> j & 1",
           "if held[r0 // step] >> j & 1",
           ("tests/test_sweep_batched.py::test_failures_past_the_first_block",
            "tests/test_sweep_batched.py::test_mutated_corpus_raw_and_lifted",
            "tests/test_lift_on_f.py::test_full_domain_n12_gets_a_verdict_without_the_lift")),
    # A block whose rows hold every move (the full set alone) compares
    # none, so a rule that does not apply there fails.
    Mutant("sweep_all_held_compares_no_move", "exchange.py",
           "if not held[r0 // step] >> j & 1] or range(n):",
           "if not held[r0 // step] >> j & 1]:",
           ("tests/test_sweep_batched.py::test_multi_rule_chunks_skip_the_moves_a_block_holds",)),
    # The bounded picks of every block as the unbounded ones. (Deciding
    # more rows again, > as >=, gives the same picks, so no test can kill it.)
    Mutant("multi_bounded_search_skipped", "moves.py",
           "past = np.flatnonzero(size[free[1]] > k)",
           "past = np.flatnonzero(size[free[1]] < 0)",
           ("tests/test_multi_batched.py::test_random_tables",
            "tests/test_multi_batched.py::test_corpus_passes",
            "tests/test_multi_batched.py::test_multi_best_matches_the_scalar_search",
            "tests/test_multi_batched.py::"
            "test_bounded_pick_is_decided_again_only_past_the_bound",
            "tests/test_multi_batched.py::test_bounds_fail_at_different_triples",
            "tests/test_golden.py::test_exhaustive_multi_report_bytes")),
    # The bounded pick of a block without its moves of |J| = |I|.
    Mutant("multi_in_block_bound_strict", "moves.py",
           "size <= k[past, None]",
           "size < k[past, None]",
           ("tests/test_multi_batched.py::test_random_tables",
            "tests/test_multi_batched.py::test_multi_best_matches_the_scalar_search",
            "tests/test_multi_batched.py::"
            "test_bounded_pick_is_decided_again_only_past_the_bound",
            "tests/test_golden.py::test_exhaustive_multi_report_bytes")),
    # Every block of rows compares the moves of the first block's rows.
    Mutant("sweep_block_reads_first_block_masks", "exchange.py",
           "xs = dm[rows[blk]]",
           "xs = dm[rows[:step]]",
           ("tests/test_sweep_batched.py::test_failures_past_the_first_block",
            "tests/test_lift_on_f.py::test_shared_sweep_is_the_two_sweeps",
            "tests/test_lift_on_f.py::test_full_domain_n12_gets_a_verdict_without_the_lift")),
    Mutant("sweep_count_pad_sets_unshifted", "exchange.py",
           "[0] + [math.comb(t - 1, k) for k in range(t)]",
           "[0] + [math.comb(t, k) for k in range(t)]",
           ("tests/test_lift_on_f.py::test_random_tables_match_the_lift",
            "tests/test_lift_on_f.py::test_mutated_tables_match_the_lift",
            "tests/test_golden.py::test_exchange_report_bytes")),
    # Default pads fail every count, also where a test builds its tables.
    Mutant("sweep_count_default_pads_ones", "exchange.py",
           "a = np.zeros(len(dm), dtype=np.int64)",
           "a = np.ones(len(dm), dtype=np.int64)",
           ("tests/test_golden.py::test_exchange_report_bytes",
            "tests/test_sweep_batched.py::test_random_tables",
            "tests/test_lift_on_f.py::test_random_tables_match_the_lift",
            "tests/test_grid_engine.py::test_unit_steps_decide_like_all_pairs")),
    # The spec reader gives a weighted basis its weights reversed.
    Mutant("spec_weights_reversed", "families.py",
           'weighted_basis_valuation(m, spec["weights"])',
           'weighted_basis_valuation(m, spec["weights"][::-1])',
           ("tests/test_cli.py::test_gen_default_corpus_is_its_spec_list",
            "tests/test_golden.py::test_exchange_report_bytes")),
    # The sweep cache keeps every table's sweep, not the last one's.
    Mutant("sweep_cache_unbounded", "exchange.py",
           "@functools.lru_cache(maxsize=1)\ndef _sweeps(f):",
           "@functools.lru_cache(maxsize=None)\ndef _sweeps(f):",
           ("tests/test_cli.py::test_suites_reuse_reports_of_one_table_only",)),
    Mutant("multi_reports_cache_unbounded", "exchange.py",
           "@functools.lru_cache(maxsize=1)\ndef exc_multi_reports(",
           "@functools.lru_cache(maxsize=None)\ndef exc_multi_reports(",
           ("tests/test_cli.py::test_suites_reuse_reports_of_one_table_only",)),
    # The next table of the same n reads the plan of another domain.
    Mutant("domain_plan_keyed_on_n_alone", "exchange.py",
           "plan = _domain_plan(f.n, f.dom_masks)\n    if \"triples\" in plan:",
           "plan = _domain_plan(f.n, ())\n    if \"triples\" in plan:",
           ("tests/test_multi_batched.py::test_tables_on_one_domain_share_its_plan",)),
    # A table whose sweep fails a fact reads the domain's scan of every pair.
    Mutant("restriction_scan_reused_past_a_failing_fact", "exchange.py",
           'parts.get("facts") if failing is None else None',
           'parts.get("facts")',
           ("tests/test_multi_batched.py::"
            "test_a_failing_fact_after_a_passing_table_gets_its_own_count",)),
    Mutant("conjugate_float_tier_without_value_bound", "duality.py",
           "if self.magnitude + top < bound:",
           "if top < bound:",
           ("tests/test_grid_engine.py::test_kernel_product_tiers_at_their_bounds",
            "tests/test_grid_engine.py::test_kernel_tiers_match_scalar_conjugates")),
    Mutant("grid_suite_count_of_the_chosen_report", "cli.py",
           "triples_checked=sum(r.triples_checked for r in reports)",
           "triples_checked=first.triples_checked",
           ("tests/test_golden.py::test_grid_report_bytes",
            "tests/test_golden.py::test_box_grid_report_bytes",
            "tests/test_golden.py::test_toggled_grid_report_bytes",
            "tests/test_grid_engine.py::test_suite_with_more_caps_than_samples")),
    Mutant("grid_suite_names_the_first_pass", "cli.py",
           "next((r for r in reports if not r.passed), reports[0])",
           "next((r for r in reports if r.passed), reports[0])",
           ("tests/test_golden.py::test_grid_report_bytes",
            "tests/test_golden.py::test_box_grid_report_bytes",
            "tests/test_golden.py::test_toggled_grid_report_bytes",
            "tests/test_grid_engine.py::test_suite_with_more_caps_than_samples")),
    Mutant("conjugate_int64_cast_on_every_tier", "duality.py",
           "table if table.dtype == object else table.astype(np.int64, copy=False)",
           "table.astype(np.int64, copy=False)",
           ("tests/test_grid_engine.py::test_kernel_tiers_match_scalar_conjugates",)),
    Mutant("conjugate_float32_tier_past_2_24", "duality.py",
           "(1 << 24, np.float32)",
           "(1 << 25, np.float32)",
           ("tests/test_grid_engine.py::test_kernel_product_tiers_at_their_bounds",
            "tests/test_grid_engine.py::test_kernel_tiers_match_scalar_conjugates")),
    Mutant("draws_byte_path_past_256", "core.py",
           "bound <= 256 for _, bound, _ in runs",
           "bound <= 257 for _, bound, _ in runs",
           ("tests/test_rng_replay.py::test_byte_and_list_paths_match_scalar_draws",)),
    Mutant("seed_kernel_pass_two_multiplier", "core.py",
           "factor = np.array([1664525, 1566083941], np.uint32)",
           "factor = np.array([1664525, 1664525], np.uint32)",
           ("tests/test_falsify_bulk.py::test_seed_words_are_the_c_generators_first_words",
            "tests/test_falsify_bulk.py::test_campaign_runs_no_per_table_checker")),
    Mutant("sub_seed_draw_top_bit_shift", "core.py",
           ".astype(np.int64) >> 31) << 32",
           ".astype(np.int64) >> 30) << 32",
           ("tests/test_falsify_bulk.py::test_words_below_matches_below",
            "tests/test_falsify_bulk.py::test_campaign_runs_no_per_table_checker")),
    # Mutations of one entry to different values share the first one's verdict.
    # The one decider of the campaign's (table, entry, value) keys.
    Mutant("mutation_key_without_value", "cli.py",
           "(keys[:, 1:] != keys[:, :-1]).any(axis=0)",
           "(keys[:2, 1:] != keys[:2, :-1]).any(axis=0)",
           ("tests/test_falsify_bulk.py::test_each_batch_decides_one_row_per_distinct_mutation",
            "tests/test_falsify_bulk.py::test_mutated_trials_take_their_own_rows_verdict",
            "tests/test_falsify_bulk.py::"
            "test_a_mutation_drawn_twice_gives_one_counterexample_per_trial")),
    Mutant("mutation_scattered_into_the_wrong_entry", "cli.py",
           "vals[np.arange(len(u)), entry[u]] = value[u]",
           "vals[np.arange(len(u)), entry[u] ^ 1] = value[u]",
           ("tests/test_falsify_bulk.py::test_mutated_trials_take_their_own_rows_verdict",
            "tests/test_falsify_bulk.py::test_falsify_bytes_do_not_depend_on_the_chunk",
            "tests/test_falsify_bulk.py::test_campaign_matches_per_trial_loop",
            "tests/test_falsify_bulk.py::test_campaign_reports_counterexamples_in_trial_order")),
    Mutant("random_table_keyed_at_the_wrong_store_row", "cli.py",
           "itself = np.arange(len(rows), len(store))",
           "itself = np.arange(len(rows) - 1, len(store) - 1)",
           ("tests/test_falsify_bulk.py::test_campaign_matches_per_trial_loop",
            "tests/test_falsify_bulk.py::test_campaign_reports_counterexamples_in_trial_order",
            "tests/test_falsify_bulk.py::test_falsify_bytes_do_not_depend_on_the_chunk")),
    Mutant("c_path_keeps_an_emptied_domain", "cli.py",
           "if toggle and doms[b] == (entry,):",
           "if False:",
           ("tests/test_falsify_bulk.py::test_trials_past_the_words_take_the_scalar_path",)),
    # The numpy decoder of the random tables' words.
    Mutant("table_decoder_accepts_past_the_bound", "families.py",
           "ok = w[2:] < width << shift",
           "ok = w[2:] < (width + 1) << shift",
           ("tests/test_falsify_bulk.py::test_table_decoder_matches_draw_table",
            "tests/test_falsify_bulk.py::test_campaign_matches_per_trial_loop")),
    Mutant("table_decoder_reads_a_word_past_the_height", "families.py",
           "return (pos > height) | missed | ~finite",
           "return (pos > height + 1) | missed | ~finite",
           ("tests/test_falsify_bulk.py::test_table_decoder_matches_draw_table",
            "tests/test_falsify_bulk.py::test_tables_past_their_words_are_drawn_in_c")),
    Mutant("table_decoder_keeps_a_value_past_its_gather", "families.py",
           "missed[:c] |= draw & ~ok[d, lane]",
           "missed[:c] |= False",
           ("tests/test_falsify_bulk.py::test_table_decoder_matches_draw_table",)),
]


def source(mutant, root=ROOT):
    return (root / "src" / "mconcave" / mutant.module).read_text(encoding="utf-8")


def run(mutant):
    """(killed, survivors, note): whether every listed test failed, the
    listed tests that passed, and pytest's last line."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "scripts"):
            copytree(ROOT / part, tmp / part)
        copyfile(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        path = tmp / "src" / "mconcave" / mutant.module
        path.write_text(source(mutant, tmp).replace(mutant.snippet, mutant.replacement),
                        encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=tmp, env={**os.environ, "PYTHONPATH": "src"},
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, [], f"timed out after {TIMEOUT} s"
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    survivors = [t for t in mutant.tests
                 if not any(f == t or f.startswith(t + "[") or f == t.split("::")[0]
                            for f in failed)]
    lines = done.stdout.strip().splitlines()
    return not survivors, survivors, lines[-1] if lines else done.stderr.strip()


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    ok = True
    for mutant in chosen:
        count = source(mutant).count(mutant.snippet)
        if count != 1:
            print(f"{mutant.name}: snippet occurs {count} times in {mutant.module}")
            ok = False
            continue
        killed, survivors, note = run(mutant)
        print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} ({note})"
              + (f"; still passing: {', '.join(survivors)}" if survivors else ""), flush=True)
        ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
