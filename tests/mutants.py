"""The mutation register: edits to ``src/`` that the tests must catch.

Each row names a file under ``src/``, a text that occurs in it exactly
once, the text that replaces it, and the tests that must each fail with
that edit in place (a parametrized test fails when any of its cases
does). ``tests/test_mutants.py`` checks in tier-1 that every old text is
still there once and every named test still exists, so a change that
moves mutated code or renames a catching test updates its row. A change
that claims a mutation adds its row here.

Run from anywhere:

    python tests/mutants.py

For each mutant it copies ``src/`` to a temporary directory, applies
the edit there and runs only the mutant's tests against the copy. It
prints each verdict and exits 1 if any mutant survives, that is, if any
of its tests passes. Each mutant costs a pytest start, so the runner is
not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


_INDEX = "neartag/index.py"
_TSV = "neartag/tsv.py"
_EVALUATION = "neartag/evaluation.py"
_INDEX_TESTS = "tests/test_index.py::"
_STRESS = "tests/test_knn_stress.py::"
_GOLDEN = "tests/test_golden.py::"
_ACCEPTANCE = "tests/test_acceptance.py::"
_TSV_TESTS = "tests/test_tsv.py::"
_LEXICON_TESTS = "tests/test_lexicon.py::"
_EVALUATION_TESTS = "tests/test_evaluation.py::"

MUTANTS = (
    # The float64 finish alone sets tie order: without the row key, equal
    # distances keep the candidates' pool order.
    Mutant("tie-order-by-pool", _INDEX, "np.lexsort((cand, dist))", 'np.argsort(dist, kind="stable")', (
        _INDEX_TESTS + "test_knn_duplicate_vectors_tie_break_by_id",
        _STRESS + "test_duplicate_rows_tie_by_id",
        _STRESS + "test_duplicates_straddle_a_tile_boundary",
        _STRESS + "test_exact_matches_oracle_hypothesis",
        _STRESS + "test_perm_rerank_matches_the_oracle_over_its_candidates",
        _STRESS + "test_rows_one_float32_bit_apart",
        _ACCEPTANCE + "test_01_exact_search_matches_linear_scan_oracle",
    )),
    # A chunk where every query overflows float32 skips the tiles, so its
    # peak is one query's re-scoring.
    Mutant("overflow-chunk-scores-tiles", _INDEX, "    if not live.any():\n        return [np.arange(count)] * nq\n",
           "", (_STRESS + "test_overflow_chunk_memory_is_per_query",)),
    # A group minimum skips the NaN padding of a short tile; np.minimum
    # returns NaN for any group that holds padding.
    Mutant("group-minimum-keeps-nan", _INDEX, "np.fmin.reduce", "np.minimum.reduce", (
        _INDEX_TESTS + "test_index_loaded_at_a_budget_matches_one_built_at_it",
        _INDEX_TESTS + "test_knn_duplicate_vectors_tie_break_by_id",
        _INDEX_TESTS + "test_knn_k_larger_than_count_returns_all",
        _INDEX_TESTS + "test_knn_matches_oracle_on_seeded_instances",
        _INDEX_TESTS + "test_knn_ordering_invariant",
        _INDEX_TESTS + "test_knn_query_equal_to_stored_vector_has_distance_zero",
        _INDEX_TESTS + "test_knn_three_point_example",
        _INDEX_TESTS + "test_large_k_batch_works_in_a_few_score_tiles",
        _INDEX_TESTS + "test_load_takes_candidate_budget_from_caller",
        _INDEX_TESTS + "test_perm_prefix_recall_monotone_in_budget",
        _INDEX_TESTS + "test_perm_prefix_results_are_subset_of_data_and_ordered",
        _INDEX_TESTS + "test_save_load_round_trip_perm",
        _STRESS + "test_batch_with_a_query_whose_doubled_components_overflow_float32",
        _STRESS + "test_duplicate_rows_tie_by_id",
        _STRESS + "test_duplicates_straddle_a_tile_boundary",
        _STRESS + "test_exact_matches_oracle_hypothesis",
        _STRESS + "test_large_k_shrinks_the_chunk_to_a_tile_of_k_groups",
        _STRESS + "test_perm_rerank_matches_the_oracle_over_its_candidates",
        _STRESS + "test_ragged_last_tile_and_group",
        _STRESS + "test_rows_one_float32_bit_apart",
        _STRESS + "test_rows_past_a_short_tile_are_never_pooled",
        _GOLDEN + "test_golden_analysis_settings",
        _GOLDEN + "test_golden_perm_prefix",
        _GOLDEN + "test_golden_perm_prefix_through_cli",
        _ACCEPTANCE + "test_01_exact_search_matches_linear_scan_oracle",
        _ACCEPTANCE + "test_08_outputs_are_byte_identical",
        _ACCEPTANCE + "test_09_exact_search_throughput",
    )),
    # The budget's cut is the largest key that at least the budget's rows reach.
    Mutant("cut-counts-above-mid", _INDEX, "np.count_nonzero(key >= mid)", "np.count_nonzero(key > mid)", (
        _INDEX_TESTS + "test_perm_filter_equals_the_matrix_reference",
        _INDEX_TESTS + "test_perm_filter_fills_the_last_place_from_the_cut",
        _INDEX_TESTS + "test_perm_filter_finds_a_cut_past_a_byte",
        _INDEX_TESTS + "test_perm_filter_takes_the_first_rows_when_every_row_ties_at_the_cut",
        _INDEX_TESTS + "test_perm_query_at_a_large_budget_never_copies_its_candidates_whole",
        _GOLDEN + "test_golden_perm_prefix",
        _GOLDEN + "test_golden_perm_prefix_through_cli",
    )),
    # A tile's gathered blocks start at the tile's offset into the subset.
    Mutant("gather-drops-tile-offset", _INDEX, "subset[t0 + b : t0 + e]", "subset[b:e]", (
        _STRESS + "test_perm_rerank_matches_the_oracle_over_its_candidates",
    )),
    # Cells past a short tile's rows are NaN, which no limit pools; +inf is
    # pooled, as rows past the tile, while a query's limit is still infinite.
    Mutant("short-tile-padded-with-inf", _INDEX, "scores[:, n : _GROUP * w] = np.nan",
           "scores[:, n : _GROUP * w] = np.inf", (_STRESS + "test_rows_past_a_short_tile_are_never_pooled",)),
    # A row whose L-th and (L + 1)-th pivot distances tie may hold a lower tied pivot outside
    # the selected L + 1, so it ranks all P pivots instead.
    Mutant("prefix-tie-fallback-dropped", _INDEX,
           '            near[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :take]\n', "", (
               _INDEX_TESTS + "test_prefixes_equal_the_exact_integer_ranking",
               _INDEX_TESTS + "test_perm_filter_equals_the_matrix_reference",
           )),
    # The selection holds the (L + 1)-th nearest pivot, so a tie at the L-th place shows.
    Mutant("prefix-partitions-at-l", _INDEX, "min(prefix_len + 1, len(piv))", "min(prefix_len, len(piv))", (
        _INDEX_TESTS + "test_prefixes_equal_the_exact_integer_ranking",
        _INDEX_TESTS + "test_perm_filter_equals_the_matrix_reference",
    )),
    # The selected pivots go in pivot order before the stable sort by distance, which then
    # breaks ties to the lower pivot; unsorted, ties keep argpartition's order.
    Mutant("prefix-selection-not-in-pivot-order", _INDEX,
           "        near.sort(axis=1)  # by pivot, so that the stable sort by distance breaks ties to the lower\n",
           "", (
               _INDEX_TESTS + "test_prefixes_equal_the_exact_integer_ranking",
               _INDEX_TESTS + "test_perm_filter_equals_the_matrix_reference",
           )),
    # A split batch's lists come in share order, whichever share ends first; the caller's share,
    # the first, mostly ends last, and one test makes it always do.
    Mutant("split-parts-in-completion-order", _INDEX, "for hits in parts[i]]", "for hits in [*parts.values()][i]]", (
        _STRESS + "test_split_lists_come_in_query_order_whatever_order_the_shares_end",
    )),
    # Each of W workers takes a tile of _TILE // W scores, so the batch's scratch stays one tile's.
    Mutant("worker-tile-not-divided", _INDEX, "tile = max(1, _TILE // ways)", "tile = _TILE", (
        _STRESS + "test_large_k_shrinks_the_chunk_to_a_tile_of_k_groups",
        _STRESS + "test_split_batch_scratch_is_one_tile",
    )),
    # An unpinned BLAS threads each product itself, so W counts the CPUs it leaves idle.
    Mutant("ways-ignore-blas-threads", _INDEX, "    cpus = _usable_cpus()\n", "    return _usable_cpus()\n", (
        _STRESS + "test_the_ways_are_the_usable_cpus_over_the_blas_threads",
        "tests/test_cli.py::test_bench_json_records_the_usable_cpus_and_the_search_workers",
    )),
    # A lone query's row ranges meet end to end: off by one at each cut, the first row of every
    # range but the first goes unscored, and the scratch tile's stale value stands in for it.
    Mutant("lone-ranges-leave-a-gap", _INDEX, "lo, hi = ends[i], ends[i + 1]",
           "lo, hi = ends[i] + (i > 0), ends[i + 1]", (
               _STRESS + "test_a_lone_query_cut_by_rows_equals_one_thread_and_the_oracle",
               _STRESS + "test_a_row_stored_three_times_across_a_range_cut_keeps_id_order",
           )),
    # A lone query's ranges, too, count only the CPUs an unpinned BLAS leaves idle: none.
    Mutant("lone-cuts-ignore-blas-threads", _INDEX, "min(rows * self.config.dim // _TILE, _search_ways())",
           "min(rows * self.config.dim // _TILE, _usable_cpus())", (
               _STRESS + "test_the_ways_are_the_usable_cpus_over_the_blas_threads",
               "tests/test_cli.py::test_bench_json_records_the_usable_cpus_and_the_search_workers",
           )),
    # A reference built in memory takes the queries' dimensionality, so a feature file of
    # another is refused naming it; at its own, the search refuses the queries unnamed.
    Mutant("in-memory-index-at-the-file-dim", "neartag/cli.py", "index = _build_index(feat_path, cfg, dim)",
           "index = _build_index(feat_path, cfg)", (
               "tests/test_cli.py::test_a_query_file_of_another_dimensionality_is_refused_naming_the_reference",
               "tests/test_cli.py::test_bad_reference_file_is_named",
               "tests/test_cli.py::test_queries_annotate_cannot_match_are_refused",
           )),
    # A candidate the concept table lacks is marked -1 before the lookup.
    Mutant("unknown-candidate-unmasked", "neartag/annotator.py", "at = np.where(wanted < 0, -1, _find(",
           "at = np.where(False, -1, _find(",
           ("tests/test_annotator.py::test_score_concepts_equals_a_per_query_reference",)),
    # An id list keeps each name once, at its first place.
    Mutant("id-list-keeps-repeats", _TSV, "        if len(first) < len(items):", "        if False:", (
        "tests/test_keywords.py::test_words_lowercased_and_deduped_preserving_order",
        _TSV_TESTS + "test_id_lists_trim_lowercase_and_dedupe_in_first_seen_order",
        _TSV_TESTS + "test_id_lists_equal_the_line_by_line_reference",
    )),
    # An id list strips the blanks around each name.
    Mutant("id-list-keeps-blanks", _TSV, 'names = list(map(str.strip, text.split(","))) if n else []',
           'names = text.split(",") if n else []', (
               _TSV_TESTS + "test_id_lists_trim_lowercase_and_dedupe_in_first_seen_order",
               _TSV_TESTS + "test_id_lists_equal_the_line_by_line_reference",
               _TSV_TESTS + "test_every_whitespace_character_is_blank_to_the_skip_rule",
           )),
    # A synset declared twice is refused at its second S line.
    Mutant("duplicate-synset-accepted", "neartag/lexicon.py", "            if synset_id in declared:",
           "            if False:", (
               _LEXICON_TESTS + "test_duplicate_synset_rejected",
               _LEXICON_TESTS + "test_first_faulty_line_fails_whatever_its_record_type",
               _LEXICON_TESTS + "test_lexicon_equals_the_line_by_line_reference",
               _TSV_TESTS + "test_bad_line_names_path_and_line",
           )),
    # A sample's false alarms are its predictions that miss, its misses the truth it lacks:
    # swapped, precision and recall trade places.
    Mutant("sample-prf-swaps-misses-and-false-alarms", _EVALUATION,
           "_prf(hits, len(predicted) - hits, len(truth) - hits)",
           "_prf(hits, len(truth) - hits, len(predicted) - hits)", (
               _EVALUATION_TESTS + "test_sample_prf_worked_example",
               _EVALUATION_TESTS + "test_evaluate_equals_the_per_concept_reference",
               _GOLDEN + "test_golden_evaluate",
               "tests/test_cli.py::test_evaluate_ablation_matches_golden",
               "tests/test_cli.py::test_commands_share_one_pipeline",
               _ACCEPTANCE + "test_03_hand_computed_suite",
           )),
    # A concept goes unmeasured only when it was never relevant and never predicted; keyed on
    # its hits alone, a concept only ever predicted drops out of the concept means.
    Mutant("unmeasured-concept-keyed-on-hits", _EVALUATION, "if tp[name] + fp[name] + fn[name] else None",
           "if tp[name] else None", (
               _EVALUATION_TESTS + "test_evaluate_per_concept_predicted_but_never_relevant",
               _EVALUATION_TESTS + "test_evaluate_equals_the_per_concept_reference",
           )),
)


def failures(mutant: Mutant) -> set[str]:
    """The pytest ids that fail or error when ``mutant``'s tests run against a copy of ``src/`` it edits."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in src/{mutant.path}")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
                             cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: some tests failed; anything else means none ran as listed
        raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return {line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        failed = failures(mutant)
        passed = [t for t in mutant.tests if t not in failed and not any(f.startswith(t + "[") for f in failed)]
        survived += bool(passed)
        print(f"{mutant.name}: {'SURVIVED, passing ' + ', '.join(passed) if passed else 'killed'}"
              f" ({len(mutant.tests) - len(passed)} of {len(mutant.tests)} tests failed)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
