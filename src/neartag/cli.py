"""Command-line interface.

Subcommands: ``build`` (persist per-dataset indexes), ``annotate``
(rank candidate concepts for query images), ``evaluate`` (score an
annotation file against ground truth, optionally as a relation-ablation
sweep), ``generate`` (seeded synthetic corpus), and ``bench``
(per-phase throughput measurements).

``annotate``, ``bench`` and ``evaluate --ablation`` all annotate through
``annotator.annotate_batch``, so the timings ``annotate`` and ``bench``
print are of the code the library runs. Both print one table: index,
lexicon and feature loading, the batched similarity search, and the
per-query keyword fetch and semantic analysis with percentiles.

Every command exits nonzero on bad input, without leaving partial
output files behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import fvec
from .annotator import (
    KEYWORD_FETCH,
    SEMANTIC_ANALYSIS,
    SIMILARITY_SEARCH,
    Annotation,
    ConceptDef,
    Dataset,
    Query,
    annotate_batch,
    load_candidate_lists,
    load_concepts,
    read_annotations,
    write_annotations,
)
from .config import (
    KEYS,
    PRESETS,
    EngineConfig,
    apply_config_values,
    apply_preset,
    load_engine_config,
)
from .errors import EngineError, FormatError
from .evaluation import evaluate, format_report, load_ground_truth
from .index import (
    MODE_EXACT,
    MODE_PERM_PREFIX,
    build_index_from_arrays,
    load_index,
    save_index,
)
from .keywords import load_keywords
from .lexicon import load_lexicon
from .synth import SynthConfig, generate_corpus


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    """The engine flags. Each one's ``dest`` is the config key it sets, and
    its text is parsed and checked as that key's config value."""
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
    p.add_argument("--features", dest="dataset.features", action="append",
                   help="reference feature file (repeatable)")
    p.add_argument("--keywords", dest="dataset.keywords", action="append",
                   help="reference keyword file (repeatable)")
    p.add_argument("--index", dest="dataset.index", action="append",
                   help="index file per dataset (repeatable)")
    p.add_argument("--lexicon", help="lexicon file")
    p.add_argument("--concepts", help="concept definition file")
    p.add_argument("--output", help="annotation output file")
    p.add_argument("--dim", help="feature dimensionality")
    p.add_argument("--k", help="neighbors per query")
    p.add_argument("--m", help="concepts per annotation")
    p.add_argument("--s", help="senses per word")
    p.add_argument("--n", help="candidate synsets kept")
    p.add_argument("--weighting", choices=["uniform", "reciprocal-rank"], help="neighbor weighting")
    p.add_argument("--relations", help="comma list of relation types, or 'none'")
    p.add_argument("--lam", action="append", metavar="REL=W",
                   help="relation weight, e.g. hypernym=2.0 (repeatable; sets lambda.REL)")
    p.add_argument("--alpha", help="restart probability")
    p.add_argument("--expansion-depth", help="graph expansion depth (0 or 1)")
    p.add_argument("--max-iters", help="propagation iteration cap")
    p.add_argument("--tol", help="propagation L1 stop tolerance")
    p.add_argument("--index-mode", dest="index.mode", choices=[MODE_EXACT, MODE_PERM_PREFIX],
                   help="search mode")
    p.add_argument("--pivots", dest="index.pivots", help="pivot count (perm-prefix)")
    p.add_argument("--prefix-len", dest="index.prefix_len", help="permutation prefix length (perm-prefix)")
    p.add_argument("--budget", dest="index.budget", help="candidate budget (perm-prefix)")
    p.add_argument("--seed", help="rng seed for index builds")


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    cfg = load_engine_config(args.config) if args.config else EngineConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    given = {key: getattr(args, key) for key in KEYS if getattr(args, key, None) is not None}
    flags = {key: value if isinstance(value, str) else ",".join(value) for key, value in given.items()}
    for item in args.lam or []:
        if "=" not in item:
            raise EngineError(f"--lam expects REL=WEIGHT, got {item!r}")
        rel, weight = item.split("=", 1)
        flags[f"lambda.{rel.strip()}"] = weight.strip()
    return apply_config_values(cfg, flags, base_dir=os.getcwd(), source="flag")


def _check_exists(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise EngineError(f"missing {what}: {path}")


def _require_datasets(cfg: EngineConfig) -> None:
    if not cfg.feature_paths:
        raise EngineError("no dataset feature files configured (dataset.features / --features)")
    if len(cfg.keyword_paths) != len(cfg.feature_paths):
        raise EngineError(
            f"{len(cfg.feature_paths)} feature file(s) but {len(cfg.keyword_paths)} keyword file(s)"
        )
    if cfg.index_paths and len(cfg.index_paths) != len(cfg.feature_paths):
        raise EngineError(
            f"{len(cfg.feature_paths)} feature file(s) but {len(cfg.index_paths)} index path(s)"
        )
    if cfg.dim < 1:
        raise EngineError("feature dimensionality not set (dim / --dim)")


def _load_datasets(cfg: EngineConfig) -> list[Dataset]:
    """Load (or build) each dataset's index and keyword store."""
    datasets = []
    for pos, feat_path in enumerate(cfg.feature_paths):
        kw_path = cfg.keyword_paths[pos]
        _check_exists(kw_path, "keyword file")
        index_path = cfg.index_paths[pos] if cfg.index_paths else None
        if index_path and os.path.exists(index_path):
            index = load_index(index_path, cfg.index_config())
        else:
            _check_exists(feat_path, "feature file")
            ids, matrix = fvec.read_vectors(feat_path)
            index = build_index_from_arrays(ids, matrix, cfg.index_config())
        datasets.append(Dataset(index=index, keywords=load_keywords(kw_path)))
    return datasets


def _load_semantics(cfg: EngineConfig):
    if not cfg.lexicon_path:
        raise EngineError("no lexicon configured (lexicon / --lexicon)")
    if not cfg.concepts_path:
        raise EngineError("no concept file configured (concepts / --concepts)")
    _check_exists(cfg.lexicon_path, "lexicon file")
    _check_exists(cfg.concepts_path, "concept file")
    lexicon = load_lexicon(cfg.lexicon_path)
    concepts = load_concepts(cfg.concepts_path, lexicon)
    return lexicon, concepts


def _load_queries(cfg: EngineConfig, queries_path: str, candidates_path: str | None,
                  concepts: dict[str, ConceptDef]) -> list[Query]:
    _check_exists(queries_path, "query feature file")
    ids, matrix = fvec.read_vectors(queries_path)
    if not ids:
        raise EngineError(f"no queries in {queries_path}")
    if matrix.shape[1] != cfg.dim:
        raise EngineError(f"query dimensionality {matrix.shape[1]} does not match configured {cfg.dim}")
    if candidates_path is not None:
        _check_exists(candidates_path, "candidate list file")
        lists = load_candidate_lists(candidates_path, concepts)
        queries = []
        for i, qid in enumerate(ids):
            if qid not in lists:
                raise EngineError(f"query {qid!r} has no candidate list in {candidates_path}")
            queries.append(Query(qid, matrix[i], lists[qid]))
        return queries
    if not concepts:
        raise EngineError("no candidate lists given and no concepts to fall back on")
    fallback = tuple(sorted(concepts))
    return [Query(qid, matrix[i], fallback) for i, qid in enumerate(ids)]


# A timing row: (phase, total seconds, per-query seconds or None).
_PhaseRow = tuple[str, float, list[float] | None]


def _annotate_timed(cfg: EngineConfig, args: argparse.Namespace
                    ) -> tuple[list[Annotation], list[_PhaseRow], list[_PhaseRow]]:
    """Load the inputs and annotate the queries, timing each phase.

    Returns (annotations, setup rows, per-query work rows). Setup is
    loading (or building) the indexes and loading the lexicon; the work
    rows are what every query costs, from reading its features on.
    """
    t0 = time.perf_counter()
    datasets = _load_datasets(cfg)
    t1 = time.perf_counter()
    lexicon, concepts = _load_semantics(cfg)
    t2 = time.perf_counter()
    queries = _load_queries(cfg, args.queries, args.candidates, concepts)
    t3 = time.perf_counter()
    timings: dict[str, list[float]] = {}
    annotations = annotate_batch(queries, datasets, lexicon, concepts, cfg.params, timings)
    setup = [("index load", t1 - t0, None), ("lexicon load", t2 - t1, None)]
    work: list[_PhaseRow] = [("feature load", t3 - t2, None),
                            (SIMILARITY_SEARCH, sum(timings[SIMILARITY_SEARCH]), None)]
    work += [(name, sum(timings[name]), timings[name]) for name in (KEYWORD_FETCH, SEMANTIC_ANALYSIS)]
    return annotations, setup, work


def _phase_table(rows: list[_PhaseRow], num_queries: int) -> str:
    """Total and mean time per phase, with percentiles where a phase was
    timed query by query ("-" for loads and for the batched search)."""
    lines = [f"{'phase':<20} {'total_s':>9} {'ms/query':>10} {'p50_ms':>8} {'p90_ms':>8} {'p99_ms':>8}"]
    for name, total, samples in rows:
        line = f"{name:<20} {total:>9.3f} {1000.0 * total / num_queries:>10.3f}"
        if samples is None:
            line += f" {'-':>8} {'-':>8} {'-':>8}"
        else:
            line += "".join(f" {p:>8.3f}" for p in np.percentile(1000.0 * np.array(samples), (50, 90, 99)))
        lines.append(line)
    return "\n".join(lines)


def _print_warnings(annotations: list[Annotation]) -> None:
    silent = sum(1 for a in annotations if a.no_keyword_signal)
    if silent:
        print(f"warning: {silent} query/queries produced no lexicon-matching keywords")
    unconverged = sum(1 for a in annotations if not a.converged)
    if unconverged:
        print(f"warning: {unconverged} walk(s) stopped at max_iters before converging")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require_datasets(cfg)
    if not cfg.index_paths:
        raise EngineError("no index output paths configured (dataset.index / --index)")
    for pos, feat_path in enumerate(cfg.feature_paths):
        _check_exists(feat_path, "feature file")
        t0 = time.perf_counter()
        ids, matrix = fvec.read_vectors(feat_path)
        index = build_index_from_arrays(ids, matrix, cfg.index_config())
        save_index(index, cfg.index_paths[pos])
        elapsed = time.perf_counter() - t0
        print(f"dataset {pos + 1}: {len(ids)} vectors, dim {matrix.shape[1]}, "
              f"built in {elapsed:.2f}s -> {cfg.index_paths[pos]}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require_datasets(cfg)
    if not cfg.output_path:
        raise EngineError("no output path configured (output / --output)")
    annotations, setup, work = _annotate_timed(cfg, args)
    write_annotations(cfg.output_path, annotations)
    print(_phase_table(setup + work, len(annotations)))
    total = sum(row[1] for row in work)
    qps = len(annotations) / total if total > 0 else float("inf")
    print(f"annotated {len(annotations)} queries -> {cfg.output_path} ({total:.2f}s, {qps:.1f} q/s)")
    _print_warnings(annotations)
    return 0


# Each level is a ``key = value`` overlay on the resolved settings.
_ABLATION_LEVELS = [
    ("frequency only (s=1, relations off)", {"s": "1", "relations": "none"}),
    ("multi-sense (relations off)", {"relations": "none"}),
    ("+ hierarchy (hypernym, hyponym)", {"relations": "hypernym,hyponym"}),
    ("+ parts (meronym, holonym)", {"relations": "hypernym,hyponym,meronym,holonym"}),
]


def run_ablation(cfg: EngineConfig, datasets: list[Dataset], lexicon, concepts,
                 queries: list[Query], truth: dict[str, set[str]]):
    """The four analysis levels, weakest first. Returns (label, report) pairs."""
    results = []
    for label, level in _ABLATION_LEVELS:
        params = apply_config_values(cfg, level, source="ablation level").params
        annotations = annotate_batch(queries, datasets, lexicon, concepts, params)
        results.append((label, evaluate(annotations, truth, concepts)))
    return results


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    lexicon, concepts = _load_semantics(cfg)
    _check_exists(args.truth, "ground truth file")
    truth = load_ground_truth(args.truth, concepts)

    if args.ablation:
        if not args.queries:
            raise EngineError("--ablation needs --queries (and usually --candidates)")
        _require_datasets(cfg)
        datasets = _load_datasets(cfg)
        queries = _load_queries(cfg, args.queries, args.candidates, concepts)
        results = run_ablation(cfg, datasets, lexicon, concepts, queries, truth)
        print(f"{'level':<40} {'MP-s%':>7} {'MR-s%':>7} {'MF-s%':>7} {'MAP-s%':>7}")
        for label, report in results:
            print(f"{label:<40} {100 * report.mp_s:>7.1f} {100 * report.mr_s:>7.1f} "
                  f"{100 * report.mf_s:>7.1f} {100 * report.map_s:>7.1f}")
        return 0

    output_path = args.annotations or cfg.output_path
    if not output_path:
        raise EngineError("no annotation file to evaluate (--annotations or config output)")
    _check_exists(output_path, "annotation file")
    annotations = read_annotations(output_path)
    report = evaluate(annotations, truth, concepts)
    print(format_report(report, per_concept=not args.no_per_concept))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    given = vars(args)
    synth_cfg = SynthConfig(**{f.name: given[f.name] for f in fields(SynthConfig) if f.name in given})
    paths = generate_corpus(synth_cfg, args.out)
    total_refs = synth_cfg.num_concepts * synth_cfg.refs_per_concept
    print(f"corpus written to {paths.root}")
    print(f"  {total_refs} reference vectors (dim {synth_cfg.dim}), "
          f"{synth_cfg.num_queries} queries, {synth_cfg.num_concepts} leaf concepts")
    print(f"  engine config: {paths.engine_config}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require_datasets(cfg)
    annotations, setup, work = _annotate_timed(cfg, args)
    print(_phase_table(setup + work, len(annotations)))
    search_total = next(row[1] for row in work if row[0] == SIMILARITY_SEARCH)
    total = sum(row[1] for row in work)
    print(f"search throughput: {len(annotations) / search_total:.1f} q/s ({len(annotations)} queries)")
    print(f"end-to-end throughput: {len(annotations) / total:.1f} q/s")
    _print_warnings(annotations)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neartag",
                                     description="Search-based image annotation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and persist per-dataset indexes")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("annotate", help="annotate query images")
    _add_engine_flags(p)
    p.add_argument("--queries", required=True, help="query feature file")
    p.add_argument("--candidates", help="per-query candidate concept lists")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score annotations against ground truth")
    _add_engine_flags(p)
    p.add_argument("--annotations", help="annotation file (default: configured output)")
    p.add_argument("--truth", required=True, help="ground truth file")
    p.add_argument("--no-per-concept", action="store_true", help="omit the per-concept table")
    p.add_argument("--ablation", action="store_true",
                   help="re-annotate at four analysis levels and print one row each")
    p.add_argument("--queries", help="query feature file (ablation mode)")
    p.add_argument("--candidates", help="candidate lists (ablation mode)")
    p.set_defaults(func=cmd_evaluate)

    # Each flag's dest is the SynthConfig field it sets; an absent flag
    # leaves the field at SynthConfig's default.
    p = sub.add_parser("generate", help="generate a seeded synthetic corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", dest="rng_seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--concepts", dest="num_concepts", type=int, help="number of leaf concepts")
    p.add_argument("--refs", dest="refs_per_concept", type=int, help="reference images per concept")
    p.add_argument("--queries", dest="num_queries", type=int)
    p.add_argument("--sigma", dest="cluster_noise_sigma", type=float, help="cluster noise sigma")
    p.add_argument("--label-noise", type=float)
    p.add_argument("--depth", dest="lexicon_depth", type=int, help="hypernym chain depth")
    p.add_argument("--group-size", type=int, help="leaf concepts per category")
    p.add_argument("--variants", dest="variants_per_concept", type=int, help="variant synsets per leaf")
    p.add_argument("--synonym-rate", type=float)
    p.add_argument("--part-rate", type=float)
    p.add_argument("--category-rate", type=float)
    p.add_argument("--ambiguous-fraction", type=float)
    p.add_argument("--candidates-per-query", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="measure per-phase throughput")
    _add_engine_flags(p)
    p.add_argument("--queries", required=True, help="query feature file")
    p.add_argument("--candidates", help="per-query candidate lists (default: all concepts)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
