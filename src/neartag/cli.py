"""Command-line interface.

Subcommands: ``build`` (persist per-dataset indexes), ``annotate``
(rank candidate concepts for query images), ``evaluate`` (score an
annotation file against ground truth, optionally as a relation-ablation
sweep), ``generate`` (seeded synthetic corpus), and ``bench``
(per-phase throughput measurements).

``bench`` is ``annotate`` without an output file: one function runs both.
It loads the inputs, runs the library's search stage and then its semantic
stage (``annotate_words``), each once over the whole batch, and prints the
total and per-query time of each phase: index, keyword, lexicon and feature
loading, then the similarity search, keyword fetch and semantic analysis.
``annotate`` then writes the file; ``bench`` prints search and end-to-end
throughput instead, and with ``--json PATH`` also writes them, beside the
commit, the machine, the corpus shape and the index settings, as one JSON
record. ``evaluate --ablation`` runs the same two stages.

Every command exits nonzero on bad input, without leaving partial
output files behind.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import fvec
from .analysis import WEIGHTING_RECIPROCAL, WEIGHTING_UNIFORM
from .annotator import (
    KEYWORD_FETCH,
    SEMANTIC_ANALYSIS,
    SIMILARITY_SEARCH,
    Annotation,
    ConceptDef,
    Dataset,
    Query,
    annotate_batch,
    annotate_words,
    load_candidate_lists,
    load_concepts,
    read_annotations,
    search_neighbor_words,
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
from .evaluation import evaluate, format_ablation, format_report, load_ground_truth
from .index import (
    MODE_EXACT,
    MODE_PERM_PREFIX,
    IndexConfig,
    _usable_cpus,
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
    p.add_argument("--k", help="neighbors per query")
    p.add_argument("--m", help="concepts per annotation")
    p.add_argument("--s", help="senses per word")
    p.add_argument("--n", help="candidate synsets kept")
    p.add_argument("--weighting", choices=[WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL], help="neighbor weighting")
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
    cfg = apply_config_values(cfg, flags, base_dir=os.getcwd(), source="flag")
    IndexConfig(dim=1, **cfg.index)  # every command refuses bad index settings; the files give dim
    return cfg


def _check_exists(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise EngineError(f"missing {what}: {path}")


def _check_output_directory(path: str) -> None:
    """Refuse an output whose directory is missing before any input is read, with the error
    ``fvec._replacing`` would give once the run was done."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


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


def _build_index(feat_path: str, cfg: EngineConfig, dim: int | None = None):
    """Read a feature file and index it at ``dim``, by default the file's own; a vector set the
    index refuses, one of another dimensionality included, is reported with the path."""
    _check_exists(feat_path, "feature file")
    ids, matrix = fvec.read_vectors(feat_path)
    config = IndexConfig(dim=dim or matrix.shape[1], **cfg.index)
    try:
        return build_index_from_arrays(ids, matrix, config)
    except ValueError as exc:  # DimensionMismatch is one too
        raise FormatError(str(exc), path=feat_path) from None


def _load_datasets(cfg: EngineConfig, dim: int) -> tuple[list[Dataset], float, float]:
    """Load (or build) each dataset's index, at the queries' dimensionality ``dim``, and its
    keyword store. Returns the datasets and the seconds spent on the indexes and on the keyword
    stores."""
    datasets = []
    index_s = keyword_s = 0.0
    for pos, feat_path in enumerate(cfg.feature_paths):
        kw_path = cfg.keyword_paths[pos]
        _check_exists(kw_path, "keyword file")
        index_path = cfg.index_paths[pos] if cfg.index_paths else None
        t0 = time.perf_counter()
        if index_path and os.path.exists(index_path):
            index = load_index(index_path, IndexConfig(dim=dim, **cfg.index), dim_source="the queries'")
        else:
            index = _build_index(feat_path, cfg, dim)
        t1 = time.perf_counter()
        datasets.append(Dataset(index=index, keywords=load_keywords(kw_path)))
        index_s += t1 - t0
        keyword_s += time.perf_counter() - t1
    return datasets, index_s, keyword_s


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


def _load_queries(queries_path: str, candidates_path: str | None,
                  concepts: dict[str, ConceptDef]) -> list[Query]:
    _check_exists(queries_path, "query feature file")
    ids, matrix = fvec.read_vectors(queries_path)
    if not ids:
        raise EngineError(f"no queries in {queries_path}")
    if candidates_path is not None:
        _check_exists(candidates_path, "candidate list file")
        lists = load_candidate_lists(candidates_path, concepts)
    elif concepts:
        lists = dict.fromkeys(ids, tuple(sorted(concepts)))
    else:
        raise EngineError("no candidate lists given and no concepts to fall back on")
    queries: dict[str, Query] = {}
    for i, qid in enumerate(ids):
        if qid in queries:
            raise FormatError(f"duplicate query id {qid!r} (record {i})", path=queries_path)
        if qid not in lists:
            raise EngineError(f"query {qid!r} has no candidate list in {candidates_path}")
        queries[qid] = Query(qid, matrix[i], lists[qid])
    return list(queries.values())


def _print_warnings(annotations: list[Annotation]) -> None:
    silent = sum(1 for a in annotations if a.no_keyword_signal)
    if silent:
        print(f"warning: {silent} query/queries produced no lexicon-matching keywords")
    unconverged = sum(1 for a in annotations if not a.converged)
    if unconverged:
        print(f"warning: {unconverged} walk(s) stopped at max_iters before converging")


def _commit() -> str | None:
    """The git commit of the source tree this package runs from, with ``-dirty`` appended when
    tracked files differ from it; None outside a git checkout."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=os.path.dirname(os.path.abspath(__file__)),
                              capture_output=True, text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        return head.stdout.strip() + ("-dirty" if git("diff", "--quiet", "HEAD").returncode else "")
    except (OSError, subprocess.SubprocessError):
        return None


def _write_bench_record(path: str, datasets: list[Dataset], num_queries: int, k: int,
                        rows: list[tuple[str, float]], search_qps: float, end_to_end_qps: float) -> None:
    """Write ``bench``'s figures as one JSON object, whole or not at all."""
    record = {
        "commit": _commit(),
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            # The thread counts BLAS reads at start-up; null where unset (BLAS then picks its own).
            "blas_threads": {var: os.environ.get(var)
                             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "usable_cpus": _usable_cpus(),
            # The threads the search ranked a dataset's batch on, the most over the datasets.
            "search_workers": max(d.index._ways(num_queries, k) for d in datasets),
        },
        "corpus": {"queries": num_queries, "k": k,
                   "datasets": [{"rows": len(d.index), "dim": d.index.dim, "index": asdict(d.index.config)}
                                for d in datasets]},
        "phases": [{"phase": name, "total_s": seconds, "ms_per_query": 1000.0 * seconds / num_queries}
                   for name, seconds in rows],
        "search_qps": search_qps,
        "end_to_end_qps": end_to_end_qps,
    }
    with fvec._replacing(path, binary=False) as fh:
        fh.write(json.dumps(record, indent=2) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _require_datasets(cfg)
    if not cfg.index_paths:
        raise EngineError("no index output paths configured (dataset.index / --index)")
    for pos, feat_path in enumerate(cfg.feature_paths):
        t0 = time.perf_counter()
        index = _build_index(feat_path, cfg)
        save_index(index, cfg.index_paths[pos])
        elapsed = time.perf_counter() - t0
        print(f"dataset {pos + 1}: {len(index)} vectors, dim {index.dim}, "
              f"built in {elapsed:.2f}s -> {cfg.index_paths[pos]}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    """``annotate``, and ``bench``, which is ``annotate`` without an output file."""
    cfg = _resolve_config(args)
    _require_datasets(cfg)
    writes = args.command == "annotate"
    if writes and not cfg.output_path:
        raise EngineError("no output path configured (output / --output)")
    for path in filter(None, [cfg.output_path if writes else args.json]):
        _check_output_directory(path)
    t0 = time.perf_counter()
    lexicon, concepts = _load_semantics(cfg)
    t1 = time.perf_counter()
    queries = _load_queries(args.queries, args.candidates, concepts)
    t2 = time.perf_counter()
    datasets, index_s, keyword_s = _load_datasets(cfg, len(queries[0].feature))
    timings: dict[str, list[float]] = {}
    annotations = annotate_batch(queries, datasets, lexicon, concepts, cfg.params, timings)
    if writes:
        write_annotations(cfg.output_path, annotations)
    # Throughput counts the work rows, from feature load on, not the three one-off loads.
    setup = [("index load", index_s), ("keyword load", keyword_s), ("lexicon load", t1 - t0)]
    work = [("feature load", t2 - t1)]
    work += [(name, sum(timings[name])) for name in (SIMILARITY_SEARCH, KEYWORD_FETCH, SEMANTIC_ANALYSIS)]
    print(f"{'phase':<20} {'total_s':>9} {'ms/query':>10}")
    for name, seconds in setup + work:
        print(f"{name:<20} {seconds:>9.3f} {1000.0 * seconds / len(annotations):>10.3f}")
    total = sum(seconds for _name, seconds in work)
    if writes:
        qps = len(annotations) / total if total > 0 else float("inf")
        print(f"annotated {len(annotations)} queries -> {cfg.output_path} ({total:.2f}s, {qps:.1f} q/s)")
    else:
        search_qps = len(annotations) / sum(timings[SIMILARITY_SEARCH])
        end_to_end_qps = len(annotations) / total
        print(f"search throughput: {search_qps:.1f} q/s ({len(annotations)} queries)")
        print(f"end-to-end throughput: {end_to_end_qps:.1f} q/s")
        if args.json:
            _write_bench_record(args.json, datasets, len(annotations), cfg.params.k, setup + work,
                                search_qps, end_to_end_qps)
    _print_warnings(annotations)
    return 0


# Each level is a ``key = value`` overlay on the resolved settings; none sets ``k``.
_ABLATION_LEVELS = [
    ("frequency only (s=1, relations off)", {"s": "1", "relations": "none"}),
    ("multi-sense (relations off)", {"relations": "none"}),
    ("+ hierarchy (hypernym, hyponym)", {"relations": "hypernym,hyponym"}),
    ("+ parts (meronym, holonym)", {"relations": "hypernym,hyponym,meronym,holonym"}),
]


def run_ablation(cfg: EngineConfig, datasets: list[Dataset], lexicon, concepts,
                 queries: list[Query], truth: dict[str, set[str]]):
    """The four analysis levels, weakest first, over one search and one semantic stage per
    level. Returns (label, report) pairs."""
    ordered = sorted(queries, key=lambda q: q.id)
    words = search_neighbor_words(ordered, datasets, cfg.params.k)
    results = []
    for label, level in _ABLATION_LEVELS:
        params = apply_config_values(cfg, level, source="ablation level").params
        annotations = annotate_words(ordered, words, lexicon, concepts, params)
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
        queries = _load_queries(args.queries, args.candidates, concepts)
        datasets = _load_datasets(cfg, len(queries[0].feature))[0]
        print(format_ablation(run_ablation(cfg, datasets, lexicon, concepts, queries, truth)))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neartag",
                                     description="Search-based image annotation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and persist per-dataset indexes")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_build)

    for name, text in (("annotate", "annotate query images"),
                       ("bench", "measure per-phase throughput (annotate without writing)")):
        p = sub.add_parser(name, help=text)
        _add_engine_flags(p)
        p.add_argument("--queries", required=True, help="query feature file")
        p.add_argument("--candidates", help="per-query candidate lists (default: all concepts)")
        if name == "bench":
            p.add_argument("--json", metavar="PATH", help="also write the figures, machine and settings as JSON")
        p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score annotations against ground truth")
    _add_engine_flags(p)
    p.add_argument("--annotations", help="annotation file (default: configured output)")
    p.add_argument("--truth", required=True, help="ground truth file")
    p.add_argument("--no-per-concept", action="store_true", help="omit the per-concept table")
    p.add_argument("--ablation", action="store_true",
                   help="search once, analyse at four levels and print one row each")
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
