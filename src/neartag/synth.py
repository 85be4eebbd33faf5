"""Seeded synthetic corpus: Gaussian clusters with a matching lexicon.

The world has ``num_concepts`` leaf concepts, each a unit-variance
Gaussian prototype with ``cluster_noise_sigma`` spread. Leaves are
grouped (``group_size`` per group) under a shared category concept, so
the lexicon carries real structure for the relation machinery to use:

* leaf synset ``leaf<i>`` (word ``w<i>``), its concept is named ``w<i>``
* variant synsets ``var<i>_<j>`` (words ``w<i>x<j>``), hyponyms of the leaf
* a part synset ``part<i>`` (word ``w<i>p``), meronym of the leaf
* category synset ``cat<g>`` (word ``wc<g>``), hypernym of its leaves,
  with its own concept ``wc<g>``; deeper ancestors ``anc<g>_<l>`` pad
  the chain up to ``lexicon_depth``
* for an ``ambiguous_fraction`` of leaves the leaf word's rank-1 sense
  is a decoy synset ``dk<i>`` with no relations, demoting the true
  sense to rank 2

Each reference image gets one keyword. With probability ``label_noise``
it describes a uniformly drawn wrong leaf; the word form is a variant,
part, or category lemma at the configured rates, otherwise the leaf
word itself. Query truth is the generating leaf's concept plus its
category's concept, and the candidate list is truth plus distractors.

All randomness flows from one seeded generator, and files are written
deterministically, so a given config reproduces byte-identical output.
The reference vectors are built in the float32 matrix that is written,
rounded into it from one concept's float64 draw at a time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import fvec
from .errors import check_count, check_real


@dataclass(frozen=True)
class SynthConfig:
    rng_seed: int = 0
    dim: int = 16
    num_concepts: int = 20
    refs_per_concept: int = 100
    num_queries: int = 200
    cluster_noise_sigma: float = 0.25
    label_noise: float = 0.1
    lexicon_depth: int = 2
    group_size: int = 4
    variants_per_concept: int = 2
    synonym_rate: float = 0.25
    part_rate: float = 0.10
    category_rate: float = 0.0
    ambiguous_fraction: float = 0.5
    candidates_per_query: int = 8

    def __post_init__(self):
        for name, low in (("rng_seed", 0), ("dim", 1), ("num_concepts", 2), ("refs_per_concept", 1),
                          ("num_queries", 1), ("lexicon_depth", 1), ("group_size", 1),
                          ("variants_per_concept", 0), ("candidates_per_query", 2)):
            check_count(name, getattr(self, name), low)
        check_real("cluster_noise_sigma", self.cluster_noise_sigma, 0)
        for name in ("label_noise", "synonym_rate", "part_rate", "category_rate", "ambiguous_fraction"):
            check_real(name, getattr(self, name), 0, 1)
        if self.synonym_rate + self.part_rate + self.category_rate > 1.0:
            raise ValueError("synonym_rate + part_rate + category_rate must not exceed 1")
        if self.synonym_rate > 0 and self.variants_per_concept == 0:
            raise ValueError("synonym_rate > 0 requires variants_per_concept >= 1")


@dataclass(frozen=True)
class CorpusPaths:
    root: str
    refs: str
    keywords: str
    lexicon: str
    concepts: str
    queries: str
    candidates: str
    truth: str
    engine_config: str


def _leaf_word(i: int) -> str:
    return f"w{i:03d}"


def _variant_word(i: int, j: int) -> str:
    return f"w{i:03d}x{j}"


def _part_word(i: int) -> str:
    return f"w{i:03d}p"


def _category_word(g: int) -> str:
    return f"wc{g:02d}"


def generate_corpus(config: SynthConfig, out_dir: str) -> CorpusPaths:
    """Write a complete corpus into ``out_dir`` and return its file paths."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.rng_seed)
    c = config.num_concepts
    groups = [min(i // config.group_size, _num_groups(config) - 1) for i in range(c)]

    prototypes = rng.normal(0.0, 1.0, size=(c, config.dim))
    n_amb = round(config.ambiguous_fraction * c)
    ambiguous = set(rng.choice(c, size=n_amb, replace=False).tolist()) if n_amb else set()

    paths = CorpusPaths(
        root=out_dir,
        refs=os.path.join(out_dir, "refs.fvec"),
        keywords=os.path.join(out_dir, "keywords.tsv"),
        lexicon=os.path.join(out_dir, "lexicon.tsv"),
        concepts=os.path.join(out_dir, "concepts.tsv"),
        queries=os.path.join(out_dir, "queries.fvec"),
        candidates=os.path.join(out_dir, "candidates.tsv"),
        truth=os.path.join(out_dir, "truth.tsv"),
        engine_config=os.path.join(out_dir, "engine.conf"),
    )

    _write_lexicon(config, ambiguous, groups, paths.lexicon)
    _write_concepts(config, groups, paths.concepts)

    # Reference images: vectors plus one keyword each. A wrong label is drawn
    # from the other c - 1 leaves, so picks at or above the true leaf shift up one.
    r = config.refs_per_concept
    ref_ids = [f"r{i:04d}_{j:05d}" for i in range(c) for j in range(r)]
    ref_words: list[str] = []
    matrix = np.empty((c * r, config.dim), dtype=np.float32)
    for i in range(c):
        matrix[i * r : (i + 1) * r] = prototypes[i] + rng.normal(
            0.0, config.cluster_noise_sigma, size=(r, config.dim))
        wrong = rng.random(r) < config.label_noise
        wrong_pick = rng.integers(0, c - 1, size=r)
        form = rng.random(r)
        variant_pick = (
            rng.integers(0, config.variants_per_concept, size=r)
            if config.variants_per_concept else np.zeros(r, dtype=np.int64)
        )
        leaves = np.where(wrong, wrong_pick + (wrong_pick >= i), i).tolist()
        ref_words.extend(_pick_word(config, leaf, groups[leaf], f, v)
                         for leaf, f, v in zip(leaves, form.tolist(), variant_pick.tolist()))
    fvec.write_vectors(paths.refs, ref_ids, matrix)
    _write_lines(paths.keywords, (f"{rid}\t{word}" for rid, word in zip(ref_ids, ref_words)))

    # Queries with ground truth and candidate lists.
    all_names = [_leaf_word(i) for i in range(c)] + [_category_word(g) for g in range(_num_groups(config))]
    q = config.num_queries
    query_leaf = rng.integers(0, c, size=q)
    query_noise = rng.normal(0.0, config.cluster_noise_sigma, size=(q, config.dim))
    query_ids = [f"q{j:05d}" for j in range(q)]
    query_matrix = (prototypes[query_leaf] + query_noise).astype(np.float32)
    truth_lines = []
    candidate_lines = []
    for j in range(q):
        leaf = int(query_leaf[j])
        truth = [_leaf_word(leaf), _category_word(groups[leaf])]
        pool = [name for name in all_names if name not in truth]
        extra = min(config.candidates_per_query - len(truth), len(pool))
        picked = rng.choice(len(pool), size=extra, replace=False) if extra else []
        cand = sorted(truth + [pool[int(p)] for p in picked])
        truth_lines.append(f"{query_ids[j]}\t{','.join(sorted(truth))}")
        candidate_lines.append(f"{query_ids[j]}\t{','.join(cand)}")
    fvec.write_vectors(paths.queries, query_ids, query_matrix)
    _write_lines(paths.truth, truth_lines)
    _write_lines(paths.candidates, candidate_lines)

    _write_lines(paths.engine_config, [
        "dataset.features = refs.fvec",
        "dataset.keywords = keywords.tsv",
        "dataset.index = refs.index",
        "lexicon = lexicon.tsv",
        "concepts = concepts.tsv",
        "output = annotations.tsv",
        f"seed = {config.rng_seed}",
    ])
    return paths


def _num_groups(config: SynthConfig) -> int:
    return max(1, math.ceil(config.num_concepts / config.group_size))


def _pick_word(config: SynthConfig, leaf: int, group: int, form: float, variant: int) -> str:
    if form < config.synonym_rate:
        return _variant_word(leaf, variant + 1)
    if form < config.synonym_rate + config.part_rate:
        return _part_word(leaf)
    if form < config.synonym_rate + config.part_rate + config.category_rate:
        return _category_word(group)
    return _leaf_word(leaf)


def _write_lexicon(config: SynthConfig, ambiguous: set[int], groups: list[int], path: str) -> None:
    lines: list[str] = []
    num_groups = _num_groups(config)
    for i in range(config.num_concepts):
        word = _leaf_word(i)
        lines.append(f"S\tleaf{i:03d}\t{word}")
        if i in ambiguous:
            lines.append(f"S\tdk{i:03d}\t{word}")
            lines.append(f"W\t{word}\tdk{i:03d}\t1")
            lines.append(f"W\t{word}\tleaf{i:03d}\t2")
        else:
            lines.append(f"W\t{word}\tleaf{i:03d}\t1")
        for j in range(1, config.variants_per_concept + 1):
            vw = _variant_word(i, j)
            lines.append(f"S\tvar{i:03d}_{j}\t{vw}")
            lines.append(f"W\t{vw}\tvar{i:03d}_{j}\t1")
            lines.append(f"R\thyper\tvar{i:03d}_{j}\tleaf{i:03d}")
        pw = _part_word(i)
        lines.append(f"S\tpart{i:03d}\t{pw}")
        lines.append(f"W\t{pw}\tpart{i:03d}\t1")
        lines.append(f"R\tmero\tleaf{i:03d}\tpart{i:03d}")
        lines.append(f"R\thyper\tleaf{i:03d}\tcat{groups[i]:02d}")
    for g in range(num_groups):
        cw = _category_word(g)
        lines.append(f"S\tcat{g:02d}\t{cw}")
        lines.append(f"W\t{cw}\tcat{g:02d}\t1")
        below = f"cat{g:02d}"
        for level in range(2, config.lexicon_depth + 1):
            anc = f"anc{g:02d}_{level}"
            lines.append(f"S\t{anc}\tzz{g:02d}l{level}")
            lines.append(f"R\thyper\t{below}\t{anc}")
            below = anc
    _write_lines(path, lines)


def _write_concepts(config: SynthConfig, groups: list[int], path: str) -> None:
    lines = [f"C\t{_leaf_word(i)}\tleaf{i:03d}" for i in range(config.num_concepts)]
    lines.extend(f"C\t{_category_word(g)}\tcat{g:02d}" for g in range(_num_groups(config)))
    _write_lines(path, lines)


def _write_lines(path: str, lines) -> None:
    with fvec._replacing(path, binary=False) as fh:
        for line in lines:
            fh.write(line + "\n")
