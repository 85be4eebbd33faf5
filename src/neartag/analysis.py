"""Keyword analysis over the synset graph.

Pipeline stages, each a pure function passing plain data on:

1. ``word_frequencies``: neighbor keywords -> (word, weight) pairs.
2. ``initial_synsets``: word weights -> (synset, p0) pairs. A word with
   q usable senses splits its weight harmonically, sense rank r taking
   share (1/r) / (1 + 1/2 + ... + 1/q).
3. ``top_n``: the n strongest (synset, p0) pairs (weights not rescaled).
4. ``build_graph``: a positional ``SynsetGraph``: node ids (candidates,
   then at expansion depth 1 every synset one enabled relation away),
   a float64 restart vector aligned with them, and every enabled-type
   lexicon edge between nodes as (source position, relation, target
   position).
5. ``propagate``: a restart walk to the fixed point
   ``p = alpha * restart + (1 - alpha) * (T' p + dangling * restart)``
   where T splits each node's outgoing mass by relation weight and
   dangling nodes return their mass through the restart vector, so the
   distribution keeps total mass 1 every iteration. Its scores are
   aligned with the graph's nodes.
6. ``rank_synsets``: nodes and scores -> (synset, score) pairs ordered
   by (score desc, id asc).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lexicon import ALL_RELATIONS, Lexicon, RelationType

WEIGHTING_UNIFORM = "uniform"
WEIGHTING_RECIPROCAL = "reciprocal-rank"


def _default_lambdas() -> dict[RelationType, float]:
    return {rel: 1.0 for rel in RelationType}


@dataclass(frozen=True)
class AnalysisConfig:
    """Parameters for the keyword-analysis stages."""

    s: int = 7
    n: int = 100
    neighbor_weighting: str = WEIGHTING_UNIFORM
    relation_set: frozenset[RelationType] = ALL_RELATIONS
    lambdas: dict[RelationType, float] = field(default_factory=_default_lambdas)
    alpha: float = 0.5
    expansion_depth: int = 1
    max_iters: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be at least 1, got {self.s}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.neighbor_weighting not in (WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL):
            raise ValueError(f"unknown neighbor weighting {self.neighbor_weighting!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.expansion_depth not in (0, 1):
            raise ValueError(f"expansion_depth must be 0 or 1, got {self.expansion_depth}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        bad = set(self.relation_set) - set(RelationType)
        if bad:
            raise ValueError(f"unknown relation types {bad}")
        for rel in RelationType:
            if self.lambdas.get(rel, 0.0) < 0:
                raise ValueError(f"lambda for {rel.value} must be >= 0")


@dataclass(frozen=True)
class SynsetGraph:
    """Node ids, restart weights aligned with them, and positional edges."""

    nodes: tuple[str, ...]
    restart: np.ndarray
    edges: tuple[tuple[int, RelationType, int], ...]


@dataclass(frozen=True)
class PropagationResult:
    """Walk scores aligned with ``SynsetGraph.nodes``, plus diagnostics."""

    scores: np.ndarray
    iterations: int
    converged: bool
    max_mass_error: float


def word_frequencies(neighbor_words: list[tuple[str, list[str]]],
                     weighting: str = WEIGHTING_UNIFORM) -> list[tuple[str, float]]:
    """Aggregate neighbor keywords into normalized word weights.

    ``neighbor_words`` must be in ascending-distance order; with
    reciprocal-rank weighting the i-th neighbor (1-based) contributes
    1/i per distinct word, with uniform weighting 1 per distinct word.
    Output sums to 1 and is ordered by (weight desc, word asc).
    """
    if weighting not in (WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL):
        raise ValueError(f"unknown neighbor weighting {weighting!r}")
    raw: dict[str, float] = {}
    for rank, (_, words) in enumerate(neighbor_words, 1):
        contribution = 1.0 if weighting == WEIGHTING_UNIFORM else 1.0 / rank
        for word in dict.fromkeys(words):
            raw[word] = raw.get(word, 0.0) + contribution
    total = sum(raw.values())
    if total == 0.0:
        return []
    return sorted(((w, v / total) for w, v in raw.items()), key=lambda e: (-e[1], e[0]))


def initial_synsets(word_weights: list[tuple[str, float]], lexicon: Lexicon,
                    s: int) -> list[tuple[str, float]]:
    """Map word weights to (synset, p0) pairs via harmonic sense splitting.

    Words absent from the lexicon contribute nothing; the surviving
    synset weights are renormalized to sum 1. Ordered (p0 desc, id asc).
    """
    raw: dict[str, float] = {}
    for word, weight in word_weights:
        synsets = lexicon.senses(word, s)
        q = len(synsets)
        if q == 0:
            continue
        denom = sum(1.0 / r for r in range(1, q + 1))
        for r, synset_id in enumerate(synsets, 1):
            raw[synset_id] = raw.get(synset_id, 0.0) + weight * (1.0 / r) / denom
    total = sum(raw.values())
    if total == 0.0:
        return []
    return sorted(((sid, w / total) for sid, w in raw.items()), key=lambda e: (-e[1], e[0]))


def top_n(candidates: list[tuple[str, float]], n: int) -> list[tuple[str, float]]:
    """The n strongest (synset, p0) pairs by (p0 desc, id asc); weights kept as-is."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return sorted(candidates, key=lambda c: (-c[1], c[0]))[:n]


def build_graph(candidates: list[tuple[str, float]], lexicon: Lexicon,
                config: AnalysisConfig) -> SynsetGraph:
    """Assemble the propagation graph around the (synset, p0) candidates.

    At expansion depth 1 every synset reachable over one enabled
    relation joins with initial weight 0; depth 0 keeps candidates only.
    The restart distribution is the candidates' p0 renormalized over the
    final node set. Each node's relations are looked up once.
    """
    position: dict[str, int] = {}
    for synset_id, _p0 in candidates:
        if synset_id in position:
            raise ValueError(f"duplicate candidate synset {synset_id!r}")
        position[synset_id] = len(position)
    links = [lexicon.related(synset_id, config.relation_set) for synset_id in position]
    if config.expansion_depth == 1:
        added = sorted({target for out in links for target, _rel in out} - position.keys())
        for synset_id in added:
            position[synset_id] = len(position)
            links.append(lexicon.related(synset_id, config.relation_set))

    edges = tuple((src, rel, position[target])
                  for src, out in enumerate(links)
                  for target, rel in out if target in position)
    total = sum(p0 for _synset, p0 in candidates)
    if candidates and total <= 0.0:
        raise ValueError("candidate weights sum to zero; nothing to propagate from")
    restart = np.zeros(len(position), dtype=np.float64)
    restart[:len(candidates)] = [p0 / total for _synset, p0 in candidates]
    return SynsetGraph(nodes=tuple(position), restart=restart, edges=edges)


def propagate(graph: SynsetGraph, config: AnalysisConfig) -> PropagationResult:
    """Iterate the restart walk to its fixed point.

    Stops when the L1 change between successive distributions drops
    below ``config.tol`` or after ``config.max_iters`` updates. Returns
    the final scores, aligned with ``graph.nodes``, and the iteration
    count, convergence, and the worst deviation of total mass from 1
    seen at any iteration.
    """
    n = len(graph.nodes)
    if n == 0:
        return PropagationResult(np.zeros(0), 0, True, 0.0)
    restart = graph.restart
    src = np.array([e[0] for e in graph.edges], dtype=np.intp)
    dst = np.array([e[2] for e in graph.edges], dtype=np.intp)
    lam = np.array([config.lambdas.get(e[1], 0.0) for e in graph.edges], dtype=np.float64)
    out_weight = np.bincount(src, weights=lam, minlength=n)
    dangling = out_weight == 0.0
    keep = lam > 0.0  # a zero-weight edge carries nothing
    src, dst = src[keep], dst[keep]
    weights = lam[keep] / out_weight[src]

    alpha = config.alpha
    p = restart.copy()
    iterations = 0
    converged = False
    max_mass_error = abs(float(p.sum()) - 1.0)
    for _ in range(config.max_iters):
        flow = np.bincount(dst, weights=weights * p[src], minlength=n)
        dangling_mass = float(p[dangling].sum())
        new_p = alpha * restart + (1.0 - alpha) * (flow + dangling_mass * restart)
        iterations += 1
        max_mass_error = max(max_mass_error, abs(float(new_p.sum()) - 1.0))
        change = float(np.abs(new_p - p).sum())
        p = new_p
        if change < config.tol:
            converged = True
            break
    return PropagationResult(p, iterations, converged, max_mass_error)


def rank_synsets(graph: SynsetGraph, scores: np.ndarray) -> list[tuple[str, float]]:
    """(synset, score) pairs ordered by (score desc, id asc); ``scores``
    is aligned with ``graph.nodes``."""
    return sorted(zip(graph.nodes, scores.tolist()), key=lambda e: (-e[1], e[0]))
