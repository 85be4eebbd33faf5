"""Keyword analysis over the synset graph, for a whole batch of queries.

Every stage is a function over a batch: per-query lists laid end to end
in query order, each row tagged with its query (``owner``). Words and
synsets travel as numbers in sorted-name order (``KeywordStore`` and
``Lexicon`` number them when they load), so every "(weight desc, name
asc)" tie-break is an integer ``np.lexsort``.

1. ``word_frequencies``: ``NeighborWords`` -> word ``Weights``.
2. ``initial_synsets``: word weights -> synset ``Weights`` (p0). A word
   with q usable senses splits its weight harmonically, sense rank r
   taking share (1/r) / (1 + 1/2 + ... + 1/q).
3. ``top_n``: each query's n strongest synsets (weights not rescaled).
4. ``build_graph``: a ``SynsetGraph``: per query its candidates, then at
   expansion depth 1 every synset one enabled relation away, a float64
   restart vector aligned with them, and every enabled-type lexicon edge
   between a query's nodes as (source node, relation, target node).
5. ``propagate``: per query, a restart walk to the fixed point
   ``p = alpha * restart + (1 - alpha) * (T' p + dangling * restart)``
   where T splits each node's outgoing mass by relation weight and
   dangling nodes return their mass through the restart vector, so the
   distribution keeps total mass 1 every iteration. All walks step
   together, one ``np.bincount`` over every edge per iteration; a walk
   that has stopped is frozen in place, not renumbered. Its scores are
   aligned with the nodes.
6. ``rank_synsets``: nodes and scores -> synset ``Weights`` ordered by
   (score desc, synset asc).

Summation order: every per-query float sum (word and sense weights,
their totals, restart totals, dangling mass, mass and L1 change) is an
``np.bincount`` over values laid out in the order the sum is defined in,
first-seen order for weights, which adds them one by one in that order.
No query's arithmetic depends on the other queries of its batch, so a
query scores the same alone as in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .lexicon import ALL_RELATIONS, RELATIONS, Lexicon, RelationType

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


def _ints(values=()) -> np.ndarray:
    return np.asarray(values, dtype=np.intp)


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices lo[i], ..., lo[i] + count[i] - 1 of every i, laid end to end."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + count, count)


def _find(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each wanted value sits in ``keys`` (distinct values), -1 where absent."""
    if not len(keys):
        return np.full(len(wanted), -1, dtype=np.intp)
    sorter = np.argsort(keys)
    at = sorter[np.minimum(np.searchsorted(keys, wanted, sorter=sorter), len(keys) - 1)]
    return np.where(keys[at] == wanted, at, -1)


def _groups(key: np.ndarray):
    """The distinct values of ``key`` in ascending order, the row where each
    first occurs, and each row's group: what ``np.unique`` returns with
    ``return_index`` and ``return_inverse``, in fewer numpy calls."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _positions(owner: np.ndarray, queries: int) -> np.ndarray:
    """Each row's place within its query's rows; ``owner`` must be sorted."""
    counts = np.bincount(owner, minlength=queries)
    return np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass(frozen=True)
class NeighborWords:
    """A batch's neighbour keywords, laid end to end in query order.

    Entry i is the word ``vocabulary[word[i]]`` of the ``rank[i]``-th
    neighbour (from 1, in ascending distance, neighbours without a
    keyword record skipped) of query ``owner[i]``. ``vocabulary`` is
    sorted; a neighbour's words are distinct and in its keyword order.
    """

    owner: np.ndarray
    rank: np.ndarray
    word: np.ndarray
    vocabulary: tuple[str, ...]
    queries: int

    # Serves annotate_from_words, which perfbench observes by name, and an empty search batch.
    @classmethod
    def from_lists(cls, batch: list[list[tuple[str, list[str]]]]) -> NeighborWords:
        """From per-query (image id, words) lists in ascending-distance order;
        a word repeated within one image counts once."""
        entries = [(q, rank, word) for q, neighbors in enumerate(batch)
                   for rank, (_id, words) in enumerate(neighbors, 1) for word in dict.fromkeys(words)]
        vocabulary = tuple(sorted({word for _q, _rank, word in entries}))
        number = {word: i for i, word in enumerate(vocabulary)}
        owner, rank, word = (zip(*entries) if entries else ((), (), ()))
        return cls(_ints(owner), _ints(rank), _ints([number[w] for w in word]), vocabulary, len(batch))


@dataclass(frozen=True)
class Weights:
    """Per-query (item, weight) lists of a batch, laid end to end in query order.

    Row i gives query ``owner[i]`` the item ``names[item[i]]`` with weight
    ``weight[i]``. ``names`` is sorted, so item order is name order. The
    stages order each query's rows by (weight desc, item asc).
    """

    owner: np.ndarray
    item: np.ndarray
    weight: np.ndarray
    names: tuple[str, ...]
    queries: int


def _take(table: Weights, rows: np.ndarray) -> Weights:
    return Weights(table.owner[rows], table.item[rows], table.weight[rows], table.names, table.queries)


def _sum_by_item(owner: np.ndarray, item: np.ndarray, values: np.ndarray, names: tuple[str, ...],
                 queries: int) -> Weights:
    """Per query, each item's values summed in row order and divided by the
    query's total, which sums the items in first-seen order; ordered by
    (weight desc, item asc). ``owner`` must be sorted. A query whose total
    is 0 keeps no rows."""
    size = max(len(names), 1)
    key = owner * size + item
    unique, first, inverse = _groups(key)
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    seen = np.argsort(first)
    key, sums = unique[seen], sums[seen]
    owner, item = np.divmod(key, size)
    total = np.bincount(owner, weights=sums, minlength=queries)[owner]
    keep = total != 0.0
    owner, item, weight = owner[keep], item[keep], sums[keep] / total[keep]
    order = np.lexsort((item, -weight, owner))
    return Weights(owner[order], item[order], weight[order], names, queries)


@dataclass(frozen=True)
class SynsetGraph:
    """A batch's walk graphs laid end to end in query order.

    Node i is the synset ``names[nodes[i]]`` of query ``owner[i]``, with
    restart weight ``restart[i]``; a query's candidates come first, in
    candidate order, then its expansion in synset order. Each row of
    ``edges`` is (source node, relation number in ``RELATIONS``, target
    node), node positions over the whole batch; a query's edges are
    contiguous, by source node and then by (relation, target).
    """

    nodes: np.ndarray
    owner: np.ndarray
    restart: np.ndarray
    edges: np.ndarray
    names: tuple[str, ...]
    queries: int


@dataclass(frozen=True)
class PropagationResult:
    """Walk scores aligned with ``SynsetGraph.nodes``, plus per-query diagnostics:
    iterations, convergence and the worst deviation of total mass from 1."""

    scores: np.ndarray
    query_iterations: np.ndarray
    query_converged: np.ndarray
    query_mass_error: np.ndarray

    @property
    def iterations(self) -> int:
        """Iterations summed over the batch."""
        return int(self.query_iterations.sum())

    @property
    def converged(self) -> bool:
        """Whether every walk of the batch converged."""
        return bool(self.query_converged.all())

    @property
    def max_mass_error(self) -> float:
        return float(self.query_mass_error.max(initial=0.0))


def word_frequencies(neighbor_words: NeighborWords, weighting: str = WEIGHTING_UNIFORM) -> Weights:
    """Aggregate each query's neighbor keywords into normalized word weights.

    With reciprocal-rank weighting the i-th neighbor contributes 1/i per
    distinct word, with uniform weighting 1 per distinct word. A query's
    weights sum to 1 and are ordered by (weight desc, word asc).
    """
    if weighting not in (WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL):
        raise ValueError(f"unknown neighbor weighting {weighting!r}")
    nw = neighbor_words
    contribution = np.ones(len(nw.rank)) if weighting == WEIGHTING_UNIFORM else 1.0 / nw.rank
    return _sum_by_item(nw.owner, nw.word, contribution, nw.vocabulary, nw.queries)


def initial_synsets(word_weights: Weights, lexicon: Lexicon, s: int) -> Weights:
    """Map word weights to synset p0 weights via harmonic sense splitting.

    Words absent from the lexicon contribute nothing; a query's surviving
    synset weights are renormalized to sum 1, ordered (p0 desc, synset asc).
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    ww = word_weights
    words = lexicon.word_numbers([ww.names[i] for i in ww.item.tolist()])
    known = np.flatnonzero(words >= 0)
    lo = lexicon.sense_ptr[words[known]]
    q = np.minimum(lexicon.sense_ptr[words[known] + 1] - lo, s)
    harmonic = np.array([0.0, *accumulate(1.0 / r for r in range(1, int(q.max(initial=0)) + 1))])  # 1 + ... + 1/j
    row = np.repeat(known, q)
    rank = _ranges(np.ones_like(q), q)  # 1, ..., q for each word
    share = ww.weight[row] * (1.0 / rank) / harmonic[np.repeat(q, q)]
    synsets = lexicon.sense_synsets[_ranges(lo, q)]
    return _sum_by_item(ww.owner[row], synsets, share, lexicon.synset_names, ww.queries)


def top_n(candidates: Weights, n: int) -> Weights:
    """Each query's n strongest synsets by (p0 desc, synset asc); weights kept as-is."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    c = candidates
    ordered = _take(c, np.lexsort((c.item, -c.weight, c.owner)))
    return _take(ordered, np.flatnonzero(_positions(ordered.owner, c.queries) < n))


def _links(lexicon: Lexicon, nodes: np.ndarray, enabled: np.ndarray):
    """(node position, relation, target synset) of every enabled lexicon
    relation out of ``nodes``, by node and then as the lexicon orders them."""
    lo = lexicon.relation_ptr[nodes]
    count = lexicon.relation_ptr[nodes + 1] - lo
    rows = _ranges(lo, count)
    source = np.repeat(np.arange(len(nodes)), count)
    relation = lexicon.relation_types[rows]
    keep = enabled[relation]
    return source[keep], relation[keep], lexicon.relation_targets[rows][keep]


def build_graph(candidates: Weights, lexicon: Lexicon, config: AnalysisConfig) -> SynsetGraph:
    """Assemble each query's propagation graph around its candidate synsets.

    At expansion depth 1 every synset reachable over one enabled relation
    joins with initial weight 0; depth 0 keeps candidates only. A query's
    restart distribution is its candidates' p0 renormalized over its
    nodes.
    """
    c = candidates
    names = lexicon.synset_names
    if c.names is not names and c.names != names:
        raise ValueError("candidate synsets are not numbered by this lexicon")
    size = len(names)
    unique, first, _ = _groups(c.owner * size + c.item)
    if len(unique) < len(c.item):
        raise ValueError(f"duplicate candidate synset {names[np.delete(c.item, first)[0]]!r}")
    total = np.bincount(c.owner, weights=c.weight, minlength=c.queries)
    if (total[c.owner] <= 0.0).any():
        raise ValueError("candidate weights sum to zero; nothing to propagate from")
    enabled = np.array([rel in config.relation_set for rel in RELATIONS])
    owner, nodes, restart = c.owner, c.item, c.weight / total[c.owner]
    if config.expansion_depth == 1:
        source, _rel, target = _links(lexicon, c.item, enabled)
        reached = _groups(c.owner[source] * size + target)[0]
        added = reached[_find(unique, reached) < 0]  # by query, then synset
        # Per query, the candidates (in candidate order) and then the added synsets.
        order = np.argsort(np.concatenate((owner, added // size)), kind="stable")
        owner = np.concatenate((owner, added // size))[order]
        nodes = np.concatenate((nodes, added % size))[order]
        restart = np.concatenate((restart, np.zeros(len(added))))[order]
    source, relation, target = _links(lexicon, nodes, enabled)
    target = _find(owner * size + nodes, owner[source] * size + target)
    hit = target >= 0
    edges = np.stack((source[hit], relation[hit], target[hit]), axis=1)
    return SynsetGraph(nodes=nodes, owner=owner, restart=restart, edges=edges, names=names, queries=c.queries)


def propagate(graph: SynsetGraph, config: AnalysisConfig) -> PropagationResult:
    """Iterate every query's restart walk to its fixed point.

    A walk stops when the L1 change between its successive distributions
    drops below ``config.tol`` or after ``config.max_iters`` updates; its
    scores are copied out then, and its nodes keep their batch positions
    and keep stepping until the last walk stops. Returns the final scores,
    aligned with ``graph.nodes``, and per query the iteration count,
    convergence, and the worst deviation of total mass from 1 seen at any
    iteration. A query without nodes takes no iterations and counts as
    converged.
    """
    n, queries = len(graph.nodes), graph.queries
    src, rel, dst = (np.ascontiguousarray(column) for column in graph.edges.T)
    lam = np.array([config.lambdas.get(r, 0.0) for r in RELATIONS])[rel]
    out_weight = np.bincount(src, weights=lam, minlength=n)
    dangling = np.flatnonzero(out_weight == 0.0)
    keep = lam > 0.0  # a zero-weight edge carries nothing
    src, dst = src[keep], dst[keep]
    weights = lam[keep] / out_weight[src]

    owner, restart, alpha = graph.owner, graph.restart, config.alpha
    scores = restart.copy()
    iterations = np.zeros(queries, dtype=np.intp)
    converged = np.bincount(owner, minlength=queries) == 0
    mass_error = np.zeros(queries)
    limit = np.where(converged, -np.inf, config.tol)  # -inf: a walk without nodes, or one already stopped
    running = queries - int(converged.sum())
    dangling_owner, base, p = owner[dangling], alpha * restart, restart
    error = np.abs(np.bincount(owner, weights=p, minlength=queries) - 1.0)
    for step in range(1, config.max_iters + 1):
        if not running:
            break
        flow = np.bincount(dst, weights=weights * p[src], minlength=n)
        dangling_mass = np.bincount(dangling_owner, weights=p[dangling], minlength=queries)
        new_p = base + (1.0 - alpha) * (flow + dangling_mass[owner] * restart)
        change = np.bincount(owner, weights=np.abs(new_p - p), minlength=queries)
        error = np.maximum(error, np.abs(np.bincount(owner, weights=new_p, minlength=queries) - 1.0))
        p = new_p
        stop = change < limit if step < config.max_iters else limit > -np.inf
        if stop.any():
            ended = stop[owner]
            scores[ended] = p[ended]
            iterations[stop] = step
            converged[stop] = (change < config.tol)[stop]
            mass_error[stop] = error[stop]
            limit[stop] = -np.inf
            running -= int(stop.sum())
    return PropagationResult(scores, iterations, converged, mass_error)


def rank_synsets(graph: SynsetGraph, scores: np.ndarray) -> Weights:
    """Each query's synsets and scores, ordered by (score desc, synset asc);
    ``scores`` is aligned with ``graph.nodes``."""
    order = np.lexsort((graph.nodes, -scores, graph.owner))
    return Weights(graph.owner[order], graph.nodes[order], scores[order], graph.names, graph.queries)
