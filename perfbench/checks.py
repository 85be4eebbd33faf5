"""Correctness checks, computed apart from the engine.

Nothing here calls the engine's search, analysis or annotation code.
The inputs are read with this module's own parsers, nearest neighbours
come from a float64 linear scan, and annotation scores from a dense
solve of the restart walk's fixed point. Each check returns the ids of
the queries it failed, with a message per failure.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

REL_TOL = 1e-12  # relative distance tolerance of the search checks
SCORE_TOL = 1e-6  # absolute score tolerance of the annotation check
POSITIVE = 1e-12  # reference scores at or below this are treated as 0
RECALL_BAR = 0.8

INVERSE = {"hyper": "hypo", "hypo": "hyper", "mero": "holo", "holo": "mero"}


class Failures:
    """Query ids that failed a check, and why."""

    def __init__(self):
        self.ids: set[str] = set()
        self.messages: list[str] = []
        self.run_level: list[str] = []  # failures that belong to no single query

    def query(self, qid: str, message: str) -> None:
        self.ids.add(qid)
        self.messages.append(f"{qid}: {message}")

    def run(self, message: str) -> None:
        self.run_level.append(message)

    @property
    def ok(self) -> bool:
        return not self.ids and not self.run_level


# -- input parsers ----------------------------------------------------------

def read_fvec(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    newline = data.index(b"\n")
    magic, _version, dim, count = data[:newline].split(b" ")
    if magic != b"FVEC":
        raise ValueError(f"{path}: not a feature file")
    dim, count = int(dim), int(count)
    ids: list[str] = []
    matrix = np.empty((count, dim), dtype=np.float32)
    pos = newline + 1
    for i in range(count):
        id_len = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
        ids.append(data[pos : pos + id_len].decode("utf-8"))
        pos += id_len
        matrix[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
    return ids, matrix


def _tsv(path: str):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield line.split("\t")


def _names(field: str) -> list[str]:
    return list(dict.fromkeys(token.strip().lower() for token in field.split(",")))


def read_lists(path: str) -> dict[str, list[str]]:
    """``<id>\\t<name>,<name>`` files: keywords, candidates, truth."""
    return {parts[0]: _names(parts[1]) for parts in _tsv(path)}


def read_annotation_file(path: str) -> dict[str, list[tuple[str, float]]]:
    out: dict[str, list[tuple[str, float]]] = {}
    for qid, field in _tsv(path):
        ranked = []
        for token in field.split(","):
            name, _, score = token.rpartition(":")
            ranked.append((name, float(score)))
        out[qid] = ranked
    return out


# -- search -----------------------------------------------------------------

class LinearScan:
    """Exact float64 k-nearest neighbours, ordered by (distance, id).

    Rows are preselected with the expanded form |x|^2 - 2x.q + |q|^2 and
    rescored by direct subtraction. A query whose preselection cannot be
    shown to hold every true neighbour is rescored over all rows.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray):
        self.ids = ids
        self.values = matrix.astype(np.float64)
        self.norms = np.einsum("ij,ij->i", self.values, self.values)
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        self.id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        self.row_of = {image_id: i for i, image_id in enumerate(ids)}

    def distances(self, query: np.ndarray, rows) -> np.ndarray:
        diff = self.values[rows] - query
        return np.sqrt((diff * diff).sum(axis=1))

    def topk(self, queries, k: int) -> list[list[tuple[str, float]]]:
        """The k nearest rows of each query, closest first, ties by id."""
        queries = np.asarray(queries, dtype=np.float64)
        count = len(self.ids)
        kk = min(k, count)
        pool = min(count, max(4 * k, k + 200))
        approx_all = self.norms[:, None] - 2.0 * (self.values @ queries.T)
        out = []
        for col, q in enumerate(queries):
            approx = approx_all[:, col] + q @ q
            rows = np.argpartition(approx, pool - 1)[:pool] if pool < count else np.arange(count)
            dist = self.distances(q, rows)
            order = np.lexsort((self.id_rank[rows], dist))[:kk]
            if pool < count:
                # Every row left out has approx >= the pool's largest approx;
                # the float error of the expanded form is far below `slack`.
                slack = 1e-9 * (float(self.norms.max()) + float(q @ q) + 1.0)
                outside = np.ones(count, dtype=bool)
                outside[rows] = False
                if float(dist[order[-1]]) ** 2 + slack >= float(approx[outside].min()) - slack:
                    rows = np.arange(count)
                    dist = self.distances(q, rows)
                    order = np.lexsort((self.id_rank, dist))[:kk]
            out.append([(self.ids[rows[i]], float(dist[i])) for i in order])
        return out

    def distances_of(self, query, image_ids: list[str]) -> dict[str, float]:
        """True distances from ``query`` to the named rows (unknown ids are absent)."""
        known = [i for i in image_ids if i in self.row_of]
        dist = self.distances(np.asarray(query, dtype=np.float64), [self.row_of[i] for i in known])
        return dict(zip(known, dist.tolist()))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_exact_search(qid: str, got: list, want: list, failures: Failures) -> None:
    """``got`` equals the linear scan ``want`` in ids and order, up to near-ties."""
    if len(got) != len(want):
        failures.query(qid, f"{len(got)} neighbours, expected {len(want)}")
        return
    want_dist = dict(want)
    for pos, ((gid, gdist), (wid, wdist)) in enumerate(zip(got, want)):
        if not _close(gdist, wdist):
            failures.query(qid, f"neighbour {pos} at distance {gdist!r}, linear scan has {wdist!r}")
            return
        if gid != wid and not (gid in want_dist and _close(want_dist[gid], wdist)):
            failures.query(qid, f"neighbour {pos} is {gid!r}, linear scan has {wid!r}")
            return
    if len({gid for gid, _ in got}) != len(got):
        failures.query(qid, "duplicate neighbour ids")


def check_approximate_search(qid: str, got: list, true_dist: dict[str, float], k: int,
                             failures: Failures) -> None:
    """Returned distances are true distances, and the list is sorted by (distance, id)."""
    if len(got) != k:
        failures.query(qid, f"{len(got)} neighbours, expected {k}")
        return
    if len({gid for gid, _ in got}) != len(got):
        failures.query(qid, "duplicate neighbour ids")
        return
    for pos, (gid, gdist) in enumerate(got):
        if gid not in true_dist:
            failures.query(qid, f"neighbour {pos} {gid!r} is not a reference id")
            return
        if not _close(gdist, true_dist[gid]):
            failures.query(qid, f"neighbour {pos} {gid!r} reported at {gdist!r}, true {true_dist[gid]!r}")
            return
    for pos in range(1, len(got)):
        if (got[pos][1], got[pos][0]) < (got[pos - 1][1], got[pos - 1][0]):
            failures.query(qid, f"neighbours {pos - 1} and {pos} out of (distance, id) order")
            return


def recall_at(got: list, want: list, n: int = 10) -> float:
    truth = {image_id for image_id, _ in want[:n]}
    return len(truth & {image_id for image_id, _ in got[:n]}) / len(truth)


# -- annotation -------------------------------------------------------------

class ReferenceAnnotator:
    """Concept scores from the TSV files alone, with the engine defaults.

    Word weights count each distinct word once per neighbour; a word's
    weight splits over its first s senses by 1/rank; the n strongest
    synsets seed a graph grown one relation step; the walk's fixed point
    is solved densely; a concept scores its best synset.
    """

    def __init__(self, keywords: str, lexicon: str, concepts: str, candidates: str,
                 s: int = 7, n: int = 100, m: int = 5, alpha: float = 0.5):
        self.words = read_lists(keywords)
        self.candidates = read_lists(candidates)
        self.concepts = {parts[1].strip().lower(): [t.strip() for t in parts[2].split(",")]
                         for parts in _tsv(concepts)}
        senses: dict[str, dict[int, str]] = {}
        edges: set[tuple[str, str, str]] = set()
        for parts in _tsv(lexicon):
            if parts[0] == "W":
                senses.setdefault(parts[1].strip().lower(), {})[int(parts[3])] = parts[2]
            elif parts[0] == "R":
                edges.add((parts[2], parts[1], parts[3]))
                edges.add((parts[3], INVERSE[parts[1]], parts[2]))
        self.senses = {w: [ranks[r] for r in sorted(ranks)] for w, ranks in senses.items()}
        self.out: dict[str, list[str]] = {}
        for src, _rel, dst in sorted(edges):
            self.out.setdefault(src, []).append(dst)
        self.s, self.n, self.m, self.alpha = s, n, m, alpha

    def synset_scores(self, neighbor_ids: list[str]) -> dict[str, float]:
        counts: Counter = Counter()
        for image_id in neighbor_ids:
            counts.update(set(self.words.get(image_id, ())))
        total = sum(counts.values())
        seeds: Counter = Counter()
        for word, count in counts.items():
            synsets = self.senses.get(word, [])[: self.s]
            harmonic = sum(1.0 / r for r in range(1, len(synsets) + 1))
            for rank, synset in enumerate(synsets, 1):
                seeds[synset] += (count / total) / rank / harmonic
        if not seeds:
            return {}
        kept = sorted(seeds.items(), key=lambda e: (-e[1], e[0]))[: self.n]
        nodes = [synset for synset, _ in kept]
        nodes += sorted({t for synset in nodes for t in self.out.get(synset, ())} - set(nodes))
        pos = {synset: i for i, synset in enumerate(nodes)}
        size = len(nodes)
        restart = np.zeros(size)
        for synset, weight in kept:
            restart[pos[synset]] = weight
        restart /= restart.sum()
        transition = np.zeros((size, size))  # transition[v, u]: share of u's mass sent to v
        dangling = np.zeros(size)
        for u, synset in enumerate(nodes):
            targets = [pos[t] for t in self.out.get(synset, ()) if t in pos]
            if not targets:
                dangling[u] = 1.0
            for v in targets:
                transition[v, u] += 1.0 / len(targets)
        system = np.eye(size) - (1.0 - self.alpha) * (transition + np.outer(restart, dangling))
        scores = np.linalg.solve(system, self.alpha * restart)
        return {synset: float(scores[i]) for i, synset in enumerate(nodes)}

    def ranked(self, qid: str, neighbor_ids: list[str]) -> list[tuple[str, float]]:
        """Every candidate with its score, by (score desc, name asc)."""
        synsets = self.synset_scores(neighbor_ids)
        scored = []
        for name in self.candidates[qid]:
            best = max((synsets.get(s, 0.0) for s in self.concepts[name]), default=0.0)
            scored.append((name, best if best > POSITIVE else 0.0))
        return sorted(scored, key=lambda e: (-e[1], e[0]))


def check_scores(qid: str, got: list, reference: list, m: int, failures: Failures) -> None:
    """Scores within SCORE_TOL of the reference; the ranking matches up to ties."""
    positive = [entry for entry in reference if entry[1] > 0.0]
    expected = (positive or reference)[:m]
    if len(got) != len(expected):
        failures.query(qid, f"{len(got)} concepts, reference selects {len(expected)}")
        return
    ref = dict(reference)
    for pos, ((name, score), (_, want)) in enumerate(zip(got, expected)):
        if name not in ref:
            failures.query(qid, f"concept {name!r} is not a candidate")
            return
        if abs(score - ref[name]) > SCORE_TOL:
            failures.query(qid, f"{name!r} scored {score!r}, reference {ref[name]!r}")
            return
        if abs(ref[name] - want) > SCORE_TOL:
            failures.query(qid, f"rank {pos} holds {name!r} ({ref[name]!r}), reference ranks a"
                                f" concept scoring {want!r} there")
            return


def check_properties(qid: str, got: list, candidates: list[str], m: int, failures: Failures) -> None:
    """At most m distinct candidate concepts, scores non-increasing in [0, 1]."""
    names = [name for name, _ in got]
    scores = [score for _, score in got]
    if not 1 <= len(got) <= m:
        failures.query(qid, f"{len(got)} concepts, expected 1..{m}")
    elif len(set(names)) != len(names):
        failures.query(qid, "a concept appears twice")
    elif not set(names) <= set(candidates):
        failures.query(qid, f"concepts {sorted(set(names) - set(candidates))} are not candidates")
    elif any(not 0.0 <= s <= 1.0 for s in scores):
        failures.query(qid, f"scores {scores} leave [0, 1]")
    elif any(b > a for a, b in zip(scores, scores[1:])):
        failures.query(qid, f"scores {scores} increase")


# -- quality ----------------------------------------------------------------

def sample_quality(annotations: dict[str, list[tuple[str, float]]],
                   truth: dict[str, list[str]]) -> tuple[float, float]:
    """Sample-averaged F score and average precision over annotated samples with truth."""
    f_sum = ap_sum = 0.0
    count = 0
    for qid, ranked in annotations.items():
        relevant = set(truth.get(qid, ()))
        if not relevant:
            continue
        predicted = [name for name, score in ranked if score > 0.0]
        hits = [name in relevant for name in predicted]
        if predicted and any(hits):
            precision = sum(hits) / len(predicted)
            recall = sum(hits) / len(relevant)
            f_sum += 2.0 * precision * recall / (precision + recall)
        found = 0
        for rank, hit in enumerate(hits, 1):
            if hit:
                found += 1
                ap_sum += found / rank / len(relevant)
        count += 1
    if count == 0:
        return math.nan, math.nan
    return f_sum / count, ap_sum / count
