"""The timed phases, run in child processes of run.py.

``build`` repeats the build phase --reps times (read the reference
vectors, build the index, save it). ``serve`` sets up, runs one warm
batch pass over a tenth of the batch, then timed rounds until --seconds
have passed (at least MIN_ROUNDS): each round is a batch pass over the
workload's batch queries followed by single-query ``annotate`` calls over
a fixed sample. Between rounds it runs GAP_BUILDS builds in a child
process and sets up GAP_SETUPS times. Both write what they
measured, and what the checks need, as JSON.

With ``--trace 1`` the engine's public functions are wrapped by a Tracer
for the whole process, and the JSON also carries per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import neartag as nt
from tracer import Tracer, Window
from workloads import WORKLOADS, Workload, tiny

MIB = float(1 << 20)
WARM_MIN_QUERIES = 64  # the untimed warm pass covers a tenth of the batch, at least this many
MIN_ROUNDS = 4  # rounds run even if --seconds has passed
GAP_BUILDS = 2  # builds between two rounds; one more runs before serving
GAP_SETUPS = 3  # set-ups between two rounds; setup_s is the median of all set-ups


class PhaseError(Exception):
    """A child phase failed or ran out of time."""


def spawn(phase: str, name: str, args, work: str, timeout: float, *extra: str) -> dict:
    """Run ``phase`` in a fresh child process; returns the JSON it wrote to ``<work>/<name>.json``."""
    out = os.path.join(work, f"{name}.json")
    cmd = [sys.executable, os.path.abspath(__file__), phase, "--workload", args.workload,
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
           *extra, *(["--tiny"] if args.tiny else [])]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise PhaseError(f"{name} ran past the run's time limit") from None
    if proc.returncode != 0:
        raise PhaseError(f"{name} failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else None


def index_config(workload: Workload) -> "nt.IndexConfig":
    return nt.IndexConfig(dim=workload.dim, **workload.index)


def evenly_spaced(items: list, count: int) -> list:
    count = min(count, len(items))
    return [items[i * len(items) // count] for i in range(count)]


# -- build ----------------------------------------------------------------

def run_build(workload: Workload, work: str, reps: int, tracer: Tracer | None) -> dict:
    refs = os.path.join(work, "refs.fvec")
    index_path = os.path.join(work, "refs.index")
    cfg = index_config(workload)
    times, windows = [], []
    for _ in range(reps):
        gc.collect()
        started = time.perf_counter()
        ids, matrix = nt.read_vectors(refs)
        index = nt.build_index_from_arrays(ids, matrix, cfg)
        nt.save_index(index, index_path)
        times.append(time.perf_counter() - started)
        del ids, matrix, index
        if tracer is not None:
            windows.append(tracer.window())
    out = {"build_reps_s": times}
    if tracer is not None:
        out["layer_reps"] = {
            "fvec.read_s": _rep_s(tracer, windows, "fvec.read_vectors"),
            "index.build_s": _rep_s(tracer, windows, "index.build_index_from_arrays"),
            "index.save_s": _rep_s(tracer, windows, "index.save_index"),
        }
        out["layers"] = {"index.file_mb": os.path.getsize(index_path) / MIB}
    return out


# -- serve ----------------------------------------------------------------

class Engine:
    """What one set-up phase loads."""

    def __init__(self, work: str, workload: Workload):
        self.params = nt.EngineParams()
        index = nt.load_index(os.path.join(work, "refs.index"), index_config(workload))
        keywords = nt.load_keywords(os.path.join(work, "keywords.tsv"))
        self.lexicon = nt.load_lexicon(os.path.join(work, "lexicon.tsv"))
        self.concepts = nt.load_concepts(os.path.join(work, "concepts.tsv"), self.lexicon)
        qids, qmatrix = nt.read_vectors(os.path.join(work, "queries.fvec"))
        lists = nt.load_candidate_lists(os.path.join(work, "candidates.tsv"))
        self.queries = [nt.Query(qid, qmatrix[i], lists[qid]) for i, qid in enumerate(qids)]
        self.datasets = [nt.Dataset(index, keywords)]
        self.index = index
        # One warm-up query, so the lazy caches fill inside set-up.
        self.annotate(self.queries[0])

    def annotate(self, query):
        return nt.annotate(query, self.datasets, self.lexicon, self.concepts, self.params)

    def annotate_batch(self, queries):
        return nt.annotate_batch(queries, self.datasets, self.lexicon, self.concepts, self.params)


def _ranked(annotation) -> list:
    return [[name, score] for name, score in annotation.ranked]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_serve(workload: Workload, work: str, seconds: float, tracer: Tracer | None, build) -> dict:
    """Set up, warm, then timed rounds; ``build(name)`` runs the gap builds in a child process."""
    output = os.path.join(work, "annotations.tsv")
    setup_times, setup_windows = [], []
    builds = []
    engine = None

    def set_up():
        nonlocal engine
        gc.collect()
        started = time.perf_counter()
        engine = Engine(work, workload)
        setup_times.append(time.perf_counter() - started)
        if tracer is not None:
            setup_windows.append(tracer.window())
        by_id = sorted(engine.queries, key=lambda q: q.id)
        return by_id[: workload.batch_queries]

    def batch_pass(queries):
        started = time.perf_counter()
        annotations = engine.annotate_batch(queries)
        nt.write_annotations(output, annotations)
        return annotations, time.perf_counter() - started

    batch = set_up()
    batch_pass(batch[: max(WARM_MIN_QUERIES, len(batch) // 10)])  # warm pass
    gc.collect()
    if tracer is not None:
        tracer.window()

    ops: Counter = Counter()  # timed operations per query id that returned
    raised = 0
    errors: list[str] = []
    qps, latencies, digests = [], [], []
    batch_windows, single_windows = [], []
    first_single: dict[str, list] = {}
    last_batch = None
    rounds = 0
    run_start = time.perf_counter()
    while True:
        try:
            last_batch, elapsed = batch_pass(batch)
            qps.append(len(batch) / elapsed)
            ops.update(q.id for q in batch)
            digests.append(_sha256(output))
        except Exception as exc:  # a failed pass is counted, and the run goes on
            raised += len(batch)
            errors.append(f"batch pass: {exc!r}")
        if tracer is not None:
            batch_windows.append(tracer.window())
        for query in evenly_spaced(batch, workload.single_queries):
            try:
                started = time.perf_counter()
                annotation = engine.annotate(query)
                latencies.append(time.perf_counter() - started)
                ops[query.id] += 1
                if rounds == 0:
                    first_single[query.id] = _ranked(annotation)
            except Exception as exc:
                raised += 1
                errors.append(f"annotate {query.id}: {exc!r}")
        if tracer is not None:
            single_windows.append(tracer.window())
            tracer.recording = False  # the span file holds set-up and the first round
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - run_start >= seconds:
            break
        # Between rounds the engine is dropped, builds run in a child
        # process, and set-up runs again, so that build and set-up samples
        # spread evenly over the run without raising this process's peak
        # memory.
        engine = None
        builds.append(build(f"build-{rounds}"))
        for _ in range(GAP_SETUPS):
            engine = None
            batch = set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # What the checks need: neighbour lists as annotate_batch and annotate
    # see them, and the batch's raw scores, for the sampled queries.
    singles = evenly_spaced(batch, workload.single_queries)
    checked = evenly_spaced(batch, workload.check_queries)
    sample = sorted({q.id: q for q in checked + singles}.values(), key=lambda q: q.id)
    k = engine.params.k
    batch_neighbors = engine.index.knn_batch([q.feature for q in sample], k)
    batch_scores = {a.id: _ranked(a) for a in (last_batch or [])}
    out = {
        "rounds": rounds,
        "batch_ids": [q.id for q in batch],
        "single_ids": [q.id for q in singles],
        "checked_ids": [q.id for q in checked],
        "ops": dict(ops),
        "raised": raised,
        "errors": errors[:20],
        "digests": digests,
        "neighbors_batch": {q.id: [list(n) for n in nbrs] for q, nbrs in zip(sample, batch_neighbors)},
        "neighbors_single": {q.id: [list(n) for n in engine.index.knn(q.feature, k)] for q in singles},
        "scores_batch": {q.id: batch_scores.get(q.id) for q in sample},
        "scores_single": first_single,
        "annotate_qps": _median(qps),
        "latencies_ms": [1000.0 * t for t in latencies],
        "setup_s": _median(setup_times),
        "setup_reps_s": setup_times,
        "builds": builds,
        "qps_passes": qps,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = serve_layers(tracer, engine, setup_windows, batch_windows,
                                     single_windows, len(batch), qps)
    return out


# -- per-layer figures ----------------------------------------------------

def _rep_s(tracer: Tracer, windows: list[Window], *names: str):
    """The named spans' self time in each repetition of a phase."""
    if not all(name in tracer.wrapped for name in names):
        return None
    return [sum(w.self_s.get(name, 0.0) for name in names) for w in windows]


def _phase_s(tracer: Tracer, windows: list[Window], *names: str):
    """Median over repetitions of the named spans' self time in one repetition."""
    reps = _rep_s(tracer, windows, *names)
    return None if reps is None else _median(reps)


def _per_query_ms(tracer: Tracer, windows: list[Window], name: str, queries: int):
    if name not in tracer.wrapped:
        return None
    return _median([1000.0 * w.self_s.get(name, 0.0) / queries for w in windows])


def _per_query_calls(tracer: Tracer, windows: list[Window], name: str, queries: int):
    if name not in tracer.wrapped:
        return None
    return _median([w.calls.get(name, 0) / queries for w in windows])


def _count(tracer: Tracer, windows: list[Window], span: str, key: str, queries: int = 1, reduce=None):
    """A count read off ``span``'s return values, per pass or per query."""
    if span not in tracer.wrapped or span in tracer.observer_errors:
        return None
    values = [w.counts.get(key, 0.0) / queries for w in windows]
    return (reduce or _median)(values)


def _resident_mb(index) -> float:
    """Bytes the index holds in arrays and its id list, after warm-up."""
    total = 0
    for value in vars(index).values():
        if hasattr(value, "nbytes"):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sys.getsizeof(value) + sum(sys.getsizeof(v) for v in value)
    return total / MIB


def serve_layers(tracer: Tracer, engine: Engine, setup: list[Window], batch: list[Window],
                 single: list[Window], nq: int, qps: list[float]) -> dict:
    knn_calls = [t for w in single for t in w.samples.get("index.VectorIndex.knn", [])]
    spans = [w.spans / nq for w in batch]
    analysis = ("word_frequencies", "initial_synsets", "top_n", "build_graph", "propagate",
                "rank_synsets")
    layers = {
        "fvec.read_s": _phase_s(tracer, setup, "fvec.read_vectors"),
        "index.load_s": _phase_s(tracer, setup, "index.load_index"),
        "index.warm_s": _phase_s(tracer, setup, "index.VectorIndex.knn"),
        "index.resident_mb": _resident_mb(engine.index),
        "index.knn_batch_ms": _per_query_ms(tracer, batch, "index.VectorIndex.knn_batch", nq),
        "index.knn_ms": 1000.0 * statistics.median(knn_calls) if knn_calls else None,
        "keywords.load_s": _phase_s(tracer, setup, "keywords.load_keywords"),
        "keywords.words_for_calls": _per_query_calls(tracer, batch, "keywords.KeywordStore.words_for", nq),
        "keywords.missing": _count(tracer, batch, "annotator.gather_neighbor_words", "missing"),
        "lexicon.load_s": _phase_s(tracer, setup, "lexicon.load_lexicon"),
        "lexicon.senses_calls": _per_query_calls(tracer, batch, "lexicon.Lexicon.senses", nq),
        "lexicon.related_calls": _per_query_calls(tracer, batch, "lexicon.Lexicon.related", nq),
        "lexicon.oov_words": _count(tracer, batch, "lexicon.Lexicon.senses", "oov", nq),
    }
    for stage in analysis:
        layers[f"analysis.{stage}_ms"] = _per_query_ms(tracer, batch, f"analysis.{stage}", nq)
    layers.update({
        "analysis.graph_nodes": _count(tracer, batch, "analysis.build_graph", "graph_nodes", nq),
        "analysis.graph_edges": _count(tracer, batch, "analysis.build_graph", "graph_edges", nq),
        "analysis.walk_iterations": _count(tracer, batch, "analysis.propagate", "walk_iterations", nq),
        "analysis.walk_unconverged": _count(tracer, batch, "analysis.propagate", "walk_unconverged"),
        "analysis.walk_mass_error": _count(tracer, batch, "analysis.propagate", "walk_mass_error",
                                           reduce=max),
        "annotator.load_s": _phase_s(tracer, setup, "annotator.load_concepts",
                                     "annotator.load_candidate_lists"),
        "annotator.merge_ms": _per_query_ms(tracer, batch, "annotator.merge_neighbor_lists", nq),
        "annotator.gather_words_ms": _per_query_ms(tracer, batch, "annotator.gather_neighbor_words", nq),
        "annotator.score_concepts_ms": _per_query_ms(tracer, batch, "annotator.score_concepts", nq),
        "annotator.select_top_ms": _per_query_ms(tracer, batch, "annotator.select_top", nq),
        "annotator.from_words_self_ms": _per_query_ms(tracer, batch, "annotator.annotate_from_words", nq),
        "annotator.batch_self_ms": _per_query_ms(tracer, batch, "annotator.annotate_batch", nq),
        "annotator.write_s": _phase_s(tracer, batch, "annotator.write_annotations"),
        "annotator.no_signal": _count(tracer, batch, "annotator.annotate_from_words", "no_signal"),
        "trace.annotate_qps": _median(qps),
        "trace.spans_per_query": _median(spans),
    })
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=["build", "serve"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, help="directory holding the generated corpus")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=1, help="build phases to run")
    parser.add_argument("--deadline", type=float, default=170.0, help="seconds the phase may take")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.phase == "build":
        result = run_build(workload, args.work, args.reps, tracer)
    else:
        deadline = time.monotonic() + args.deadline
        result = run_serve(workload, args.work, args.seconds, tracer,
                           lambda name: spawn("build", name, args, args.work, deadline - time.monotonic(),
                                              "--reps", str(GAP_BUILDS)))
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.out.removesuffix(".json") + "-spans.tsv")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
