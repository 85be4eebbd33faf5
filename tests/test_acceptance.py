"""Acceptance gate: one test per shipped guarantee, end to end.

Each test exercises the built package through its public surface and
asserts the stated bar with its stated tolerance. Corpus shapes and
engine settings used here are frozen; the measured margins are printed
so failures carry the numbers.
"""
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_force_knn, dense_fixed_point, one_query_graph, random_graph, weight_lists,
                     weights_from_lists)

from neartag.analysis import (
    AnalysisConfig,
    initial_synsets,
    propagate,
)
from neartag.annotator import (
    Dataset,
    EngineParams,
    Query,
    annotate_batch,
    load_candidate_lists,
    load_concepts,
)
from neartag.cli import main
from neartag.evaluation import average_precision, evaluate, load_ground_truth, sample_prf
from neartag.fvec import read_vectors
from neartag.index import IndexConfig, VectorIndex, build_index_from_arrays, load_index, save_index
from neartag.keywords import load_keywords
from neartag.lexicon import ALL_RELATIONS, RelationType, load_lexicon
from neartag.synth import SynthConfig, generate_corpus


def run_world(cfg, k=70, m=5, s=7, n=100, relations=ALL_RELATIONS):
    """Generate a corpus, annotate its queries, and return MF_s in points."""
    with tempfile.TemporaryDirectory() as root:
        paths = generate_corpus(cfg, root)
        ids, matrix = read_vectors(paths.refs)
        index = build_index_from_arrays(ids, matrix, IndexConfig(dim=cfg.dim))
        store = load_keywords(paths.keywords)
        lexicon = load_lexicon(paths.lexicon)
        concepts = load_concepts(paths.concepts, lexicon)
        qids, qmatrix = read_vectors(paths.queries)
        candidates = load_candidate_lists(paths.candidates)
        queries = [Query(id=qid, feature=qmatrix[i], candidates=candidates[qid])
                   for i, qid in enumerate(qids)]
        params = EngineParams(k=k, m=m,
                              analysis=AnalysisConfig(s=s, n=n, relation_set=relations))
        annotations = annotate_batch(queries, [Dataset(index, store)], lexicon, concepts, params)
        truth = load_ground_truth(paths.truth, concepts)
        report = evaluate(annotations, truth, concepts)
        return 100.0 * report.mf_s


# -- 1: exact search equals a linear-scan oracle ------------------------------

def test_01_exact_search_matches_linear_scan_oracle():
    """1000 seeded instances, D in {2,16,256}, N up to 10k, k up to 100:
    identical ids in identical order, distances to 1e-12, under 2 minutes."""
    rng = np.random.default_rng(20260819)
    started = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        dim = (2, 16, 256)[i % 3]
        if i % 50 == 17:
            count = int(rng.integers(5000, 10001))
        else:
            count = int(rng.integers(20, 2001))
        matrix = rng.standard_normal((count, dim)).astype(np.float32)
        if i % 10 == 0 and count >= 40:
            # duplicate a block of rows to stress distance ties
            matrix[count // 2: count // 2 + 10] = matrix[:10]
        ids = [f"v{j:05d}" for j in range(count)]
        k = int(rng.integers(1, min(100, count) + 1))
        if i % 7 == 0:
            query = matrix[int(rng.integers(0, count))].astype(np.float64)
        else:
            query = rng.standard_normal(dim)
        index = build_index_from_arrays(ids, matrix, IndexConfig(dim=dim))
        got = index.knn(query, k)
        want = brute_force_knn(ids, matrix, query, k)
        if [g[0] for g in got] != [w[0] for w in want]:
            mismatches += 1
            continue
        if not np.allclose([g[1] for g in got], [w[1] for w in want],
                           rtol=1e-12, atol=1e-300):
            mismatches += 1
    elapsed = time.perf_counter() - started
    print(f"exact-vs-oracle: 1000 instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120.0


# -- 2: propagation equals the dense fixed point ------------------------------

def test_02_propagation_matches_dense_fixed_point():
    """500 seeded connected graphs of <= 6 nodes: iterative scores within
    1e-8 of the dense solve, score mass conserved to 1e-6 every iteration."""
    worst_gap = 0.0
    worst_mass = 0.0
    for i in range(500):
        graph, cfg = random_graph(np.random.default_rng(9000 + i))
        result = propagate(graph, cfg)
        want = dense_fixed_point(graph, cfg)
        worst_gap = max(worst_gap, float(np.max(np.abs(result.scores - want))))
        worst_mass = max(worst_mass, result.max_mass_error)
    print(f"propagation-vs-dense: 500 graphs, worst gap {worst_gap:.2e}, "
          f"worst mass error {worst_mass:.2e}")
    assert worst_gap <= 1e-8
    assert worst_mass <= 1e-6


# -- 3: hand-computed worked examples -----------------------------------------

def test_03_hand_computed_suite():
    """Frozen by-hand values, all within 1e-9."""
    p, r, f = sample_prf({"a", "b", "c"}, {"a", "d"})
    assert p == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert r == pytest.approx(1.0 / 2.0, abs=1e-9)
    assert f == pytest.approx(0.4, abs=1e-9)

    ap = average_precision(["t1", "x", "t2"], {"t1", "t2"})
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)

    graph = one_query_graph([1.0, 0.0], [(0, RelationType.HYPERNYM, 1)], names=("a", "b"))
    result = propagate(graph, AnalysisConfig(alpha=0.5, tol=1e-12, max_iters=2000))
    scores = dict(zip(("a", "b"), result.scores))
    assert scores["a"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert scores["b"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "lex.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("S\ta\tword\nS\tb\tword\nS\tc\tword\n"
                     "W\tword\ta\t1\nW\tword\tb\t2\nW\tword\tc\t3\n")
        lexicon = load_lexicon(path)
    shares = dict(weight_lists(initial_synsets(weights_from_lists([[("word", 1.0)]]), lexicon, s=7))[0])
    assert shares["a"] == pytest.approx(6.0 / 11.0, abs=1e-9)
    assert shares["b"] == pytest.approx(3.0 / 11.0, abs=1e-9)
    assert shares["c"] == pytest.approx(2.0 / 11.0, abs=1e-9)


# -- 4: noiseless world annotates perfectly -----------------------------------

def test_04_noiseless_world_scores_perfectly():
    """Separated clusters, clean labels, large-neighborhood preset:
    every query gets exactly its truth set, MF_s = 100.0, under 1 minute."""
    started = time.perf_counter()
    cfg = SynthConfig(rng_seed=0, dim=16, num_concepts=20, refs_per_concept=100,
                      num_queries=200, cluster_noise_sigma=0.01, label_noise=0.0)
    mf = run_world(cfg, k=70, m=5, s=7, n=100, relations=ALL_RELATIONS)
    elapsed = time.perf_counter() - started
    print(f"noiseless world: MF_s {mf:.4f} in {elapsed:.1f}s")
    assert mf == pytest.approx(100.0, abs=1e-9)
    assert elapsed < 60.0


# -- 5: cleaner labels and more references help -------------------------------

def test_05_quality_grows_with_label_quality_and_corpus_size():
    """Mean MF_s at label noise 0.1 beats noise 0.5 by >= 5 points over
    200-query corpora; 10k references score >= 1k references."""
    seeds = (0, 1, 2)
    low = [run_world(SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=100,
                                 num_queries=200, cluster_noise_sigma=0.25, label_noise=0.1))
           for s in seeds]
    high = [run_world(SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=100,
                                  num_queries=200, cluster_noise_sigma=0.25, label_noise=0.5))
            for s in seeds]
    gap = np.mean(low) - np.mean(high)
    print(f"label quality: noise 0.1 MF {np.mean(low):.2f}, "
          f"noise 0.5 MF {np.mean(high):.2f}, gap {gap:.2f}")
    assert gap >= 5.0

    small = [run_world(SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=50,
                                   num_queries=200, cluster_noise_sigma=0.8, label_noise=0.1))
             for s in seeds]
    big = [run_world(SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=500,
                                 num_queries=200, cluster_noise_sigma=0.8, label_noise=0.1))
           for s in seeds]
    print(f"corpus size: 1k refs MF {np.mean(small):.2f}, 10k refs MF {np.mean(big):.2f}")
    assert np.mean(big) >= np.mean(small)


# -- 6: quality grows with neighborhood size ----------------------------------

def test_06_quality_grows_with_k():
    """On the standard noisy corpus (label noise 0.3), mean MF_s at k=70
    is at least mean MF_s at k=5."""
    seeds = (0, 1, 2)
    at5, at70 = [], []
    for s in seeds:
        cfg = SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=100,
                          num_queries=200, cluster_noise_sigma=0.25, label_noise=0.3)
        at5.append(run_world(cfg, k=5, m=2))
        at70.append(run_world(cfg, k=70, m=2))
    print(f"k trend: k=5 MF {np.mean(at5):.2f}, k=70 MF {np.mean(at70):.2f}")
    assert np.mean(at70) >= np.mean(at5)


# -- 7: semantic stages stack up -----------------------------------------------

def test_07_analysis_ablation_ordering():
    """Frequency-only vs multi-sense vs added hierarchy vs added parts on a
    corpus with ambiguous words, lemma variants, and a concept hierarchy.
    Reported for all four levels; the hard bar is multi-sense >= frequency
    minus one point."""
    levels = {
        "frequency only": dict(s=1, relations=frozenset()),
        "multi-sense": dict(s=7, relations=frozenset()),
        "+ hierarchy": dict(s=7, relations=frozenset({RelationType.HYPERNYM,
                                                      RelationType.HYPONYM})),
        "+ parts": dict(s=7, relations=ALL_RELATIONS),
    }
    sums = {name: 0.0 for name in levels}
    seeds = (0, 1, 2)
    for s in seeds:
        cfg = SynthConfig(rng_seed=s, dim=16, num_concepts=20, refs_per_concept=100,
                          num_queries=200, cluster_noise_sigma=0.2, label_noise=0.1,
                          synonym_rate=0.3, part_rate=0.1, ambiguous_fraction=0.5)
        for name, kw in levels.items():
            sums[name] += run_world(cfg, **kw)
    means = {name: total / len(seeds) for name, total in sums.items()}
    report = "  ".join(f"{name}={val:.2f}" for name, val in means.items())
    print(f"ablation ladder: {report}")
    assert means["multi-sense"] >= means["frequency only"] - 1.0, report


# -- 8: byte-identical reruns ---------------------------------------------------

def test_08_outputs_are_byte_identical(tmp_path, capsys):
    """Building the index twice and annotating twice produce identical bytes."""
    cfg = SynthConfig(rng_seed=5, dim=8, num_concepts=4, refs_per_concept=30,
                      num_queries=12, cluster_noise_sigma=0.05, label_noise=0.0)
    paths = generate_corpus(cfg, str(tmp_path))
    conf = paths.engine_config

    assert main(["build", "--config", conf]) == 0
    first_index = (tmp_path / "refs.index").read_bytes()
    assert main(["build", "--config", conf]) == 0
    assert (tmp_path / "refs.index").read_bytes() == first_index

    args = ["annotate", "--config", conf, "--k", "10",
            "--queries", paths.queries, "--candidates", paths.candidates]
    assert main(args) == 0
    out_path = os.path.join(str(tmp_path), "annotations.tsv")
    first_out = Path(out_path).read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert Path(out_path).read_bytes() == first_out
    assert len(first_out) > 0


# -- 9 and 10 share one desk-scale corpus --------------------------------------

DESK_DIM = 256
DESK_N = 100_000


@pytest.fixture(scope="module")
def desk_corpus():
    """50 clusters x 2000 points at D=256, with queries and exact top-10."""
    rng = np.random.default_rng(7)
    clusters = 50
    centers = rng.normal(0.0, 1.0, size=(clusters, DESK_DIM))
    points = (np.repeat(centers, DESK_N // clusters, axis=0)
              + rng.normal(0.0, 0.35, size=(DESK_N, DESK_DIM))).astype(np.float32)
    ids = [f"v{i:06d}" for i in range(DESK_N)]
    queries = centers[rng.integers(0, clusters, size=512)] \
        + rng.normal(0.0, 0.35, size=(512, DESK_DIM))
    exact = build_index_from_arrays(ids, points, IndexConfig(dim=DESK_DIM))
    truth10 = [set(i for i, _ in row) for row in exact.knn_batch(queries[:100], 10)]
    del exact
    return ids, points, queries, truth10


def test_09_exact_search_throughput(desk_corpus, tmp_path, capsys):
    """Exact batched search over 100k x 256 sustains >= 200 queries/second
    on one worker, and the bench command prints the four-phase breakdown."""
    ids, points, queries, _ = desk_corpus
    index = build_index_from_arrays(ids, points, IndexConfig(dim=DESK_DIM))
    index.knn_batch(queries[:8], 10)  # warm the f64 caches
    started = time.perf_counter()
    index.knn_batch(queries, 10)
    elapsed = time.perf_counter() - started
    qps = len(queries) / elapsed
    print(f"exact search: {len(queries)} queries in {elapsed:.2f}s = {qps:.0f} q/s")
    assert qps >= 200.0

    cfg = SynthConfig(rng_seed=3, dim=8, num_concepts=4, refs_per_concept=30,
                      num_queries=12, cluster_noise_sigma=0.05, label_noise=0.0)
    paths = generate_corpus(cfg, str(tmp_path))
    rc = main(["bench", "--config", paths.engine_config, "--k", "10",
               "--queries", paths.queries, "--candidates", paths.candidates])
    out = capsys.readouterr().out
    assert rc == 0
    for phase in ("feature load", "similarity search", "keyword fetch", "semantic analysis"):
        assert phase in out, f"bench output missing phase {phase!r}"
    assert "search throughput" in out


def test_10_perm_prefix_recall(desk_corpus, tmp_path):
    """Approximate mode reaches recall@10 >= 0.8 against the exact oracle at
    a candidate budget of 5% of N, and recall never drops as the budget grows."""
    ids, points, queries, truth10 = desk_corpus
    cfg = IndexConfig(dim=DESK_DIM, mode="perm-prefix", num_pivots=64,
                      prefix_len=8, candidate_budget=10_000, rng_seed=0)
    path = str(tmp_path / "desk.index")
    save_index(build_index_from_arrays(ids, points, cfg), path)
    recalls = {}
    for budget in (1000, 2000, 5000, 10_000):
        index = load_index(path, replace(cfg, candidate_budget=budget))
        got = [set(i for i, _ in index.knn(q, 10)) for q in queries[:100]]
        recalls[budget] = sum(len(g & t) for g, t in zip(got, truth10)) / (10.0 * len(truth10))
    curve = "  ".join(f"r@{b}={recalls[b]:.3f}" for b in sorted(recalls))
    print(f"perm-prefix recall: {curve}")
    assert recalls[5000] >= 0.8, curve  # 5000 = 5% of N
    ordered = [recalls[b] for b in sorted(recalls)]
    assert all(b >= a for a, b in zip(ordered, ordered[1:])), curve
