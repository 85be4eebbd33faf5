"""Tests of the benchmark itself: each check can fail, and each workload runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

import neartag as nt  # noqa: E402


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small corpus annotated by the engine, with the checker's own view of it."""
    work = str(tmp_path_factory.mktemp("world"))
    paths = nt.generate_corpus(nt.SynthConfig(rng_seed=5, dim=8, num_concepts=8, refs_per_concept=30,
                                               num_queries=30), work)
    ids, refs = nt.read_vectors(paths.refs)
    index = nt.build_index_from_arrays(ids, refs, nt.IndexConfig(dim=8))
    lexicon = nt.load_lexicon(paths.lexicon)
    concepts = nt.load_concepts(paths.concepts, lexicon)
    qids, qmatrix = nt.read_vectors(paths.queries)
    lists = nt.load_candidate_lists(paths.candidates)
    queries = [nt.Query(q, qmatrix[i], lists[q]) for i, q in enumerate(qids)]
    dataset = nt.Dataset(index, nt.load_keywords(paths.keywords))
    output = os.path.join(work, "annotations.tsv")
    nt.write_annotations(output, nt.annotate_batch(queries, [dataset], lexicon, concepts, nt.EngineParams()))
    scan = checks.LinearScan(*checks.read_fvec(paths.refs))
    reference = checks.ReferenceAnnotator(paths.keywords, paths.lexicon, paths.concepts, paths.candidates)
    return {
        "paths": paths, "index": index, "qids": qids, "qmatrix": qmatrix, "scan": scan,
        "reference": reference, "annotations": checks.read_annotation_file(output),
        "neighbors": dict(zip(qids, scan.topk(qmatrix, 70))), "output": output, "concepts": concepts,
    }


def _failures():
    return checks.Failures()


# -- search checks --------------------------------------------------------

def test_linear_scan_matches_a_full_sort():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(500, 6)).astype(np.float32)
    matrix[7] = matrix[3]  # an exact tie, settled by id
    ids = [f"x{i:03d}" for i in range(500)]
    scan = checks.LinearScan(ids, matrix)
    query = matrix[3].astype(np.float64) + 1e-3
    got = scan.topk(query[None, :], 20)[0]
    dist = np.sqrt(((matrix.astype(np.float64) - query) ** 2).sum(axis=1))
    want = sorted(zip(ids, dist.tolist()), key=lambda e: (e[1], e[0]))[:20]
    assert [i for i, _ in got] == [i for i, _ in want]
    assert got[0][0] == "x003" and got[1][0] == "x007"


def test_exact_search_check_passes_the_engine(world):
    failures = _failures()
    got = world["index"].knn_batch(world["qmatrix"], 70)
    for qid, neighbors in zip(world["qids"], got):
        checks.check_exact_search(qid, neighbors, world["neighbors"][qid], failures)
    assert failures.ok, failures.messages


def test_exact_search_check_catches_a_shifted_neighbor(world):
    qid = world["qids"][0]
    want = world["neighbors"][qid]
    shifted = want[1:] + [want[0]]
    failures = _failures()
    checks.check_exact_search(qid, shifted, want, failures)
    assert failures.ids == {qid}


def test_exact_search_check_catches_a_drifted_distance(world):
    qid = world["qids"][0]
    want = world["neighbors"][qid]
    got = list(want)
    got[5] = (got[5][0], got[5][1] * (1 + 1e-9))
    failures = _failures()
    checks.check_exact_search(qid, got, want, failures)
    assert not failures.ok


def test_approximate_search_check(world):
    qid, query = world["qids"][1], world["qmatrix"][1]
    got = world["neighbors"][qid]
    true = world["scan"].distances_of(query, [i for i, _ in got])
    failures = _failures()
    checks.check_approximate_search(qid, got, true, 70, failures)
    assert failures.ok, failures.messages
    for bad in (got[1:] + [got[0]],  # out of order
                [(got[0][0], got[0][1] + 1e-6)] + got[1:]):  # a wrong distance
        failures = _failures()
        checks.check_approximate_search(qid, bad, true, 70, failures)
        assert failures.ids == {qid}


def test_recall_counts_the_shared_top_ten(world):
    want = world["neighbors"][world["qids"][0]]
    assert checks.recall_at(want, want) == 1.0
    assert checks.recall_at(want[3:], want) == pytest.approx(0.7)


# -- annotation checks ----------------------------------------------------

def _score_failures(world, mutate=None):
    failures = _failures()
    for qid in world["qids"]:
        got = list(world["annotations"][qid])
        if mutate is not None and qid == world["qids"][2]:
            got = mutate(got)
        ranked = world["reference"].ranked(qid, [i for i, _ in world["neighbors"][qid]])
        checks.check_scores(qid, got, ranked, 5, failures)
    return failures


def test_score_check_passes_the_engine(world):
    failures = _score_failures(world)
    assert failures.ok, failures.messages


def test_score_check_catches_a_perturbed_score(world):
    failures = _score_failures(world, lambda got: [(got[0][0], got[0][1] + 1e-4)] + got[1:])
    assert failures.ids == {world["qids"][2]}


def test_score_check_catches_a_dropped_concept(world):
    failures = _score_failures(world, lambda got: got[:-1])
    assert failures.ids == {world["qids"][2]}


def test_score_check_catches_a_swapped_rank(world):
    failures = _score_failures(world, lambda got: [got[1], got[0]] + got[2:])
    assert failures.ids == {world["qids"][2]}


def test_property_check():
    candidates = ["a", "b", "c"]
    for bad in ([("a", 0.5), ("b", 0.6)], [("a", 1.5)], [("d", 0.5)], [("a", 0.5), ("a", 0.4)], []):
        failures = _failures()
        checks.check_properties("q", bad, candidates, 5, failures)
        assert failures.ids == {"q"}, bad
    failures = _failures()
    checks.check_properties("q", [("b", 0.5), ("a", 0.5), ("c", 0.0)], candidates, 5, failures)
    assert failures.ok


def test_quality_matches_the_engine_evaluation(world):
    paths = world["paths"]
    mf_s, map_s = checks.sample_quality(world["annotations"], checks.read_lists(paths.truth))
    report = nt.evaluate(nt.read_annotations(world["output"]),
                         nt.load_ground_truth(paths.truth, world["concepts"]), world["concepts"])
    assert abs(mf_s - report.mf_s) <= 1e-9 and abs(map_s - report.map_s) <= 1e-9


def test_tail_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert run.tail_percentile(samples, 99.0) == 990
    assert sum(s > run.tail_percentile(samples, 99.0) for s in samples) == 10


# -- run-level checks -------------------------------------------------------

def _served(tmp_path_factory, name):
    """A tiny shape of ``name`` built and served in this process, as run.py's children do."""
    workload = tiny(WORKLOADS[name])
    work = str(tmp_path_factory.mktemp(name))
    nt.generate_corpus(nt.SynthConfig(rng_seed=3, **workload.synth), work)
    phases.run_build(workload, work, 1, None)
    serve = phases.run_serve(workload, work, 0.0, None,
                             lambda _name: phases.run_build(workload, work, 1, None))
    return workload, work, serve


@pytest.fixture(scope="module")
def served_exact(tmp_path_factory):
    return _served(tmp_path_factory, "desk100k")


@pytest.fixture(scope="module")
def served_perm(tmp_path_factory):
    return _served(tmp_path_factory, "desk100k-perm")


def _check_run(served, tmp_path, serve=None, edit=None):
    """run.check_run on a copy of the served run, with ``serve`` or files of the copy doctored."""
    workload, work, original = served
    copy = str(tmp_path / "work")
    shutil.copytree(work, copy)
    if edit is not None:
        edit(copy)
    failures = checks.Failures()
    quality = run.check_run(workload, copy, serve or original, failures)
    return failures, quality


def _doctored(served, change):
    serve = copy.deepcopy(served[2])
    change(serve)
    return serve


def _edit_lines(name, change):
    def edit(work):
        path = os.path.join(work, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(change(lines))
    return edit


@pytest.mark.parametrize("fixture", ["served_exact", "served_perm"])
def test_run_checks_pass_the_engine(fixture, request, tmp_path):
    served = request.getfixturevalue(fixture)
    assert served[0].cli_check == (fixture == "served_exact")
    failures, quality = _check_run(served, tmp_path)
    assert failures.ok, failures.run_level + failures.messages
    assert quality["recall_at_10"] >= checks.RECALL_BAR


def test_run_check_catches_single_and_batch_disagreeing(served_exact, tmp_path):
    qid = sorted(served_exact[2]["scores_single"])[0]

    def change(serve):
        serve["scores_single"][qid][0][1] += 1e-9
    failures, _ = _check_run(served_exact, tmp_path, _doctored(served_exact, change))
    assert failures.ids == {qid} and not failures.run_level


def test_run_check_catches_a_shifted_single_query_neighbor(served_exact, tmp_path):
    qid = sorted(served_exact[2]["neighbors_single"])[0]

    def change(serve):
        nbrs = serve["neighbors_single"][qid]
        nbrs[0], nbrs[1] = nbrs[1], nbrs[0]
    failures, _ = _check_run(served_exact, tmp_path, _doctored(served_exact, change))
    assert failures.ids == {qid}


def test_run_check_catches_passes_writing_other_bytes(served_exact, tmp_path):
    def change(serve):
        serve["digests"].append("0" * 64)
    failures, _ = _check_run(served_exact, tmp_path, _doctored(served_exact, change))
    assert any("different annotation files" in m for m in failures.run_level), failures.run_level


def test_run_check_catches_a_dropped_annotation_line(served_exact, tmp_path):
    failures, _ = _check_run(served_exact, tmp_path,
                             edit=_edit_lines("annotations.tsv", lambda lines: lines[:-1]))
    assert any("query ids differ" in m for m in failures.run_level), failures.run_level


def test_run_check_catches_the_cli_writing_other_bytes(served_exact, tmp_path):
    # m = 3 makes `neartag annotate` keep three concepts a query, where the library kept five.
    failures, _ = _check_run(served_exact, tmp_path,
                             edit=_edit_lines("engine.conf", lambda lines: lines + ["m = 3\n"]))
    assert any("neartag annotate" in m for m in failures.run_level), failures.run_level


def test_run_check_catches_quality_disagreeing_with_evaluate(served_exact, tmp_path, monkeypatch):
    own = checks.sample_quality
    monkeypatch.setattr(checks, "sample_quality",
                        lambda annotations, truth: (own(annotations, truth)[0] + 1e-6,
                                                    own(annotations, truth)[1]))
    failures, _ = _check_run(served_exact, tmp_path)
    assert any("neartag.evaluate" in m for m in failures.run_level), failures.run_level


def test_run_check_catches_low_recall(served_perm, tmp_path):
    workload, work, _ = served_perm
    ids, refs = checks.read_fvec(os.path.join(work, "refs.fvec"))
    qids, qmatrix = checks.read_fvec(os.path.join(work, "queries.fvec"))
    scan = checks.LinearScan(ids, refs)

    def change(serve):
        # The farthest 70 references: true distances in (distance, id) order, none of the top 10.
        for qid in serve["neighbors_batch"]:
            dist = scan.distances_of(qmatrix[qids.index(qid)], ids)
            far = sorted(dist.items(), key=lambda e: (e[1], e[0]))[-70:]
            serve["neighbors_batch"][qid] = [list(n) for n in far]
    failures, quality = _check_run(served_perm, tmp_path, _doctored(served_perm, change))
    assert quality["recall_at_10"] == 0.0
    assert any("recall@10" in m for m in failures.run_level), failures.run_level


# -- whole runs -------------------------------------------------------------

@pytest.mark.parametrize("workload", ["world20k", "desk100k", "desk100k-perm"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_shape_runs(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    names = run.metric_units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(names)
    assert all(m["value"] is not None for m in result["metrics"].values())
