"""Work counts that do not drift between machines or runs.

One query's Python-level calls into ``neartag`` functions, counted with
``sys.setprofile`` on a small generated world, for the search stage
(``search_neighbor_words``) and the semantic stage (``annotate_words``),
and the semantic stage's calls for a batch of the world's 20 queries.
Only frames whose globals are a ``neartag`` module's count, the
``__init__`` that ``dataclasses`` generates for a ``neartag`` class
included, so numpy's Python-level dispatchers, which change between
numpy versions, do not. Each bound is the count measured when it was
set (Python 3.11; Python 3.12 and later inline comprehensions and count
fewer); a change that lowers a count lowers its bound.
"""

import sys

import pytest

from neartag import SynthConfig, generate_corpus
from neartag.annotator import (Dataset, EngineParams, Query, annotate_words, load_candidate_lists, load_concepts,
                               search_neighbor_words)
from neartag.fvec import read_vectors
from neartag.index import MODE_PERM_PREFIX, IndexConfig, build_index_from_arrays
from neartag.keywords import load_keywords
from neartag.lexicon import load_lexicon

# mode -> (index settings, search-stage calls, semantic-stage calls)
BOUNDS = {
    "exact": ({}, 32, 57),
    "perm-prefix": (dict(mode=MODE_PERM_PREFIX, num_pivots=16, prefix_len=4, candidate_budget=200), 35, 57),
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    paths = generate_corpus(SynthConfig(dim=16, num_concepts=12, refs_per_concept=40, num_queries=20),
                            str(tmp_path_factory.mktemp("world")))
    lexicon = load_lexicon(paths.lexicon)
    concepts = load_concepts(paths.concepts, lexicon)
    candidates = load_candidate_lists(paths.candidates, concepts)
    qids, features = read_vectors(paths.queries)
    return paths, lexicon, concepts, [Query(qid, feature, candidates[qid]) for qid, feature in zip(qids, features)]


def search_datasets(paths, settings):
    ids, matrix = read_vectors(paths.refs)
    return [Dataset(build_index_from_arrays(ids, matrix, IndexConfig(dim=16, **settings)),
                    load_keywords(paths.keywords))]


def neartag_calls(fn, *args):
    """``fn(*args)`` and the number of calls into ``neartag`` functions it made,
    generator resumptions included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").partition(".")[0] == "neartag":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize("mode", BOUNDS)
def test_one_query_makes_no_more_calls_than_its_bound(world, mode):
    paths, lexicon, concepts, queries = world
    settings, search_bound, semantic_bound = BOUNDS[mode]
    datasets = search_datasets(paths, settings)
    params = EngineParams()
    words, search_calls = neartag_calls(search_neighbor_words, queries[:1], datasets, params.k)
    annotations, semantic_calls = neartag_calls(annotate_words, queries[:1], words, lexicon, concepts, params)
    assert annotations[0].ranked  # the query has keyword signal, so every semantic step runs
    assert search_calls <= search_bound and semantic_calls <= semantic_bound, (search_calls, semantic_calls)


@pytest.mark.parametrize("mode", BOUNDS)
def test_a_batch_adds_one_semantic_call_per_added_query(world, mode):
    # The one call per query is the query's Annotation; every other step runs once per batch.
    paths, lexicon, concepts, queries = world
    settings, _search_bound, semantic_bound = BOUNDS[mode]
    params = EngineParams()
    words = search_neighbor_words(queries, search_datasets(paths, settings), params.k)
    annotations, calls = neartag_calls(annotate_words, queries, words, lexicon, concepts, params)
    assert len(annotations) == len(queries) == 20
    assert calls <= semantic_bound + len(queries) - 1, calls
