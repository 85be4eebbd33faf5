from pathlib import Path

import numpy as np
import pytest

from oracles import weight_lists, weights_from_lists

from neartag.annotator import (
    KEYWORD_FETCH,
    SIMILARITY_SEARCH,
    Annotation,
    ConceptDef,
    Dataset,
    EngineParams,
    Query,
    annotate,
    annotate_batch,
    annotate_from_words,
    gather_neighbor_words,
    load_candidate_lists,
    load_concepts,
    merge_neighbor_lists,
    read_annotations,
    score_concepts,
    search_neighbor_words,
    select_top,
    write_annotations,
)
from neartag.analysis import WEIGHTING_RECIPROCAL, WEIGHTING_UNIFORM, AnalysisConfig
from neartag.errors import EngineError, FormatError
from neartag.fvec import read_vectors
from neartag.index import MODE_PERM_PREFIX, IndexConfig, build_index_from_arrays
from neartag.keywords import KeywordStore, load_keywords
from neartag.lexicon import RelationType, load_lexicon
from neartag.synth import SynthConfig, generate_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- score_concepts / select_top ----------------------------------------------

CONCEPTS = {
    "cat": ConceptDef("cat", ("cat.n.1",)),
    "animal": ConceptDef("animal", ("animal.n.1", "creature.n.1")),
    "rock": ConceptDef("rock", ("rock.n.1",)),
}


def scores_of(ranked, candidates):
    """score_concepts on a batch of one, read back as (name, score) pairs."""
    return weight_lists(score_concepts(weights_from_lists([ranked]), CONCEPTS, [tuple(candidates)]))[0]


def top_of(scored, m):
    """select_top on a batch of one, as a list."""
    return list(select_top(weights_from_lists([scored]), m)[0])


def test_score_concepts_single_synset():
    got = scores_of([("cat.n.1", 0.4)], ["cat"])
    assert got == [("cat", 0.4)]


def test_score_concepts_max_over_synsets():
    ranked = [("animal.n.1", 0.1), ("creature.n.1", 0.3)]
    got = scores_of(ranked, ["animal"])
    assert got == [("animal", 0.3)]


def test_score_concepts_missing_synsets_score_zero_and_sort_last():
    got = scores_of([("cat.n.1", 0.4)], ["rock", "cat"])
    assert got == [("cat", 0.4), ("rock", 0.0)]


def test_score_concepts_unknown_concept_named():
    with pytest.raises(EngineError, match="unicorn"):
        scores_of([], ["unicorn"])


def test_score_concepts_zero_ties_alphabetical():
    got = scores_of([], ["rock", "cat", "animal"])
    assert got == [("animal", 0.0), ("cat", 0.0), ("rock", 0.0)]


def test_score_concepts_per_query_of_a_batch():
    ranked = weights_from_lists([[("cat.n.1", 0.4)], [], [("creature.n.1", 0.3), ("cat.n.1", 0.1)]])
    got = weight_lists(score_concepts(ranked, CONCEPTS, [("cat", "rock"), ("cat",), ("animal", "cat", "rock")]))
    assert got == [[("cat", 0.4), ("rock", 0.0)], [("cat", 0.0)],
                   [("animal", 0.3), ("cat", 0.1), ("rock", 0.0)]]


def test_select_top_truncates_positive_scores():
    scored = [(f"c{i}", 0.7 - 0.1 * i) for i in range(7)]
    assert top_of(scored, 5) == scored[:5]


def test_select_top_keeps_fewer_than_m_positives():
    scored = [("a", 0.5), ("b", 0.2), ("c", 0.0), ("d", 0.0)]
    assert top_of(scored, 3) == [("a", 0.5), ("b", 0.2)]


def test_select_top_all_zero_falls_back_to_first_m_names():
    scored = [("a", 0.0), ("b", 0.0), ("c", 0.0)]
    assert top_of(scored, 2) == [("a", 0.0), ("b", 0.0)]


def test_select_top_m_validation():
    with pytest.raises(ValueError):
        top_of([("a", 1.0)], 0)


# -- merge ---------------------------------------------------------------------

def test_merge_neighbor_lists_orders_by_distance_then_id():
    a = [("x", 0.5), ("y", 1.0)]
    b = [("w", 0.5), ("z", 0.2)]
    got = merge_neighbor_lists([a, b], 3)
    assert got == [(1, "z", 0.2), (1, "w", 0.5), (0, "x", 0.5)]


def test_merge_neighbor_lists_truncates_to_k():
    a = [("x", 0.1), ("y", 0.2)]
    assert len(merge_neighbor_lists([a], 1)) == 1


def decoded(words):
    """Per query, the word lists of its neighbours with keywords, by rank."""
    out = [[] for _ in range(words.queries)]
    for q, rank, word in zip(words.owner.tolist(), words.rank.tolist(), words.word.tolist()):
        if len(out[q]) < rank:
            out[q].append([])
        out[q][rank - 1].append(words.vocabulary[word])
    return out


class CountingStore(KeywordStore):
    def __init__(self, records):
        super().__init__(records)
        self.calls = 0

    def rows(self, image_ids):
        self.calls += 1
        return super().rows(image_ids)


def test_gather_neighbor_words_batches_lookups_and_keeps_merged_order():
    stores = [CountingStore({"a1": ["cat"], "a2": ["dog", "cat"], "a3": ["sky"]}),
              CountingStore({"b1": ["sea"], "b3": ["sun"]})]
    # Two queries; b2 has no keyword record, and the second query's b1 ties a2 and sorts after it.
    lists = [[[("a1", 0.1), ("a2", 0.2), ("a3", 0.5)], [("a2", 0.3)]],
             [[("b1", 0.3), ("b2", 0.4), ("b3", 0.6)], [("b2", 0.1), ("b1", 0.3)]]]
    words, missing = gather_neighbor_words(lists, stores, 5)
    assert decoded(words) == [[["cat"], ["dog", "cat"], ["sea"], ["sky"]], [["dog", "cat"], ["sea"]]]
    assert missing == 2
    assert words.vocabulary == ("cat", "dog", "sea", "sky", "sun")
    # one lookup per store for the whole batch, not one per neighbor
    assert [s.calls for s in stores] == [1, 1]
    # One dataset: its lists are the merged lists, and its vocabulary is kept.
    alone, missing = gather_neighbor_words(lists[1:], stores[1:], 5)
    assert decoded(alone) == [[["sea"], ["sun"]], [["sea"]]]
    assert missing == 2 and alone.vocabulary is stores[1].vocabulary


def test_equal_distances_rank_by_id_though_their_squares_differ(tmp_path):
    # From this query, row "b"'s d² is one ulp below row "a"'s, and both
    # square roots are the same float: the search and the merge both rank a
    # first, by (distance, id), for one dataset as for two.
    lex = load_lexicon(write(tmp_path, "lex.tsv", "".join(f"S\t{w}.n.1\t{w}\nW\t{w}\t{w}.n.1\t1\n"
                                                         for w in ("cat", "dog"))))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tcat\tcat.n.1\nC\tdog\tdog.n.1\n"), lex)
    matrix = np.array([[0.3, 0.0], [0.0, 0.7]], dtype=np.float32)  # rows b, a
    index = build_index_from_arrays(["b", "a"], matrix, IndexConfig(dim=2))
    feature = np.array([float.fromhex("0x1.37e8f2fee9faep-2"), float.fromhex("0x1.aa3f4340269f9p-2")])
    d2 = ((matrix.astype(np.float64) - feature) ** 2).sum(axis=1)
    assert np.nextafter(d2[0], np.inf) == d2[1] and np.sqrt(d2[0]) == np.sqrt(d2[1])
    found = index.knn_batch(feature[None, :], 2)
    assert [image_id for image_id, _dist in found[0]] == ["a", "b"]
    store = KeywordStore({"a": ["cat"], "b": ["dog"]})
    for lists, stores in (([found], [store]), ([found, [[]]], [store, KeywordStore({})])):
        words, _missing = gather_neighbor_words(lists, stores, 2)
        assert decoded(words) == [[["cat"], ["dog"]]]
    # Under reciprocal-rank weighting, a's word weighs 1 and b's 1/2.
    params = EngineParams(k=2, m=2, analysis=AnalysisConfig(neighbor_weighting=WEIGHTING_RECIPROCAL))
    ann = annotate(Query("q", feature, ("cat", "dog")), [Dataset(index, store)], lex, concepts, params)
    assert [name for name, _score in ann.ranked] == ["cat", "dog"]
    assert ann.ranked[0][1] == pytest.approx(2 * ann.ranked[1][1])


# -- annotate end-to-end ---------------------------------------------------------

def single_word_world(tmp_path):
    """Every reference is labeled 'cat'; one concept over one synset."""
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\tcat.n.1\tcat\nW\tcat\tcat.n.1\t1\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tcat\tcat.n.1\n"), lex)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((20, 4)).astype(np.float32)
    ids = [f"r{i}" for i in range(20)]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=4))
    store = load_keywords(write(tmp_path, "kw.tsv", "".join(f"{i}\tcat\n" for i in ids)))
    return Dataset(index, store), lex, concepts


def test_annotate_degenerate_single_word(tmp_path):
    dataset, lex, concepts = single_word_world(tmp_path)
    query = Query("q", np.zeros(4, dtype=np.float32), ("cat",))
    ann = annotate(query, [dataset], lex, concepts, EngineParams(k=5, m=3))
    assert ann.ranked == (("cat", pytest.approx(1.0, abs=1e-9)),)
    assert not ann.no_keyword_signal


def test_no_dataset_to_search(tmp_path):
    # An empty dataset list fails as an engine error, alone and in a batch.
    _dataset, lex, concepts = single_word_world(tmp_path)
    query = Query("q", np.zeros(4, dtype=np.float32), ("cat",))
    with pytest.raises(EngineError, match="no dataset to search"):
        annotate(query, [], lex, concepts, EngineParams(k=5))
    with pytest.raises(EngineError, match="no dataset to search"):
        annotate_batch([query, Query("r", np.ones(4, dtype=np.float32), ("cat",))], [], lex, concepts,
                       EngineParams(k=5))


def test_annotate_two_node_example_end_to_end(tmp_path):
    # One candidate synset a with all the evidence, hypernym edge a -> b,
    # hyponym excluded so b keeps no out-edges: fixed point (2/3, 1/3).
    lex = load_lexicon(write(tmp_path, "lex.tsv",
                             "S\ta\tael\nS\tb\tbel\nW\tael\ta\t1\nR\thyper\ta\tb\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tconcept-a\ta\nC\tconcept-b\tb\n"), lex)
    matrix = np.ones((3, 2), dtype=np.float32)
    index = build_index_from_arrays(["r0", "r1", "r2"], matrix, IndexConfig(dim=2))
    store = load_keywords(write(tmp_path, "kw.tsv", "r0\tael\nr1\tael\nr2\tael\n"))
    params = EngineParams(
        k=3, m=2,
        analysis=AnalysisConfig(alpha=0.5, relation_set=frozenset({RelationType.HYPERNYM}),
                                tol=1e-12, max_iters=2000),
    )
    query = Query("q", np.ones(2, dtype=np.float32), ("concept-a", "concept-b"))
    ann = annotate(query, [Dataset(index, store)], lex, concepts, params)
    assert [name for name, _ in ann.ranked] == ["concept-a", "concept-b"]
    assert ann.ranked[0][1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert ann.ranked[1][1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_annotate_no_keyword_signal(tmp_path):
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\tcat.n.1\tcat\nW\tcat\tcat.n.1\t1\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tcat\tcat.n.1\n"), lex)
    matrix = np.ones((4, 2), dtype=np.float32)
    index = build_index_from_arrays([f"r{i}" for i in range(4)], matrix, IndexConfig(dim=2))
    # keywords exist but match nothing in the lexicon
    store = load_keywords(write(tmp_path, "kw.tsv", "".join(f"r{i}\tblorp\n" for i in range(4))))
    ann = annotate(Query("q", np.ones(2), ("cat",)), [Dataset(index, store)], lex, concepts,
                   EngineParams(k=4, m=2))
    assert ann.no_keyword_signal
    assert ann.ranked == (("cat", 0.0),)


def test_annotate_closed_world_only_candidates_scored(tmp_path):
    dataset, lex, concepts = single_word_world(tmp_path)
    concepts = dict(concepts)
    concepts["other"] = ConceptDef("other", ("cat.n.1",))  # would score 1.0 if allowed in
    query = Query("q", np.zeros(4), ("cat",))
    ann = annotate(query, [dataset], lex, concepts, EngineParams(k=5, m=3))
    assert [name for name, _ in ann.ranked] == ["cat"]


def test_annotate_empty_candidates_rejected(tmp_path):
    dataset, lex, concepts = single_word_world(tmp_path)
    with pytest.raises(EngineError, match="no candidate"):
        annotate(Query("q", np.zeros(4), ()), [dataset], lex, concepts, EngineParams())


def test_annotate_batch_matches_single(tmp_path):
    # Exact and perm-prefix indexes, one dataset and two: the batch gives
    # each query what annotating it alone gives.
    words = ["cat", "dog", "owl", "fox"]
    lex = load_lexicon(write(tmp_path, "lex.tsv", "".join(f"S\t{w}.n.1\t{w}\nW\t{w}\t{w}.n.1\t1\n" for w in words)))
    concepts = load_concepts(write(tmp_path, "con.tsv", "".join(f"C\t{w}\t{w}.n.1\n" for w in words)), lex)
    rng = np.random.default_rng(1)
    parts = []
    for d in range(2):
        ids = [f"d{d}r{i}" for i in range(40)]
        lines = [f"{i}\t{','.join(rng.choice(words, 2))}\n" for i in ids[2:]]  # two ids lack keywords
        parts.append((ids, rng.standard_normal((40, 4)).astype(np.float32),
                      load_keywords(write(tmp_path, f"kw{d}.tsv", "".join(lines)))))
    queries = [Query(f"q{i}", rng.standard_normal(4).astype(np.float32), tuple(words)) for i in (5, 0, 7, 2, 1, 6, 3, 4)]
    params = EngineParams(k=7, m=3, analysis=AnalysisConfig(neighbor_weighting=WEIGHTING_RECIPROCAL))
    configs = [IndexConfig(dim=4),
               IndexConfig(dim=4, mode=MODE_PERM_PREFIX, num_pivots=6, prefix_len=3, candidate_budget=15)]
    for config in configs:
        datasets = [Dataset(build_index_from_arrays(ids, matrix, config), store) for ids, matrix, store in parts]
        for used in (datasets[:1], datasets):
            batch = annotate_batch(queries, used, lex, concepts, params)
            assert [a.id for a in batch] == sorted(q.id for q in queries)
            assert len({a.ranked for a in batch}) > 1
            by_id = {a.id: a for a in batch}
            for q in queries:
                assert annotate(q, used, lex, concepts, params) == by_id[q.id], (config.mode, len(used), q.id)


@pytest.mark.parametrize("analysis", [
    AnalysisConfig(neighbor_weighting=WEIGHTING_RECIPROCAL, alpha=0.3,
                   lambdas={RelationType.HYPERNYM: 2.0, RelationType.HYPONYM: 0.5,
                            RelationType.MERONYM: 0.0, RelationType.HOLONYM: 1.0}),
    AnalysisConfig(expansion_depth=0, s=2, n=3),
], ids=["reciprocal-rank", "depth-0"])
def test_each_query_of_a_batch_is_annotated_as_alone(tmp_path, analysis):
    # Words with several senses and relations among their synsets; references far out carry only
    # words the lexicon lacks, so the queries near them have no keyword signal.
    words = ["cat", "dog", "owl", "fox"]
    lex_lines = ["S\tanimal.n.1\tanimal", "S\tpaw.n.1\tpaw", "W\tanimal\tanimal.n.1\t1"]
    for w in words:
        lex_lines += [f"S\t{w}.n.1\t{w}", f"S\t{w}.n.2\t{w}", f"W\t{w}\t{w}.n.1\t1", f"W\t{w}\t{w}.n.2\t2",
                      f"R\thyper\t{w}.n.1\tanimal.n.1", f"R\tmero\t{w}.n.1\tpaw.n.1"]
    lex = load_lexicon(write(tmp_path, "lex.tsv", "\n".join(lex_lines) + "\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "".join(f"C\t{w}\t{w}.n.1,{w}.n.2\n" for w in words)
                                   + "C\tanimal\tanimal.n.1\n"), lex)
    rng = np.random.default_rng(3)
    near, far = rng.standard_normal((50, 4)), rng.standard_normal((10, 4)) + 40.0
    ids = [f"r{i:02d}" for i in range(60)]
    lines = [f"{i}\t{','.join(rng.choice(words + ['blorp'], 2))}\n" for i in ids[:50]]
    lines += [f"{i}\tblorp,zzz\n" for i in ids[50:]]
    index = build_index_from_arrays(ids, np.vstack([near, far]).astype(np.float32), IndexConfig(dim=4))
    datasets = [Dataset(index, load_keywords(write(tmp_path, "kw.tsv", "".join(lines))))]
    features = np.vstack([rng.standard_normal((12, 4)), rng.standard_normal((3, 4)) + 40.0])
    queries = [Query(f"q{i:02d}", f, tuple(rng.choice(words + ["animal"], 3, replace=False)))
               for i, f in enumerate(features)]
    params = EngineParams(k=7, m=3, analysis=analysis)
    alone = {q.id: annotate(q, datasets, lex, concepts, params) for q in queries}
    assert {a.no_keyword_signal for a in alone.values()} == {True, False}
    for batch in (queries, queries[::-1], queries[1::3], queries[12:], [queries[5], queries[13]]):
        for annotation in annotate_batch(batch, datasets, lex, concepts, params):
            assert annotation == alone[annotation.id]


@pytest.mark.parametrize("weighting", [WEIGHTING_UNIFORM, WEIGHTING_RECIPROCAL])
def test_annotate_from_words_equals_annotate(tmp_path, weighting):
    # The synthetic world, with every fifth reference's keyword record dropped.
    paths = generate_corpus(SynthConfig(rng_seed=3, dim=8, num_concepts=8, refs_per_concept=20, num_queries=40),
                            str(tmp_path))
    lex = load_lexicon(paths.lexicon)
    concepts = load_concepts(paths.concepts, lex)
    ids, matrix = read_vectors(paths.refs)
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=8))
    lines = Path(paths.keywords).read_text(encoding="utf-8").splitlines(keepends=True)
    store = load_keywords(write(tmp_path, "kw.tsv", "".join(lines[i] for i in range(len(lines)) if i % 5)))
    candidates = load_candidate_lists(paths.candidates)
    qids, features = read_vectors(paths.queries)
    params = EngineParams(k=12, analysis=AnalysisConfig(neighbor_weighting=weighting))
    rankings = set()
    for qid, feature in zip(qids, features):
        query = Query(qid, feature, candidates[qid])
        found, missing = store.words_for([image_id for image_id, _dist in index.knn(feature, params.k)])
        assert len(found) + missing == params.k
        expected = annotate(query, [Dataset(index, store)], lex, concepts, params)
        assert annotate_from_words(query, found, lex, concepts, params) == expected
        rankings.add(expected.ranked)
    assert len(rankings) > 1


def test_search_stage_yields_in_the_given_order(tmp_path):
    rng = np.random.default_rng(2)
    datasets = []
    for d in range(2):
        ids = [f"d{d}r{i}" for i in range(30)]
        store = load_keywords(write(tmp_path, f"kw{d}.tsv", "".join(f"{i}\tw{i}\n" for i in ids[1:])))
        datasets.append(Dataset(build_index_from_arrays(ids, rng.standard_normal((30, 3)), IndexConfig(dim=3)), store))
    queries = [Query(f"q{i}", rng.standard_normal(3), ("x",)) for i in (3, 1, 2, 0)]
    timings = {}
    got = decoded(search_neighbor_words(queries, datasets, 6, timings))
    for q, words in zip(queries, got, strict=True):
        merged = merge_neighbor_lists([ds.index.knn(q.feature, 6) for ds in datasets], 6)
        expected = [found for pos, image_id, _ in merged for _, found in datasets[pos].keywords.words_for([image_id])[0]]
        assert words == expected
    assert [len(timings[name]) for name in (SIMILARITY_SEARCH, KEYWORD_FETCH)] == [1, 1]
    assert search_neighbor_words([], datasets, 6).queries == 0


def test_annotate_merges_multiple_datasets(tmp_path):
    lex = load_lexicon(write(tmp_path, "lex.tsv",
                             "S\tcat.n.1\tcat\nS\tdog.n.1\tdog\nW\tcat\tcat.n.1\t1\nW\tdog\tdog.n.1\t1\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tcat\tcat.n.1\nC\tdog\tdog.n.1\n"), lex)
    near = build_index_from_arrays(["a0", "a1"], np.zeros((2, 2), dtype=np.float32), IndexConfig(dim=2))
    far = build_index_from_arrays(["b0", "b1"], np.ones((2, 2), dtype=np.float32) * 5, IndexConfig(dim=2))
    cat_store = load_keywords(write(tmp_path, "kw1.tsv", "a0\tcat\na1\tcat\n"))
    dog_store = load_keywords(write(tmp_path, "kw2.tsv", "b0\tdog\nb1\tdog\n"))
    # k=2 takes both neighbors from the near dataset only
    ann = annotate(Query("q", np.zeros(2), ("cat", "dog")),
                   [Dataset(near, cat_store), Dataset(far, dog_store)],
                   lex, concepts, EngineParams(k=2, m=2))
    positive = [name for name, score in ann.ranked if score > 0]
    assert positive == ["cat"]
    # k=4 reaches into the far dataset too
    ann = annotate(Query("q", np.zeros(2), ("cat", "dog")),
                   [Dataset(near, cat_store), Dataset(far, dog_store)],
                   lex, concepts, EngineParams(k=4, m=2))
    positive = {name for name, score in ann.ranked if score > 0}
    assert positive == {"cat", "dog"}


# -- concept/candidate file loaders ------------------------------------------------

def test_load_concepts(tmp_path):
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\ta\tx\nS\tb\ty\n"))
    concepts = load_concepts(write(tmp_path, "con.tsv", "C\tCat\ta,b\n# note\nC\tdog\tb\n"), lex)
    assert concepts["cat"].synsets == ("a", "b")
    assert concepts["dog"].synsets == ("b",)


def test_load_concepts_undeclared_synset(tmp_path):
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\ta\tx\n"))
    with pytest.raises(FormatError, match="line 1"):
        load_concepts(write(tmp_path, "con.tsv", "C\tcat\tghost\n"), lex)


def test_load_concepts_duplicate_name(tmp_path):
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\ta\tx\n"))
    with pytest.raises(FormatError, match="duplicate"):
        load_concepts(write(tmp_path, "con.tsv", "C\tcat\ta\nC\tCAT\ta\n"), lex)


def test_load_concepts_comma_in_name(tmp_path):
    # Candidate lists and annotation files separate names with commas, so
    # such a name could be loaded but never listed nor read back.
    lex = load_lexicon(write(tmp_path, "lex.tsv", "S\ta\tx\n"))
    path = write(tmp_path, "con.tsv", "C\tcat\ta\n# note\nC\tfoo,bar\ta\n")
    with pytest.raises(FormatError, match="comma") as exc:
        load_concepts(path, lex)
    assert (exc.value.path, exc.value.line) == (path, 3)


def test_load_candidate_lists(tmp_path):
    lists = load_candidate_lists(write(tmp_path, "cand.tsv", "q1\tcat,dog\nq2\tdog\n"))
    assert lists == {"q1": ("cat", "dog"), "q2": ("dog",)}


def test_load_candidate_lists_malformed(tmp_path):
    with pytest.raises(FormatError, match="line 2"):
        load_candidate_lists(write(tmp_path, "cand.tsv", "q1\tcat\nbroken\n"))


# -- annotation output round trip ----------------------------------------------------

def test_write_read_annotations_round_trip(tmp_path):
    path = str(tmp_path / "out.tsv")
    anns = [
        Annotation("q1", (("cat", 0.653211), ("dog", 0.2))),
        Annotation("q2", (("rock", 0.0),)),
    ]
    write_annotations(path, anns)
    text = Path(path).read_text(encoding="utf-8")
    assert text == "q1\tcat:0.653211,dog:0.200000\nq2\trock:0.000000\n"
    back = read_annotations(path)
    assert [a.id for a in back] == ["q1", "q2"]
    assert back[0].ranked == (("cat", 0.653211), ("dog", 0.2))


def test_write_annotations_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    anns = [Annotation("q1", (("cat", 1.0 / 3.0),))]
    write_annotations(p1, anns)
    write_annotations(p2, anns)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_read_annotations_malformed_line_number(tmp_path):
    path = write(tmp_path, "out.tsv", "q1\tcat:0.5\nq2\tno-score\n")
    with pytest.raises(FormatError, match="line 2"):
        read_annotations(path)


def test_read_annotations_duplicate_id(tmp_path):
    path = write(tmp_path, "out.tsv", "q1\tcat:0.5\nq1\tdog:0.5\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_annotations(path)


def test_engine_params_validation():
    with pytest.raises(ValueError):
        EngineParams(k=0)
    with pytest.raises(ValueError):
        EngineParams(m=0)
