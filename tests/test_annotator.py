from pathlib import Path

import numpy as np
import pytest

from neartag.annotator import (
    Annotation,
    ConceptDef,
    Dataset,
    EngineParams,
    Query,
    annotate,
    annotate_batch,
    gather_neighbor_words,
    load_candidate_lists,
    load_concepts,
    merge_neighbor_lists,
    read_annotations,
    score_concepts,
    select_top,
    write_annotations,
)
from neartag.analysis import AnalysisConfig
from neartag.errors import EngineError, FormatError
from neartag.index import IndexConfig, build_index_from_arrays
from neartag.keywords import KeywordStore, load_keywords
from neartag.lexicon import RelationType, load_lexicon


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


def test_score_concepts_single_synset():
    got = score_concepts([("cat.n.1", 0.4)], CONCEPTS, ["cat"])
    assert got == [("cat", 0.4)]


def test_score_concepts_max_over_synsets():
    ranked = [("animal.n.1", 0.1), ("creature.n.1", 0.3)]
    got = score_concepts(ranked, CONCEPTS, ["animal"])
    assert got == [("animal", 0.3)]


def test_score_concepts_missing_synsets_score_zero_and_sort_last():
    got = score_concepts([("cat.n.1", 0.4)], CONCEPTS, ["rock", "cat"])
    assert got == [("cat", 0.4), ("rock", 0.0)]


def test_score_concepts_unknown_concept_named():
    with pytest.raises(EngineError, match="unicorn"):
        score_concepts([], CONCEPTS, ["unicorn"])


def test_score_concepts_zero_ties_alphabetical():
    got = score_concepts([], CONCEPTS, ["rock", "cat", "animal"])
    assert got == [("animal", 0.0), ("cat", 0.0), ("rock", 0.0)]


def test_select_top_truncates_positive_scores():
    scored = [(f"c{i}", 0.7 - 0.1 * i) for i in range(7)]
    assert select_top(scored, 5) == scored[:5]


def test_select_top_keeps_fewer_than_m_positives():
    scored = [("a", 0.5), ("b", 0.2), ("c", 0.0), ("d", 0.0)]
    assert select_top(scored, 3) == [("a", 0.5), ("b", 0.2)]


def test_select_top_all_zero_falls_back_to_first_m_names():
    scored = [("a", 0.0), ("b", 0.0), ("c", 0.0)]
    assert select_top(scored, 2) == [("a", 0.0), ("b", 0.0)]


def test_select_top_m_validation():
    with pytest.raises(ValueError):
        select_top([("a", 1.0)], 0)


# -- merge ---------------------------------------------------------------------

def test_merge_neighbor_lists_orders_by_distance_then_id():
    a = [("x", 0.5), ("y", 1.0)]
    b = [("w", 0.5), ("z", 0.2)]
    got = merge_neighbor_lists([a, b], 3)
    assert got == [(1, "z", 0.2), (1, "w", 0.5), (0, "x", 0.5)]


def test_merge_neighbor_lists_truncates_to_k():
    a = [("x", 0.1), ("y", 0.2)]
    assert len(merge_neighbor_lists([a], 1)) == 1


class CountingStore(KeywordStore):
    def __init__(self, records):
        super().__init__(records)
        self.calls = 0

    def words_for(self, image_ids):
        self.calls += 1
        return super().words_for(image_ids)


def test_gather_neighbor_words_batches_lookups_and_keeps_merged_order():
    stores = [CountingStore({"a1": ["cat"], "a2": ["dog", "cat"], "a3": ["sky"]}),
              CountingStore({"b1": ["sea"], "b3": ["sun"]})]
    merged = [(0, "a1", 0.1), (0, "a2", 0.2), (1, "b1", 0.3), (1, "b2", 0.4),
              (0, "a3", 0.5), (1, "b3", 0.6)]  # b2 has no keyword record
    entries, missing = gather_neighbor_words(merged, stores)
    assert entries == [("a1", ["cat"]), ("a2", ["dog", "cat"]), ("b1", ["sea"]),
                       ("a3", ["sky"]), ("b3", ["sun"])]
    assert missing == 1
    # one lookup per run of same-dataset neighbors, not one per neighbor
    assert [s.calls for s in stores] == [2, 2]


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
    dataset, lex, concepts = single_word_world(tmp_path)
    rng = np.random.default_rng(1)
    queries = [Query(f"q{i}", rng.standard_normal(4).astype(np.float32), ("cat",)) for i in range(8)]
    params = EngineParams(k=5, m=2)
    batch = annotate_batch(queries, [dataset], lex, concepts, params)
    assert [a.id for a in batch] == sorted(q.id for q in queries)
    by_id = {a.id: a for a in batch}
    for q in queries:
        single = annotate(q, [dataset], lex, concepts, params)
        assert by_id[q.id] == single


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
