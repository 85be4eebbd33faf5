from pathlib import Path

import numpy as np
import pytest

from neartag import fvec
from neartag.annotator import Dataset, EngineParams, Query, annotate_batch, load_candidate_lists, load_concepts
from neartag.evaluation import evaluate, load_ground_truth
from neartag.index import IndexConfig, build_index_from_arrays
from neartag.keywords import load_keywords
from neartag.lexicon import ALL_RELATIONS, INVERSE, load_lexicon
from neartag.synth import CorpusPaths, SynthConfig, generate_corpus

SMALL = SynthConfig(rng_seed=11, dim=6, num_concepts=6, refs_per_concept=25, num_queries=15,
                    cluster_noise_sigma=0.05, label_noise=0.1, candidates_per_query=5)


def read_all_bytes(paths: CorpusPaths) -> dict[str, bytes]:
    names = ("refs", "keywords", "lexicon", "concepts", "queries", "candidates", "truth", "engine_config")
    return {name: Path(getattr(paths, name)).read_bytes() for name in names}


def test_generation_is_byte_identical_per_seed(tmp_path):
    a = generate_corpus(SMALL, str(tmp_path / "a"))
    b = generate_corpus(SMALL, str(tmp_path / "b"))
    assert read_all_bytes(a) == read_all_bytes(b)


def test_different_seed_changes_output(tmp_path):
    a = generate_corpus(SMALL, str(tmp_path / "a"))
    other = SynthConfig(**{**SMALL.__dict__, "rng_seed": 12})
    b = generate_corpus(other, str(tmp_path / "b"))
    assert Path(a.refs).read_bytes() != Path(b.refs).read_bytes()


def test_all_outputs_parse_with_package_loaders(tmp_path):
    paths = generate_corpus(SMALL, str(tmp_path / "c"))
    ids, matrix = fvec.read_vectors(paths.refs)
    assert len(ids) == SMALL.num_concepts * SMALL.refs_per_concept
    assert matrix.shape == (len(ids), SMALL.dim)
    qids, qmatrix = fvec.read_vectors(paths.queries)
    assert len(qids) == SMALL.num_queries

    store = load_keywords(paths.keywords)
    assert len(store) == len(ids) and (store.rows(ids) >= 0).all()
    lex = load_lexicon(paths.lexicon)
    concepts = load_concepts(paths.concepts, lex)
    # every keyword resolves to at least one synset
    for rid in ids:
        (entry,), _ = store.words_for([rid])
        for word in entry[1]:
            assert lex.senses(word, 7), f"keyword {word} not in lexicon"

    cands = load_candidate_lists(paths.candidates)
    truth = load_ground_truth(paths.truth, concepts)
    assert set(cands) == set(qids) == set(truth)
    for qid in qids:
        for name in cands[qid]:
            assert name in concepts
        assert truth[qid] <= set(cands[qid])  # candidates always include the truth


def test_lexicon_structure(tmp_path):
    paths = generate_corpus(SMALL, str(tmp_path / "d"))
    lex = load_lexicon(paths.lexicon)
    # each leaf has a hypernym chain to its category and beyond
    related = dict(lex.related("leaf000", ALL_RELATIONS))
    assert "cat00" in related
    assert "part000" in related
    deeper = dict(lex.related("cat00", ALL_RELATIONS))
    assert "anc00_2" in deeper  # lexicon_depth=2 adds one ancestor level
    # mirror closure holds everywhere
    for synset in lex.synset_names:
        for target, rel in lex.related(synset, ALL_RELATIONS):
            assert (synset, INVERSE[rel]) in lex.related(target, ALL_RELATIONS)


def test_truth_is_leaf_plus_category(tmp_path):
    paths = generate_corpus(SMALL, str(tmp_path / "e"))
    lex = load_lexicon(paths.lexicon)
    concepts = load_concepts(paths.concepts, lex)
    truth = load_ground_truth(paths.truth, concepts)
    for names in truth.values():
        assert len(names) == 2
        leaf = next(n for n in names if not n.startswith("wc"))
        cat = next(n for n in names if n.startswith("wc"))
        assert concepts[leaf].synsets[0].startswith("leaf")
        assert concepts[cat].synsets[0].startswith("cat")


def test_label_noise_zero_keywords_always_match_cluster(tmp_path):
    cfg = SynthConfig(rng_seed=3, dim=4, num_concepts=4, refs_per_concept=10, num_queries=5,
                      cluster_noise_sigma=0.05, label_noise=0.0,
                      synonym_rate=0.0, part_rate=0.0, category_rate=0.0)
    paths = generate_corpus(cfg, str(tmp_path / "f"))
    store = load_keywords(paths.keywords)
    ids, _matrix = fvec.read_vectors(paths.refs)
    assert len(store) == len(ids) and (store.rows(ids) >= 0).all()
    for rid in ids:
        concept_idx = int(rid[1:5])
        (entry,), _ = store.words_for([rid])
        assert entry[1] == [f"w{concept_idx:03d}"]


def test_noiseless_world_annotates_perfectly(tmp_path):
    cfg = SynthConfig(rng_seed=5, dim=8, num_concepts=8, refs_per_concept=30, num_queries=40,
                      cluster_noise_sigma=0.02, label_noise=0.0)
    paths = generate_corpus(cfg, str(tmp_path / "g"))
    ids, matrix = fvec.read_vectors(paths.refs)
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=cfg.dim))
    store = load_keywords(paths.keywords)
    lex = load_lexicon(paths.lexicon)
    concepts = load_concepts(paths.concepts, lex)
    qids, qmatrix = fvec.read_vectors(paths.queries)
    cands = load_candidate_lists(paths.candidates)
    queries = [Query(q, qmatrix[i], cands[q]) for i, q in enumerate(qids)]
    annotations = annotate_batch(queries, [Dataset(index, store)], lex, concepts,
                                 EngineParams(k=15, m=5))
    truth = load_ground_truth(paths.truth, concepts)
    report = evaluate(annotations, truth, concepts)
    assert report.mf_s == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_concepts=1)
    with pytest.raises(ValueError):
        SynthConfig(label_noise=1.5)
    with pytest.raises(ValueError):
        SynthConfig(synonym_rate=0.8, part_rate=0.3)
    with pytest.raises(ValueError):
        SynthConfig(candidates_per_query=1)
    with pytest.raises(ValueError):
        SynthConfig(synonym_rate=0.2, variants_per_concept=0)
