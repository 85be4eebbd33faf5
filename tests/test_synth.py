"""The seeded corpus generator.

Beyond run-to-run identity, the eight files of three worlds are pinned by
sha256 in ``PINNED_DIGESTS``, so a refactor of the generator that moves
one byte fails here. After a deliberate change of the generated files, run
``PYTHONPATH=src python tests/test_synth.py`` to print the digests in
``PINNED_DIGESTS``'s form, and review them before pasting them over it.
"""

import hashlib
import tempfile
import tracemalloc
from dataclasses import replace
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


# SMALL; no variants, where the variant draw is a column of zeros; and wrong labels on both
# sides of the true leaf, in every word form, with every leaf word ambiguous.
PINNED_WORLDS = {
    "small": SMALL,
    "no-variants": replace(SMALL, variants_per_concept=0, synonym_rate=0.0),
    "noisy-labels": replace(SMALL, label_noise=0.6, part_rate=0.2, category_rate=0.2, ambiguous_fraction=1.0),
}

PINNED_DIGESTS = {
    "small": {
        "refs": "f3ae1db56efa2004dc2c71b6fb54591240ea478cd55ba7ef5515452c11a18461",
        "keywords": "0571fd2ef0e1fa5a17420dba2b8191dc5af1dfed6d89c3b2b0ad1e13e41eb989",
        "lexicon": "e4601117a7d391157fa9008c68fd6e7e844a8ec87d2f8940b1fd2432a2236523",
        "concepts": "75bbe2b35ac2c64509cb126e0c7f34c0db632ba7bad852f9c9182d9e0a2220a0",
        "queries": "fcfb1e7fd4e8e408d12c3da709c4a8e97370b48c1fef467c97beb8177fa885b7",
        "candidates": "65b8a4c92d27c1afdec70a8885f7e6a3fe5b50ae20f98cb0fc57bcbc46196d0f",
        "truth": "20ca4dcbd72b8878e4d3700387a8307e585b7955b8649c6f6be9a978deab116e",
        "engine_config": "f45dd430124f2e827d02d26a4b42792cc9829331c91af343bb686892f21a55fe",
    },
    "no-variants": {
        "refs": "f282e757fc03eee74a5c6a08ed511d75e7b016d75489e093cc3c41a3ca1efd41",
        "keywords": "5d6d01a2d9fdb9f4838209cad6bc65d4e98fd345983117689666d2f582bb1280",
        "lexicon": "8395f83bc9e4b887afc9d028d888f83431b398539f10e2a77384b7cba12ed19f",
        "concepts": "75bbe2b35ac2c64509cb126e0c7f34c0db632ba7bad852f9c9182d9e0a2220a0",
        "queries": "c7ce657426fd75d7e990f0d5c9fc44d413dd2dc959440ddf14ca4be01e65cf99",
        "candidates": "2fa78e1020e2e942e8f73d76e0f56b0f2cd45906363582b325d7cf43d3f4e40b",
        "truth": "b166ef7f4ed8c59da6c99a2a7bff56a08f5f64c6536525e4f926b1a6fd60fc00",
        "engine_config": "f45dd430124f2e827d02d26a4b42792cc9829331c91af343bb686892f21a55fe",
    },
    "noisy-labels": {
        "refs": "0866e95ef4ce1037940f2e0ea6593f8d9fef663232dbc836c767288b73301d76",
        "keywords": "0eeff376fb799e18e1772c90a0118ccf9a054ad2a9dceed30a1e20a4847ceed1",
        "lexicon": "b12e67c8162d249c0cb2b4594417af0b2893b722864a14d72aaa6abb13c6c2d6",
        "concepts": "75bbe2b35ac2c64509cb126e0c7f34c0db632ba7bad852f9c9182d9e0a2220a0",
        "queries": "a2b3698ad0a2ede23fe2726ba69f6a57359372b77359801c5c726042af60971a",
        "candidates": "700d51252a95a79e68ed95bcbb0b0296cb2dd8afcfac55727d181d02f03a53d0",
        "truth": "5b7441ea3375b8a1f3e6a11a00446d95fdc5f207464ea2c1863070001d5ff437",
        "engine_config": "f45dd430124f2e827d02d26a4b42792cc9829331c91af343bb686892f21a55fe",
    },
}


def read_all_bytes(paths: CorpusPaths) -> dict[str, bytes]:
    names = ("refs", "keywords", "lexicon", "concepts", "queries", "candidates", "truth", "engine_config")
    return {name: Path(getattr(paths, name)).read_bytes() for name in names}


def file_digests(paths: CorpusPaths) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in read_all_bytes(paths).items()}


def pinned_worlds_digests(root: str) -> dict[str, dict[str, str]]:
    return {world: file_digests(generate_corpus(config, f"{root}/{world}")) for world, config in PINNED_WORLDS.items()}


def test_generation_is_byte_identical_per_seed(tmp_path):
    a = generate_corpus(SMALL, str(tmp_path / "a"))
    b = generate_corpus(SMALL, str(tmp_path / "b"))
    assert read_all_bytes(a) == read_all_bytes(b)


def test_generated_files_match_their_pinned_digests(tmp_path):
    assert pinned_worlds_digests(str(tmp_path)) == PINNED_DIGESTS
    # The noisy world's wrong labels name leaves on both sides of the true one.
    keywords = (tmp_path / "noisy-labels" / "keywords.tsv").read_text().splitlines()
    offsets = {int(word[1:4]) - int(rid[1:5]) for rid, word in (line.split("\t") for line in keywords)
               if not word.startswith("wc")}
    assert min(offsets) < 0 < max(offsets)


def test_generation_peak_is_a_small_multiple_of_the_reference_matrix(tmp_path):
    # The vectors are built in the float32 matrix that is written, one concept's float64
    # draw at a time: the peak read 1.45 times that matrix when this test landed, and 5.27
    # while the generator held float64 blocks, their concatenation and a float32 copy.
    config = SynthConfig(rng_seed=0, dim=256, num_concepts=20, refs_per_concept=1000, num_queries=100)
    tracemalloc.start()
    try:
        generate_corpus(config, str(tmp_path / "m"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (20 * 1000 * 256 * 4)


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        digests = pinned_worlds_digests(out)
    print("PINNED_DIGESTS = {")
    for world, files in digests.items():
        print(f'    "{world}": {{')
        for name, digest in files.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")
