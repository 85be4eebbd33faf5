import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (concatenate_graphs, dense_fixed_point, one_query_graph, random_graph, weight_lists,
                     weights_from_lists)

from neartag.analysis import (
    AnalysisConfig,
    NeighborWords,
    build_graph,
    initial_synsets,
    propagate,
    rank_synsets,
    top_n,
    word_frequencies,
)
from neartag.lexicon import ALL_RELATIONS, RELATIONS, RelationType, load_lexicon


def load(tmp_path, text):
    path = tmp_path / "lex.tsv"
    path.write_text(text, encoding="utf-8")
    return load_lexicon(str(path))


# The stages work on batches; these run them on a batch of one and read
# the result back as (name, weight) pairs.

def word_weights(records, weighting="uniform"):
    return weight_lists(word_frequencies(NeighborWords.from_lists([records]), weighting))[0]


def synset_weights(weights, lexicon, s):
    return weight_lists(initial_synsets(weights_from_lists([weights]), lexicon, s))[0]


def strongest(candidates, n):
    return weight_lists(top_n(weights_from_lists([candidates]), n))[0]


def graph_around(candidates, lexicon, config):
    return build_graph(weights_from_lists([candidates], lexicon.synset_names), lexicon, config)


def node_names(graph):
    return tuple(graph.names[x] for x in graph.nodes.tolist())


def edge_list(graph):
    return [(src, RELATIONS[rel], dst) for src, rel, dst in graph.edges.tolist()]


# -- word_frequencies ---------------------------------------------------------

def test_word_frequencies_uniform_single_word():
    got = word_weights([("n1", ["cat"]), ("n2", ["cat"]), ("n3", ["cat"])])
    assert got == [("cat", 1.0)]


def test_word_frequencies_reciprocal_rank():
    got = word_weights([("n1", ["cat"]), ("n2", ["dog"])], weighting="reciprocal-rank")
    assert got[0][0] == "cat" and got[0][1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert got[1][0] == "dog" and got[1][1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_word_frequencies_repeated_word_in_one_record_counts_once():
    got = word_weights([("n1", ["cat", "cat"]), ("n2", ["dog"])])
    assert got == [("cat", 0.5), ("dog", 0.5)]


def test_word_frequencies_output_ordering():
    got = word_weights([("n1", ["b", "a"]), ("n2", ["b"])])
    assert got == [("b", 2.0 / 3.0), ("a", pytest.approx(1.0 / 3.0))]


def test_word_frequencies_empty_input():
    assert word_weights([]) == []
    assert word_weights([("n1", [])]) == []


def test_word_frequencies_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(30):
        records = [
            (f"n{i}", [f"w{int(rng.integers(0, 8))}" for _ in range(int(rng.integers(0, 5)))])
            for i in range(int(rng.integers(1, 10)))
        ]
        for weighting in ("uniform", "reciprocal-rank"):
            got = word_weights(records, weighting)
            if got:
                assert sum(w for _, w in got) == pytest.approx(1.0, abs=1e-12)


# -- initial_synsets ----------------------------------------------------------

THREE_SENSES = """\
S\ta\tword
S\tb\tword
S\tc\tword
W\tword\ta\t1
W\tword\tb\t2
W\tword\tc\t3
"""


def test_harmonic_shares_three_senses(tmp_path):
    lex = load(tmp_path, THREE_SENSES)
    got = synset_weights([("word", 1.0)], lex, s=7)
    shares = dict(got)
    assert shares["a"] == pytest.approx(6.0 / 11.0, abs=1e-9)
    assert shares["b"] == pytest.approx(3.0 / 11.0, abs=1e-9)
    assert shares["c"] == pytest.approx(2.0 / 11.0, abs=1e-9)


def test_truncation_to_s_changes_denominator(tmp_path):
    lex = load(tmp_path, THREE_SENSES)
    got = synset_weights([("word", 1.0)], lex, s=2)
    shares = dict(got)
    assert set(shares) == {"a", "b"}
    assert shares["a"] == pytest.approx((1.0 / 1.0) / 1.5, abs=1e-12)
    assert shares["b"] == pytest.approx((1.0 / 2.0) / 1.5, abs=1e-12)


def test_single_sense_word_gets_full_weight(tmp_path):
    lex = load(tmp_path, "S\tonly\tword\nW\tword\tonly\t1\n")
    got = synset_weights([("word", 1.0)], lex, s=7)
    assert got == [("only", 1.0)]


def test_two_words_sharing_a_synset_accumulate(tmp_path):
    lex = load(tmp_path, "S\tshared\tcat,kitty\nW\tcat\tshared\t1\nW\tkitty\tshared\t1\n")
    got = synset_weights([("cat", 0.6), ("kitty", 0.4)], lex, s=7)
    assert got == [("shared", pytest.approx(1.0, abs=1e-12))]


def test_unknown_words_drop_and_renormalize(tmp_path):
    lex = load(tmp_path, "S\tonly\tword\nW\tword\tonly\t1\n")
    got = synset_weights([("word", 0.25), ("zzz", 0.75)], lex, s=7)
    assert got[0][1] == pytest.approx(1.0, abs=1e-12)


def test_all_unknown_words_give_empty(tmp_path):
    lex = load(tmp_path, "S\tonly\tword\nW\tword\tonly\t1\n")
    assert synset_weights([("zzz", 1.0)], lex, s=7) == []


def test_initial_synsets_sum_to_one(tmp_path):
    lex = load(tmp_path, THREE_SENSES + "S\td\tother\nW\tother\td\t1\n")
    got = synset_weights([("word", 0.5), ("other", 0.3), ("gone", 0.2)], lex, s=3)
    assert sum(p0 for _, p0 in got) == pytest.approx(1.0, abs=1e-12)


# -- top_n ----------------------------------------------------------------------

def test_top_n_truncates_without_renormalizing():
    cands = [("a", 0.5), ("b", 0.3), ("c", 0.2)]
    got = strongest(cands, 2)
    assert got == [("a", 0.5), ("b", 0.3)]


def test_top_n_ties_break_by_id():
    cands = [("z", 0.4), ("a", 0.4), ("m", 0.2)]
    assert [sid for sid, _ in strongest(cands, 2)] == ["a", "z"]


def test_top_n_one():
    cands = [("a", 0.6), ("b", 0.4)]
    assert strongest(cands, 1) == [("a", 0.6)]


def test_top_n_invalid():
    with pytest.raises(ValueError):
        strongest([], 0)


# -- build_graph ------------------------------------------------------------------

CAT_WORLD = """\
S\tcat.n.1\tcat
S\tcanine.n.1\tcanine
S\tpaw.n.1\tpaw
W\tcat\tcat.n.1\t1
R\thyper\tcat.n.1\tcanine.n.1
R\tmero\tcat.n.1\tpaw.n.1
"""


def test_build_graph_depth_zero_has_no_expansion(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    cfg = AnalysisConfig(expansion_depth=0)
    graph = graph_around([("cat.n.1", 1.0)], lex, cfg)
    assert node_names(graph) == ("cat.n.1",)
    assert edge_list(graph) == []


def test_build_graph_depth_one_adds_neighbors_with_zero_weight(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    cfg = AnalysisConfig(expansion_depth=1)
    graph = graph_around([("cat.n.1", 1.0)], lex, cfg)
    # candidates first, then the expansion in id order
    assert node_names(graph) == ("cat.n.1", "canine.n.1", "paw.n.1")
    assert graph.restart.tolist() == [1.0, 0.0, 0.0]
    # inverse edges back into the candidate are included, by position
    assert (1, RelationType.HYPONYM, 0) in edge_list(graph)
    assert (2, RelationType.HOLONYM, 0) in edge_list(graph)


def test_build_graph_relation_filter(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    cfg = AnalysisConfig(relation_set=frozenset({RelationType.HYPERNYM, RelationType.HYPONYM}))
    graph = graph_around([("cat.n.1", 1.0)], lex, cfg)
    assert "paw.n.1" not in node_names(graph)
    assert all(rel in (RelationType.HYPERNYM, RelationType.HYPONYM) for _, rel, _ in edge_list(graph))


def test_build_graph_restart_sums_to_one(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    graph = graph_around([("cat.n.1", 0.4)], lex, AnalysisConfig())
    assert graph.restart.sum() == pytest.approx(1.0, abs=1e-12)


def test_build_graph_zero_weights_rejected(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    with pytest.raises(ValueError, match="sum to zero"):
        graph_around([("cat.n.1", 0.0)], lex, AnalysisConfig())


@pytest.mark.parametrize("candidates, names, message", [
    ([("cat.n.1", 1.0)], ("cat.n.1",), "candidate synsets are not numbered by this lexicon"),
    ([("cat.n.1", 0.5), ("paw.n.1", 0.2), ("cat.n.1", 0.3)], None, "duplicate candidate synset 'cat.n.1'"),
], ids=["other-numbering", "repeated-synset"])
def test_build_graph_refuses_candidates_it_cannot_place(tmp_path, candidates, names, message):
    lex = load(tmp_path, CAT_WORLD)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_graph(weights_from_lists([candidates], names or lex.synset_names), lex, AnalysisConfig())


def test_build_graph_empty_candidates(tmp_path):
    lex = load(tmp_path, CAT_WORLD)
    graph = graph_around([], lex, AnalysisConfig())
    assert node_names(graph) == () and edge_list(graph) == []


# -- propagate ----------------------------------------------------------------------

def graph_of(restart, edges):
    """A one-query graph from {synset: restart weight} and (source, relation, target) ids."""
    position = {sid: i for i, sid in enumerate(restart)}
    return one_query_graph(list(restart.values()), [(position[a], rel, position[b]) for a, rel, b in edges],
                           names=restart)


def two_node_graph():
    return graph_of({"a": 1.0, "b": 0.0}, [("a", RelationType.HYPERNYM, "b")])


def test_two_node_fixed_point():
    cfg = AnalysisConfig(alpha=0.5, tol=1e-12, max_iters=2000)
    graph = two_node_graph()
    result = propagate(graph, cfg)
    scores = dict(zip(node_names(graph), result.scores))
    assert scores["a"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert scores["b"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert result.converged


def test_single_node_stays_at_one():
    result = propagate(graph_of({"a": 1.0}, []), AnalysisConfig(alpha=0.3))
    assert result.scores[0] == pytest.approx(1.0, abs=1e-12)
    assert result.max_mass_error <= 1e-12


def test_alpha_one_returns_restart_exactly():
    graph, _ = random_graph(np.random.default_rng(1))
    cfg = AnalysisConfig(alpha=1.0)
    result = propagate(graph, cfg)
    assert result.scores.tolist() == graph.restart.tolist()


def test_mass_conserved_every_iteration():
    rng = np.random.default_rng(2)
    for _ in range(100):
        graph, cfg = random_graph(rng)
        result = propagate(graph, cfg)
        assert result.max_mass_error <= 1e-6


def test_matches_dense_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(100):
        graph, cfg = random_graph(rng)
        result = propagate(graph, cfg)
        expected = dense_fixed_point(graph, cfg)
        assert np.max(np.abs(result.scores - expected)) <= 1e-8


def test_converges_within_100_iterations_for_alpha_at_least_point2():
    # Worst-case L1 contraction per step is (1 - alpha); for alpha >= 0.2
    # the error bound 2 (1 - alpha)^t falls below 1e-9 within t = 100.
    rng = np.random.default_rng(4)
    for _ in range(60):
        graph, base = random_graph(rng)
        alpha = float(rng.uniform(0.2, 1.0))
        cfg = AnalysisConfig(alpha=alpha, lambdas=base.lambdas, tol=1e-9, max_iters=100)
        result = propagate(graph, cfg)
        assert result.converged, f"alpha={alpha} did not converge in 100 iterations"


def test_small_alpha_converges_eventually():
    # alpha in [0.1, 0.2) can legitimately need more than 100 iterations
    # (a 2-cycle at alpha=0.1 takes about 200); it still converges.
    graph = graph_of({"a": 1.0, "b": 0.0},
                     [("a", RelationType.HYPERNYM, "b"), ("b", RelationType.HYPONYM, "a")])
    cfg = AnalysisConfig(alpha=0.1, tol=1e-9, max_iters=500)
    result = propagate(graph, cfg)
    assert result.converged
    assert result.iterations > 100


def test_zero_lambda_out_edges_make_node_dangling():
    graph = graph_of({"a": 1.0, "b": 0.0}, [("a", RelationType.MERONYM, "b")])
    cfg = AnalysisConfig(alpha=0.5, lambdas={RelationType.MERONYM: 0.0,
                                             RelationType.HYPERNYM: 1.0,
                                             RelationType.HYPONYM: 1.0,
                                             RelationType.HOLONYM: 1.0})
    result = propagate(graph, cfg)
    # all of a's outgoing weight is zero, so its mass recycles via restart
    scores = dict(zip(node_names(graph), result.scores))
    assert scores["a"] == pytest.approx(1.0, abs=1e-9)
    assert scores["b"] == pytest.approx(0.0, abs=1e-9)


def test_empty_graph():
    result = propagate(graph_of({}, []), AnalysisConfig())
    assert result.scores.size == 0
    assert result.converged


def test_lambda_weights_shift_mass():
    graph = graph_of({"a": 1.0, "b": 0.0, "c": 0.0},
                     [("a", RelationType.HYPERNYM, "b"), ("a", RelationType.MERONYM, "c")])
    heavy_hyper = AnalysisConfig(lambdas={RelationType.HYPERNYM: 3.0, RelationType.HYPONYM: 1.0,
                                          RelationType.MERONYM: 1.0, RelationType.HOLONYM: 1.0})
    result = propagate(graph, heavy_hyper)
    scores = dict(zip(node_names(graph), result.scores))
    assert scores["b"] > scores["c"]
    assert scores["b"] == pytest.approx(3.0 * scores["c"], rel=1e-9)


# -- the batched walk ----------------------------------------------------------------

def walk_graph(seed: int, kind: str):
    """A one-query graph: random and connected, without nodes, or without edges (all dangling)."""
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return one_query_graph([], [])
    graph, _ = random_graph(rng)
    if kind == "dangling":
        return one_query_graph(graph.restart, [])
    return graph


@settings(max_examples=80, deadline=None)
@given(graphs=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(["random", "random", "empty", "dangling"])),
                       min_size=1, max_size=8),
       alpha=st.floats(0.1, 1.0), max_iters=st.integers(1, 80),
       lambdas=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=4, max_size=4))
def test_batched_walk_equals_each_walk_alone(graphs, alpha, max_iters, lambdas):
    # Each segment of the batch walks exactly as its batch of one does, whatever shares the batch:
    # empty and dangling-only graphs, walks stopped by max_iters beside ones that converge.
    config = AnalysisConfig(alpha=alpha, lambdas=dict(zip(RelationType, lambdas)), tol=1e-12, max_iters=max_iters)
    alone = [walk_graph(seed, kind) for seed, kind in graphs]
    batch = propagate(concatenate_graphs(alone), config)
    start = 0
    for q, graph in enumerate(alone):
        one = propagate(graph, config)
        segment = batch.scores[start : start + len(graph.nodes)]
        start += len(graph.nodes)
        assert segment.tolist() == one.scores.tolist()
        assert batch.query_iterations[q] == one.iterations
        assert batch.query_converged[q] == one.converged
        assert batch.query_mass_error[q] == one.max_mass_error <= 1e-6
        if not len(graph.nodes):
            assert one.converged and one.iterations == 0
        elif one.converged:
            assert np.max(np.abs(segment - dense_fixed_point(graph, config))) <= 1e-8
        else:
            assert one.iterations == max_iters
    assert batch.iterations == int(batch.query_iterations.sum())
    assert batch.converged == all(batch.query_converged)


def test_batch_mixes_converged_and_stopped_walks():
    # A lone node settles at once; a 2-cycle at alpha 0.1 needs about 200 iterations.
    cycle = one_query_graph([1.0, 0.0], [(0, RelationType.HYPERNYM, 1), (1, RelationType.HYPONYM, 0)])
    batch = concatenate_graphs([one_query_graph([1.0], []), cycle, one_query_graph([], [])])
    result = propagate(batch, AnalysisConfig(alpha=0.1, tol=1e-9, max_iters=50))
    assert result.query_converged.tolist() == [True, False, True]
    assert result.query_iterations.tolist()[1:] == [50, 0]
    assert not result.converged and result.iterations == sum(result.query_iterations.tolist())


# -- rank_synsets -----------------------------------------------------------------

def test_rank_synsets_order_and_ties():
    graph = graph_of({"z": 0.5, "a": 0.5, "m": 0.0}, [])
    scores = np.array([0.25, 0.25, 0.5])
    assert weight_lists(rank_synsets(graph, scores)) == [[("m", 0.5), ("a", 0.25), ("z", 0.25)]]


def test_two_node_ranking():
    cfg = AnalysisConfig(alpha=0.5, tol=1e-12, max_iters=2000)
    graph = two_node_graph()
    ranked = weight_lists(rank_synsets(graph, propagate(graph, cfg).scores))[0]
    assert [r[0] for r in ranked] == ["a", "b"]


# -- end-to-end scale invariance ----------------------------------------------------

def test_pipeline_scale_invariance(tmp_path):
    # Multiplying all raw word weights by a constant changes nothing:
    # word_frequencies normalizes, so downstream is identical.
    lex = load(tmp_path, CAT_WORLD + "S\tdog.n.1\tdog\nW\tdog\tdog.n.1\t1\n")
    cfg = AnalysisConfig()
    base = [("cat", 0.6), ("dog", 0.4)]
    scaled = [("cat", 0.6 * 37.0), ("dog", 0.4 * 37.0)]
    for weights in (base, scaled):
        total = sum(w for _, w in weights)
        weights[:] = [(w, v / total) for w, v in weights]
    def ranked(weights):
        graph = build_graph(top_n(initial_synsets(weights_from_lists([weights]), lex, 7), 10), lex, cfg)
        return weight_lists(rank_synsets(graph, propagate(graph, cfg).scores))[0]

    a, b = ranked(base), ranked(scaled)
    assert [x[0] for x in a] == [x[0] for x in b]
    for (_, sa), (_, sb) in zip(a, b):
        assert sa == pytest.approx(sb, abs=1e-12)


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=1.5)
    with pytest.raises(ValueError):
        AnalysisConfig(s=0)
    with pytest.raises(ValueError):
        AnalysisConfig(expansion_depth=2)
    with pytest.raises(ValueError):
        AnalysisConfig(lambdas={RelationType.HYPERNYM: -1.0})
    with pytest.raises(ValueError):
        AnalysisConfig(neighbor_weighting="fancy")


def test_unknown_relation_type_and_weighting_are_refused():
    with pytest.raises(ValueError, match=re.escape("unknown relation types {'sibling'}")):
        AnalysisConfig(relation_set=frozenset({RelationType.HYPERNYM, "sibling"}))
    with pytest.raises(ValueError, match="unknown neighbor weighting 'fancy'"):
        word_frequencies(NeighborWords.from_lists([[("r1", ["cat"])]]), "fancy")
