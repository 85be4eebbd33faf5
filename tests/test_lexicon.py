import pytest
from hypothesis import given, strategies as st

from neartag.errors import FormatError
from neartag.lexicon import ALL_RELATIONS, INVERSE, RelationType, load_lexicon


def write(tmp_path, text, name="lex.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL = """\
S\tcat.n.1\tcat,feline
S\tanimal.n.1\tanimal
S\tpaw.n.1\tpaw
S\tcat.n.2\tcat
W\tcat\tcat.n.1\t1
W\tcat\tcat.n.2\t2
W\tanimal\tanimal.n.1\t1
W\tpaw\tpaw.n.1\t1
R\thyper\tcat.n.1\tanimal.n.1
R\tmero\tcat.n.1\tpaw.n.1
"""


def test_senses_rank_order(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert lex.senses("cat", 7) == ["cat.n.1", "cat.n.2"]
    assert lex.senses("cat", 1) == ["cat.n.1"]


def test_senses_unknown_word_empty(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert lex.senses("borogove", 7) == []


def test_senses_case_insensitive(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert lex.senses("CAT", 7) == lex.senses("cat", 7)


def test_senses_s_zero_rejected(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    with pytest.raises(ValueError, match="s must be"):
        lex.senses("cat", 0)


def test_senses_prefix_property(tmp_path):
    # senses(w, s1) is a prefix of senses(w, s2) whenever s1 <= s2
    lines = ["S\tsyn{0}\tword".format(i) for i in range(10)]
    lines += [f"W\tword\tsyn{i}\t{i + 1}" for i in range(10)]
    lex = load_lexicon(write(tmp_path, "\n".join(lines) + "\n"))
    full = lex.senses("word", 10)
    assert len(full) == 10
    for s1 in range(1, 11):
        for s2 in range(s1, 11):
            assert lex.senses("word", s1) == lex.senses("word", s2)[:s1]


def test_inverse_closure_hyper_hypo(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert ("animal.n.1", RelationType.HYPERNYM) in lex.related("cat.n.1", ALL_RELATIONS)
    assert ("cat.n.1", RelationType.HYPONYM) in lex.related("animal.n.1", ALL_RELATIONS)


def test_inverse_closure_mero_holo(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert ("paw.n.1", RelationType.MERONYM) in lex.related("cat.n.1", ALL_RELATIONS)
    assert ("cat.n.1", RelationType.HOLONYM) in lex.related("paw.n.1", ALL_RELATIONS)


def test_mirror_invariant_full_scan(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    for synset in lex.synset_names:
        for target, rel in lex.related(synset, ALL_RELATIONS):
            assert (synset, INVERSE[rel]) in lex.related(target, ALL_RELATIONS)


def test_related_filters_and_orders(tmp_path):
    text = SMALL + "R\thyper\tcat.n.2\tanimal.n.1\n"
    lex = load_lexicon(write(tmp_path, text))
    only_hyper = lex.related("cat.n.1", {RelationType.HYPERNYM})
    assert only_hyper == [("animal.n.1", RelationType.HYPERNYM)]
    both = lex.related("animal.n.1", ALL_RELATIONS)
    # two hyponyms, ordered by target id within the relation type
    assert both == [("cat.n.1", RelationType.HYPONYM), ("cat.n.2", RelationType.HYPONYM)]


def test_related_empty_types(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert lex.related("cat.n.1", frozenset()) == []


def test_related_undeclared_synset(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    with pytest.raises(ValueError, match="undeclared"):
        lex.related("ghost.n.1", ALL_RELATIONS)


def test_contains_declared_synsets(tmp_path):
    lex = load_lexicon(write(tmp_path, SMALL))
    assert "cat.n.1" in lex
    assert "ghost.n.1" not in lex


def test_declarations_in_any_order(tmp_path):
    text = "W\tcat\tcat.n.1\t1\nR\thyper\tcat.n.1\tanimal.n.1\nS\tcat.n.1\tcat\nS\tanimal.n.1\tanimal\n"
    lex = load_lexicon(write(tmp_path, text))
    assert lex.senses("cat", 1) == ["cat.n.1"]


def test_w_undeclared_synset_reports_line(tmp_path):
    with pytest.raises(FormatError, match="line 2"):
        load_lexicon(write(tmp_path, "S\ta\tx\nW\tcat\tghost\t1\n"))


def test_r_undeclared_synset_reports_line(tmp_path):
    with pytest.raises(FormatError, match="line 2"):
        load_lexicon(write(tmp_path, "S\ta\tx\nR\thyper\ta\tghost\n"))


def test_duplicate_word_rank_rejected(tmp_path):
    text = "S\ta\tx\nS\tb\ty\nW\tcat\ta\t1\nW\tcat\tb\t1\n"
    with pytest.raises(FormatError, match="duplicate sense rank 1"):
        load_lexicon(write(tmp_path, text))


def test_rank_gap_rejected(tmp_path):
    text = "S\ta\tx\nS\tb\ty\nW\tcat\ta\t1\nW\tcat\tb\t3\n"
    with pytest.raises(FormatError, match="cat"):
        load_lexicon(write(tmp_path, text))


def test_unknown_relation_tag(tmp_path):
    with pytest.raises(FormatError, match="sibling"):
        load_lexicon(write(tmp_path, "S\ta\tx\nS\tb\ty\nR\tsibling\ta\tb\n"))


def test_duplicate_synset_rejected(tmp_path):
    with pytest.raises(FormatError, match="duplicate synset"):
        load_lexicon(write(tmp_path, "S\ta\tx\nS\ta\ty\n"))


def test_unknown_record_type(tmp_path):
    with pytest.raises(FormatError, match="line 1"):
        load_lexicon(write(tmp_path, "Q\twhat\n"))


def test_synset_id_with_space_rejected(tmp_path):
    with pytest.raises(FormatError, match="whitespace"):
        load_lexicon(write(tmp_path, "S\ta b\tx\n"))


def test_duplicate_relation_lines_collapse(tmp_path):
    text = SMALL + "R\thyper\tcat.n.1\tanimal.n.1\nR\thypo\tanimal.n.1\tcat.n.1\n"
    lex = load_lexicon(write(tmp_path, text))
    hits = [pair for pair in lex.related("cat.n.1", ALL_RELATIONS)
            if pair == ("animal.n.1", RelationType.HYPERNYM)]
    assert len(hits) == 1


def test_load_idempotent(tmp_path):
    path = write(tmp_path, SMALL)
    a = load_lexicon(path)
    b = load_lexicon(path)
    assert a.synset_names == b.synset_names
    assert a.word_names == b.word_names
    for synset in a.synset_names:
        assert a.related(synset, ALL_RELATIONS) == b.related(synset, ALL_RELATIONS)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_senses_prefix_property_hypothesis(s1, s2):
    # build once per example; cheap enough at this size
    import tempfile, os
    lines = [f"S\tsyn{i}\tword" for i in range(8)]
    lines += [f"W\tword\tsyn{i}\t{i + 1}" for i in range(8)]
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        lex = load_lexicon(path)
        lo, hi = sorted((s1, s2))
        assert lex.senses("word", lo) == lex.senses("word", hi)[:lo]
    finally:
        os.unlink(path)
