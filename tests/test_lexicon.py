from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import read_lexicon_by_line

from neartag.errors import FormatError
from neartag.lexicon import ALL_RELATIONS, INVERSE, RELATIONS, RelationType, load_lexicon


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


@pytest.mark.parametrize("text, line, message", [
    ("S\ta\tx\nS\ta\ty\nW\t\tb\t1\n", 2, "duplicate synset 'a'"),  # an S fault before a W fault
    ("S\ta\tx,,y\nR\tbad\ta\ta\n", 1, "empty lemma"),  # ... and before an R fault
    ("W\t\tb\t1\nS\ta\tx\nS\ta\ty\n", 1, "empty word"),
    ("S\tc\t\nS\ta b\tx\n", 1, "empty lemma"),
])
def test_first_faulty_line_fails_whatever_its_record_type(tmp_path, text, line, message):
    with pytest.raises(FormatError, match=f"line {line}: {message}$"):
        load_lexicon(write(tmp_path, text))


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


_IDS = ["a", "b", "B", "c.n.1"]
_LEMMA = st.sampled_from(["x", "Y", " z ", "x\x85", "Σ", "\xa0w"])
_LEMMAS = st.lists(_LEMMA, min_size=1, max_size=3).map(",".join)
_BLANK_LEMMAS = st.sampled_from(["", " ", "\x85", "x,", "x,,Y", "\xa0 ,x"])  # each holds a lemma blank once trimmed
_BAD_TOKEN = st.sampled_from(["", "a b", "a,b", " a", "a\x85", "zz"])  # zz is among no valid file's ids
_TAG = st.sampled_from(["hyper", "hypo", "mero", "holo"])


def _lexicon_faults(ids):
    """Lines that may be faulty, their ids mostly among ``ids``."""
    token = st.one_of(st.sampled_from(ids), st.sampled_from(ids), _BAD_TOKEN)
    return st.one_of(
        st.builds("S\t{}\t{}".format, st.sampled_from(ids), st.one_of(_LEMMAS, _BLANK_LEMMAS)),  # a repeated id
        st.builds("S\t{}\t{}".format, st.sampled_from(["d", "e.n.2"]), _BLANK_LEMMAS),  # a new id, a blank lemma
        st.builds("S\t{}\t{}".format, _BAD_TOKEN, st.one_of(_LEMMAS, _BLANK_LEMMAS)),
        st.builds("W\t{}\t{}\t{}".format, st.sampled_from(["cat", " Dog", "", " "]), token,
                  st.sampled_from(["1", "2", "3", "9", "0", "-1", " 2", "x", ""])),
        st.builds("R\t{}\t{}\t{}".format, st.one_of(_TAG, st.sampled_from(["sib", "Hyper", " holo", ""])), token, token),
        st.sampled_from(["S\ta", "S\ta\tx\ty", "W\tcat\ta", "R\thyper\ta", "X\ta\tb", "s\ta\tx"]),
    )


@st.composite
def _lexicon_files(draw) -> str:
    """A valid lexicon's records in any order, skipped lines, and up to two faulty lines among them."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=4, unique=True))
    lines = [f"S\t{sid}\t{draw(_LEMMAS)}" for sid in ids]
    for word in draw(st.lists(st.sampled_from(["cat", " Dog", "bird "]), max_size=3, unique=True)):
        ranked = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        lines += [f"W\t{word}\t{sid}\t{rank}" for rank, sid in enumerate(ranked, 1)]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"R\t{draw(_TAG)}\t{draw(st.sampled_from(ids))}\t{draw(st.sampled_from(ids))}")
    lines = draw(st.permutations(lines + draw(st.lists(st.sampled_from(["", "# c", "  ", "\t# S\ta\tx"]), max_size=2))))
    for fault in draw(st.lists(_lexicon_faults(ids), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_lexicon_files())
def test_lexicon_equals_the_line_by_line_reference(tmp_path, text):
    path = tmp_path / "lex.tsv"
    path.write_bytes(text.encode())
    path = str(path)
    try:
        expected = read_lexicon_by_line(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            load_lexicon(path)
        assert (str(got.value), got.value.path, got.value.line) == (str(exc), exc.path, exc.line)
        return
    lex = load_lexicon(path)
    synsets, words = expected["synset_names"], expected["word_names"]
    assert (lex.synset_names, lex.word_names) == (tuple(synsets), tuple(words))
    senses = [expected["senses"][word] for word in words]
    assert lex.sense_ptr.tolist() == list(accumulate(map(len, senses), initial=0))
    assert lex.sense_synsets.tolist() == [synsets.index(sid) for ranked in senses for sid in ranked]
    related = [expected["related"][sid] for sid in synsets]
    assert lex.relation_ptr.tolist() == list(accumulate(map(len, related), initial=0))
    assert lex.relation_types.tolist() == [RELATIONS.index(RelationType(rel)) for pairs in related for rel, _ in pairs]
    assert lex.relation_targets.tolist() == [synsets.index(dst) for pairs in related for _, dst in pairs]


@pytest.mark.parametrize("text, message", [
    ("S\ta\tx\nW\tcat\ta\tfirst\n", "line 2: sense rank 'first' is not an integer"),
    ("S\ta\tx\nR\thyper\tghost\ta\n", "line 2: relation references undeclared synset 'ghost'"),
], ids=["rank-not-an-integer", "relation-from-undeclared"])
def test_sense_rank_and_relation_source_are_checked(tmp_path, text, message):
    with pytest.raises(FormatError, match=f"{message}$"):
        load_lexicon(write(tmp_path, text))
