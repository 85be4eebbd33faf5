"""The contract every tab-separated reader shares, checked reader by reader.

Blank lines and lines whose first non-blank character is ``#`` are
skipped; a wrong field count, an empty id, a repeated id, an empty list
item and a byte that is not UTF-8 each fail with a FormatError naming
the path and the line.
"""

import ast
import re
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import id_lists_from_dict, read_id_lists_by_line

import neartag
from neartag import SynthConfig, generate_corpus
from neartag.annotator import load_candidate_lists, load_concepts, read_annotations
from neartag.config import parse_config_file
from neartag.errors import FormatError
from neartag.evaluation import load_ground_truth
from neartag.keywords import load_keywords
from neartag.lexicon import load_lexicon
from neartag.tsv import read_id_lists, records, skipped


def _lexicon(tmp_path):
    path = tmp_path / "lexicon-for-concepts.tsv"
    path.write_text("S\ta\tx\nS\tb\ty\n", encoding="utf-8")
    return load_lexicon(str(path))


def _concepts(tmp_path):
    path = tmp_path / "concepts-for-lists.tsv"
    path.write_text("C\tcat\ta\nC\tdog\tb\nC\tcow\ta\n", encoding="utf-8")
    return load_concepts(str(path), _lexicon(tmp_path))


@dataclass(frozen=True)
class Reader:
    load: object  # (path, tmp_path) -> loaded object
    view: object  # loaded object -> a comparable value
    good: tuple[str, str]  # two valid lines
    bad: dict  # case -> a line that must fail


_LIST_CASES = {"fields": "q3", "empty id": "\tcat", "duplicate id": "q1\tcow",
               "empty item": "q3\tcat,,dog"}

READERS = {
    "keywords": Reader(
        lambda path, tmp: load_keywords(path),
        lambda store: (len(store), store.words_for(["q1", "q2"])[0]),
        ("q1\tCat,dog,cat", "q2\tbird"), _LIST_CASES),
    "lexicon": Reader(
        lambda path, tmp: load_lexicon(path),
        lambda lex: lex.synset_names,
        ("S\ta\tx,Y,x", "S\tb\tz"),
        {"fields": "S\tc", "empty id": "S\t\tw", "duplicate id": "S\ta\tw", "empty item": "S\tc\tw,,v"}),
    "concepts": Reader(
        lambda path, tmp: load_concepts(path, _lexicon(tmp)),
        lambda concepts: [(name, c.synsets) for name, c in concepts.items()],
        ("C\tCat\ta,b,a", "C\tdog\tb"),
        {"fields": "C\tcow", "empty id": "C\t\ta", "duplicate id": "C\tcat\tb", "empty item": "C\tcow\ta,,b"}),
    "candidate lists": Reader(
        lambda path, tmp: load_candidate_lists(path, _concepts(tmp)),
        lambda lists: lists,
        ("q1\tCat,dog,cat", "q2\tdog"), _LIST_CASES),
    "ground truth": Reader(
        lambda path, tmp: load_ground_truth(path, _concepts(tmp)),
        lambda truth: truth,
        ("q1\tCat,dog,cat", "q2\tdog"), _LIST_CASES),
    "annotations": Reader(
        lambda path, tmp: read_annotations(path),
        lambda anns: [(a.id, a.ranked) for a in anns],
        ("q1\tCat:0.5,cat:0.5", "q2\tdog:0.25"),
        {"fields": "q3", "empty id": "\tcat:0.5", "duplicate id": "q1\tcow:0.1",
         "empty item": "q3\tcat:0.5,,dog:0.1"}),
}


def _write(tmp_path, data: bytes) -> str:
    path = tmp_path / "input.tsv"
    path.write_bytes(data)
    return str(path)


def _padded(reader: Reader, last: str) -> str:
    """The reader's good lines and ``last`` (on line 7) among skipped lines."""
    first, second = reader.good
    return f"# header\n{first}\n\n   \n{second}\n  # indented comment\n{last}\n"


@pytest.mark.parametrize("name", READERS)
def test_blank_and_comment_lines_are_skipped(tmp_path, name):
    reader = READERS[name]
    plain = reader.load(_write(tmp_path, "\n".join(reader.good).encode() + b"\n"), tmp_path)
    padded = reader.load(_write(tmp_path, _padded(reader, "# tail").encode()), tmp_path)
    assert reader.view(padded) == reader.view(plain)
    assert reader.view(plain)  # the good lines load to something


@pytest.mark.parametrize("case", ["fields", "empty id", "duplicate id", "empty item"])
@pytest.mark.parametrize("name", READERS)
def test_bad_line_names_path_and_line(tmp_path, name, case):
    reader = READERS[name]
    path = _write(tmp_path, _padded(reader, reader.bad[case]).encode())
    with pytest.raises(FormatError) as exc:
        reader.load(path, tmp_path)
    assert (exc.value.path, exc.value.line) == (path, 7)
    assert str(exc.value).startswith(f"{path}: line 7: ")


@pytest.mark.parametrize("name", READERS)
def test_non_utf8_byte_names_path_and_line(tmp_path, name):
    reader = READERS[name]
    path = _write(tmp_path, _padded(reader, reader.good[1].replace("\t", "\t\xff", 1)).encode("latin-1"))
    with pytest.raises(FormatError, match="not UTF-8") as exc:
        reader.load(path, tmp_path)
    assert (exc.value.path, exc.value.line) == (path, 7)


def test_non_utf8_byte_past_the_first_read_chunk(tmp_path):
    lines = [f"img{i}\tcat" for i in range(5000)]
    lines[4321] = "img4321\tca\xfft"
    path = _write(tmp_path, "\n".join(lines).encode("latin-1"))
    with pytest.raises(FormatError, match="byte 0xff") as exc:
        load_keywords(path)
    assert exc.value.line == 4322


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_non_utf8_line_counts_every_line_ending(tmp_path, ending):
    path = _write(tmp_path, ending.join([b"a\tb", b"# c", b"", b"d\t\xe9"]) + ending)
    with pytest.raises(FormatError) as exc:
        list(records(path))
    assert exc.value.line == 4


def test_truncated_multibyte_character_at_end_of_file(tmp_path):
    path = _write(tmp_path, "a\tb\nc\tdé".encode()[:-1])
    with pytest.raises(FormatError, match="not UTF-8") as exc:
        list(records(path))
    assert exc.value.line == 2


def test_config_file_with_non_utf8_byte(tmp_path):
    path = _write(tmp_path, b"dim = 4\n# \xff note\nk = 3\n")
    with pytest.raises(FormatError, match="not UTF-8") as exc:
        parse_config_file(path)
    assert (exc.value.path, exc.value.line) == (path, 2)
    # The whole file is decoded before any line is read, so a bad byte fails first, past
    # an earlier malformed line and past the first read chunk.
    path = _write(tmp_path, b"dim = 4\nwhat is this\n" + b"# padding\n" * 1000 + b"k = \xff\n")
    with pytest.raises(FormatError, match="not UTF-8") as exc:
        parse_config_file(path)
    assert (exc.value.path, exc.value.line) == (path, 1003)


_CONFIG = Reader(lambda path, tmp: parse_config_file(path), lambda values: values, ("dim = 4", "k = 3  # near"), {})


@pytest.mark.parametrize("name", [*READERS, "config"])
def test_byte_order_mark_is_dropped(tmp_path, name):
    reader = READERS.get(name, _CONFIG)
    text = "\n".join(reader.good).encode() + b"\n"
    plain = reader.load(_write(tmp_path, text), tmp_path)
    marked = reader.load(_write(tmp_path, "\ufeff".encode() + text), tmp_path)
    assert reader.view(marked) == reader.view(plain)


def test_only_tsv_opens_a_file_to_read_text():
    """Every text input goes through ``tsv``: no other module opens a file
    in a mode that reads text (no mode, or ``r`` without ``b``)."""
    package = Path(neartag.__file__).parent
    readers = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            text = not isinstance(mode, ast.Constant) or ("r" in mode.value and "b" not in mode.value)
            if text and source.name != "tsv.py":
                readers.append(f"{source.name}:{node.lineno}")
    assert readers == []


_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]


@pytest.mark.parametrize("blank", _WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_every_whitespace_character_is_blank_to_the_skip_rule(tmp_path, blank):
    """A line of one blank character, or of it before a comment, is skipped as the
    line-by-line reference skips it, and later faults keep their line numbers."""
    for lines in ([blank, f"{blank}# x"], [f"{blank}# x", blank]):
        assert [skipped(line) for line in lines] == [line.lstrip()[:1] in ("", "#") for line in lines] == [True] * 2
        for tail in ("", "q3\n", f"q3\t{blank}\n"):
            path = _write(tmp_path, "\n".join(["q1\tcat", *lines, "q2\tdog", tail]).encode())
            assert _outcome(read_id_lists, path, "keyword") == _outcome(read_id_lists_by_line, path, "keyword")
    assert not skipped(f"{blank}a") and not skipped(f"a{blank}#")


def test_records_yield_line_numbers_and_fields(tmp_path):
    path = _write(tmp_path, b"# c\na\tb\n\n\tc\t\n")
    assert list(records(path)) == [(2, ["a", "b"]), (4, ["", "c", ""])]


def test_records_checks_the_field_count(tmp_path):
    path = _write(tmp_path, b"a\tb\na\tb\tc\n")
    message = "expected <a>\\t<b>, got 3 tab-separated fields"
    with pytest.raises(FormatError, match=re.escape(message)) as exc:
        list(records(path, 2, "<a>\\t<b>"))
    assert exc.value.line == 2


def test_id_lists_trim_lowercase_and_dedupe_in_first_seen_order(tmp_path):
    path = _write(tmp_path, b"x\t Dog ,cat,DOG,bird,cat\ny\tCOW\n")
    assert read_id_lists(path, "word") == {"x": ["dog", "cat", "bird"], "y": ["cow"]}


def test_id_lists_check_items_against_the_known_set(tmp_path):
    path = _write(tmp_path, b"x\tcat\ny\tcat,Unicorn\n")
    assert read_id_lists(path, "concept", {"cat", "unicorn"})["y"] == ["cat", "unicorn"]
    with pytest.raises(FormatError, match="line 2: unknown concept 'unicorn'"):
        read_id_lists(path, "concept", {"cat"})


def test_id_lists_keep_id_case_and_whitespace(tmp_path):
    path = _write(tmp_path, b"Img 1\tcat\nimg 1\tdog\n")
    assert list(read_id_lists(path, "word")) == ["Img 1", "img 1"]


def test_annotations_keep_case_and_repeated_names(tmp_path):
    path = _write(tmp_path, b"q1\tCat:0.5,cat:0.5,Cat:0.25\n")
    assert read_annotations(path)[0].ranked == (("Cat", 0.5), ("cat", 0.5), ("Cat", 0.25))


# Characters that stress the column-wise reader: Unicode blanks (none of which ends a line for
# the reader), a capital sigma whose lowercase depends on its neighbours, case-ignorable marks
# ("'" and a combining acute), and İ, which lowercases to two characters.
_BLANKS = " \xa0\u2003\x0b\x0c\x1c\x85\u2028"
_LETTERS = "aBΣς'\u0301İ"
_ANY = _LETTERS + _BLANKS + "#,"
_ITEM = st.builds("".join, st.tuples(st.text(_BLANKS, max_size=2), st.text(_LETTERS, min_size=1, max_size=3),
                                     st.text(_BLANKS, max_size=2)))
_ITEMS = st.lists(_ITEM, min_size=1, max_size=4).map(",".join)
_KEY = st.builds("".join, st.tuples(st.sampled_from(["", " "]), st.text("aBΣİ", min_size=1, max_size=2),
                                    st.text(" #\xa0", max_size=1)))
_RECORD = st.builds("{}\t{}".format, _KEY, _ITEMS)
_SKIPPED = st.builds("".join, st.tuples(st.text(_BLANKS, max_size=2), st.sampled_from(["", "#", "# a\tb"])))
_FAULTY = st.one_of(
    st.text(_ANY, max_size=4),  # one field, unless it is blank or a comment
    st.builds("\t".join, st.lists(st.text(_ANY, max_size=2), min_size=3, max_size=4)),
    st.builds("\t{}".format, _ITEMS),  # empty id
    st.builds("{}\t{},{}".format, _KEY, st.text(_BLANKS, max_size=1), _ITEMS),  # empty item
)


@st.composite
def _id_list_files(draw) -> str:
    """Records (some with a repeated id) and skipped lines, with up to two faulty lines among them."""
    lines = draw(st.lists(st.one_of(_RECORD, _RECORD, _SKIPPED), max_size=8))
    for fault in draw(st.lists(_FAULTY, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, *args):
    """What a reader gives: its result, or its error's message, path and line."""
    try:
        return read(*args)
    except FormatError as exc:
        return str(exc), exc.path, exc.line


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_id_list_files(), data=st.data())
def test_id_lists_equal_the_line_by_line_reference(tmp_path, text, data):
    path = _write(tmp_path, text.encode())
    expected = _outcome(read_id_lists_by_line, path, "keyword")
    store = _outcome(load_keywords, path)
    if isinstance(expected, dict):
        columns = id_lists_from_dict(expected)
        assert store.vocabulary == columns.vocabulary
        assert store.words.tolist() == columns.items.tolist()
        assert store.ptr.tolist() == columns.ptr.tolist()
        assert store.rows(list(expected)).tolist() == list(range(len(expected)))
        assert len(store) == len(expected)
    else:
        assert store == expected
    names = sorted({name for items in expected.values() for name in items}) if isinstance(expected, dict) else []
    known = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(names))) if names else st.none(), label="known")
    assert _outcome(read_id_lists, path, "keyword", known) == _outcome(read_id_lists_by_line, path, "keyword", known)


# Memory of the text loads: the traced peak above what a load returns, per byte of its file, on
# generated corpora of two sizes (35 and 282 KB of keywords, 5 and 11 KB of lexicon).


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    out = tmp_path_factory.mktemp("worlds")
    return [generate_corpus(SynthConfig(dim=2, num_concepts=concepts, refs_per_concept=refs, num_queries=10),
                            str(out / f"c{concepts}")) for concepts, refs in ((20, 100), (40, 400))]


def _scratch_per_byte(load, path) -> float:
    tracemalloc.start()
    try:
        loaded = load(path)  # alive while the figures are read, so ``held`` counts it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del loaded
    return (peak - held) / Path(path).stat().st_size


@pytest.mark.parametrize("size", [0, 1])
def test_keyword_load_scratch_per_input_byte(worlds, size):
    assert _scratch_per_byte(load_keywords, worlds[size].keywords) <= 11.0  # measured 10.3 at both sizes


@pytest.mark.parametrize("size", [0, 1])
def test_lexicon_load_scratch_per_input_byte(worlds, size):
    assert _scratch_per_byte(load_lexicon, worlds[size].lexicon) <= 15.0  # measured 12.1 and 14.1


def test_keyword_load_scratch_on_a_comment_every_other_line(worlds, tmp_path):
    """Skipped lines go in one regex substitution over the text, so a file that is
    half comments takes less scratch per byte than a plain one (measured 5.7)."""
    lines = Path(worlds[1].keywords).read_text(encoding="utf-8").splitlines()
    path = _write(tmp_path, "".join(f"# record {i}\n{line}\n" for i, line in enumerate(lines)).encode())
    assert _scratch_per_byte(load_keywords, path) <= 6.0
