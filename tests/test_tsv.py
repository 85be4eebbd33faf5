"""The contract every tab-separated reader shares, checked reader by reader.

Blank lines and lines whose first non-blank character is ``#`` are
skipped; a wrong field count, an empty id, a repeated id, an empty list
item and a byte that is not UTF-8 each fail with a FormatError naming
the path and the line.
"""

import re
from dataclasses import dataclass

import pytest

from neartag.annotator import load_candidate_lists, load_concepts, read_annotations
from neartag.config import parse_config_file
from neartag.errors import FormatError
from neartag.evaluation import load_ground_truth
from neartag.keywords import load_keywords
from neartag.lexicon import load_lexicon
from neartag.tsv import read_id_lists, records


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
        lambda store: store.words_for(store.ids())[0],
        ("q1\tCat,dog,cat", "q2\tbird"), _LIST_CASES),
    "lexicon": Reader(
        lambda path, tmp: load_lexicon(path),
        lambda lex: [(sid, lex.lemmas(sid)) for sid in lex.synset_ids()],
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
