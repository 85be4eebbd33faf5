import pytest

from neartag.errors import FormatError
from neartag.keywords import load_keywords


def write(tmp_path, text):
    path = tmp_path / "kw.tsv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_basic_load_and_lookup(tmp_path):
    store = load_keywords(write(tmp_path, "img1\tcat,dog\nimg2\tbird\n"))
    assert len(store) == 2
    found, missing = store.words_for(["img2", "img1"])
    assert found == [("img2", ["bird"]), ("img1", ["cat", "dog"])]
    assert missing == 0


def test_words_lowercased_and_deduped_preserving_order(tmp_path):
    store = load_keywords(write(tmp_path, "img1\tDog,cat,dog,CAT,bird\n"))
    found, _ = store.words_for(["img1"])
    assert found == [("img1", ["dog", "cat", "bird"])]


def test_missing_ids_counted_not_fatal(tmp_path):
    store = load_keywords(write(tmp_path, "img1\tcat\n"))
    found, missing = store.words_for(["nope", "img1", "also-nope"])
    assert found == [("img1", ["cat"])]
    assert missing == 2


def test_comments_and_blank_lines_ignored(tmp_path):
    store = load_keywords(write(tmp_path, "# header\n\nimg1\tcat\n   \n# tail\n"))
    assert len(store) == 1
    assert store.rows(["img1"]).tolist() == [0]


def test_empty_file_is_an_empty_store(tmp_path):
    store = load_keywords(write(tmp_path, ""))
    assert len(store) == 0
    found, missing = store.words_for(["x"])
    assert found == [] and missing == 1


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(FormatError, match="line 3"):
        load_keywords(write(tmp_path, "img1\tcat\n# ok\nno-tab-here\n"))


def test_extra_tab_reports_line_number(tmp_path):
    with pytest.raises(FormatError, match="line 1"):
        load_keywords(write(tmp_path, "img1\tcat\tdog\n"))


def test_duplicate_id_named(tmp_path):
    with pytest.raises(FormatError, match="img1"):
        load_keywords(write(tmp_path, "img1\tcat\nimg1\tdog\n"))


def test_empty_word_rejected(tmp_path):
    with pytest.raises(FormatError, match="line 1"):
        load_keywords(write(tmp_path, "img1\tcat,,dog\n"))


def test_load_is_idempotent(tmp_path):
    path = write(tmp_path, "img1\tcat,dog\nimg2\tbird\n")
    a = load_keywords(path)
    b = load_keywords(path)
    ids = ["img1", "img2"]
    assert len(a) == len(b) == 2
    assert a.rows(ids).tolist() == b.rows(ids).tolist() == [0, 1]
    assert a.words_for(ids) == b.words_for(ids)


def test_returned_lists_are_copies(tmp_path):
    store = load_keywords(write(tmp_path, "img1\tcat\n"))
    found, _ = store.words_for(["img1"])
    found[0][1].append("mutated")
    fresh, _ = store.words_for(["img1"])
    assert fresh == [("img1", ["cat"])]
