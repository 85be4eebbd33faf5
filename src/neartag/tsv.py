"""The one reader of the text inputs: the tab-separated files and config files.

UTF-8, one record per line, fields split on tabs. Lines that are blank
or whose first non-blank character is ``#`` are skipped, a blank being
any character ``str.isspace()`` accepts (tab, U+00A0, U+2028, U+3000,
...); ``skipped`` states the rule, and ``write_annotations`` refuses an
id by it. There are no inline comments (config files add their own).
Errors name the path and the 1-based line.

A file is read whole, in binary, and decoded once; one leading
byte-order mark is dropped, and ``\\r\\n`` and ``\\r`` end a line as
``\\n`` does. ``<id>\\t<item>(,<item>)*`` files are then
split, lowercased and checked column by column, with whole-text string
operations and numpy rather than a loop over lines; a fault is placed
by its position in the split text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import FormatError

# A skipped line, in "\n" + text: the "\n" before it, blanks, and perhaps '#' and the rest of the line.
_SKIPPED = re.compile(r"\n(?=[#\s])[^\S\n]*(?:#[^\n]*)?(?=\n)")
_TWO_TABS = re.compile(r"\t[^\t\n]*\t")


def skipped(line: str) -> bool:
    """Whether the readers skip ``line``, given without its line end."""
    return _SKIPPED.match(f"\n{line}\n") is not None


def _record_text(path: str) -> tuple[str, np.ndarray]:
    """The file's record lines as one text, each line ended by ``\\n``,
    and the 1-based line number of each in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"x").splitlines())  # bytes end lines where the text does
        raise FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", path=path, line=line) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text and not text.endswith("\n"):
        text += "\n"
    numbers = np.arange(1, text.count("\n") + 1)
    starts = [match.start() for match in _SKIPPED.finditer("\n" + text)]  # where skipped lines start in text
    if starts:
        rows = np.cumsum([text.count("\n", a, b) for a, b in zip([0, *starts], starts)])
        text = _SKIPPED.sub("", "\n" + text)[1:]
        numbers = np.delete(numbers, rows)
    return text, numbers


def lines(path: str):
    """Yield ``(line number, line)`` per record line, without its line end."""
    text, numbers = _record_text(path)
    yield from zip(numbers.tolist(), text.split("\n"))


def records(path: str, fields: int = 0, layout: str = ""):
    """Yield ``(line number, fields)`` per record line. With ``fields``
    set, a line with another field count fails, quoting ``layout``."""
    for lineno, line in lines(path):
        parts = line.split("\t")
        if fields and len(parts) != fields:
            raise FormatError(f"expected {layout}, got {len(parts)} tab-separated fields", path=path, line=lineno)
        yield lineno, parts


def id_error(image_id: str, path: str, lineno: int) -> FormatError:
    """The error for an id that is empty or repeated."""
    message = f"duplicate image id {image_id!r}" if image_id else "empty image id"
    return FormatError(message, path=path, line=lineno)


@dataclass(frozen=True)
class IdLists:
    """``<id>\\t<item>(,<item>)*`` records as columns.

    ``rows`` maps each id to its record number, in file order. Record
    ``r``'s items are the numbers ``items[ptr[r]:ptr[r + 1]]`` into the
    sorted ``vocabulary``, in first-seen order, each once.
    """

    rows: dict[str, int]
    vocabulary: tuple[str, ...]
    items: np.ndarray
    ptr: np.ndarray

    def lists(self) -> dict[str, list[str]]:
        """{id: items}, in file order."""
        names = [self.vocabulary[i] for i in self.items.tolist()]
        bounds = self.ptr.tolist()
        return {key: names[bounds[r]:bounds[r + 1]] for key, r in self.rows.items()}


def read_id_columns(path: str, item: str, known=None) -> IdLists:
    """An ``<id>\\t<item>(,<item>)*`` file as columns (see ``id_lists``)."""
    text, numbers = _record_text(path)
    bad = None
    if text.count("\t") != len(numbers) or _TWO_TABS.search(text):  # some line has no tab, or two
        lines = text.split("\n")
        bad = next(i for i, line in enumerate(lines) if line.count("\t") != 1)
        text = "\n".join(lines[:bad]) + "\n" if bad else ""  # the lines before it may hold an earlier fault
    cells = text[:-1].replace("\n", "\t").split("\t") if text else []
    lists = id_lists(cells[0::2], cells[1::2], numbers, path, item, known)
    if bad is not None:
        fields = lines[bad].count("\t") + 1
        raise FormatError(f"expected '<id>\\t<{item},{item},...>', got {fields} tab-separated fields",
                          path=path, line=int(numbers[bad]))
    return lists


def read_id_lists(path: str, item: str, known=None) -> dict[str, list[str]]:
    """An ``<id>\\t<item>(,<item>)*`` file as {id: items}, in file order (see ``id_lists``)."""
    return read_id_columns(path, item, known).lists()


def id_lists(keys: list[str], fields: list[str], numbers, path: str, item: str, known=None) -> IdLists:
    """Records given as columns: ids, ``<item>,<item>,...`` fields and line numbers.

    Ids are non-empty and unique. Items are stripped, lowercased,
    non-empty, in ``known`` when it is given, and de-duplicated per
    record in first-seen order. The first faulty record fails, with its
    id checked before its items and its items in order. ``item`` names
    an item in errors.
    """
    n = len(keys)
    text = ",".join(fields).lower()  # ',' bounds a final-sigma context as the end of an item does
    names = list(map(str.strip, text.split(","))) if n else []
    ptr = np.arange(n + 1)
    if len(names) > n:
        counts = np.fromiter(map(str.count, fields, repeat(",")), np.intp, n) + 1
        ptr = np.concatenate(([0], np.cumsum(counts)))
    rows = dict(zip(keys, range(n)))
    present = set(names)
    wrong = present & {""}
    if known is not None:
        wrong |= present.difference(known)
    if wrong or len(rows) < n or "" in rows:
        raise _first_fault(keys, names, ptr, wrong, numbers, path, item)
    vocabulary = tuple(sorted(present))
    number = dict(zip(vocabulary, range(len(vocabulary))))
    items = np.fromiter(map(number.__getitem__, names), np.intp, len(names))
    if len(names) > n:  # drop repeated items, each record's first stays
        owner = np.repeat(np.arange(n), np.diff(ptr))
        first = np.unique(owner * len(vocabulary) + items, return_index=True)[1]
        if len(first) < len(items):
            first.sort()
            items = items[first]
            ptr = np.concatenate(([0], np.cumsum(np.bincount(owner[first], minlength=n))))
    return IdLists(rows, vocabulary, items, ptr)


def _first_fault(keys, names, ptr, wrong, numbers, path, item) -> FormatError:
    """The error for the first record with an empty or repeated id or an
    item in ``wrong``; within a record the id comes first."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # each id's first record
    r = next((r for r, key in enumerate(keys) if not key or first[key] != r), len(keys))
    j = next((j for j, name in enumerate(names) if name in wrong), None)
    if j is not None:
        owner = int(np.searchsorted(ptr, j, side="right")) - 1
        if owner < r:
            message = f"unknown {item} {names[j]!r}" if names[j] else f"empty {item}"
            return FormatError(message, path=path, line=int(numbers[owner]))
    return id_error(keys[r], path, int(numbers[r]))
