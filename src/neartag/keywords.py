"""Image-id to keyword mapping loaded from tab-separated text.

One line per image: ``<image_id>\\t<word>(,<word>)*``, read by
``tsv.read_id_lists``: words are lowercased and deduplicated per image,
keeping first-occurrence order.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .tsv import read_id_lists


class KeywordStore:
    """Read-only id -> word-list mapping.

    Words are numbered in sorted order (``vocabulary``). Images are rows
    in the order the records came; row ``i``'s words are the numbers
    ``words[ptr[i]:ptr[i + 1]]``, in the record's order. A record must not
    repeat a word, which ``read_id_lists`` ensures.
    """

    def __init__(self, records: dict[str, list[str]]):
        self._row = dict(zip(records, range(len(records))))
        counts = np.fromiter(map(len, records.values()), dtype=np.intp, count=len(records))
        flat = list(chain.from_iterable(records.values()))
        self.vocabulary = tuple(sorted(set(flat)))
        number = dict(zip(self.vocabulary, range(len(self.vocabulary))))
        self.words = np.fromiter(map(number.__getitem__, flat), dtype=np.intp, count=len(flat))
        self.ptr = np.concatenate(([0], np.cumsum(counts)))

    def __len__(self) -> int:
        return len(self._row)

    def rows(self, image_ids) -> np.ndarray:
        """The row of each id, -1 for an unknown id."""
        return np.fromiter(map(self._row.get, image_ids, repeat(-1)), dtype=np.intp, count=len(image_ids))

    # perfbench's keywords.words_for_calls observes this method by name.
    def words_for(self, image_ids) -> tuple[list[tuple[str, list[str]]], int]:
        """Word lists for the requested ids, in request order.

        Unknown ids are dropped from the result and tallied in the
        returned missing count.
        """
        image_ids = list(image_ids)
        found: list[tuple[str, list[str]]] = []
        missing = 0
        for image_id, row in zip(image_ids, self.rows(image_ids).tolist()):
            if row < 0:
                missing += 1
            else:
                found.append((image_id, [self.vocabulary[w] for w in self.words[self.ptr[row] : self.ptr[row + 1]]]))
        return found, missing


def load_keywords(path: str) -> KeywordStore:
    return KeywordStore(read_id_lists(path, "keyword"))
