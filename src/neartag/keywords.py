"""Image-id to keyword mapping loaded from tab-separated text.

One line per image: ``<image_id>\\t<word>(,<word>)*``, read by
``tsv.read_id_lists``: words are lowercased and deduplicated per image,
keeping first-occurrence order.
"""

from __future__ import annotations

from .tsv import read_id_lists


class KeywordStore:
    """Read-only id -> word-list mapping."""

    def __init__(self, records: dict[str, list[str]]):
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._records

    def ids(self) -> list[str]:
        return list(self._records)

    def words_for(self, image_ids) -> tuple[list[tuple[str, list[str]]], int]:
        """Word lists for the requested ids, in request order.

        Unknown ids are dropped from the result and tallied in the
        returned missing count.
        """
        found: list[tuple[str, list[str]]] = []
        missing = 0
        for image_id in image_ids:
            words = self._records.get(image_id)
            if words is None:
                missing += 1
            else:
                found.append((image_id, list(words)))
        return found, missing


def load_keywords(path: str) -> KeywordStore:
    return KeywordStore(read_id_lists(path, "keyword"))
