"""Synset lexicon: words with ranked senses and typed relations.

File format, one record per line, tab separated:

* ``S\\t<synset_id>\\t<lemma>(,<lemma>)*`` declares a synset. Ids are
  unique and non-empty and hold no blank or comma; lemmas are non-empty.
* ``W\\t<word>\\t<synset_id>\\t<rank>`` maps a word sense; rank 1 is the
  most frequent sense and ranks for one word must form 1..q.
* ``R\\t<tag>\\t<from>\\t<to>`` declares a directed relation. Tags:
  ``hyper`` (to is a generalization of from), ``hypo``, ``mero``
  (to is a part of from), ``holo``.

Records may appear in any order; referential checks run after the whole
file is parsed. Loading closes the relation set under inverses, so a
hypernym edge always has the mirror hyponym edge and meronym likewise
mirrors holonym.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import FormatError, check_count
from .tsv import records


class RelationType(enum.Enum):
    HYPERNYM = "hypernym"
    HYPONYM = "hyponym"
    MERONYM = "meronym"
    HOLONYM = "holonym"


INVERSE = {
    RelationType.HYPERNYM: RelationType.HYPONYM,
    RelationType.HYPONYM: RelationType.HYPERNYM,
    RelationType.MERONYM: RelationType.HOLONYM,
    RelationType.HOLONYM: RelationType.MERONYM,
}

ALL_RELATIONS = frozenset(RelationType)

_TAGS = {
    "hyper": RelationType.HYPERNYM,
    "hypo": RelationType.HYPONYM,
    "mero": RelationType.MERONYM,
    "holo": RelationType.HOLONYM,
}

RELATIONS = tuple(RelationType)  # a relation's number is its position here


class Lexicon:
    """Read-only word/synset graph.

    Synsets and words are numbered in sorted-name order (``synset_names``,
    ``word_names``), so ordering by number is ordering by name. Senses and
    relations are held as CSR arrays over those numbers: word ``w``'s
    synsets by rank are ``sense_synsets[sense_ptr[w]:sense_ptr[w + 1]]``,
    and synset ``x``'s outgoing relations are the rows
    ``relation_ptr[x]:relation_ptr[x + 1]`` of ``relation_types`` (numbers
    in ``RELATIONS``) and ``relation_targets``, ordered by (relation,
    target) as ``related`` returns them.
    """

    def __init__(self, synsets, senses: dict[str, list[str]], edges: set[tuple[str, RelationType, str]]):
        self.synset_names = tuple(sorted(synsets))
        self.word_names = tuple(sorted(senses))
        self._synset_number = {sid: i for i, sid in enumerate(self.synset_names)}
        self._word_number = {word: i for i, word in enumerate(self.word_names)}
        self.sense_ptr = np.cumsum([0, *(len(senses[w]) for w in self.word_names)])
        self.sense_synsets = np.array([self._synset_number[sid] for w in self.word_names for sid in senses[w]],
                                      dtype=np.intp)
        rows = sorted((self._synset_number[src], RELATIONS.index(rel), self._synset_number[dst])
                      for src, rel, dst in edges)
        table = np.array(rows, dtype=np.intp).reshape(-1, 3)
        self.relation_ptr = np.searchsorted(table[:, 0], np.arange(len(self.synset_names) + 1))
        self.relation_types = table[:, 1].copy()
        self.relation_targets = table[:, 2].copy()

    def __contains__(self, synset_id: str) -> bool:
        return synset_id in self._synset_number

    def word_numbers(self, words) -> np.ndarray:
        """Each word's number, lowercased as ``senses`` looks it up; -1 for a word without senses."""
        get = self._word_number.get
        return np.array([get(word.lower(), -1) for word in words], dtype=np.intp)

    # perfbench's lexicon.senses_calls and lexicon.oov_words observe this method by name.
    def senses(self, word: str, s: int) -> list[str]:
        """The word's synsets by descending sense frequency, at most s of them.

        Unknown words yield an empty list; raising here would make every
        out-of-vocabulary keyword fatal.
        """
        check_count("s", s)
        w = self._word_number.get(word.lower())
        if w is None:
            return []
        lo, hi = self.sense_ptr[w], self.sense_ptr[w + 1]
        return [self.synset_names[x] for x in self.sense_synsets[lo : min(hi, lo + s)].tolist()]

    # perfbench's lexicon.related_calls observes this method by name.
    def related(self, synset_id: str, types) -> list[tuple[str, RelationType]]:
        """Outgoing (target, relation) pairs of the given relation types.

        Ordered by (relation type, target id) so traversals are
        deterministic.
        """
        x = self._synset_number.get(synset_id)
        if x is None:
            raise ValueError(f"undeclared synset {synset_id!r}")
        wanted = frozenset(types)
        lo, hi = self.relation_ptr[x], self.relation_ptr[x + 1]
        pairs = zip(self.relation_targets[lo:hi].tolist(), self.relation_types[lo:hi].tolist())
        return [(self.synset_names[t], RELATIONS[r]) for t, r in pairs if RELATIONS[r] in wanted]


def _check_synset_token(token: str, path: str, lineno: int) -> str:
    if not token:
        raise FormatError("empty synset id", path=path, line=lineno)
    if any(c.isspace() for c in token) or "," in token:
        raise FormatError(f"synset id {token!r} contains whitespace or a comma", path=path, line=lineno)
    return token


def load_lexicon(path: str) -> Lexicon:
    declared: set[str] = set()
    sense_records: list[tuple[str, int, str, int]] = []  # word, rank, synset, line
    relation_records: list[tuple[str, RelationType, str, int]] = []  # from, type, to, line
    for lineno, parts in records(path):
        kind = parts[0]
        if kind == "S":
            if len(parts) != 3:
                raise FormatError("S record needs '<id>\\t<lemma,lemma,...>'", path=path, line=lineno)
            synset_id = _check_synset_token(parts[1], path, lineno)
            if synset_id in declared:
                raise FormatError(f"duplicate synset {synset_id!r}", path=path, line=lineno)
            if any(not lemma.strip() for lemma in parts[2].split(",")):
                raise FormatError("empty lemma", path=path, line=lineno)
            declared.add(synset_id)
        elif kind == "W":
            if len(parts) != 4:
                raise FormatError("W record needs '<word>\\t<synset>\\t<rank>'", path=path, line=lineno)
            word = parts[1].strip().lower()
            if not word:
                raise FormatError("empty word", path=path, line=lineno)
            synset_id = _check_synset_token(parts[2], path, lineno)
            try:
                rank = int(parts[3])
            except ValueError:
                raise FormatError(f"sense rank {parts[3]!r} is not an integer", path=path,
                                  line=lineno) from None
            if rank < 1:
                raise FormatError(f"sense rank must be >= 1, got {rank}", path=path, line=lineno)
            sense_records.append((word, rank, synset_id, lineno))
        elif kind == "R":
            if len(parts) != 4:
                raise FormatError("R record needs '<tag>\\t<from>\\t<to>'", path=path, line=lineno)
            tag = parts[1].strip()
            if tag not in _TAGS:
                raise FormatError(f"unknown relation tag {tag!r} (expected one of {sorted(_TAGS)})",
                                  path=path, line=lineno)
            src = _check_synset_token(parts[2], path, lineno)
            dst = _check_synset_token(parts[3], path, lineno)
            relation_records.append((src, _TAGS[tag], dst, lineno))
        else:
            raise FormatError(f"unknown record type {kind!r} (expected S, W, or R)", path=path, line=lineno)

    # Referential validation now that every declaration is in.
    by_word: dict[str, dict[int, str]] = {}
    for word, rank, synset_id, lineno in sense_records:
        if synset_id not in declared:
            raise FormatError(f"word {word!r} references undeclared synset {synset_id!r}", path=path, line=lineno)
        ranks = by_word.setdefault(word, {})
        if rank in ranks:
            raise FormatError(f"duplicate sense rank {rank} for word {word!r}", path=path, line=lineno)
        ranks[rank] = synset_id
    senses: dict[str, list[str]] = {}
    for word, ranks in by_word.items():
        expected = list(range(1, len(ranks) + 1))
        if sorted(ranks) != expected:
            raise FormatError(
                f"sense ranks for word {word!r} must form 1..{len(ranks)}, got {sorted(ranks)}", path=path
            )
        senses[word] = [ranks[r] for r in expected]

    edge_set: set[tuple[str, RelationType, str]] = set()
    for src, rel, dst, lineno in relation_records:
        if src not in declared:
            raise FormatError(f"relation references undeclared synset {src!r}", path=path, line=lineno)
        if dst not in declared:
            raise FormatError(f"relation references undeclared synset {dst!r}", path=path, line=lineno)
        edge_set.add((src, rel, dst))
        edge_set.add((dst, INVERSE[rel], src))
    return Lexicon(declared, senses, edge_set)
