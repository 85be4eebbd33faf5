"""Annotation quality metrics, taken in one pass over the annotations.

Sample-oriented: precision/recall/F1 per annotated image, plus average
precision over the ranked prediction list, each averaged over evaluated
samples. Concept-oriented: precision/recall/F1 per concept from TP/FP/FN
counts pooled over the evaluated samples as the same pass reads them,
averaged over concepts that were relevant or predicted at least once.
Mean F is always the mean of per-unit F values, never the F of mean
precision and recall.

Only positively scored entries of an annotation count as predictions;
zero rows are placeholders for inspection, not claims. An annotation id
given twice is refused, as is a concept ranked twice in one annotation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

from .annotator import Annotation, ConceptDef
from .errors import EngineError
from .tsv import read_id_lists


@dataclass(frozen=True)
class MetricsReport:
    mp_s: float
    mr_s: float
    mf_s: float
    map_s: float
    mp_c: float
    mr_c: float
    mf_c: float
    per_concept: dict[str, tuple[float, float, float] | None]
    samples_evaluated: int
    samples_missing_truth: int
    samples_empty_truth: int
    concepts_skipped: int


# (table label, ablation column, report field and machine-readable key) of each reported
# measure, in printed order; the ablation table has the sample-oriented ones
_MEASURES = (("MP-sample", "MP-s%", "mp_s"), ("MR-sample", "MR-s%", "mr_s"), ("MF-sample", "MF-s%", "mf_s"),
             ("MAP-sample", "MAP-s%", "map_s"), ("MP-concept", None, "mp_c"), ("MR-concept", None, "mr_c"),
             ("MF-concept", None, "mf_c"))


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from hit, false-alarm and miss counts; a ratio over 0 reads 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return (p, r, 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0)


def sample_prf(predicted: set[str], truth: set[str]) -> tuple[float, float, float]:
    """Precision, recall, F1 for one sample's predicted and true id sets.

    An empty prediction or empty truth scores (0, 0, 0); the caller is
    expected to skip empty-truth samples.
    """
    hits = len(predicted & truth)
    return _prf(hits, len(predicted) - hits, len(truth) - hits)


def average_precision(ranked: list[str], truth: set[str]) -> float:
    """AP of a ranked prediction list against a truth set.

    Sums precision-at-i over ranks i that hit, divided by |truth|.
    """
    if not truth:
        return 0.0
    hits = 0
    total = 0.0
    for i, name in enumerate(ranked, 1):
        if name in truth:
            hits += 1
            total += hits / i
    return total / len(truth)


def _means(rows: list[tuple[float, ...]]) -> list[float]:
    """Column means of ``rows``, each column added up in row order one
    float at a time (``sum`` compensates on Python 3.12+)."""
    return [reduce(add, column, 0.0) / len(rows) for column in zip(*rows)]


def load_ground_truth(path: str, concepts: dict[str, ConceptDef]) -> dict[str, set[str]]:
    """Truth file: ``<id>\\t<name>(,<name>)*`` with known concept names."""
    return {sid: set(names) for sid, names in read_id_lists(path, "concept", concepts).items()}


def evaluate(annotations: list[Annotation], truth: dict[str, set[str]],
             concepts: dict[str, ConceptDef]) -> MetricsReport:
    """Score a batch of annotations against ground truth.

    Annotations without a truth entry, and truth entries that are empty
    sets, are skipped and counted. Concepts that never occur (neither
    relevant nor predicted) are skipped from the concept averages and
    counted. Every name on either side must be a known concept, each
    annotation id may be given once, and an annotation may rank each
    concept once.
    """
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    ids: set[str] = set()
    samples: list[tuple[float, float, float, float]] = []  # (P, R, F, AP) per evaluated sample
    missing = empty = 0
    for ann in annotations:
        if ann.id in ids:
            raise EngineError(f"annotation id {ann.id!r} is given twice")
        ids.add(ann.id)
        seen: set[str] = set()
        for name, _score in ann.ranked:
            if name not in concepts:
                raise EngineError(f"annotation {ann.id!r} references unknown concept {name!r}")
            if name in seen:
                raise EngineError(f"annotation {ann.id!r} ranks concept {name!r} twice")
            seen.add(name)
        relevant = truth.get(ann.id)
        if relevant is None:
            missing += 1
            continue
        if not relevant:
            empty += 1
            continue
        positive = [name for name, score in ann.ranked if score > 0.0]
        predicted = set(positive)
        samples.append((*sample_prf(predicted, relevant), average_precision(positive, relevant)))
        tp.update(predicted & relevant)
        fp.update(predicted - relevant)
        fn.update(relevant - predicted)
    for sample_id, names in truth.items():
        for name in names:
            if name not in concepts:
                raise EngineError(f"ground truth for {sample_id!r} references unknown concept {name!r}")
    if not samples:
        raise EngineError("no samples to evaluate (all annotations lacked usable ground truth)")

    per_concept = {name: _prf(tp[name], fp[name], fn[name]) if tp[name] + fp[name] + fn[name] else None
                   for name in sorted(concepts)}
    # every evaluated sample has a relevant concept, so at least one concept is measured
    measured = [prf for prf in per_concept.values() if prf is not None]
    mp_s, mr_s, mf_s, map_s = _means(samples)
    mp_c, mr_c, mf_c = _means(measured)
    return MetricsReport(
        mp_s=mp_s, mr_s=mr_s, mf_s=mf_s, map_s=map_s, mp_c=mp_c, mr_c=mr_c, mf_c=mf_c,
        per_concept=per_concept,
        samples_evaluated=len(samples),
        samples_missing_truth=missing,
        samples_empty_truth=empty,
        concepts_skipped=len(per_concept) - len(measured),
    )


def format_report(report: MetricsReport, per_concept: bool = True) -> str:
    """Human-readable table plus a machine-readable key=value block."""
    lines = []
    lines.append("metric        value")
    lines.append("------        -----")
    for label, _column, key in _MEASURES:
        lines.append(f"{label:<13} {100.0 * getattr(report, key):5.1f}%")
    lines.append("")
    lines.append(f"samples evaluated: {report.samples_evaluated}"
                 f" (skipped: {report.samples_missing_truth} without truth,"
                 f" {report.samples_empty_truth} with empty truth)")
    lines.append(f"concepts skipped (never relevant or predicted): {report.concepts_skipped}")
    if per_concept:
        lines.append("")
        lines.append("concept                          P%      R%      F%")
        for name, prf in report.per_concept.items():
            cells = ["-"] * 3 if prf is None else [f"{100.0 * x:.1f}" for x in prf]
            lines.append(f"{name:<30} " + " ".join(f"{cell:>6}" for cell in cells))
    lines.append("")
    for _label, _column, key in _MEASURES:
        value = getattr(report, key)
        lines.append(f"{key}={value:.6f}")
        lines.append(f"{key}_pct={100.0 * value:.1f}")
    lines.append(f"samples_evaluated={report.samples_evaluated}")
    lines.append(f"samples_missing_truth={report.samples_missing_truth}")
    lines.append(f"samples_empty_truth={report.samples_empty_truth}")
    lines.append(f"concepts_skipped={report.concepts_skipped}")
    return "\n".join(lines)


def format_ablation(rows: list[tuple[str, MetricsReport]]) -> str:
    """The ablation table: one row per (level, report) pair, in percent, with a column for each
    measure that has an ablation column."""
    columns = [(column, key) for _label, column, key in _MEASURES if column]
    lines = [f"{'level':<40}" + "".join(f" {column:>7}" for column, _key in columns)]
    for label, report in rows:
        lines.append(f"{label:<40}" + "".join(f" {100.0 * getattr(report, key):>7.1f}" for _column, key in columns))
    return "\n".join(lines)
