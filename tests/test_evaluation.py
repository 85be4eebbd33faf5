import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import evaluate_per_concept

from neartag.annotator import Annotation, ConceptDef, read_annotations
from neartag.errors import EngineError, FormatError
from neartag.evaluation import (
    average_precision,
    evaluate,
    format_report,
    load_ground_truth,
    sample_prf,
)

CONCEPTS = {name: ConceptDef(name, (f"{name}.n.1",)) for name in
            ("cat", "dog", "bird", "rock", "tree")}


def ann(sample_id, *names, score=0.5):
    return Annotation(sample_id, tuple((n, score) for n in names))


# -- sample_prf ---------------------------------------------------------------

def test_sample_prf_worked_example():
    p, r, f = sample_prf({"a", "b", "c"}, {"a", "d"})
    assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r == pytest.approx(0.5, abs=1e-12)
    assert f == pytest.approx(0.4, abs=1e-12)


def test_sample_prf_perfect():
    assert sample_prf({"a"}, {"a"}) == (1.0, 1.0, 1.0)


def test_sample_prf_empty_prediction():
    assert sample_prf(set(), {"a"}) == (0.0, 0.0, 0.0)


def test_sample_prf_no_overlap():
    assert sample_prf({"a"}, {"b"}) == (0.0, 0.0, 0.0)


# -- average_precision ----------------------------------------------------------

def test_average_precision_worked_example():
    # hits at ranks 1 and 3 of truth size 2: (1/1 + 2/3) / 2 = 0.83333...
    got = average_precision(["a", "x", "b"], {"a", "b"})
    assert got == pytest.approx(0.8333333333, abs=1e-9)


def test_average_precision_perfect_prefix():
    assert average_precision(["a", "b"], {"a", "b"}) == pytest.approx(1.0, abs=1e-12)


def test_average_precision_miss_everything():
    assert average_precision(["x", "y"], {"a"}) == 0.0


def test_average_precision_later_hits_score_less():
    early = average_precision(["a", "x", "y"], {"a"})
    late = average_precision(["x", "y", "a"], {"a"})
    assert early == 1.0
    assert late == pytest.approx(1.0 / 3.0, abs=1e-12)


# -- per-concept measures -------------------------------------------------------

def test_evaluate_per_concept_counts():
    annotations = [ann("s1", "cat"), ann("s2", "cat"), ann("s3"), ann("s4", "dog")]
    truth = {"s1": {"cat"}, "s2": {"dog"}, "s3": {"cat"}, "s4": {"dog"}}
    per_concept = evaluate(annotations, truth, CONCEPTS).per_concept
    # cat: TP=1 (s1), FP=1 (s2), FN=1 (s3) -> P=0.5 R=0.5 F=0.5
    assert per_concept["cat"] == (0.5, 0.5, 0.5)
    # dog: TP=1 (s4), FP=0, FN=1 (s2) -> P=1 R=0.5 F=2/3
    p, r, f = per_concept["dog"]
    assert (p, r) == (1.0, 0.5)
    assert f == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_evaluate_per_concept_never_seen_is_skipped():
    assert evaluate([ann("s1", "cat")], {"s1": {"cat"}}, CONCEPTS).per_concept["rock"] is None


def test_evaluate_per_concept_predicted_but_never_relevant():
    assert evaluate([ann("s1", "rock")], {"s1": {"cat"}}, CONCEPTS).per_concept["rock"] == (0.0, 0.0, 0.0)


# -- evaluate -----------------------------------------------------------------------

def test_evaluate_mf_is_mean_of_f_not_f_of_means():
    annotations = [ann("s1", "cat"), ann("s2", "dog")]
    truth = {"s1": {"cat"}, "s2": {"bird"}}
    report = evaluate(annotations, truth, CONCEPTS)
    # F values are 1.0 and 0.0; the mean is 0.5 (F of the means would differ)
    assert report.mf_s == pytest.approx(0.5, abs=1e-12)
    assert report.mp_s == pytest.approx(0.5, abs=1e-12)
    assert report.mr_s == pytest.approx(0.5, abs=1e-12)


def test_evaluate_missing_truth_skipped_and_counted():
    annotations = [ann("s1", "cat"), ann("ghost", "cat")]
    truth = {"s1": {"cat"}}
    report = evaluate(annotations, truth, CONCEPTS)
    assert report.samples_evaluated == 1
    assert report.samples_missing_truth == 1
    assert report.mf_s == 1.0


def test_evaluate_empty_truth_skipped_and_counted():
    annotations = [ann("s1", "cat"), ann("s2", "cat")]
    truth = {"s1": {"cat"}, "s2": set()}
    report = evaluate(annotations, truth, CONCEPTS)
    assert report.samples_evaluated == 1
    assert report.samples_empty_truth == 1


def test_evaluate_zero_score_entries_are_not_predictions():
    annotations = [Annotation("s1", (("cat", 0.4), ("dog", 0.0)))]
    truth = {"s1": {"cat"}}
    report = evaluate(annotations, truth, CONCEPTS)
    assert report.mp_s == 1.0  # dog's zero row did not dilute precision


def test_evaluate_concept_skip_count():
    annotations = [ann("s1", "cat")]
    truth = {"s1": {"cat"}}
    report = evaluate(annotations, truth, CONCEPTS)
    assert report.per_concept["cat"] == (1.0, 1.0, 1.0)
    assert report.per_concept["rock"] is None
    assert report.concepts_skipped == len(CONCEPTS) - 1


def test_evaluate_permutation_invariance():
    rng = np.random.default_rng(0)
    names = sorted(CONCEPTS)
    annotations = []
    truth = {}
    for i in range(30):
        sid = f"s{i}"
        pred = rng.choice(names, size=2, replace=False)
        annotations.append(ann(sid, *pred))
        truth[sid] = set(rng.choice(names, size=2, replace=False))
    base = evaluate(annotations, truth, CONCEPTS)
    shuffled = list(annotations)
    rng.shuffle(shuffled)
    again = evaluate(shuffled, truth, CONCEPTS)
    assert base == again


def test_evaluate_removing_a_correct_prediction_never_helps():
    rng = np.random.default_rng(1)
    names = sorted(CONCEPTS)
    annotations = []
    truth = {}
    for i in range(20):
        sid = f"s{i}"
        t = set(rng.choice(names, size=2, replace=False))
        pred = list(t)[:1] + [names[int(rng.integers(len(names)))]]
        annotations.append(ann(sid, *dict.fromkeys(pred)))
        truth[sid] = t
    base = evaluate(annotations, truth, CONCEPTS)
    # drop one correct prediction from one sample
    victim = annotations[0]
    correct = next(n for n, _ in victim.ranked if n in truth[victim.id])
    reduced = Annotation(victim.id, tuple(e for e in victim.ranked if e[0] != correct))
    worse = evaluate([reduced] + annotations[1:], truth, CONCEPTS)
    assert worse.mr_s <= base.mr_s + 1e-12
    assert worse.mf_s <= base.mf_s + 1e-12
    assert worse.map_s <= base.map_s + 1e-12


def test_evaluate_unknown_concept_in_annotation():
    with pytest.raises(EngineError, match="unicorn"):
        evaluate([ann("s1", "unicorn")], {"s1": {"cat"}}, CONCEPTS)


def test_evaluate_refuses_a_concept_ranked_twice(tmp_path):
    """Average precision would count the second hit too: MAP-samples read 200% here."""
    path = tmp_path / "ann.tsv"
    path.write_text("s1\tcat:0.9,cat:0.5\n", encoding="utf-8")
    annotations = read_annotations(str(path))
    assert [name for name, _score in annotations[0].ranked] == ["cat", "cat"]
    with pytest.raises(EngineError, match="annotation 's1' ranks concept 'cat' twice"):
        evaluate(annotations, {"s1": {"cat"}}, CONCEPTS)


@pytest.mark.parametrize("truth", [{"s1": {"cat"}}, {}], ids=["with truth", "without truth"])
def test_evaluate_refuses_an_annotation_id_given_twice(truth):
    """The last annotation silently won: MF-samples read 0.0 in one order and 1.0 in the other."""
    with pytest.raises(EngineError, match="annotation id 's1' is given twice"):
        evaluate([ann("s1", "cat"), ann("s1", "dog")], truth, CONCEPTS)


_NAMES = sorted(CONCEPTS)


@st.composite
def _scored_batches(draw):
    """Distinct ids, each with a ranking (maybe empty, maybe all zero) and a
    truth entry that may be missing or empty; some truth ids rank nothing.
    Now and then either side names an unknown concept."""
    unknown = draw(st.sampled_from([""] * 5 + ["ranked", "truth", "ranked truth"]))
    ranked_names = st.sampled_from(_NAMES + ["unicorn"] if "ranked" in unknown else _NAMES)
    truth_names = st.sampled_from(_NAMES + ["unicorn"] if "truth" in unknown else _NAMES)
    ids = draw(st.lists(st.sampled_from([f"s{i}" for i in range(12)]), max_size=8, unique=True))
    annotations, truth = [], {}
    for sample_id in ids:
        names = draw(st.lists(ranked_names, max_size=4, unique=True))
        scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=len(names), max_size=len(names)))
        annotations.append(Annotation(sample_id, tuple(zip(names, scores))))
        size = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if size is not None:
            truth[sample_id] = set(draw(st.lists(truth_names, min_size=size, max_size=size)))
    for extra in draw(st.lists(st.sampled_from(["t1", "t2"]), unique=True)):
        truth[extra] = set(draw(st.lists(truth_names, min_size=1, max_size=2)))
    return annotations, truth


def _outcome(score, annotations, truth):
    try:
        return score(annotations, truth, CONCEPTS)
    except EngineError as exc:
        return str(exc)


@settings(max_examples=250, deadline=None)
@given(batch=_scored_batches())
def test_evaluate_equals_the_per_concept_reference(batch):
    """The same report, float for float, or the same first error."""
    annotations, truth = batch
    assert _outcome(evaluate, annotations, truth) == _outcome(evaluate_per_concept, annotations, truth)


def test_evaluate_unknown_concept_in_truth():
    with pytest.raises(EngineError, match="unicorn"):
        evaluate([ann("s1", "cat")], {"s1": {"unicorn"}}, CONCEPTS)


def test_evaluate_nothing_usable_is_loud():
    with pytest.raises(EngineError, match="no samples"):
        evaluate([ann("s1", "cat")], {}, CONCEPTS)


def test_evaluate_map_perfect_ranking():
    annotations = [Annotation("s1", (("cat", 0.9), ("dog", 0.5)))]
    truth = {"s1": {"cat", "dog"}}
    report = evaluate(annotations, truth, CONCEPTS)
    assert report.map_s == pytest.approx(1.0, abs=1e-12)


# -- ground truth loader --------------------------------------------------------------

def test_load_ground_truth(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("q1\tcat,dog\nq2\tBIRD\n", encoding="utf-8")
    truth = load_ground_truth(str(path), CONCEPTS)
    assert truth == {"q1": {"cat", "dog"}, "q2": {"bird"}}


def test_load_ground_truth_unknown_concept(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("q1\tunicorn\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        load_ground_truth(str(path), CONCEPTS)


def test_load_ground_truth_duplicate_id(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("q1\tcat\nq1\tdog\n", encoding="utf-8")
    with pytest.raises(FormatError, match="duplicate"):
        load_ground_truth(str(path), CONCEPTS)


# -- report formatting ------------------------------------------------------------------

def test_format_report_has_table_and_machine_block():
    annotations = [ann("s1", "cat")]
    truth = {"s1": {"cat"}}
    report = evaluate(annotations, truth, CONCEPTS)
    text = format_report(report)
    assert "MF-sample" in text
    assert "mf_s=1.000000" in text
    assert "mf_s_pct=100.0" in text
    assert "samples_evaluated=1" in text


def test_format_report_percent_rounding():
    annotations = [ann("s1", "cat", "dog"), ann("s2", "cat"), ann("s3", "cat")]
    truth = {"s1": {"cat"}, "s2": {"cat"}, "s3": {"dog"}}
    report = evaluate(annotations, truth, CONCEPTS)
    # MP_s = (0.5 + 1 + 0) / 3 = 0.5; MF_s = (2/3 + 1 + 0)/3 = 5/9 -> 55.6%
    text = format_report(report)
    assert "mf_s_pct=55.6" in text


def test_average_precision_against_empty_truth_is_zero():
    assert average_precision(["a", "b"], set()) == 0.0
