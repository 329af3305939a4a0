import pytest
from hypothesis import given, settings, strategies as st

from bullyguard.corpus import CLASS_ORDER, Label
from bullyguard.linear_models import OBJECTIVES
from bullyguard.metrics import SCORES, confusion, evaluate, metrics, score

B, N = Label.BULLYING, Label.NON_BULLYING


def tally_oracle(y_true, y_pred):
    """Per-example tallies computed the slow explicit way."""
    out = {}
    for label in CLASS_ORDER:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t is label and p is label)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t is not label and p is label)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t is label and p is not label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[label] = (precision, recall, f1, tp + fn)
    accuracy = sum(1 for t, p in zip(y_true, y_pred) if t is p) / len(y_true)
    return accuracy, out


def test_confusion_spec_example():
    assert confusion([B, B, N, N], [B, N, N, N]) == ((1, 1), (0, 2))


def test_confusion_perfect_offdiagonal_zero():
    counts = confusion([B, N, B], [B, N, B])
    assert counts[0][1] == 0 and counts[1][0] == 0


def test_confusion_single_predicted_class():
    assert confusion([B, N, B, N], [B, B, B, B]) == ((2, 0), (2, 0))


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion([B], [B, N])
    with pytest.raises(ValueError):
        confusion([], [])


def test_metrics_hand_case():
    report = metrics(((40, 5), (10, 45)))
    assert report["accuracy"] == pytest.approx(0.85)
    m0 = report["per_class"][B.value]
    assert m0["precision"] == pytest.approx(0.8)
    assert m0["recall"] == pytest.approx(40 / 45)
    assert m0["f1"] == pytest.approx(2 * 0.8 * (40 / 45) / (0.8 + 40 / 45))
    assert m0["support"] == 45
    m1 = report["per_class"][N.value]
    assert m1["precision"] == pytest.approx(0.9)
    assert m1["recall"] == pytest.approx(45 / 55)
    assert report["macro"]["f1"] == pytest.approx((m0["f1"] + m1["f1"]) / 2)
    assert report["weighted"]["f1"] == pytest.approx((45 * m0["f1"] + 55 * m1["f1"]) / 100)
    assert not report["zero_division"]
    # each flat score name reads its nested field
    assert score(report, "accuracy") == report["accuracy"]
    for name in SCORES[1:]:
        metric, mean = name.split("_")
        assert score(report, name) == report[mean][metric]
    assert set(OBJECTIVES) <= set(SCORES)


def test_metrics_perfect():
    report = metrics(((7, 0), (0, 3)))
    for value in (report["accuracy"], report["macro"]["f1"], report["weighted"]["f1"],
                  report["weighted"]["precision"], report["macro"]["precision"]):
        assert value == pytest.approx(1.0)


def test_metrics_degenerate_single_class_prediction():
    report = metrics(((5, 0), (5, 0)))
    other = report["per_class"][N.value]
    assert other["precision"] == 0.0 and other["recall"] == 0.0 and other["f1"] == 0.0
    assert report["zero_division"]


def test_weighted_recall_equals_accuracy_hand():
    report = metrics(((13, 7), (2, 28)))
    assert report["weighted"]["recall"] == pytest.approx(report["accuracy"], abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(
    st.integers(0, 50), st.integers(0, 50),
    st.integers(0, 50), st.integers(0, 50),
).filter(lambda c: sum(c) > 0))
def test_weighted_recall_accuracy_identity_property(cells):
    report = metrics(((cells[0], cells[1]), (cells[2], cells[3])))
    assert abs(report["weighted"]["recall"] - report["accuracy"]) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(list(Label)), st.sampled_from(list(Label))),
    min_size=1, max_size=50,
))
def test_metrics_match_bruteforce_tally(pairs):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    report = evaluate(y_true, y_pred)
    accuracy, per_class = tally_oracle(y_true, y_pred)
    assert report["accuracy"] == pytest.approx(accuracy, abs=1e-12)
    for label in CLASS_ORDER:
        precision, recall, f1, support = per_class[label]
        got = report["per_class"][label.value]
        assert got["precision"] == pytest.approx(precision, abs=1e-12)
        assert got["recall"] == pytest.approx(recall, abs=1e-12)
        assert got["f1"] == pytest.approx(f1, abs=1e-12)
        assert got["support"] == support


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(list(Label)), st.sampled_from(list(Label))),
    min_size=1, max_size=40,
))
def test_macro_f1_invariant_under_relabeling(pairs):
    swap = {B: N, N: B}
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    direct = evaluate(y_true, y_pred)
    swapped = evaluate([swap[t] for t in y_true], [swap[p] for p in y_pred])
    assert direct["macro"]["f1"] == pytest.approx(swapped["macro"]["f1"], abs=1e-12)
    assert direct["accuracy"] == pytest.approx(swapped["accuracy"], abs=1e-12)
