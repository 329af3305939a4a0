"""Confusion-matrix metrics: accuracy, precision, recall, F1 (macro/weighted).

Zero-denominator cases (a class never predicted, or absent from y_true) score
0 for the affected metric and set the zero_division flag on the report.
Weighted recall equals accuracy by algebraic identity; that property is relied
on by the benchmark tables and enforced by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import CLASS_ORDER, Label


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = number of examples with true class i predicted as j."""
    counts: tuple[tuple[int, int], tuple[int, int]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def to_dict(self) -> dict:
        return {
            "classes": [label.value for label in CLASS_ORDER],
            "counts": [list(row) for row in self.counts],
        }


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    accuracy: float
    per_class: dict[Label, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    zero_division: bool

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                label.value: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for label, m in self.per_class.items()
            },
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "weighted": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
            "zero_division": self.zero_division,
        }


def confusion(y_true: list[Label], y_pred: list[Label]) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise ValueError("confusion requires at least one example")
    counts = [[0, 0], [0, 0]]
    for t, p in zip(y_true, y_pred):
        counts[t.index][p.index] += 1
    return ConfusionMatrix(counts=(tuple(counts[0]), tuple(counts[1])))


def _safe_div(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    total = cm.total
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    per_class: dict[Label, ClassMetrics] = {}
    zero_division = False
    for label in CLASS_ORDER:
        i = label.index
        tp = cm.counts[i][i]
        fp = sum(cm.counts[j][i] for j in range(2) if j != i)
        fn = sum(cm.counts[i][j] for j in range(2) if j != i)
        precision, z1 = _safe_div(tp, tp + fp)
        recall, z2 = _safe_div(tp, tp + fn)
        f1, z3 = _safe_div(2.0 * precision * recall, precision + recall)
        zero_division = zero_division or z1 or z2 or z3
        per_class[label] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=tp + fn,
        )
    accuracy = sum(cm.counts[i][i] for i in range(2)) / total
    supports = [per_class[label].support for label in CLASS_ORDER]
    n_classes = len(CLASS_ORDER)

    def macro(attr: str) -> float:
        return sum(getattr(per_class[label], attr) for label in CLASS_ORDER) / n_classes

    def weighted(attr: str) -> float:
        return sum(
            getattr(per_class[label], attr) * s
            for label, s in zip(CLASS_ORDER, supports)
        ) / total

    weighted_recall = weighted("recall")
    # algebraic identity: sum_c support_c * (TP_c / support_c) / total
    if abs(weighted_recall - accuracy) > 1e-9:
        raise AssertionError(
            f"weighted recall {weighted_recall!r} diverged from accuracy {accuracy!r}"
        )
    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=macro("precision"),
        macro_recall=macro("recall"),
        macro_f1=macro("f1"),
        weighted_precision=weighted("precision"),
        weighted_recall=weighted_recall,
        weighted_f1=weighted("f1"),
        zero_division=zero_division,
    )


def evaluate(y_true: list[Label], y_pred: list[Label]) -> MetricsReport:
    return metrics(confusion(y_true, y_pred))
