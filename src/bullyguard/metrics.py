"""Confusion-matrix metrics: accuracy, precision, recall, F1 (macro/weighted).

A report is the JSON-ready record the benchmark stores: ``accuracy``,
``per_class`` (keyed by label value, each with ``precision``, ``recall``,
``f1`` and ``support``), the ``macro`` and ``weighted`` means of
``precision``, ``recall`` and ``f1``, and ``zero_division``. SCORES names its
seven scores flat (``accuracy``, ``f1_weighted``, ``recall_macro``, ...), as
the CV means and the grid objective use them, and score(report, name) reads
one.

Zero-denominator cases (a class never predicted, or absent from y_true) score
0 for the affected metric and set the zero_division flag on the report.
Weighted recall equals accuracy by algebraic identity; that property is relied
on by the benchmark tables and enforced by the test suite.
"""

from __future__ import annotations

from .base import CLASS_ORDER, Label

SCORES = ("accuracy", "precision_weighted", "recall_weighted", "f1_weighted",
          "precision_macro", "recall_macro", "f1_macro")


def score(report: dict, name: str) -> float:
    """The score SCORES names: accuracy, or "<metric>_<mean>" as report[mean][metric]."""
    if name == "accuracy":
        return report["accuracy"]
    metric, mean = name.split("_")
    return report[mean][metric]


def confusion(y_true: list[Label], y_pred: list[Label]) -> tuple[tuple[int, int], tuple[int, int]]:
    """counts[i][j] = number of examples with true class i predicted as j."""
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise ValueError("confusion requires at least one example")
    counts = [[0, 0], [0, 0]]
    for t, p in zip(y_true, y_pred):
        counts[t.index][p.index] += 1
    return tuple(counts[0]), tuple(counts[1])


def _safe_div(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def metrics(counts: tuple[tuple[int, int], tuple[int, int]]) -> dict:
    """The report of a 2x2 count matrix, as confusion returns it."""
    total = sum(sum(row) for row in counts)
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    per_class = {}
    zero_division = False
    for label in CLASS_ORDER:
        i = label.index
        tp, fp, fn = counts[i][i], counts[1 - i][i], counts[i][1 - i]
        precision, z1 = _safe_div(tp, tp + fp)
        recall, z2 = _safe_div(tp, tp + fn)
        f1, z3 = _safe_div(2.0 * precision * recall, precision + recall)
        zero_division = zero_division or z1 or z2 or z3
        per_class[label.value] = {"precision": precision, "recall": recall, "f1": f1,
                                  "support": tp + fn}
    accuracy = (counts[0][0] + counts[1][1]) / total
    rows = per_class.values()
    macro = {m: sum(row[m] for row in rows) / len(rows) for m in ("precision", "recall", "f1")}
    weighted = {m: sum(row[m] * row["support"] for row in rows) / total
                for m in ("precision", "recall", "f1")}
    # algebraic identity: sum_c support_c * (TP_c / support_c) / total
    if abs(weighted["recall"] - accuracy) > 1e-9:
        raise AssertionError(
            f"weighted recall {weighted['recall']!r} diverged from accuracy {accuracy!r}"
        )
    return {"accuracy": accuracy, "per_class": per_class, "macro": macro,
            "weighted": weighted, "zero_division": zero_division}


def evaluate(y_true: list[Label], y_pred: list[Label]) -> dict:
    return metrics(confusion(y_true, y_pred))
