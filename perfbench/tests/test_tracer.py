"""Self-test of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The unit tests use toy modules. The workload tests make one traced run of
each workload through ``run.py`` (about three minutes in all on two cores)
and check that the traced outputs are byte-identical to the untraced ones,
that module self times fit inside the traced wall time, and that every
per-layer metric is measured on the workloads where its layer does work.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

# ---------------------------------------------------------------------------
# toy modules
# ---------------------------------------------------------------------------


def _toy_modules():
    inner = types.ModuleType("toy.inner")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def _private(x):\n    return leaf(x) * 2\n"
        "def outer(x):\n    return _private(x) + leaf(x)\n"
        "class Box:\n    def shuffle(self, items):\n        items.reverse()\n",
        inner.__dict__,
    )
    user = types.ModuleType("toy.user")
    user.leaf = inner.leaf            # a `from .inner import leaf` binding
    user.renamed = inner.outer        # `from .inner import outer as renamed`
    return {"inner": inner, "user": user}


def test_every_binding_is_patched_and_restored(monkeypatch):
    modules = _toy_modules()
    original_leaf = modules["inner"].leaf
    monkeypatch.setattr(tracer, "EXTRA_HOOKS", ("inner._private", "inner.Box.shuffle"))
    tr = tracer.Tracer()
    tr.install(modules, hooks={})
    assert modules["user"].leaf is modules["inner"].leaf is not original_leaf
    assert modules["user"].renamed is modules["inner"].outer
    assert modules["user"].renamed(1) == 6
    box_items = [1, 2]
    modules["inner"].Box().shuffle(box_items)
    assert box_items == [2, 1]
    names = [tr.names[span[0]] for span in tr.spans]
    assert names == ["inner.outer", "inner._private", "inner.leaf", "inner.leaf",
                     "inner.Box.shuffle"]
    parents = [span[3] for span in tr.spans]
    assert parents == [-1, 0, 1, 0, -1]
    tr.uninstall()
    assert modules["inner"].leaf is original_leaf and modules["user"].leaf is original_leaf


def test_missing_private_hook_reports_metric_missing(monkeypatch):
    modules = _toy_modules()
    monkeypatch.setattr(tracer, "EXTRA_HOOKS", ("inner._gone",))
    tr = tracer.Tracer()
    tr.install(modules, hooks={})
    assert tr.missing == {"inner._gone"}
    monkeypatch.setattr(tracer, "LAYER_METRICS", [
        ("toy.gone_s", "s", ("inner._gone",), lambda r: r.seconds("inner._gone")),
        ("toy.leaf_calls", "count", ("inner.leaf",), lambda r: r.n_calls("inner.leaf")),
    ])
    modules["user"].leaf(1)
    metrics, module_s, n_spans = tracer.aggregate([tr.dump()])
    assert metrics["toy.gone_s"] == {"value": None, "unit": "s", "missing": True}
    assert metrics["toy.leaf_calls"] == {"value": 1, "unit": "count"}
    assert n_spans == 1 and set(module_s) == {"inner"}


def test_self_time_excludes_children():
    dump = {
        "names": ["a.outer", "b.inner"],
        "spans": [[0, 0, 100, -1], [1, 10, 40, 0], [1, 50, 60, 0]],
        "counters": {}, "distinct": {}, "missing": [], "hooked": [],
    }
    rollup = tracer._Rollup([dump])
    assert rollup.self_ns == {"a.outer": 60, "b.inner": 40}
    assert rollup.module_self_ns == {"a": 60, "b": 40}


# ---------------------------------------------------------------------------
# traced runs of the real workloads
# ---------------------------------------------------------------------------

ALL = ("study-200", "train-1k", "predict-linear", "predict-neural")
PREDICT = ("predict-linear", "predict-neural")

# Workloads on which each per-layer metric must be measured and non-zero.
EXPECTED = {
    "cli.import_s": ALL,
    "corpus.load_s": ("study-200", "train-1k"),
    "corpus.kfold_calls": ("study-200",),
    "preprocess.docs": ALL,
    "preprocess.doc_distinct_ratio": ALL,
    "preprocess.empty_doc_ratio": PREDICT,
    "preprocess.busy_s": ALL,
    "preprocess.us_per_doc": ALL,
    "preprocess.stem_calls": ALL,
    "preprocess.stem_distinct_ratio": ALL,
    "preprocess.stem_fallback_ratio": ALL,
    "preprocess.lexicon_load_s": ALL,
    "features.fit_calls": ("study-200", "train-1k"),
    "features.fit_distinct_ratio": ("study-200", "train-1k"),
    "features.fit_s": ("study-200", "train-1k"),
    "features.transform_docs": ("study-200", "train-1k", "predict-linear"),
    "features.transform_s": ("study-200", "train-1k", "predict-linear"),
    "features.oov_token_ratio": ("predict-linear",),
    "linear_models.lr_iters": ("study-200", "train-1k"),
    "linear_models.svm_steps": ("study-200", "train-1k"),
    "linear_models.svm_us_per_step": ("study-200", "train-1k"),
    "linear_models.predict_docs": ("study-200", "predict-linear"),
    "linear_models.predict_s": ("study-200", "predict-linear"),
    "rng.shuffle_calls": ("study-200", "train-1k"),
    "rng.shuffle_items": ("study-200", "train-1k"),
    "rng.shuffle_s": ("study-200", "train-1k"),
    "rng.uniform_values": ("study-200", "train-1k"),
    "rng.uniform_s": ("study-200", "train-1k"),
    "neural.init_s": ("study-200", "train-1k"),
    "neural.epochs": ("study-200", "train-1k"),
    "neural.train_batches": ("study-200", "train-1k"),
    "neural.forward_rows": ("study-200", "train-1k"),
    "neural.forward_s": ("study-200", "train-1k"),
    "neural.backward_s": ("study-200", "train-1k"),
    "neural.adam_s": ("study-200", "train-1k"),
    "neural.eval_s": ("study-200", "train-1k"),
    "neural.predict_rows": ("study-200", "predict-neural"),
    "neural.predict_s": ("study-200", "predict-neural"),
    "neural.oov_token_ratio": ("predict-neural",),
    "metrics.evaluate_calls": ("study-200",),
    "metrics.evaluate_s": ("study-200",),
    "eval.grid_search_s": ("study-200",),
    "eval.cross_validate_s": ("study-200",),
    "eval.neural_track_s": ("study-200",),
    "artifact.save_s": ("train-1k",),
    "artifact.bytes_written": ("train-1k",),
    "artifact.load_s": PREDICT,
    "artifact.bytes_read": PREDICT,
    "artifact.fingerprint_s": ("train-1k",) + PREDICT,
    "artifact.predict_text_calls": PREDICT,
    "artifact.predict_text_s": PREDICT,
    "artifact.line_p50_us": PREDICT,
    "artifact.line_p99_us": PREDICT,
    "artifact.line_samples": PREDICT,
    "trace.overhead_ratio": ALL,
    "trace.self_time_share": ALL,
    "trace.spans": ALL,
}
for _family in ("nb", "lr", "svm"):
    for _suffix in ("train_s", "train_calls"):
        EXPECTED[f"linear_models.{_family}_{_suffix}"] = ("study-200", "train-1k")


def test_expectations_cover_every_per_layer_metric():
    import run

    names = [m[0] for m in tracer.LAYER_METRICS]
    names += [name for name, _ in run.EXTRA_LAYER_METRICS]
    assert sorted(names) == sorted(EXPECTED)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(m["name"] for m in declared) == sorted(EXPECTED)


@pytest.mark.parametrize("workload", ALL)
def test_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # correct covers the byte-identical outputs and self times <= wall time
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(EXPECTED)
    for name, where in EXPECTED.items():
        if workload in where:
            assert not metrics[name].get("missing"), name
            assert metrics[name]["value"] > 0, name
    assert 0 < metrics["trace.self_time_share"]["value"] <= 1
    assert metrics["trace.overhead_ratio"]["value"] > 0
