"""Outside-in tracer for bullyguard: spans and counters without editing src/.

Run as a script, it times ``import bullyguard.cli``, wraps the public
module-level functions of every ``bullyguard`` module (plus the few private
steps and ``Rng`` methods named in ``EXTRA_HOOKS``), runs the CLI with the
given arguments and writes the spans and counters as JSON when the CLI
returns::

    python3 perfbench/tracer.py --spans spans.json -- predict --model lr.model

Every binding of a wrapped function is patched, including names rebound by
``from .x import f`` in other modules. Spans (name, start, end, parent) stay
in memory until the run ends. A hook whose target no longer exists is listed
as missing, and ``aggregate`` reports each metric that needs it as missing
rather than zero.

``aggregate`` turns the dumps of one traced round into the per-layer metrics
listed in ``LAYER_METRICS``. Times are self times (span minus child spans),
except the ``eval`` phase times, which are inclusive by definition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

PACKAGE = "bullyguard"

# Private steps reachable only by name, and class methods, wrapped as spans.
EXTRA_HOOKS = (
    "neural._forward_batch",
    "neural._backward_from_cache",
    "rng.Rng.shuffle",
    "rng.Rng.uniform_array",
)

# Per-token helpers: counted through hooks but given no span of their own, so
# their time stays in the enclosing preprocess span at a fraction of the cost.
NO_SPAN = frozenset({
    "preprocess.case_fold", "preprocess.clean", "preprocess.tokenize",
    "preprocess.collapse_elongation", "preprocess.normalize_slang",
    "preprocess.remove_stopwords", "preprocess.stem",
})

# Spans whose nearest enclosing one decides what a neural forward pass is for.
NEURAL_CONTEXTS = (
    "neural.train", "neural.evaluate_loss", "neural.predict_batch",
    "neural.forward_classify",
)


# ----------------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------------

class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []     # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.missing: set[str] = set()
        self.hooked: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def see(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def context(self) -> str | None:
        """Name of the innermost open span among NEURAL_CONTEXTS."""
        for idx in reversed(self.stack):
            name = self.names[self.spans[idx][0]]
            if name in NEURAL_CONTEXTS:
                return name
        return None

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        if name in NO_SPAN:
            if after is None:
                return fn

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, args, kwargs, result)
                return result
            return counted
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return spanned

    def install(self, modules: dict[str, object], hooks: dict | None = None) -> None:
        """Wrap every public function of ``modules`` (short name -> module)
        and each EXTRA_HOOKS target, then patch every binding of them."""
        hooks = HOOKS if hooks is None else hooks
        replaced: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
                    self.hooked.add(name)
        for name in EXTRA_HOOKS:
            short, *path = name.split(".")
            owner = modules.get(short)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            target = getattr(owner, path[-1], None) if owner is not None else None
            if target is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, target, hooks.get(name))
            self.hooked.add(name)
            if inspect.isclass(owner):
                self._patch(owner, path[-1], wrapper)
            else:
                replaced[id(target)] = wrapper
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, **extra) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "missing": sorted(self.missing),
            "hooked": sorted(self.hooked),
            **extra,
        }


def package_modules() -> dict[str, object]:
    package = importlib.import_module(PACKAGE)
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return modules


# ----------------------------------------------------------------------------
# hooks: counters taken at the call, after it returns
# ----------------------------------------------------------------------------

def _arg(fn_args, kwargs, pos: int, key: str, default=None):
    if len(fn_args) > pos:
        return fn_args[pos]
    return kwargs.get(key, default)


def _pipeline_doc(tr, args, kwargs, result):
    tr.count("preprocess.docs")
    tr.see("preprocess.docs", _arg(args, kwargs, 0, "text"))
    if not result[-1][1]:
        tr.count("preprocess.empty_docs")


def _stem(tr, args, kwargs, result):
    word = _arg(args, kwargs, 0, "word")
    lexicon = _arg(args, kwargs, 2, "lexicon")
    tr.count("preprocess.stem_calls")
    tr.see("preprocess.stem_calls", word)
    if word and result not in lexicon.root_words:
        tr.count("preprocess.stem_fallbacks")


def _fit_tfidf(tr, args, kwargs, result):
    token_lists = _arg(args, kwargs, 0, "token_lists")
    config = _arg(args, kwargs, 1, "config")
    tr.see("features.fit_tfidf", hash((tuple(map(tuple, token_lists)), repr(config))))


def _transform(tr, args, kwargs, result):
    tokens = _arg(args, kwargs, 0, "tokens")
    vocab = _arg(args, kwargs, 1, "model").vocabulary.token_to_id
    tr.count("features.tokens", len(tokens))
    tr.count("features.oov_tokens", sum(1 for tok in tokens if tok not in vocab))


def _encode_pad(tr, args, kwargs, result):
    tokens = _arg(args, kwargs, 0, "tokens")
    vocab = _arg(args, kwargs, 1, "vocab").token_to_id
    tr.count("neural.tokens", len(tokens))
    tr.count("neural.oov_tokens", sum(1 for tok in tokens if tok not in vocab))


def _train_lr(tr, args, kwargs, result):
    tr.count("linear_models.lr_iters", len(result.loss_history))


def _train_svm(tr, args, kwargs, result):
    vectors = _arg(args, kwargs, 0, "vectors")
    tr.count("linear_models.svm_steps", len(vectors) * _arg(args, kwargs, 3, "epochs", 200))


def _neural_train(tr, args, kwargs, result):
    tr.count("neural.epochs", result[1].stopped_epoch)


def _forward_batch(tr, args, kwargs, result):
    rows = int(result.logits.shape[0])
    ctx = tr.context()
    if ctx == "neural.train":
        tr.count("neural.forward_rows", rows)
    elif ctx in ("neural.predict_batch", "neural.forward_classify"):
        tr.count("neural.predict_rows", rows)


def _shuffle(tr, args, kwargs, result):
    tr.count("rng.shuffle_items", len(_arg(args, kwargs, 1, "items")))


def _uniform_array(tr, args, kwargs, result):
    tr.count("rng.uniform_values", int(result.size))


def _save_artifact(tr, args, kwargs, result):
    tr.count("artifact.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _load_artifact(tr, args, kwargs, result):
    tr.count("artifact.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


HOOKS = {
    "preprocess.run_pipeline_trace": _pipeline_doc,
    "preprocess.stem": _stem,
    "features.fit_tfidf": _fit_tfidf,
    "features.transform": _transform,
    "neural.encode_pad": _encode_pad,
    "linear_models.train_lr": _train_lr,
    "linear_models.train_svm": _train_svm,
    "neural.train": _neural_train,
    "neural._forward_batch": _forward_batch,
    "rng.Rng.shuffle": _shuffle,
    "rng.Rng.uniform_array": _uniform_array,
    "artifact.save_artifact": _save_artifact,
    "artifact.load_artifact": _load_artifact,
}


# ----------------------------------------------------------------------------
# aggregation into per-layer metrics
# ----------------------------------------------------------------------------

_PREPROCESS_LOADERS = (
    "preprocess.load_lexicon", "preprocess.load_slang_map", "preprocess.load_wordlist",
    "preprocess.load_stemmer_rules", "preprocess.load_default_lexicon",
    "preprocess.load_default_stemmer_rules", "preprocess.default_lexicon_paths",
)
_PREPROCESS_DOCS = (
    "preprocess.preprocess_corpus", "preprocess.run_pipeline", "preprocess.run_pipeline_trace",
)
_PHASES = ("linear_models.grid_search", "eval.cross_validate")  # timed inclusively
_LINEAR_PREDICT = (
    "linear_models.predict_family", "linear_models.predict_nb", "linear_models.predict_lr",
    "linear_models.predict_svm", "linear_models.nb_log_scores",
)


class _Rollup:
    """Self times, call counts and counters summed over one round's dumps.

    Distinct counts are taken within each invocation and then summed, since
    a cache inside the program could only ever reuse work within one.
    """

    def __init__(self, dumps: list[dict]):
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.ctx_self_ns: dict[tuple, int] = {}  # (context, name) -> neural self ns
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, int] = {}
        self.missing: set[str] = set()
        self.hooked: set[str] = set()
        self.module_self_ns: dict[str, int] = {}
        self.neural_track_ns = 0
        self.import_ns = 0
        self.n_spans = 0
        for dump in dumps:
            self._add(dump)

    def _add(self, dump: dict) -> None:
        names, spans = dump["names"], dump["spans"]
        self.n_spans += len(spans)
        self.import_ns += dump.get("import_ns", 0)
        self.missing.update(dump["missing"])
        self.hooked.update(dump["hooked"])
        for key, value in dump["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in dump["distinct"].items():
            self.distinct[key] = self.distinct.get(key, 0) + value
        child_ns = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        contexts = [None] * len(spans)
        cv_end: dict[int, int] = {}
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            own = end - start - child_ns[idx]
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            module = name.split(".", 1)[0]
            self.module_self_ns[module] = self.module_self_ns.get(module, 0) + own
            # spans are appended at entry, so a parent precedes its children
            ctx = name if name in NEURAL_CONTEXTS else (contexts[parent] if parent >= 0 else None)
            contexts[idx] = ctx
            if ctx is not None and module == "neural":
                key = (ctx, name)
                self.ctx_self_ns[key] = self.ctx_self_ns.get(key, 0) + own
            if name in _PHASES:
                key = "inclusive:" + name
                self.self_ns[key] = self.self_ns.get(key, 0) + end - start
            if name == "eval.cross_validate":
                bench = self._ancestor(spans, names, idx, "eval.run_benchmark")
                if bench is not None:
                    cv_end[bench] = max(cv_end.get(bench, 0), end)
        # the neural track is what run_benchmark does after its last cross_validate
        for idx, (name_id, start, end, parent) in enumerate(spans):
            if names[name_id] == "eval.run_benchmark":
                self.neural_track_ns += end - cv_end.get(idx, start)

    @staticmethod
    def _ancestor(spans, names, idx: int, wanted: str) -> int | None:
        parent = spans[idx][3]
        while parent >= 0:
            if names[spans[parent][0]] == wanted:
                return parent
            parent = spans[parent][3]
        return None

    def seconds(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def in_context(self, contexts: tuple[str, ...], names: tuple[str, ...] | None = None) -> float:
        return sum(ns for (ctx, name), ns in self.ctx_self_ns.items()
                   if ctx in contexts and (names is None or name in names)) / 1e9

    def n_calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit, hooks it needs, value from a _Rollup)
LAYER_METRICS = [
    ("cli.import_s", "s", (), lambda r: r.import_ns / 1e9),
    ("corpus.load_s", "s", ("corpus.load_corpus",), lambda r: r.seconds("corpus.load_corpus")),
    ("corpus.kfold_calls", "count", ("corpus.kfold_split",),
     lambda r: r.n_calls("corpus.kfold_split")),
    ("preprocess.docs", "count", ("preprocess.run_pipeline_trace",),
     lambda r: r.counter("preprocess.docs")),
    ("preprocess.doc_distinct_ratio", "ratio", ("preprocess.run_pipeline_trace",),
     lambda r: _ratio(r.distinct.get("preprocess.docs", 0), r.counter("preprocess.docs"))),
    ("preprocess.empty_doc_ratio", "ratio", ("preprocess.run_pipeline_trace",),
     lambda r: _ratio(r.counter("preprocess.empty_docs"), r.counter("preprocess.docs"))),
    ("preprocess.busy_s", "s", _PREPROCESS_DOCS, lambda r: r.seconds(*_PREPROCESS_DOCS)),
    ("preprocess.us_per_doc", "us", _PREPROCESS_DOCS,
     lambda r: 1e6 * _ratio(r.seconds(*_PREPROCESS_DOCS), r.counter("preprocess.docs"))),
    ("preprocess.stem_calls", "count", ("preprocess.stem",),
     lambda r: r.counter("preprocess.stem_calls")),
    ("preprocess.stem_distinct_ratio", "ratio", ("preprocess.stem",),
     lambda r: _ratio(r.distinct.get("preprocess.stem_calls", 0),
                      r.counter("preprocess.stem_calls"))),
    ("preprocess.stem_fallback_ratio", "ratio", ("preprocess.stem",),
     lambda r: _ratio(r.counter("preprocess.stem_fallbacks"),
                      r.counter("preprocess.stem_calls"))),
    ("preprocess.lexicon_load_s", "s", ("preprocess.load_lexicon", "preprocess.load_stemmer_rules"),
     lambda r: r.seconds(*_PREPROCESS_LOADERS)),
    ("features.fit_calls", "count", ("features.fit_tfidf",),
     lambda r: r.n_calls("features.fit_tfidf")),
    ("features.fit_distinct_ratio", "ratio", ("features.fit_tfidf",),
     lambda r: _ratio(r.distinct.get("features.fit_tfidf", 0), r.n_calls("features.fit_tfidf"))),
    ("features.fit_s", "s", ("features.fit_tfidf",), lambda r: r.seconds("features.fit_tfidf")),
    ("features.transform_docs", "count", ("features.transform",),
     lambda r: r.n_calls("features.transform")),
    ("features.transform_s", "s", ("features.transform", "features.transform_all"),
     lambda r: r.seconds("features.transform", "features.transform_all")),
    ("features.oov_token_ratio", "ratio", ("features.transform",),
     lambda r: _ratio(r.counter("features.oov_tokens"), r.counter("features.tokens"))),
]
for _family in ("nb", "lr", "svm"):
    LAYER_METRICS += [
        (f"linear_models.{_family}_train_s", "s", (f"linear_models.train_{_family}",),
         lambda r, f=_family: r.seconds(f"linear_models.train_{f}")),
        (f"linear_models.{_family}_train_calls", "count", (f"linear_models.train_{_family}",),
         lambda r, f=_family: r.n_calls(f"linear_models.train_{f}")),
    ]
LAYER_METRICS += [
    ("linear_models.lr_iters", "count", ("linear_models.train_lr",),
     lambda r: r.counter("linear_models.lr_iters")),
    ("linear_models.svm_steps", "count", ("linear_models.train_svm",),
     lambda r: r.counter("linear_models.svm_steps")),
    ("linear_models.svm_us_per_step", "us", ("linear_models.train_svm",),
     lambda r: 1e6 * _ratio(r.seconds("linear_models.train_svm"),
                            r.counter("linear_models.svm_steps"))),
    ("linear_models.predict_docs", "count", _LINEAR_PREDICT[1:4],
     lambda r: r.n_calls(*_LINEAR_PREDICT[1:4])),
    ("linear_models.predict_s", "s", _LINEAR_PREDICT, lambda r: r.seconds(*_LINEAR_PREDICT)),
    ("rng.shuffle_calls", "count", ("rng.Rng.shuffle",), lambda r: r.n_calls("rng.Rng.shuffle")),
    ("rng.shuffle_items", "count", ("rng.Rng.shuffle",),
     lambda r: r.counter("rng.shuffle_items")),
    ("rng.shuffle_s", "s", ("rng.Rng.shuffle",), lambda r: r.seconds("rng.Rng.shuffle")),
    ("rng.uniform_values", "count", ("rng.Rng.uniform_array",),
     lambda r: r.counter("rng.uniform_values")),
    ("rng.uniform_s", "s", ("rng.Rng.uniform_array",), lambda r: r.seconds("rng.Rng.uniform_array")),
    ("neural.init_s", "s", ("neural.init_params",),
     lambda r: r.seconds("neural.init_params", "neural.init_adam_state")),
    ("neural.epochs", "count", ("neural.train",), lambda r: r.counter("neural.epochs")),
    ("neural.train_batches", "count", ("neural.adam_step",), lambda r: r.n_calls("neural.adam_step")),
    ("neural.forward_rows", "count", ("neural._forward_batch", "neural.train"),
     lambda r: r.counter("neural.forward_rows")),
    ("neural.forward_s", "s", ("neural._forward_batch", "neural.train", "neural.batch_loss"),
     lambda r: r.in_context(("neural.train",), ("neural._forward_batch", "neural.batch_loss"))),
    ("neural.backward_s", "s", ("neural._backward_from_cache",),
     lambda r: r.seconds("neural._backward_from_cache", "neural.backward")),
    ("neural.adam_s", "s", ("neural.adam_step",), lambda r: r.seconds("neural.adam_step")),
    ("neural.eval_s", "s", ("neural.evaluate_loss",),
     lambda r: r.in_context(("neural.evaluate_loss",))),
    ("neural.predict_rows", "count", ("neural._forward_batch",),
     lambda r: r.counter("neural.predict_rows")),
    ("neural.predict_s", "s", ("neural.predict_batch", "neural.forward_classify"),
     lambda r: r.in_context(("neural.predict_batch", "neural.forward_classify"))),
    ("neural.oov_token_ratio", "ratio", ("neural.encode_pad",),
     lambda r: _ratio(r.counter("neural.oov_tokens"), r.counter("neural.tokens"))),
    ("metrics.evaluate_calls", "count", ("metrics.evaluate",),
     lambda r: r.n_calls("metrics.evaluate")),
    ("metrics.evaluate_s", "s", ("metrics.evaluate",), lambda r: r.module_self_ns.get("metrics", 0) / 1e9),
    ("eval.grid_search_s", "s", ("linear_models.grid_search",),
     lambda r: r.seconds("inclusive:linear_models.grid_search")),
    ("eval.cross_validate_s", "s", ("eval.cross_validate",),
     lambda r: r.seconds("inclusive:eval.cross_validate")),
    ("eval.neural_track_s", "s", ("eval.run_benchmark", "eval.cross_validate"),
     lambda r: r.neural_track_ns / 1e9),
    ("artifact.save_s", "s", ("artifact.save_artifact",), lambda r: r.seconds("artifact.save_artifact")),
    ("artifact.bytes_written", "count", ("artifact.save_artifact",),
     lambda r: r.counter("artifact.bytes_written")),
    ("artifact.load_s", "s", ("artifact.load_artifact",), lambda r: r.seconds("artifact.load_artifact")),
    ("artifact.bytes_read", "count", ("artifact.load_artifact",),
     lambda r: r.counter("artifact.bytes_read")),
    ("artifact.fingerprint_s", "s", ("artifact.check_fingerprint",),
     lambda r: r.seconds("artifact.check_fingerprint", "artifact.preprocessing_fingerprint",
                         "artifact.data_fingerprint")),
    ("artifact.predict_text_calls", "count", ("artifact.predict_text",),
     lambda r: r.n_calls("artifact.predict_text")),
    ("artifact.predict_text_s", "s", ("artifact.predict_text",),
     lambda r: r.seconds("artifact.predict_text")),
]


def aggregate(dumps: list[dict]) -> tuple[dict[str, dict], dict[str, float], int]:
    """Per-layer metrics, per-module self seconds and span count of one round.

    A metric whose hooks were not all installed is ``{"value": None,
    "unit": ..., "missing": True}``.
    """
    rollup = _Rollup(dumps)
    metrics = {}
    for name, unit, needs, value_of in LAYER_METRICS:
        if any(need in rollup.missing or need not in rollup.hooked for need in needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": value_of(rollup), "unit": unit}
    module_s = {m: ns / 1e9 for m, ns in sorted(rollup.module_self_ns.items())}
    return metrics, module_s, rollup.n_spans


# ----------------------------------------------------------------------------
# script entry: trace one CLI invocation
# ----------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <bullyguard arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[1], argv[3:]
    started = time.perf_counter_ns()
    import bullyguard.cli as cli
    imported = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install(package_modules())
    try:
        code = cli.main(cli_args)
    finally:
        dump = tracer.dump(import_ns=imported - started,
                           wall_ns=time.perf_counter_ns() - started)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
