"""Cross-validation orchestration and the full benchmark.

The benchmark mirrors the study design: the three TF-IDF models are tuned by
grid search and scored with stratified k-fold cross validation on the
training portion (fold featurizers fitted on fold-training documents only),
while the two neural models use the static 80/10/10 split with early stopping
on the validation part and are scored once on the test part, each built as
the artifact ``train`` writes and scored by artifact.predict_texts, as
``predict`` scores it.

The benchmark returns its report as the JSON-ready document that the
``benchmark`` command writes, and the tables render from that document; both
are deterministic for a given seed. A classical row holds the CV record that
cross_validate returns: ``fold_reports``, the metrics records of the held-out
folds, and ``cv_mean`` and ``cv_std``, each score's mean and sample std over
them, keyed by the flat names of metrics.SCORES. A neural row's
``test_report`` is one metrics record.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .artifact import ModelArtifact, data_fingerprint, predict_texts, preprocessing_fingerprint
from .base import Label, TrainConfig
from .corpus import CommentRecord, majority_label, stratified_split
from .features import TfidfConfig
from .linear_models import (
    CLASSICAL_FAMILIES,
    TrainingError,
    featurize_folds,
    fold_reports,
    grid_search,
)
from .metrics import SCORES, evaluate, score
from .neural import NeuralVocab, TrainTrace, build_neural_vocab, encode_batch, train
from .preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    StemmerRules,
    preprocess_corpus,
)

if TYPE_CHECKING:  # the study takes cli's RunConfig but never imports cli
    from .cli import RunConfig

ML_ROW_NAMES = {"nb": "Naive Bayes", "lr": "Logistic Regression", "svm": "SVM"}
DL_ROW_NAMES = {"bilstm": "BiLSTM", "bilstm_attention": "BiLSTM+Attention"}


class ModelSpec(NamedTuple):
    family: str
    params: dict = {}  # the trainer's keywords; read, never written
    tfidf: TfidfConfig = TfidfConfig()
    pipeline: PipelineConfig = PipelineConfig()


def _aggregate(reports: list[dict]) -> dict:
    """The CV record of k >= 2 folds' reports: the reports, and each score's
    mean and sample std over them."""
    values = {name: [score(r, name) for r in reports] for name in SCORES}
    return {"fold_reports": reports,
            "cv_mean": {name: statistics.fmean(v) for name, v in values.items()},
            "cv_std": {name: statistics.stdev(v) for name, v in values.items()}}


def cross_validate(
    model_spec: ModelSpec,
    records: list[CommentRecord],
    k: int,
    seed: int,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> dict:
    """Stratified k-fold CV of one classical model spec, as the CV record
    {"fold_reports", "cv_mean", "cv_std"}.

    Per fold: featurizer fitted on the fold-training documents only, model
    trained there, metrics computed on the held-out fold.
    """
    token_lists = preprocess_corpus(
        [rec.text for rec in records], model_spec.pipeline, lexicon, rules,
    )
    folds = featurize_folds(
        token_lists, [rec.label for rec in records], k, seed, model_spec.tfidf,
    )
    return _aggregate(fold_reports(model_spec.family, [model_spec.params], folds, seed)[0])


class NeuralData(NamedTuple):
    """Encoded train/validation sets without the documents that preprocess to
    empty; the vocabulary and majority class come from the kept training ones.
    """
    prep: Preprocessor  # the neural track's pipeline, with its word memo
    vocab: NeuralVocab
    train: tuple[np.ndarray, np.ndarray, np.ndarray]  # (ids, lengths, class ids)
    val: tuple[np.ndarray, np.ndarray, np.ndarray]
    majority: Label
    n_dropped_train: int
    n_dropped_val: int


def prepare_neural_data(
    train_recs: list[CommentRecord],
    val_recs: list[CommentRecord],
    prep: Preprocessor,
    config: TrainConfig,
) -> NeuralData:
    """The neural track's data under config's data settings."""
    if config.keep_function_words:
        pipeline = prep.config._replace(remove_stopwords=False, stem=False)
        prep = Preprocessor(pipeline, prep.lexicon, prep.rules)

    def kept(recs):
        tokens = prep.corpus([r.text for r in recs])
        keep = [i for i, toks in enumerate(tokens) if toks]
        return [tokens[i] for i in keep], [recs[i].label for i in keep]

    tr_tok, tr_labels = kept(train_recs)
    va_tok, va_labels = kept(val_recs)
    if not tr_tok or not va_tok:
        raise TrainingError("no non-empty training or validation documents "
                            "after preprocessing; cannot train")
    vocab = build_neural_vocab(tr_tok, config.min_freq, config.max_len_cap)

    def encoded(tokens, labels):
        ids, lens = encode_batch(tokens, vocab)
        return ids, lens, np.asarray([lab.index for lab in labels], dtype=np.int64)

    return NeuralData(
        prep=prep,
        vocab=vocab,
        train=encoded(tr_tok, tr_labels),
        val=encoded(va_tok, va_labels),
        majority=majority_label(tr_labels),
        n_dropped_train=len(train_recs) - len(tr_tok),
        n_dropped_val=len(val_recs) - len(va_tok),
    )


def _train_neural_artifact(family: str, data: NeuralData, config: TrainConfig,
                           data_fp: str) -> tuple[ModelArtifact, TrainTrace]:
    """A BiLSTM of family trained on data, as the artifact `train` writes
    (data_fp: its records' data_fingerprint), and its training trace."""
    params, trace = train(family == "bilstm_attention", data.train, data.val, config,
                          data.vocab.size)
    prep = data.prep
    return ModelArtifact(
        family, config.seed, data.majority,
        preprocessing_fingerprint(prep.config, prep.lexicon, prep.rules), data_fp,
        prep.config, params, neural_vocab=data.vocab,
    ), trace


# ----------------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------------

def run_benchmark(
    records: list[CommentRecord],
    config: RunConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> dict:
    """The study's report document: {"config", "ml_models", "dl_models"}.
    "config" is config's echo, the sizes of the data and the inputs' digests."""
    train_recs, val_recs, test_recs = stratified_split(records, config.split)

    # classical track: grid search + k-fold CV on the training portion; the
    # folds are featurized once and the CV row is the tuned candidate's folds
    prep = Preprocessor(config.pipeline, lexicon, rules)
    train_tokens = prep.corpus([rec.text for rec in train_recs])
    folds = featurize_folds(
        train_tokens, [rec.label for rec in train_recs],
        config.folds, config.seed, config.tfidf,
    )
    ml_models = []
    for family in CLASSICAL_FAMILIES:
        grid = grid_search(
            family, config.grids[family], folds, config.seed, config.objective,
            config.trainer_params[family],
        )
        ml_models.append({
            "name": ML_ROW_NAMES[family], "family": family, "best_params": grid.best_params,
            "grid": [{"params": params, "fold_scores": scores}
                     for params, scores in grid.per_candidate],
            **_aggregate(grid.best_fold_reports),
        })
    del folds  # all k folds' vectors; free them before the neural track

    # neural track: static split, early stopping on validation, and each
    # model scored on test as `predict` scores the artifact `train` writes
    data = prepare_neural_data(train_recs, val_recs, prep, config.neural)
    data_fp = data_fingerprint(records)
    test_texts = [rec.text for rec in test_recs]
    test_labels = [rec.label for rec in test_recs]
    dl_models = []
    for family, name in DL_ROW_NAMES.items():
        model, trace = _train_neural_artifact(family, data, config.neural, data_fp)
        preds = predict_texts(model, test_texts, data.prep)
        dl_models.append({
            "name": name,
            "use_attention": model.model.use_attention,
            "test_report": evaluate(test_labels, [pred.label for pred in preds]),
            **vars(trace),  # per-epoch losses and accuracies, stopping epochs
            "dropped_empty_train": data.n_dropped_train,
            "dropped_empty_val": data.n_dropped_val,
            "empty_test_fallbacks": sum(pred.empty_input for pred in preds),
        })

    echo = {**config.echo(), "data_fingerprint": data_fp,
            "preprocessing_fingerprint": preprocessing_fingerprint(prep.config, lexicon, rules),
            "data": {"n_records": len(records), "n_train": len(train_recs),
                     "n_val": len(val_recs), "n_test": len(test_recs),
                     "vocab_size": data.vocab.size, "max_seq_len": data.vocab.max_seq_len}}
    return {"config": echo, "ml_models": ml_models, "dl_models": dl_models}


# ----------------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------------

def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_benchmark_tables(report: dict) -> str:
    """The study's two tables from the document run_benchmark returns."""
    ml_rows = [
        [
            row["name"],
            *(f"{row['cv_mean'][key]:.4f}" for key in
              ("accuracy", "precision_weighted", "recall_weighted", "f1_weighted")),
        ]
        for row in report["ml_models"]
    ]
    dl_rows = [
        [
            row["name"],
            f"{row['test_report']['accuracy']:.4f}",
            f"{row['test_report']['macro']['f1']:.4f}",
            f"{row['test_report']['weighted']['f1']:.4f}",
        ]
        for row in report["dl_models"]
    ]
    split, data = report["config"]["split"], report["config"]["data"]
    parts = [
        "Classical model comparison "
        f"({split['folds']}-fold cross validation on the training split, "
        "weighted averages, mean over folds)",
        _format_table(["Model", "Accuracy", "Precision", "Recall", "F1-Score"], ml_rows),
        "",
        "Neural model comparison (held-out test split)",
        _format_table(["Model", "Accuracy", "F1 Macro", "F1 Weighted"], dl_rows),
        "",
        f"seed: {split['seed']}  folds: {split['folds']}  "
        f"records: {data['n_records']} "
        f"(train {data['n_train']} / val {data['n_val']} / test {data['n_test']})",
    ]
    return "\n".join(parts) + "\n"
