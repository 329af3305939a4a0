"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a PASS line when its criterion holds (visible with
``pytest -s`` or in the captured output). Criterion 10 needs the original
study dataset and is skipped unless BULLYGUARD_DATASET points at it.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bullyguard.cli import RunConfig
from bullyguard.corpus import Label, load_corpus
from bullyguard.eval import run_benchmark
from bullyguard.features import TfidfConfig, fit_tfidf, transform, transform_all
from bullyguard.linear_models import (
    Csr,
    predict_lr,
    predict_nb,
    predict_svm,
    train_lr,
    train_nb,
    train_svm,
)
from bullyguard.metrics import metrics
from bullyguard.neural import (
    EarlyStopper,
    PAD_ID,
    TrainConfig,
    build_neural_vocab,
    encode_batch,
    forward_classify,
    init_params,
    predict_batch,
    train,
)
from bullyguard.rng import Rng
from gradcheck import gradient_check
from test_features import dense as dense_row, dense_tfidf_oracle
from test_linear_models import csr, nb_posterior_oracle, rows, separable_toy, sv
from test_neural import attention, keyword_task
from test_oracles import lr_loss_grad

B, N = Label.BULLYING, Label.NON_BULLYING
DEFAULT = TrainConfig()  # its min_freq and max_len_cap build each vocabulary


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


# criterion 1 -----------------------------------------------------------------

def test_acceptance_1_tfidf_oracle_equivalence():
    started = time.perf_counter()
    rng = Rng(1001)
    checked = 0
    for case in range(100):
        vocab_size = 1 + rng.randbelow(8)
        alphabet = [f"w{i}" for i in range(vocab_size)]
        docs = [
            [alphabet[rng.randbelow(vocab_size)] for _ in range(1 + rng.randbelow(6))]
            for _ in range(1 + rng.randbelow(10))
        ]
        sublinear = rng.random() < 0.5
        l2 = rng.random() < 0.5
        model = fit_tfidf(docs, TfidfConfig(sublinear_tf=sublinear, l2_normalize=l2))
        query = docs[rng.randbelow(len(docs))] + [alphabet[rng.randbelow(vocab_size)]]
        vocab, expected = dense_tfidf_oracle(docs, query, sublinear, l2)
        dense = dense_row(transform(query, model), model.n_features)
        for token, want in zip(vocab, expected):
            got = dense[model.vocabulary.token_to_id[token]]
            assert abs(got - want) <= 1e-9, (case, token)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"sparse TF-IDF matches dense brute force on 100 corpora "
          f"({checked} components, {elapsed:.2f}s)")


# criterion 2 -----------------------------------------------------------------

def test_acceptance_2_nb_oracle_equivalence():
    rng = Rng(2002)
    for case in range(50):
        v = 2 + rng.randbelow(4)
        n_docs = 2 + rng.randbelow(5)
        docs, class_ids = [], []
        for i in range(n_docs):
            docs.append([float(rng.randbelow(4)) for _ in range(v)])
            class_ids.append(i % 2)
        alpha = 0.25 + 2.0 * rng.random()
        labels = [B if c == 0 else N for c in class_ids]
        model = train_nb(csr(docs), labels, alpha=alpha)
        query = [float(rng.randbelow(3)) for _ in range(v)]
        _, (scores,) = predict_nb(sv(query), model)
        shifted = np.exp(np.subtract(scores, max(scores)))
        got = shifted / shifted.sum()
        want = nb_posterior_oracle(docs, class_ids, query, alpha)
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-9, case
    ok(2, "NB posteriors match exhaustive closed-form arithmetic on 50 corpora")


# criterion 3 -----------------------------------------------------------------

def test_acceptance_3_lr_gradient_and_descent():
    docs = [["a", "b"], ["b"], ["a", "c"], ["c"], ["a"], ["b", "c"]]
    tfidf = fit_tfidf(docs)
    X = Csr.from_rows(transform_all(docs, tfidf), tfidf.n_features)
    y = np.asarray([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    lam, h = 1e-2, 1e-5
    rng = Rng(3003)
    worst = 0.0
    for _ in range(10):
        w = np.asarray([rng.uniform(-2, 2) for _ in range(tfidf.n_features)])
        b = rng.uniform(-1, 1)
        _, grad_w, grad_b = lr_loss_grad(X, y, w, b, lam)
        coords = list(range(tfidf.n_features))
        for idx in coords:
            w_p, w_m = w.copy(), w.copy()
            w_p[idx] += h
            w_m[idx] -= h
            numeric = (lr_loss_grad(X, y, w_p, b, lam)[0]
                       - lr_loss_grad(X, y, w_m, b, lam)[0]) / (2 * h)
            rel = abs(numeric - grad_w[idx]) / max(abs(numeric), abs(grad_w[idx]), 1e-12)
            worst = max(worst, rel)
        numeric_b = (lr_loss_grad(X, y, w, b + h, lam)[0]
                     - lr_loss_grad(X, y, w, b - h, lam)[0]) / (2 * h)
        worst = max(worst, abs(numeric_b - grad_b) / max(abs(numeric_b), abs(grad_b), 1e-12))
    assert worst < 1e-6, worst

    fixtures = [
        ([1, 0, 1, 0, 1, 0], 1e-3),
        ([1, 1, 1, 0, 0, 0], 1e-2),
        ([0, 1, 0, 1, 1, 1], 0.0),
    ]
    for labels01, fix_lam in fixtures:
        model = train_lr(X, labels01, l2_lambda=fix_lam, lr=0.1, epochs=200)
        history = model.loss_history
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(history, history[1:]))
    ok(3, f"LR analytic gradient within {worst:.2e} of finite differences; "
          "loss non-increasing on all fixtures")


# criterion 4 -----------------------------------------------------------------

def test_acceptance_4_neural_gradient_check():
    started = time.perf_counter()
    config = TrainConfig(embedding_dim=4, hidden_dim=3, attention_dim=3, batch_size=2)
    params = init_params(10, config, use_attention=True, rng=Rng(11))
    # a well-conditioned check point: O(1) embeddings and scaled attention so
    # finite differences at h=1e-5 stay clear of cancellation noise
    params.blocks["embedding"] *= 20.0
    params.blocks["att.w"] *= 3.0
    params.blocks["att.v"] *= 3.0
    params.blocks["head.w"] *= 3.0
    rng = Rng(12)
    params.blocks["att.b"][:] = [rng.uniform(-0.8, 0.8) for _ in range(3)]
    ids = np.asarray([[2, 3, 4, 5, 0], [6, 7, 8, 0, 0]])   # T = 5, batch 2
    lens = np.asarray([4, 3])
    labels = np.asarray([0, 1])
    # 48 is every coordinate of the fused LSTM blocks (w is 4 x 12)
    report = gradient_check(params, (ids, lens, labels), h=1e-5, n_per_block=48, seed=3)
    elapsed = time.perf_counter() - started
    assert report.max_rel_error < 1e-4, report.render_text()
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(4, f"BiLSTM+attention gradients exact to {report.max_rel_error:.2e} "
          f"over {report.n_checked} coordinates ({elapsed:.2f}s)")


# criterion 5 -----------------------------------------------------------------

def test_acceptance_5_attention_invariants_and_padding():
    config = TrainConfig(embedding_dim=4, hidden_dim=3, attention_dim=3, batch_size=2)
    rng = Rng(5005)
    for case in range(200):
        params = init_params(12, config, use_attention=True, rng=Rng(case))
        t = 2 + rng.randbelow(6)
        valid = 1 + rng.randbelow(t)
        states = rng.uniform_array((t, 2 * config.hidden_dim), -2.0, 2.0)
        _, weights = attention(states, valid, params)
        assert np.all(weights >= 0.0)
        assert abs(weights[:valid].sum() - 1.0) <= 1e-9
        assert np.all(weights[valid:] == 0.0)

        length = 1 + rng.randbelow(5)
        ids = [2 + rng.randbelow(10) for _ in range(length)]
        base = forward_classify(ids, length, params)
        extra = 1 + rng.randbelow(6)
        padded = ids + [PAD_ID] * extra
        np.testing.assert_array_equal(forward_classify(padded, length, params), base)
    ok(5, "attention weights valid and logits bit-exact under extra padding "
          "(200 random cases)")


# criterion 6 -----------------------------------------------------------------

EARLY_STOPPING_CASES = [
    # (validation losses, expected stopped epoch, expected best epoch)
    ([0.9, 0.8, 0.81, 0.82, 0.83], 5, 2),
    ([0.5, 0.5, 0.5, 0.5], 4, 1),
    ([0.9, 0.8, 0.7, 0.6, 0.5], 5, 5),
    ([1.0, 0.9, 0.95, 0.89, 0.88, 0.88, 0.88], 7, 5),
    ([0.3, 0.4, 0.5, 0.6], 4, 1),
    ([0.9, 0.89995, 0.89994, 0.89993], 4, 4),
    ([1.0], 1, 1),
    ([0.6, 0.5, 0.6, 0.5, 0.6, 0.5], 5, 2),
    ([0.8, 0.70, 0.699999, 0.6, 0.59, 0.589], 6, 6),
    ([0.9, 0.91, 0.92, 0.93, 0.94, 0.95], 4, 1),
]


def test_acceptance_6_early_stopping_contract():
    for losses, want_stop, want_best in EARLY_STOPPING_CASES:
        stopper = EarlyStopper(patience=3, min_improvement=1e-4)
        stopped = 0
        for epoch, loss in enumerate(losses, start=1):
            stopped = epoch
            _, stop = stopper.update(epoch, loss)
            if stop:
                break
        assert (stopped, stopper.best_epoch) == (want_stop, want_best), losses
    ok(6, "early stopping matches the hand trace on all 10 scripted sequences")


# criterion 7 -----------------------------------------------------------------

def test_acceptance_7_separable_sanity():
    dense, labels01 = separable_toy(10)
    vectors = rows(dense)
    lr_model = train_lr(csr(dense), labels01, l2_lambda=0.0, lr=0.5, epochs=2000)
    lr_acc = np.mean([
        (label is B) == bool(y)
        for label, y in zip(predict_lr(vectors, lr_model)[0], labels01)
    ])
    assert lr_acc == 1.0

    signed = [1 if y == 1 else -1 for y in labels01]
    svm_model = train_svm(vectors, signed, reg_lambda=1e-2, epochs=200, seed=42, n_features=2)
    svm_acc = np.mean([
        (label is B) == (y == 1)
        for label, y in zip(predict_svm(vectors, svm_model)[0], signed)
    ])
    assert svm_acc == 1.0

    token_lists, labels = keyword_task(16)
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    config = TrainConfig(batch_size=4, embedding_dim=16, hidden_dim=8,
                         attention_dim=8, learning_rate=0.01,
                         max_epochs=15, patience=15, seed=42)
    params, trace = train(True, (ids, lens, labels), (ids, lens, labels),
                          config, vocab.size)
    preds, _ = predict_batch(params, ids, lens)
    assert (preds == labels).all()
    assert trace.stopped_epoch <= 15
    ok(7, "LR, SVM, and BiLSTM+attention all reach 100% training accuracy "
          f"(neural task fit in {trace.stopped_epoch} epochs)")


# criterion 8 -----------------------------------------------------------------

def test_acceptance_8_weighted_recall_is_accuracy():
    rng = Rng(8008)
    worst = 0.0
    for _ in range(1000):
        cells = [rng.randbelow(100) for _ in range(4)]
        if sum(cells) == 0:
            cells[rng.randbelow(4)] = 1
        report = metrics(((cells[0], cells[1]), (cells[2], cells[3])))
        worst = max(worst, abs(report["weighted"]["recall"] - report["accuracy"]))
    assert worst <= 1e-12, worst
    ok(8, f"weighted recall equals accuracy to {worst:.1e} on 1000 random matrices")


# criterion 9 -----------------------------------------------------------------

def test_acceptance_9_benchmark_determinism(bundled_benchmark_runs):
    outputs, elapsed = bundled_benchmark_runs
    assert outputs[0] == outputs[1], "reports differ between identical runs"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    ok(9, f"two seeded benchmark runs are byte-identical ({elapsed:.1f}s total)")


# criterion 10 (conditional) --------------------------------------------------

ORIGINAL_DATASET = os.environ.get("BULLYGUARD_DATASET", "")


@pytest.mark.skipif(
    not ORIGINAL_DATASET,
    reason="original study dataset not bundled; set BULLYGUARD_DATASET to run",
)
def test_acceptance_10_original_dataset_reproduction():
    records = load_corpus(Path(ORIGINAL_DATASET))
    assert len(records) == 650, "expected the full 650-comment dataset"
    from bullyguard.preprocess import load_default_lexicon, load_default_stemmer_rules

    report = run_benchmark(
        records,
        RunConfig.of({("split", "seed"): 42}),
        load_default_lexicon(), load_default_stemmer_rules(),
    )
    by_name = {row["name"]: row for row in report["ml_models"]}
    lr_row = by_name["Logistic Regression"]
    nb_row = by_name["Naive Bayes"]
    assert abs(lr_row["cv_mean"]["accuracy"] - 0.8525) <= 0.05
    assert abs(lr_row["cv_mean"]["f1_weighted"] - 0.8522) <= 0.05
    assert lr_row["cv_mean"]["accuracy"] > nb_row["cv_mean"]["accuracy"]

    dl = {row["name"]: row["test_report"] for row in report["dl_models"]}
    att, plain = dl["BiLSTM+Attention"], dl["BiLSTM"]
    assert abs(att["accuracy"] - 0.8462) <= 0.05
    assert att["accuracy"] > plain["accuracy"]
    assert att["macro"]["f1"] > plain["macro"]["f1"]
    ok(10, "study-scale results reproduced within tolerance on the original dataset")
