import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bullyguard.linear_models as lm
from bullyguard.corpus import CLASS_ORDER, Label, kfold_split, load_corpus
from bullyguard.features import fit_tfidf, transform_all
from bullyguard.linear_models import (
    CLASSICAL_FAMILIES,
    DEFAULT_GRIDS,
    SVM_MAX_MAGNITUDE,
    Csr,
    FeaturizedFold,
    TrainingError,
    expand_grid,
    featurize_folds,
    grid_search,
    nb_log_scores,
    predict_family,
    predict_lr,
    predict_nb,
    predict_svm,
    train_lr,
    train_nb,
    train_svm,
)
from bullyguard.preprocess import PipelineConfig, preprocess_corpus
from bullyguard.rng import Rng
from test_features import FLOATS, MAX_ROWS, N_COLS, ROWS, csr_rows, py_rows
from test_oracles import lr_loss_grad

B, N = Label.BULLYING, Label.NON_BULLYING


def rows(dense_rows):
    """TF-IDF rows of dense rows; zero entries are left out."""
    return py_rows([{i: v for i, v in enumerate(dense) if v != 0.0} for dense in dense_rows])


def csr(dense_rows):
    """Csr of equal-length dense rows; zero entries are left out."""
    return Csr.from_rows(rows(dense_rows), len(dense_rows[0]))


def sv(dense):
    return rows([dense])


def nb_posterior_oracle(docs_dense, class_ids, query_dense, alpha):
    """Exhaustive closed-form NB posterior, computed with explicit loops."""
    v = len(query_dense)
    n = len(docs_dense)
    log_scores = []
    for c in (0, 1):
        n_c = sum(1 for cid in class_ids if cid == c)
        score = math.log(n_c / n)
        total = sum(sum(doc) for doc, cid in zip(docs_dense, class_ids) if cid == c)
        for t in range(v):
            mass = sum(doc[t] for doc, cid in zip(docs_dense, class_ids) if cid == c)
            score += query_dense[t] * math.log((alpha + mass) / (alpha * v + total))
        log_scores.append(score)
    peak = max(log_scores)
    exps = [math.exp(s - peak) for s in log_scores]
    return [e / sum(exps) for e in exps]


# ----------------------------------------------------------------------------
# Naive Bayes
# ----------------------------------------------------------------------------

def test_nb_hand_counts():
    # class Bullying: {a:2}, {a:1,b:1}; class Non: {b:2}, {b:1,a:1}
    vectors = csr([[2, 0], [1, 1], [0, 2], [1, 1]])
    labels = [B, B, N, N]
    model = train_nb(vectors, labels, alpha=1.0)
    # P(a|Bullying) = (1 + 3) / (1*2 + 4) = 2/3
    assert math.exp(model.log_likelihood[0][0]) == pytest.approx(2 / 3)
    assert math.exp(model.log_likelihood[0][1]) == pytest.approx(1 / 3)
    assert model.log_prior[0] == pytest.approx(math.log(0.5))
    assert model.log_prior[1] == pytest.approx(math.log(0.5))
    # likelihoods are proper distributions
    for c in (0, 1):
        assert np.exp(model.log_likelihood[c]).sum() == pytest.approx(1.0, abs=1e-9)


def test_nb_large_alpha_uniform_limit():
    vectors = csr([[5, 0], [0, 5]])
    model = train_nb(vectors, [B, N], alpha=1e9)
    for c in (0, 1):
        np.testing.assert_allclose(np.exp(model.log_likelihood[c]), 0.5, atol=1e-6)


def test_nb_missing_class_error():
    with pytest.raises(TrainingError, match="has no training documents"):
        train_nb(csr([[1, 0]]), [B], alpha=1.0)
    with pytest.raises(TrainingError, match="alpha"):
        train_nb(csr([[1, 0], [0, 1]]), [B, N], alpha=0.0)


def test_nb_zero_vector_falls_back_to_priors():
    vectors = csr([[2, 0], [1, 1], [0, 2]])
    model = train_nb(vectors, [B, B, N], alpha=1.0)
    (label,), (scores,) = predict_nb(sv([0, 0]), model)
    np.testing.assert_allclose(scores, model.log_prior)
    assert label is B  # 2/3 prior


def test_nb_predict_hand_posterior():
    vectors = csr([[2, 0], [1, 1], [0, 2], [1, 1]])
    model = train_nb(vectors, [B, B, N, N], alpha=1.0)
    (label,), _ = predict_nb(sv([1, 0]), model)
    assert label is B  # P(a|Bullying)=2/3 beats P(a|Non)=1/3 with equal priors


def test_nb_scaling_preserves_argmax_under_equal_priors():
    vectors = csr([[2, 0], [1, 1], [0, 2], [1, 1]])
    model = train_nb(vectors, [B, B, N, N], alpha=1.0)
    base = np.subtract(nb_log_scores(sv([1, 0.5]), model)[0], model.log_prior)
    for k in (0.5, 2.0, 7.0):
        scaled = np.subtract(nb_log_scores(sv([k * 1, k * 0.5]), model)[0], model.log_prior)
        np.testing.assert_allclose(scaled, k * base, rtol=1e-12)
    assert predict_nb(sv([1, 0.5]), model)[0][0] is predict_nb(sv([5, 2.5]), model)[0][0]


def test_nb_tie_breaks_to_lower_class_id():
    vectors = csr([[1, 0], [0, 1]])
    model = train_nb(vectors, [B, N], alpha=1.0)
    (label,), (scores,) = predict_nb(sv([0, 0]), model)  # symmetric: exact tie
    assert scores[0] == pytest.approx(scores[1])
    assert label is B


def test_nb_oracle_equivalence_random():
    rng = Rng(17)
    for _ in range(50):
        v = 2 + rng.randbelow(4)          # V <= 5
        n_docs = 2 + rng.randbelow(5)     # <= 6 docs
        docs, class_ids = [], []
        for i in range(n_docs):
            docs.append([float(rng.randbelow(4)) for _ in range(v)])
            class_ids.append(i % 2)       # both classes present
        alpha = 0.25 + rng.random() * 2
        labels = [Label.BULLYING if c == 0 else Label.NON_BULLYING for c in class_ids]
        model = train_nb(csr(docs), labels, alpha=alpha)
        query = [float(rng.randbelow(3)) for _ in range(v)]
        _, (scores,) = predict_nb(sv(query), model)
        shifted = np.exp(np.subtract(scores, max(scores)))
        got = shifted / shifted.sum()
        want = nb_posterior_oracle(docs, class_ids, query, alpha)
        np.testing.assert_allclose(got, want, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS,
       classes=st.lists(st.sampled_from([B, N]), min_size=MAX_ROWS, max_size=MAX_ROWS),
       prior=st.lists(FLOATS, min_size=2, max_size=2),
       ll=st.lists(FLOATS, min_size=2 * N_COLS, max_size=2 * N_COLS))
@example(rows=[], classes=[B, N] * 4, prior=[-1.0, -2.0], ll=[-1.0] * 12)
@example(rows=[{}, {}], classes=[B, N] * 4, prior=[-1.0, -2.0], ll=[-1.0] * 12)
@example(rows=[{3: 2.5}, {0: 1e12}], classes=[N, B] * 4, prior=[-1.0, -2.0],
         ll=[1e12, -1.0, 1e-3, 2.0, -1e12, 0.5] * 2)
def test_nb_bit_identical_to_sequential_loops(rows, classes, prior, ll):
    """NB scoring and batched training add in the order of the per-row loops."""
    model = lm.NaiveBayesModel(log_prior=prior, log_likelihood=[ll[:N_COLS], ll[N_COLS:]],
                               alpha=1.0)
    want = []
    for row in rows:
        scores = np.array(model.log_prior)
        for i in sorted(row):
            scores += row[i] * np.asarray(model.log_likelihood)[:, i]
        want.append(scores.tolist())
    assert nb_log_scores(py_rows(rows), model) == want

    labels = classes[:len(rows)]
    if set(labels) != {B, N}:
        return
    masses = [{i: abs(v) for i, v in row.items()} for row in rows]
    mass = np.zeros((2, N_COLS))
    for row, label in zip(masses, labels):
        for i in sorted(row):
            mass[label.index, i] += row[i]
    want_ll = np.log(1.0 + mass) - np.log(N_COLS + mass.sum(axis=1, keepdims=True))
    got = train_nb(csr_rows(masses, N_COLS), labels, alpha=1.0)
    assert got.log_likelihood == want_ll.tolist()


# ----------------------------------------------------------------------------
# logistic regression
# ----------------------------------------------------------------------------

def separable_toy(copies=10):
    dense = [[1.0, 0.0]] * copies + [[0.0, 1.0]] * copies
    labels01 = [1] * copies + [0] * copies
    return dense, labels01


def test_lr_separable_reaches_perfect_train_accuracy():
    dense, labels01 = separable_toy()
    model = train_lr(csr(dense), labels01, l2_lambda=0.0, lr=0.5, epochs=2000)
    preds = [1 if label is B else 0 for label in predict_lr(rows(dense), model)[0]]
    assert preds == labels01


def test_lr_huge_lambda_collapses_to_majority():
    # 3:1 imbalance: in the regularization limit the bias term dominates the
    # vanishing weights, so every prediction is the majority class
    dense = [[1.0, 0.0]] * 15 + [[0.0, 1.0]] * 5
    labels01 = [1] * 15 + [0] * 5
    model = train_lr(csr(dense), labels01, l2_lambda=1e6, lr=0.1, epochs=500)
    assert np.abs(model.weights).max() < 1e-3
    preds = set(predict_lr(rows(dense), model)[0])
    assert preds == {B}


def test_lr_single_step_matches_hand_gradient():
    x = csr([[2.0, 3.0]])
    model = train_lr(x, [1], l2_lambda=0.0, lr=0.1, epochs=1)
    # gradient at zero weights: (sigma(0) - y) * x = -x/2; bias likewise -1/2
    np.testing.assert_allclose(model.weights, [0.1, 0.15], rtol=1e-12)
    assert model.bias == pytest.approx(0.05)


def test_lr_loss_nonincreasing_on_fixture():
    rng = Rng(5)
    docs = [["a", "b"], ["b", "c"], ["a"], ["c", "c"], ["a", "c"], ["b"]]
    model_tfidf = fit_tfidf(docs)
    vectors = Csr.from_rows(transform_all(docs, model_tfidf), model_tfidf.n_features)
    labels01 = [1, 0, 1, 0, 0, 1]
    model = train_lr(vectors, labels01, l2_lambda=1e-3, lr=0.1, epochs=300)
    history = model.loss_history
    assert len(history) > 1
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_lr_gradient_matches_finite_differences():
    rng = Rng(11)
    docs = [["a", "b"], ["b"], ["a", "c"], ["c"]]
    tfidf = fit_tfidf(docs)
    X = Csr.from_rows(transform_all(docs, tfidf), tfidf.n_features)
    y = np.asarray([1.0, -1.0, 1.0, -1.0])
    lam = 1e-2
    h = 1e-5
    for _ in range(10):
        w = np.asarray([rng.uniform(-2, 2) for _ in range(tfidf.n_features)])
        b = rng.uniform(-1, 1)
        _, grad_w, grad_b = lr_loss_grad(X, y, w, b, lam)
        for idx in range(tfidf.n_features):
            w_plus, w_minus = w.copy(), w.copy()
            w_plus[idx] += h
            w_minus[idx] -= h
            numeric = (lr_loss_grad(X, y, w_plus, b, lam)[0]
                       - lr_loss_grad(X, y, w_minus, b, lam)[0]) / (2 * h)
            rel = abs(numeric - grad_w[idx]) / max(abs(numeric), abs(grad_w[idx]), 1e-12)
            assert rel < 1e-6
        numeric_b = (lr_loss_grad(X, y, w, b + h, lam)[0]
                     - lr_loss_grad(X, y, w, b - h, lam)[0]) / (2 * h)
        assert abs(numeric_b - grad_b) / max(abs(numeric_b), abs(grad_b), 1e-12) < 1e-6


def test_lr_nonfinite_loss_reports_iteration():
    with pytest.raises(TrainingError, match="learning rate"):
        train_lr(csr([[1.0]]), [1], lr=0.0)


def test_predict_lr_hand_cases():
    model = lm.LogisticRegressionModel(weights=[0.0, 0.0], bias=0.0, l2_lambda=0.0)
    (label,), (p,) = predict_lr(sv([1.0, 1.0]), model)
    assert p == pytest.approx(0.5)
    assert label is B  # threshold rule assigns the positive class at exactly 0.5
    model_b = lm.LogisticRegressionModel(weights=[0.0, 0.0], bias=10.0, l2_lambda=0.0)
    assert predict_lr(sv([0.0, 0.0]), model_b)[1][0] > 0.9999
    model_w = lm.LogisticRegressionModel(weights=[2.0, -2.0], bias=0.0, l2_lambda=0.0)
    assert predict_lr(sv([1.0, 1.0]), model_w)[1][0] == pytest.approx(0.5)


# ----------------------------------------------------------------------------
# linear SVM
# ----------------------------------------------------------------------------

def test_svm_separable_positive_margins():
    dense, labels01 = separable_toy()
    signed = [1 if y == 1 else -1 for y in labels01]
    model = train_svm(rows(dense), signed, reg_lambda=1e-2, epochs=200, seed=42, n_features=2)
    for score, y in zip(np.asarray(dense) @ model.weights, signed):
        assert y * (score + model.bias) > 0.0


def test_svm_single_example_hinge_to_zero():
    dense = [[1.0, 0.5]] * 4
    signed = [1] * 4
    model = train_svm(rows(dense), signed, reg_lambda=0.1, epochs=500, seed=1, n_features=2)
    hinge = max(0.0, 1.0 - (np.dot(dense[0], model.weights) + model.bias))
    assert hinge < 1e-2


def test_svm_deterministic_under_seed():
    dense, labels01 = separable_toy(5)
    vectors = rows(dense)
    signed = [1 if y == 1 else -1 for y in labels01]
    m1 = train_svm(vectors, signed, reg_lambda=1e-2, epochs=50, seed=9, n_features=2)
    m2 = train_svm(vectors, signed, reg_lambda=1e-2, epochs=50, seed=9, n_features=2)
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias
    m3 = train_svm(vectors, signed, reg_lambda=1e-2, epochs=50, seed=10, n_features=2)
    assert not np.array_equal(m1.weights, m3.weights)


def svm_objective(
    X: list,
    labels_signed: list[int],
    weights,
    bias: float,
    reg_lambda: float,
) -> float:
    """(lambda/2)||w||^2 + mean hinge loss: the objective Pegasos minimizes."""
    hinge = 0.0
    for (ids, values), y in zip(X, labels_signed):
        score = sum(x * weights[i] for i, x in zip(ids, values))
        hinge += max(0.0, 1.0 - y * (score + bias))
    return 0.5 * reg_lambda * float(np.dot(weights, weights)) + hinge / len(X)


def test_svm_objective_decreases_from_init():
    rng = Rng(3)
    docs = [["a", "b"], ["b"], ["a", "c"], ["c"], ["a"], ["b", "c"]]
    tfidf = fit_tfidf(docs)
    vectors = transform_all(docs, tfidf)
    signed = [1, -1, 1, -1, 1, -1]
    lam = 1e-2
    initial = svm_objective(vectors, signed, np.zeros(tfidf.n_features), 0.0, lam)
    model = train_svm(vectors, signed, reg_lambda=lam, epochs=200, seed=42,
                      n_features=tfidf.n_features)
    final = svm_objective(vectors, signed, model.weights, model.bias, lam)
    assert initial == pytest.approx(1.0)
    assert final < initial


def test_svm_invalid_lambda():
    with pytest.raises(TrainingError, match="reg_lambda"):
        train_svm(sv([1.0]), [1], reg_lambda=0.0, n_features=1)


@pytest.mark.parametrize("reg_lambda", [1e-320, 5e-324])
def test_svm_non_finite_weights_refused(reg_lambda):
    # 1/(lambda*t) overflows to inf at t = 1, so the first step makes the scale -inf
    with pytest.raises(TrainingError, match=f"non-finite .* reg_lambda {reg_lambda}"):
        train_svm(rows([[0.5, 0.25], [0.0, 1.0]]), [1, -1], reg_lambda=reg_lambda, epochs=2,
                  n_features=2)


@pytest.mark.parametrize("reg_lambda", [1e-300, 1e-20])
def test_svm_huge_weights_refused(reg_lambda):
    # the first step is 1/lambda: finite, but far above any usable weight
    with pytest.raises(TrainingError, match=f"above 1e\\+12 in magnitude at reg_lambda {reg_lambda}$"):
        train_svm(rows([[0.5, 0.25], [0.0, 1.0]]), [1, -1], reg_lambda=reg_lambda, epochs=2,
                  n_features=2)


def test_svm_weights_at_the_default_grid_stay_far_below_the_bound(bundled_folds):
    for reg_lambda in DEFAULT_GRIDS["svm"]["reg_lambda"]:
        for fold in bundled_folds:
            model = train_svm(fold.train, [1 if lab is B else -1 for lab in fold.train_labels],
                              reg_lambda=reg_lambda, n_features=fold.n_features)
            assert max(np.abs(model.weights).max(), abs(model.bias)) < SVM_MAX_MAGNITUDE * 1e-6


@pytest.mark.parametrize("train", [
    lambda dense, y, epochs: train_svm(rows(dense), [1 if v else -1 for v in y], epochs=epochs,
                                       n_features=1),
    lambda dense, y, epochs: train_lr(csr(dense), y, epochs=epochs),
], ids=["svm", "lr"])
@pytest.mark.parametrize("epochs", [0, -3])
def test_epochs_below_1_rejected(train, epochs):
    with pytest.raises(TrainingError, match="epochs must be at least 1"):
        train([[1.0]], [1], epochs)


def pegasos_oracle(X, n_features, labels_signed, reg_lambda, epochs, seed):
    """Pegasos with a dense weight vector that every step shrinks: O(V) a step."""
    rng = Rng(seed)
    weights = np.zeros(n_features, dtype=np.float64)
    bias = 0.0
    t = 0
    order = list(range(len(X)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            t += 1
            eta = 1.0 / (reg_lambda * t)
            indices, values = X[idx]
            y = labels_signed[idx]
            margin = y * (float(sum(v * weights[i] for i, v in zip(indices, values))) + bias)
            weights *= 1.0 - eta * reg_lambda
            if margin < 1.0:
                for i, v in zip(indices, values):
                    weights[i] += eta * y * v
                bias += eta * y
    return weights, bias


def assert_matches_pegasos_oracle(X, n_features, signed, reg_lambda, epochs, seed):
    model = train_svm(X, signed, reg_lambda=reg_lambda, epochs=epochs, seed=seed,
                      n_features=n_features)
    weights, bias = pegasos_oracle(X, n_features, signed, reg_lambda, epochs, seed)
    largest = max(np.abs(weights).max(initial=0.0), abs(bias))
    assert np.abs(model.weights - weights).max(initial=0.0) <= 1e-12 * largest
    assert abs(model.bias - bias) <= 1e-12 * largest
    oracle = lm.LinearSvmModel(weights=weights.tolist(), bias=bias, reg_lambda=reg_lambda)
    assert predict_svm(X, model)[0] == predict_svm(X, oracle)[0]
    return model, weights


def random_svm_case(case):
    """(rows, n_features, signed labels, reg_lambda, epochs, seed) of a small
    random problem."""
    gen = np.random.default_rng(case)
    n, n_features = int(gen.integers(1, 13)), int(gen.integers(1, 9))
    rows = [{int(i): float(gen.uniform(0.05, 1.0))
             for i in gen.choice(n_features, int(gen.integers(0, n_features + 1)), replace=False)}
            for _ in range(n)]
    signed = [int(s) for s in gen.choice([-1, 1], n)]
    reg_lambda = float(gen.choice([1e-4, 1e-3, 1e-2, 0.013, 0.1, 1.0]))
    return (py_rows(rows), n_features, signed, reg_lambda,
            int(gen.integers(1, 41)), int(gen.integers(0, 2**32)))


@pytest.mark.parametrize("case", range(40))
def test_svm_matches_dense_pegasos_oracle(case):
    assert_matches_pegasos_oracle(*random_svm_case(case))


@pytest.mark.parametrize("reg_lambda", [0.01, 0.013])
def test_svm_first_step_scale_collapse(reg_lambda):
    # 1 - eta*lambda at t = 1 is exactly 0 for 0.01 and one ulp for 0.013: the
    # scale is folded into the weights before the first hinge step divides by it
    assert 1.0 - (1.0 / reg_lambda) * reg_lambda == (0.0 if reg_lambda == 0.01 else 2.0**-53)
    X = rows([[0.5, 0.0, 0.25]])
    model, weights = assert_matches_pegasos_oracle(X, 3, [1], reg_lambda, 1, 0)
    assert np.asarray(model.weights).tobytes() == weights.tobytes()
    assert_matches_pegasos_oracle(rows([[0.5, 0.0, 0.25], [0.0, 1.0, 0.5]]), 3, [1, -1],
                                  reg_lambda, 30, 4)


def pegasos_reference(X, n_features, labels_signed, reg_lambda, epochs, seed):
    """Scaled Pegasos with train_svm's arithmetic in its order, but each
    epoch's order from the scalar Rng.shuffle of one list and each row as
    separate index and value lists: train_svm must match it bit for bit."""
    v = [0.0] * n_features
    scale = 1.0
    bias = 0.0
    t = 0
    rng = Rng(seed)
    order = list(range(len(X)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            t += 1
            eta = 1.0 / (reg_lambda * t)
            indices, values = X[idx]
            y = labels_signed[idx]
            dot = 0.0
            for i, x in zip(indices, values):
                dot += x * v[i]
            margin = y * (scale * dot + bias)
            scale *= 1.0 - eta * reg_lambda
            if scale < 1e-9:
                v = [scale * w for w in v]
                scale = 1.0
            if margin < 1.0:
                step = eta * y / scale
                for i, x in zip(indices, values):
                    v[i] += step * x
                bias += eta * y
    return scale * np.asarray(v), bias


def assert_bit_identical_to_reference(X, n_features, signed, reg_lambda, epochs, seed):
    model = train_svm(X, signed, reg_lambda=reg_lambda, epochs=epochs, seed=seed,
                      n_features=n_features)
    weights, bias = pegasos_reference(X, n_features, signed, reg_lambda, epochs, seed)
    assert np.asarray(model.weights).tobytes() == weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


@pytest.mark.parametrize("case", range(40))
def test_svm_bit_identical_to_reference_random(case):
    assert_bit_identical_to_reference(*random_svm_case(case))


@pytest.mark.parametrize("reg_lambda", [0.01, 0.013])
def test_svm_bit_identical_to_reference_scale_collapse(reg_lambda):
    assert_bit_identical_to_reference(rows([[0.5, 0.0, 0.25]]), 3, [1], reg_lambda, 1, 0)
    assert_bit_identical_to_reference(rows([[0.5, 0.0, 0.25], [0.0, 1.0, 0.5]]), 3, [1, -1],
                                      reg_lambda, 30, 4)


@pytest.fixture(scope="module")
def bundled_folds(synthetic_corpus_path, default_lexicon, default_rules):
    """The bundled corpus in 5 stratified folds of equal size, featurized."""
    records = load_corpus(synthetic_corpus_path)
    tokens = preprocess_corpus([r.text for r in records], PipelineConfig(),
                               default_lexicon, default_rules)
    return featurize_folds(tokens, [r.label for r in records], 5, 42)


@pytest.mark.parametrize("reg_lambda", DEFAULT_GRIDS["svm"]["reg_lambda"])
def test_svm_bit_identical_to_reference_on_bundled_folds(bundled_folds, reg_lambda):
    for fold in bundled_folds:
        signed = [1 if lab is B else -1 for lab in fold.train_labels]
        assert_bit_identical_to_reference(fold.train, fold.n_features, signed, reg_lambda,
                                          200, 42)


def scales_reference(reg_lambda, steps):
    """The scale of each step before its collapse check, a step at a time."""
    scale, scales = 1.0, []
    for t in range(1, steps + 1):
        scale *= 1.0 - 1.0 / (reg_lambda * t) * reg_lambda
        scales.append(scale)
        if scale < 1e-9:
            scale = 1.0
    return np.array(scales)


@pytest.mark.parametrize("reg_lambda", [1e-4, 0.013, 1.0, 1e308, math.inf, 1e-320, 5e-324])
def test_svm_scales_bit_identical_to_a_step_at_a_time(reg_lambda):
    # 1e308 leaves the scale at 1.0 from t = 2 on without a collapse; inf makes it NaN;
    # 1e-320 and 5e-324 collapse at every step, across the bulk runs' boundaries
    lm._svm_scales.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would reach stderr
        scales = lm._svm_scales(reg_lambda, 2500)
    assert scales.tobytes() == scales_reference(reg_lambda, 2500).tobytes()
    assert not scales.flags.writeable


@pytest.mark.parametrize("reg_lambda", [1e-6, 1.0])
def test_svm_bit_identical_to_reference_rare_and_frequent_hinge_steps(reg_lambda):
    # 1e-6 on a separable set: long runs of steps that change nothing, so most
    # dots are reused; 1: a hinge step, and a changed weight, every few steps
    dense, labels01 = separable_toy(7)
    dense = [[x + 0.1 * (k % 3), y] for k, (x, y) in enumerate(dense)]
    signed = [1 if y == 1 else -1 for y in labels01]
    assert_bit_identical_to_reference(rows(dense), 2, signed, reg_lambda, 300, 5)


def test_svm_bit_identical_to_reference_empty_and_duplicate_rows():
    X = py_rows([{}, {0: 0.5, 2: 0.25}, {}, {0: 0.5, 2: 0.25}, {1: 1.0}, {1: 1.0}, {2: 0.75}])
    for signed in ([1, 1, -1, 1, -1, -1, 1], [-1, -1, -1, 1, 1, 1, -1]):
        for reg_lambda in (1e-3, 0.013, 0.5):
            assert_bit_identical_to_reference(X, 4, signed, reg_lambda, 40, 11)


def test_svm_bit_identical_to_reference_with_more_keys_than_the_cache_holds():
    X = py_rows([{0: 0.5, 2: 0.25}, {1: 1.0}, {0: 0.25, 1: 0.5}, {2: 1.0}, {}])
    signed = [1, -1, 1, -1, 1]
    lm._svm_scales.cache_clear()
    keys = [(reg_lambda, epochs) for epochs in (30, 31) for reg_lambda in (1e-3, 1e-2, 0.1)]
    for reg_lambda, epochs in keys + keys:  # each key evicted before it comes back
        assert_bit_identical_to_reference(X, 3, signed, reg_lambda, epochs, 2)
    info = lm._svm_scales.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (12, 0, 2)


def test_svm_grid_over_unequal_folds_bit_identical_to_reference(
        synthetic_corpus_path, default_lexicon, default_rules, monkeypatch):
    records = load_corpus(synthetic_corpus_path)[:161]
    tokens = preprocess_corpus([r.text for r in records], PipelineConfig(),
                               default_lexicon, default_rules)
    folds = featurize_folds(tokens, [r.label for r in records], 5, 42)
    assert sorted({len(fold.train) for fold in folds}) == [128, 129]
    trained = []
    real = lm.train_svm
    monkeypatch.setattr(lm, "train_svm", lambda X, y, **kw: trained.append(
        (X, y, kw, real(X, y, **kw))) or trained[-1][-1])
    lm._svm_scales.cache_clear()
    grid_search("svm", DEFAULT_GRIDS["svm"], folds, 42)
    info = lm._svm_scales.cache_info()
    assert (info.misses, info.hits) == (6, 9)  # each candidate's two training sizes
    assert len(trained) == 15
    for X, signed, kw, model in trained:
        weights, bias = pegasos_reference(X, kw["n_features"], signed, kw["reg_lambda"],
                                          200, kw["seed"])
        assert np.asarray(model.weights).tobytes() == weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


def test_grid_search_draws_the_epoch_orders_once(bundled_folds):
    assert len({len(fold.train) for fold in bundled_folds}) == 1
    lm._epoch_orders.cache_clear()
    grid_search("svm", DEFAULT_GRIDS["svm"], bundled_folds, 42)
    info = lm._epoch_orders.cache_info()
    assert (info.misses, info.hits) == (1, 14)


def test_grid_search_builds_each_folds_training_csr_once(bundled_folds, monkeypatch):
    folds = [FeaturizedFold(fold.train, fold.train_labels, fold.test, fold.test_labels,
                            fold.n_features) for fold in bundled_folds]  # none has its Csr cached yet
    built = []
    from_rows = Csr.from_rows
    monkeypatch.setattr(Csr, "from_rows", lambda rows, n: built.append(n) or from_rows(rows, n))
    for family in ("nb", "lr"):
        grid_search(family, DEFAULT_GRIDS[family], folds, 42)
    assert built == [fold.n_features for fold in folds]


def test_predict_svm_tie_and_scaling():
    model = lm.LinearSvmModel(weights=[0.0, 0.0], bias=0.0, reg_lambda=1e-2)
    (label,), (score,) = predict_svm(sv([1.0, 1.0]), model)
    assert score == 0.0 and label is B  # documented tie rule
    model2 = lm.LinearSvmModel(weights=[1.0, -2.0], bias=0.5, reg_lambda=1e-2)
    assert predict_svm(sv([3.0, 1.0]), model2)[1][0] == pytest.approx(1.5)
    for k in (0.5, 2.0, 10.0):
        base = predict_svm(sv([3.0, 1.0]), model2)[0][0]
        assert predict_svm(sv([3.0 * k, 1.0 * k]), model2)[0][0] is base


# ----------------------------------------------------------------------------
# the one scorer against the numpy scorer it replaced
# ----------------------------------------------------------------------------

def random_scoring_case(case):
    """(rows, n_features, weights, bias, log_prior, log_likelihood): empty,
    single-entry and 1-40-entry rows over a vocabulary of up to 3,000."""
    gen = np.random.default_rng(1000 + case)
    n_features = int(gen.integers(1, 3001))
    lengths = [0, 1, 0, 1] + gen.integers(1, 41, size=396).tolist()
    rows = []
    for k in lengths:
        ids = np.sort(gen.choice(n_features, min(k, n_features), replace=False)).tolist()
        scale = 1.0 if case % 2 else 10.0  # L2-normalized or raw tf-idf magnitudes
        rows.append((ids, (scale * gen.uniform(0.01, 1.0, len(ids))).tolist()))
    # the classes' log likelihoods close together, so posteriors spread over (0.5, 1)
    ll = gen.uniform(-12.0, -1.0, n_features) + gen.normal(0.0, 0.1, (2, n_features))
    return (rows, n_features, gen.normal(0.0, 3.0, n_features), float(gen.normal()),
            np.log([0.4, 0.6]), ll)


def numpy_scores(X: Csr, weights, bias, log_prior, log_likelihood):
    """The numpy scorer's margins and NB log scores: bincount mat-vec and np.add.at."""
    margins = np.bincount(X.row_of_nnz, X.data * weights[X.indices], minlength=len(X)) + bias
    nb = np.tile(log_prior, (len(X), 1))
    np.add.at(nb, X.row_of_nnz, X.data[:, None] * log_likelihood[:, X.indices].T)
    return margins, nb


def exp_score_mismatches() -> dict[str, int]:
    """Rows, of 3,200, whose LR probability or NB posterior from math.exp
    differ from the numpy scorer's np.exp formulas; the labels and every sum
    must not."""
    mismatches = {family: 0 for family in CLASSICAL_FAMILIES}
    for case in range(8):
        X_rows, n_features, w, bias, log_prior, ll = random_scoring_case(case)
        margins, nb = numpy_scores(Csr.from_rows(X_rows, n_features), w, bias, log_prior, ll)
        models = {
            "nb": lm.NaiveBayesModel(log_prior.tolist(), ll.tolist(), alpha=1.0),
            "lr": lm.LogisticRegressionModel(w.tolist(), bias, l2_lambda=0.0),
            "svm": lm.LinearSvmModel(w.tolist(), bias, reg_lambda=1e-3),
        }
        assert predict_svm(X_rows, models["svm"])[1] == margins.tolist()
        assert nb_log_scores(X_rows, models["nb"]) == nb.tolist()
        p_old = 1.0 / (1.0 + np.exp(-np.clip(margins, -500.0, 500.0)))
        shifted = np.exp(nb - nb.max(axis=1, keepdims=True))
        threshold = 0.3 + 0.05 * case
        old = {
            "nb": ([CLASS_ORDER[c] for c in np.argmax(nb, axis=1).tolist()],
                   (shifted.max(axis=1) / shifted.sum(axis=1)).tolist()),
            "lr": ([B if q >= threshold else N for q in p_old.tolist()], p_old.tolist()),
            "svm": ([B if z >= 0.0 else N for z in margins.tolist()], margins.tolist()),
        }
        for family in CLASSICAL_FAMILIES:
            labels, scores = predict_family(family, models[family], X_rows, threshold)
            assert labels == old[family][0]
            assert len(scores) == len(X_rows)
            for new, was in zip(scores, old[family][1]):
                assert abs(new - was) <= 2 * math.ulp(was)
                mismatches[family] += new != was
    assert mismatches.pop("svm") == 0
    return mismatches


def test_one_scorer_matches_the_numpy_scorer():
    """Margins and NB log scores bit for bit, labels equal; the probabilities
    may differ by up to 2 ulp where math.exp and np.exp round apart."""
    exp_score_mismatches()


# ----------------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------------

def token_corpus(n_half=10):
    tokens, labels = [], []
    for i in range(n_half):
        tokens.append(["jelek", "banget", f"x{i % 3}"])
        labels.append(B)
        tokens.append(["keren", "bagus", f"x{i % 3}"])
        labels.append(N)
    return tokens, labels


def test_expand_grid_order():
    grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                    {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]
    with pytest.raises(TrainingError):
        expand_grid({})


def test_grid_single_candidate():
    tokens, labels = token_corpus()
    result = grid_search("nb", {"alpha": [1.0]}, featurize_folds(tokens, labels, 2, 42), 42)
    assert result.best_params == {"alpha": 1.0}
    assert len(result.per_candidate) == 1


def test_grid_degenerate_candidate_loses():
    # class imbalance makes the over-regularized candidate collapse to
    # one-class predictions, so the sane candidate must win
    tokens, labels = token_corpus(12)
    tokens, labels = tokens[:20] + tokens[20::2], labels[:20] + labels[20::2]
    result = grid_search(
        "lr", {"l2_lambda": [1e6, 1e-3]}, featurize_folds(tokens, labels, 2, 42), 42,
    )
    assert result.best_params == {"l2_lambda": 1e-3}
    assert result.best_score > max(
        sum(scores) / len(scores)
        for params, scores in result.per_candidate if params["l2_lambda"] == 1e6
    )


def test_grid_fold_score_counts():
    tokens, labels = token_corpus()
    k = 3
    result = grid_search(
        "svm", {"reg_lambda": [1e-3, 1e-2]}, featurize_folds(tokens, labels, k, 1), 1,
    )
    assert all(len(scores) == k for _, scores in result.per_candidate)
    means = [sum(s) / len(s) for _, s in result.per_candidate]
    assert result.best_score == pytest.approx(max(means))


def test_grid_tie_keeps_earliest():
    tokens, labels = token_corpus()
    result = grid_search(
        "nb", {"alpha": [1.0, 1.0 + 1e-15]}, featurize_folds(tokens, labels, 2, 42), 42,
    )
    assert result.best_params == {"alpha": 1.0}


def test_grid_unknown_family_or_objective(monkeypatch):
    tokens, labels = token_corpus()
    folds = featurize_folds(tokens, labels, 2, 1)
    with pytest.raises(TrainingError, match="unknown model family"):
        grid_search("forest", {"x": [1]}, folds, seed=1)
    trained = []
    for name in ("train_nb", "_train_lr_stack", "train_svm"):
        def spy(*args, name=name, real=getattr(lm, name), **kwargs):
            trained.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(lm, name, spy)
    for family, grid in (("nb", {"alpha": [0.5, 1.0]}), ("lr", {"l2_lambda": [1e-3]}),
                         ("svm", {"reg_lambda": [1e-3]})):
        with pytest.raises(TrainingError, match="unknown objective"):
            grid_search(family, grid, folds, seed=1, objective="roc_auc")
    assert trained == []  # refused before any candidate trains


def test_grid_never_fits_on_test_fold(monkeypatch):
    tokens, labels = token_corpus(8)
    sentinel = "sentineltoken"
    tokens[0] = tokens[0] + [sentinel]  # appears in exactly one document
    k, seed = 2, 42
    calls = []
    real_fit = lm.fit_tfidf

    def spy(token_lists, config=None):
        model = real_fit(token_lists, config)
        calls.append((token_lists, model))
        return model

    monkeypatch.setattr(lm, "fit_tfidf", spy)
    grid_search("nb", {"alpha": [0.5, 1.0]}, featurize_folds(tokens, labels, k, seed), seed)
    assert len(calls) == k  # one fit per fold, shared by both candidates
    folds = kfold_split(labels, k, seed)
    for call_idx, (fitted_docs, model) in enumerate(calls):
        train_idx, test_idx = folds[call_idx % k]
        assert len(fitted_docs) == len(train_idx)
        sentinel_in_train = 0 in train_idx
        assert (sentinel in model.vocabulary.token_to_id) == sentinel_in_train
        if not sentinel_in_train:
            assert 0 in test_idx  # the sentinel document was held out, not fitted
