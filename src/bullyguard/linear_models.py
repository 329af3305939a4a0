"""Classical classifiers on TF-IDF vectors: multinomial NB, logistic
regression, and a primal (Pegasos-style) linear SVM, plus grid-search tuning.

Conventions shared by all three model families:
  * the positive class is Bullying (class id 0 in CLASS_ORDER); the binary
    encodings are y=1 / y=+1 for Bullying and y=0 / y=-1 for Non-bullying;
  * score ties break toward the class with the lower id (Bullying);
  * training is deterministic: logistic regression is full-batch, the SVM
    shuffles with the pinned PRNG under its seed;
  * models hold Python lists, and scoring sums each TF-IDF row's terms in
    entry order in plain Python, so predict never loads numpy; NB and LR
    train over a Csr built from the rows, importing numpy where they use it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .base import CLASS_ORDER, DEFAULT_SEED, Label, keyword_defaults
from .features import Row, TfidfConfig, fit_tfidf, transform_all

if TYPE_CHECKING:
    import numpy as np


class TrainingError(Exception):
    """Invalid training request or diverged optimization."""


CLASSICAL_FAMILIES = ("nb", "lr", "svm")  # the study's TF-IDF models

# The study's tuning defaults: the cross-validation folds, each family's
# grid, and the objective grid_search selects by.
DEFAULT_FOLDS = 5
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "nb": {"alpha": [0.1, 0.5, 1.0, 2.0]},
    "lr": {"l2_lambda": [1e-4, 1e-3, 1e-2]},
    "svm": {"reg_lambda": [1e-4, 1e-3, 1e-2]},
}
DEFAULT_OBJECTIVE = "f1_weighted"
# The scores (metrics.SCORES names) grid_search can select by.
OBJECTIVES = ("f1_weighted", "f1_macro", "accuracy")


class Csr:
    """Compressed sparse rows for the NB and LR trainers: row r holds
    data[indptr[r]:indptr[r + 1]] at the columns indices[indptr[r]:indptr[r + 1]],
    which strictly increase.

    Both mat-vecs sum each output in entry order starting from 0.0, so their
    results do not depend on how many rows are multiplied together.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 n_features: int):
        if len(indices) != len(data):
            raise ValueError("indices and data must have equal length")
        self.indptr = indptr    # int64, n_rows + 1 offsets into indices and data
        self.indices = indices  # int64 column ids
        self.data = data        # float64 non-zero values
        self.n_features = n_features

    @classmethod
    def from_rows(cls, rows: list[Row], n_features: int) -> Csr:
        import numpy as np
        return cls(np.cumsum([0] + [len(ids) for ids, _ in rows], dtype=np.int64),
                   np.asarray([i for ids, _ in rows for i in ids], dtype=np.int64),
                   np.asarray([v for _, values in rows for v in values], dtype=np.float64),
                   n_features)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @functools.cached_property
    def row_of_nnz(self) -> np.ndarray:
        import numpy as np
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        import numpy as np
        return np.bincount(self.row_of_nnz, self.data * w[self.indices], minlength=len(self))

    def rmatvec(self, c: np.ndarray) -> np.ndarray:
        """X.T @ c."""
        import numpy as np
        return np.bincount(self.indices, self.data * c[self.row_of_nnz],
                           minlength=self.n_features)


# ----------------------------------------------------------------------------
# multinomial Naive Bayes
# ----------------------------------------------------------------------------

class NaiveBayesModel(NamedTuple):
    log_prior: list[float]             # 2 values, indexed by class id
    log_likelihood: list[list[float]]  # 2 rows of V values
    alpha: float


def train_nb(X: Csr, labels: list[Label], alpha: float = 1.0) -> NaiveBayesModel:
    """Multinomial NB over (possibly fractional) TF-IDF term masses.

    log_likelihood[c][t] = ln((alpha + m_ct) / (alpha*V + m_c)) where m_ct is
    the total mass of term t in class c and m_c its row sum, so each class's
    likelihoods exponentiate to a proper distribution over the vocabulary.
    """
    import numpy as np
    if len(X) != len(labels):
        raise TrainingError("rows and labels must align")
    if alpha <= 0:
        raise TrainingError(f"alpha must be positive, got {alpha}")
    if X.n_features == 0:
        raise TrainingError("cannot train on an empty feature space")
    class_ids = np.asarray([label.index for label in labels], dtype=np.int64)
    counts = np.bincount(class_ids, minlength=2)
    for label in CLASS_ORDER:
        if counts[label.index] == 0:
            raise TrainingError(f"class {label.value} has no training documents")
    mass = np.zeros((2, X.n_features), dtype=np.float64)
    np.add.at(mass, (class_ids[X.row_of_nnz], X.indices), X.data)  # in entry order
    total = mass.sum(axis=1, keepdims=True)
    log_likelihood = np.log(alpha + mass) - np.log(alpha * X.n_features + total)
    log_prior = np.log(counts.astype(np.float64) / len(X))
    return NaiveBayesModel(log_prior=log_prior.tolist(), log_likelihood=log_likelihood.tolist(),
                           alpha=alpha)


def nb_log_scores(X: list[Row], model: NaiveBayesModel) -> list[list[float]]:
    """Class log scores per row: the log prior plus each term's weighted log
    likelihood, added in entry order."""
    ll_b, ll_n = model.log_likelihood
    scores = []
    for ids, values in X:
        s_b, s_n = model.log_prior
        for i, x in zip(ids, values):
            s_b += x * ll_b[i]
            s_n += x * ll_n[i]
        scores.append([s_b, s_n])
    return scores


def predict_nb(X: list[Row], model: NaiveBayesModel) -> tuple[list[Label], list[list[float]]]:
    """The higher log score's class per row, and the log scores."""
    scores = nb_log_scores(X, model)
    return [CLASS_ORDER[0] if s_b >= s_n else CLASS_ORDER[1] for s_b, s_n in scores], scores


# ----------------------------------------------------------------------------
# logistic regression (full-batch gradient descent)
# ----------------------------------------------------------------------------

class LogisticRegressionModel(NamedTuple):
    weights: list[float]
    bias: float
    l2_lambda: float
    loss_history: list[float] | tuple = ()  # per iteration; () when read from an artifact


def _lr_stack(Xs: list[Csr], ys: list, lambdas: list[float]):
    """LR problems as one block-diagonal Csr: problem p's rows and columns
    follow those of the problems before it, and its bias is the column after
    its weights, a 1 that ends each of its rows. Returns each problem's first
    column and column count, and loss_grad(W): each problem's objective and
    the gradient in W's layout. Every sum keeps the order of a problem alone:
    the mat-vecs add in entry order, and each run of problems with equal row
    count sums its rows pairwise as one (problems, rows) block."""
    import numpy as np
    sizes, counts = [X.n_features + 1 for X in Xs], [len(X) for X in Xs]
    starts = np.cumsum([0] + sizes[:-1])
    spans = list(zip(starts.tolist(), (starts + sizes - 1).tolist()))  # weights, then bias
    S = Csr(np.concatenate([[0]] + [np.diff(X.indptr) + 1 for X in Xs]).cumsum(),
            np.concatenate([np.insert(X.indices + a, X.indptr[1:], b)
                            for X, (a, b) in zip(Xs, spans)]),
            np.concatenate([np.insert(X.data, X.indptr[1:], 1.0) for X in Xs]), sum(sizes))
    y, n_of_row = np.concatenate(ys), np.repeat(counts, counts)
    lambda_of_col = np.repeat(lambdas, sizes)
    runs = [(len(list(run)), n) for n, run in itertools.groupby(counts)]
    ends = np.cumsum([0] + [k * n for k, n in runs]).tolist()
    blocks, bias_cols = list(zip(ends, ends[1:], runs)), [b for _, b in spans]

    def loss_grad(W):
        margins = y * S.matvec(W)
        # d/dz log(1+exp(-m)) = -y * sigmoid(-m)
        coef = -y * (1.0 / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))) / n_of_row
        grad = S.rmatvec(coef) + lambda_of_col * W
        grad[bias_cols] = np.concatenate([coef[a:b].reshape(k, n).sum(axis=1)
                                          for a, b, (k, n) in blocks])
        per_row, half = np.logaddexp(0.0, -margins), 0.5 * lambda_of_col * W
        return (np.concatenate([per_row[a:b].reshape(k, n).sum(axis=1) / n
                                for a, b, (k, n) in blocks])
                + [half[a:b] @ W[a:b] for a, b in spans]), grad
    return starts, sizes, loss_grad


def train_lr(
    X: Csr,
    labels01: list[int],
    l2_lambda: float = 1e-3,
    lr: float = 0.1,
    epochs: int = 500,
    grad_tol: float = 1e-6,
) -> LogisticRegressionModel:
    """Full-batch gradient descent from zero weights.

    Runs exactly `epochs` iterations or stops early once the gradient's
    infinity norm falls below grad_tol. The step size is capped at 1/lambda,
    which keeps descent monotone for arbitrarily strong regularization
    (grid searches deliberately probe degenerate lambdas).
    """
    return _train_lr_stack([(X, labels01, l2_lambda, lr, epochs, grad_tol)])[0]


def _train_lr_stack(problems: list[tuple]) -> list[LogisticRegressionModel]:
    """train_lr on each of one or more (X, labels01, l2_lambda, lr, epochs,
    grad_tol) problems, all in one stacked descent. A problem's weights
    freeze when it converges, reaches its epochs or hits a non-finite loss.
    Raises the TrainingError that training them one by one, in order, would
    raise first, and no problem after a failed one trains on.
    """
    import numpy as np
    failures: dict[int, TrainingError] = {}  # problem index -> its error
    for p, (_, _, l2_lambda, lr, epochs, _) in enumerate(problems):
        if lr <= 0 or epochs < 1 or l2_lambda < 0:
            failures[p] = TrainingError(
                f"learning rate must be positive, got {lr}" if lr <= 0
                else f"epochs must be at least 1, got {epochs}" if epochs < 1
                else f"l2_lambda must be non-negative, got {l2_lambda}")
            break
    order = sorted(range(min(failures, default=len(problems))),
                   key=lambda p: len(problems[p][0]))  # equal row counts together
    if not order:
        raise failures[0]
    Xs, labels, lambdas, lrs, epochs, tols = zip(*(problems[p] for p in order))
    starts, sizes, loss_grad = _lr_stack(
        Xs, [[1.0 if y == 1 else -1.0 for y in ys] for ys in labels], lambdas)
    step = np.repeat([min(lr, 1.0 / lam) if lam > 0 else lr
                      for lr, lam in zip(lrs, lambdas)], sizes)
    histories: dict[int, list[float]] = {p: [] for p in order}
    W, live, it = np.zeros(sum(sizes)), np.ones(len(order), dtype=bool), 0  # each bias last
    while live.any():
        losses, grad = loss_grad(W)
        finite = np.isfinite(losses)
        for p, loss, alive, ok in zip(order, losses.tolist(), live.tolist(), finite.tolist()):
            if alive and not ok:
                failures[p] = TrainingError(f"non-finite loss at iteration {it}")
            elif alive:
                histories[p].append(loss)
        live &= (finite & ~(np.maximum.reduceat(np.abs(grad), starts) < tols)
                 & (np.asarray(order) < min(failures, default=len(problems))))
        W, it = np.where(np.repeat(live, sizes), W - step * grad, W), it + 1
        live &= np.asarray(epochs) > it
    if failures:
        raise failures[min(failures)]
    return [LogisticRegressionModel(weights=w[:-1].tolist(), bias=float(w[-1]),
                                    l2_lambda=problems[p][2], loss_history=histories[p])
            for p, w in sorted(zip(order, np.split(W, starts[1:])), key=lambda pw: pw[0])]


def _margins(X: list[Row], weights: list[float], bias: float) -> list[float]:
    """w.x + b per row, the row summed in entry order from 0.0."""
    margins = []
    for ids, values in X:
        dot = 0.0
        for i, x in zip(ids, values):
            dot += x * weights[i]
        margins.append(dot + bias)
    return margins


def predict_lr(
    X: list[Row],
    model: LogisticRegressionModel,
    threshold: float = 0.5,
) -> tuple[list[Label], list[float]]:
    """p = sigma(w.x + b) is the probability of the positive (Bullying) class."""
    p = [1.0 / (1.0 + math.exp(-min(max(z, -500.0), 500.0)))
         for z in _margins(X, model.weights, model.bias)]
    return [Label.BULLYING if q >= threshold else Label.NON_BULLYING for q in p], p


# ----------------------------------------------------------------------------
# linear SVM (Pegasos stochastic subgradient)
# ----------------------------------------------------------------------------

class LinearSvmModel(NamedTuple):
    weights: list[float]
    bias: float
    reg_lambda: float


# train_svm refuses a weight or bias above this magnitude: a reg_lambda so
# small that Pegasos's first steps (eta = 1/(lambda t)) blow the model up.
SVM_MAX_MAGNITUDE = 1e12


@functools.lru_cache(maxsize=4)
def _epoch_orders(seed: int, n: int, epochs: int) -> np.ndarray:
    """train_svm's example order per epoch, read-only and shared by every
    training with the same seed, row count and epochs (a grid search's)."""
    from .rng import Rng
    return Rng(seed).permutations(n, epochs)


@functools.lru_cache(maxsize=2)
def _svm_scales(reg_lambda: float, steps: int) -> np.ndarray:
    """The scale train_svm's steps multiply out, before each collapse check, by the
    loop's IEEE operations in order (multiply.accumulate runs in sequence); read-only
    and shared by every training with the same reg_lambda and steps (a candidate's folds)."""
    import numpy as np
    with np.errstate(all="ignore"):  # train_svm refuses the weights an overflow gives
        factors = 1.0 - 1.0 / (reg_lambda * np.arange(1.0, steps + 1)) * reg_lambda
        scales, done, scale = np.empty(steps), 0, 1.0
        while done < steps:  # runs of at most 1,024 steps bound what a collapse recomputes
            run = np.multiply.accumulate(np.concatenate(([scale], factors[done:done + 1024])))[1:]
            low = np.flatnonzero(run < 1e-9)  # a collapse: the next step starts at 1.0
            n = int(low[0]) + 1 if len(low) else len(run)
            scales[done:done + n] = run[:n]
            done, scale = done + n, 1.0 if len(low) else run[-1]
    scales.flags.writeable = False
    return scales


def train_svm(
    X: list[Row],
    labels_signed: list[int],
    reg_lambda: float = 1e-3,
    epochs: int = 200,
    seed: int = DEFAULT_SEED,
    *,
    n_features: int,
) -> LinearSvmModel:
    """Pegasos: step size 1/(lambda*t), example order reshuffled per epoch
    with the pinned PRNG. The bias follows the subgradient without
    regularization shrinkage.

    The weights are kept as scale * v (Shalev-Shwartz et al. 2011), so the
    per-step shrinkage multiplies one scalar and each step costs O(nnz).
    A non-finite weight or bias (a reg_lambda so small that 1/lambda
    overflows), or one above SVM_MAX_MAGNITUDE, raises TrainingError.
    """
    if reg_lambda <= 0:
        raise TrainingError(f"reg_lambda must be positive, got {reg_lambda}")
    if epochs < 1:
        raise TrainingError(f"epochs must be at least 1, got {epochs}")
    if not len(X):
        raise TrainingError("cannot train on an empty dataset")
    n = len(X)
    # each step sums its row in Python, in entry order; a numpy dot would reorder it
    rows = [tuple(zip(ids, values)) for ids, values in X]
    ys = [float(y) for y in labels_signed]
    scales = _svm_scales(reg_lambda, n * epochs)
    v = [0.0] * n_features
    # dots[r] holds while changes, the count of hinge steps and collapses, is dot_at[r]
    dots, dot_at, changes = [0.0] * n, [-1] * n, 0
    scale = 1.0
    bias = 0.0
    t = 0
    for epoch, order in enumerate(_epoch_orders(seed, n, epochs)):
        for idx, scale_after in zip(order.tolist(), scales[epoch * n:(epoch + 1) * n].tolist()):
            t += 1
            if dot_at[idx] != changes:
                dot = 0.0
                for i, x in rows[idx]:
                    dot += x * v[i]
                dots[idx], dot_at[idx] = dot, changes
            y = ys[idx]
            margin = y * (scale * dots[idx] + bias)
            scale = scale_after
            if scale < 1e-9:  # the first step takes the scale to 0 or one ulp above it
                v = [scale * w for w in v]
                scale = 1.0
                changes += 1
            if margin < 1.0:
                eta = y / (reg_lambda * t)  # exactly 1/(lambda*t) times the +-1 label
                step = eta / scale
                for i, x in rows[idx]:
                    v[i] += step * x
                bias += eta
                changes += 1
    weights = [scale * w for w in v]
    if not all(map(math.isfinite, weights + [bias])):
        raise TrainingError(f"SVM training diverged to non-finite weights or bias "
                            f"at reg_lambda {reg_lambda}")
    if max(map(abs, weights + [bias])) > SVM_MAX_MAGNITUDE:
        raise TrainingError(f"SVM training diverged to weights or bias above "
                            f"{SVM_MAX_MAGNITUDE:g} in magnitude at reg_lambda {reg_lambda}")
    return LinearSvmModel(weights=weights, bias=bias, reg_lambda=reg_lambda)


def predict_svm(X: list[Row], model: LinearSvmModel) -> tuple[list[Label], list[float]]:
    """sign(w.x + b); a score of exactly 0 goes to the positive class."""
    scores = _margins(X, model.weights, model.bias)
    return [Label.BULLYING if s >= 0.0 else Label.NON_BULLYING for s in scores], scores


# ----------------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------------

class GridSearchResult(NamedTuple):
    best_params: dict
    best_score: float
    per_candidate: list[tuple[dict, list[float]]]
    best_fold_reports: list[dict]  # the winning candidate's held-out folds' reports


class FeaturizedFold:
    """One CV fold, featurized by a TF-IDF model fitted on its training part."""

    def __init__(self, train: list[Row], train_labels: list[Label], test: list[Row],
                 test_labels: list[Label], n_features: int):
        self.train, self.train_labels = train, train_labels
        self.test, self.test_labels = test, test_labels
        self.n_features = n_features

    @functools.cached_property
    def train_csr(self) -> Csr:
        """The training rows as one Csr, which every NB and LR candidate shares."""
        return Csr.from_rows(self.train, self.n_features)


def _labels01(labels: list[Label]) -> list[int]:
    return [1 if lab is Label.BULLYING else 0 for lab in labels]


def train_family(family: str, rows: list[Row], n_features: int, labels: list[Label],
                 params: dict, seed: int = DEFAULT_SEED, csr: Csr | None = None):
    """Dispatch to the family trainer with TF-IDF rows over n_features
    columns and Label lists as the common input.

    params are the trainer's keyword arguments; any it leaves out keep the
    trainer's defaults. csr, if given, is rows as a Csr, which NB and LR
    then train on instead of building their own.
    """
    if family in ("nb", "lr") and csr is None:
        csr = Csr.from_rows(rows, n_features)
    if family == "nb":
        return train_nb(csr, labels, **params)
    if family == "lr":
        return train_lr(csr, _labels01(labels), **params)
    if family == "svm":
        ysign = [1 if lab is Label.BULLYING else -1 for lab in labels]
        return train_svm(rows, ysign, seed=seed, n_features=n_features, **params)
    raise TrainingError(f"unknown model family {family!r}")


def predict_family(
    family: str, model, X: list[Row], threshold: float = 0.5,
) -> tuple[list[Label], list[float]]:
    """Labels and the scores predict reports: NB the predicted class's
    posterior, LR the positive-class probability, SVM the margin. threshold
    applies to LR only."""
    if family == "nb":  # the posterior is the sigmoid of the log-score gap
        labels, scores = predict_nb(X, model)
        return labels, [1.0 / (1.0 + math.exp(-abs(s_b - s_n))) for s_b, s_n in scores]
    if family == "lr":
        return predict_lr(X, model, threshold)
    if family == "svm":
        return predict_svm(X, model)
    raise TrainingError(f"unknown model family {family!r}")


def expand_grid(param_grid: dict[str, list]) -> list[dict]:
    """Cartesian product in key order, values in listed order."""
    if not param_grid:
        raise TrainingError("parameter grid must be non-empty")
    keys = list(param_grid)
    combos = []
    for values in itertools.product(*(param_grid[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


def featurize_folds(
    token_lists: list[list[str]],
    labels: list[Label],
    k: int,
    seed: int,
    tfidf_config: TfidfConfig | None = None,
) -> list[FeaturizedFold]:
    """Stratified k folds, each featurized once for every candidate to share.

    The TF-IDF model is fitted on each fold's training documents only; the
    held-out fold is transformed with that model, never fitted on.
    """
    from .corpus import kfold_split
    folds = []
    for train_idx, test_idx in kfold_split(labels, k, seed):
        train_tokens = [token_lists[i] for i in train_idx]
        tfidf = fit_tfidf(train_tokens, tfidf_config)
        folds.append(FeaturizedFold(
            train=transform_all(train_tokens, tfidf),
            train_labels=[labels[i] for i in train_idx],
            test=transform_all([token_lists[i] for i in test_idx], tfidf),
            test_labels=[labels[i] for i in test_idx],
            n_features=tfidf.n_features,
        ))
    return folds


def fold_reports(
    family: str,
    candidates: list[dict],
    folds: list[FeaturizedFold],
    seed: int,
) -> list[list[dict]]:
    """Each candidate's reports on the held-out folds, each trained on its
    fold's training part. LR trains every (candidate, fold) problem in one
    stacked descent, which raises the error that training them one by one in
    grid order would raise first."""
    from .metrics import evaluate

    if family == "lr":
        defaults = keyword_defaults(train_lr)  # they fill what params leave out
        models = iter(_train_lr_stack([
            (fold.train_csr, _labels01(fold.train_labels), *(defaults | params).values())
            for params in candidates for fold in folds]))
    else:
        models = (train_family(family, fold.train, fold.n_features, fold.train_labels,
                               params, seed, fold.train_csr)
                  for params in candidates for fold in folds)
    return [[evaluate(fold.test_labels, predict_family(family, next(models), fold.test)[0])
             for fold in folds] for _ in candidates]


def grid_search(
    family: str,
    param_grid: dict[str, list],
    folds: list[FeaturizedFold],
    seed: int,
    objective: str = DEFAULT_OBJECTIVE,
    params: dict | None = None,
) -> GridSearchResult:
    """Exhaustive search over the grid, scored by cross validation on `folds`.

    Each candidate trains with params, the trainer keywords every candidate
    shares, under its own grid point. Candidates are evaluated in grid order
    and ties keep the earliest candidate.
    """
    from .metrics import score

    if family not in CLASSICAL_FAMILIES:
        raise TrainingError(f"unknown model family {family!r}")
    if objective not in OBJECTIVES:
        raise TrainingError(f"unknown objective {objective!r}")
    candidates = expand_grid(param_grid)
    candidate_reports = fold_reports(
        family, [{**(params or {}), **point} for point in candidates], folds, seed)
    per_candidate = [(params, [score(r, objective) for r in reports])
                     for params, reports in zip(candidates, candidate_reports)]
    means = [sum(scores) / len(scores) for _, scores in per_candidate]
    best = means.index(max(means))  # the earliest maximum
    return GridSearchResult(
        best_params=per_candidate[best][0],
        best_score=means[best],
        per_candidate=per_candidate,
        best_fold_reports=candidate_reports[best],
    )
