"""The fast paths of preprocessing, TF-IDF and LR training against the plain
code they replaced, kept here as oracles and compared bit for bit.

`clean` runs each removal pattern only when the text holds the literal its
matches start with, `collapse_elongation` returns a word without a run as
it is, `stem` tries only the prefix rules whose pattern starts with the
word's first letter, and `transform_all` counts with a plain dict. Each
must give exactly what the code below gives: the same strings and tokens,
and the same bits in every TF-IDF value.

Logistic regression trains every (candidate, fold) problem of a grid search
in one stacked gradient descent, and `train_lr` and `lr_loss_grad` are its
one-problem case. Each problem must get the weights, bias and loss history
of the one-problem loop below, bit for bit, and a grid must raise the error
that loop raises first in grid order.
"""

import itertools
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bullyguard.linear_models as linear_models
from bullyguard.corpus import Label, load_corpus
from bullyguard.features import TfidfConfig, fit_tfidf, transform_all
from bullyguard.linear_models import (
    DEFAULT_GRIDS,
    Csr,
    FeaturizedFold,
    TrainingError,
    expand_grid,
    featurize_folds,
    fold_reports,
    lr_loss_grad,
    predict_family,
    train_lr,
)
from bullyguard.metrics import evaluate
from bullyguard.preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    PrefixRule,
    StemmerRules,
    clean,
    collapse_elongation,
    load_default_lexicon,
    load_default_stemmer_rules,
    stem,
)

from conftest import SYNTHETIC_CSV

# ----------------------------------------------------------------------------
# oracles: the code the fast paths replaced
# ----------------------------------------------------------------------------

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@[\w.]+")
_HASHTAG_RE = re.compile(r"#\w+")
_NON_ALPHA_RE = re.compile(r"[^a-z ]")
_SPACE_RE = re.compile(r" +")


def oracle_clean(text):
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _NON_ALPHA_RE.sub(" ", text)
    return _SPACE_RE.sub(" ", text).strip()


def oracle_collapse_elongation(word, min_run=3):
    return re.compile(r"(.)\1{%d,}" % (min_run - 1)).sub(r"\1", word)


def oracle_strip_prefixes(word, stripped_suffix, rules, roots):
    current = word
    used = set()
    for _ in range(3):
        committed = None
        for rule in rules.prefix_rules:
            if rule.cls in used:
                continue
            if stripped_suffix is not None and (rule.cls, stripped_suffix) in rules.forbidden_pairs:
                continue
            if not current.startswith(rule.pattern):
                continue
            stem_part = current[len(rule.pattern):]
            for recode in rule.recodings:
                candidate = recode + stem_part
                if len(candidate) < rules.min_stem_length:
                    continue
                if candidate in roots:
                    return candidate, candidate
                if committed is None:
                    committed = (candidate, rule.cls)
        if committed is None:
            break
        current, cls = committed
        used.add(cls)
    return None, current


def oracle_stem(word, rules, lexicon):
    roots = lexicon.root_words
    if not word:
        return word
    if word in roots:
        return word
    base = word
    for sfx in rules.inflectional_suffixes:
        if base.endswith(sfx) and len(base) - len(sfx) >= rules.min_stem_length:
            base = base[: -len(sfx)]
            break
    if base in roots:
        return base
    deriv_candidates = []
    for sfx in rules.derivational_suffixes:
        if base.endswith(sfx) and len(base) - len(sfx) >= rules.min_stem_length:
            candidate = base[: -len(sfx)]
            if candidate in roots:
                return candidate
            deriv_candidates.append((candidate, sfx))
    search_order = []
    if deriv_candidates:
        search_order.append(deriv_candidates[0])
    search_order.append((base, None))
    search_order.extend(deriv_candidates[1:])
    fallback = None
    for candidate, sfx in search_order:
        hit, end_state = oracle_strip_prefixes(candidate, sfx, rules, roots)
        if hit is not None:
            return hit
        if fallback is None:
            fallback = end_state
    return fallback if fallback is not None else base


def oracle_tokens(text, config, lexicon, rules):
    """The pipeline's tokens, each stage applied to the whole list in turn."""
    if config.case_fold:
        text = text.lower()
    if config.clean:
        text = oracle_clean(text)
    tokens = text.split()
    if config.normalize:
        normalized = []
        for tok in tokens:
            tok = oracle_collapse_elongation(tok, config.elongation_min_run)
            normalized.extend(lexicon.slang_map.get(tok, tok).split(" "))
        tokens = [tok for tok in normalized if tok]
    if config.remove_stopwords:
        tokens = [tok for tok in tokens if tok not in lexicon.stopwords]
    if config.stem:
        tokens = [oracle_stem(tok, rules, lexicon) for tok in tokens]
    return tokens


def oracle_transform_all(token_lists, model):
    vocab = model.vocabulary.token_to_id
    rows = []
    for tokens in token_lists:
        counts = Counter(vocab[token] for token in tokens if token in vocab)
        ids = sorted(counts)
        values = []
        for i in ids:
            tf = float(counts[i])
            if model.config.sublinear_tf:
                tf = 1.0 + math.log(tf)
            values.append(tf * model.idf[i])
        if model.config.l2_normalize and values:
            squares = 0.0
            for v in values:
                squares += v * v
            norm = math.sqrt(squares)
            values = [v / norm for v in values]
        rows.append((ids, values))
    return rows


# ----------------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------------

LEXICON = load_default_lexicon()
RULES = load_default_stemmer_rules()
NO_ROOTS = NormalizationLexicon(slang_map={}, stopwords=frozenset(), root_words=frozenset())
BUNDLED_TEXTS = [rec.text for rec in load_corpus(SYNTHETIC_CSV)]
SLANG_KEYS = sorted(LEXICON.slang_map)
# roots that start with each recoded initial, a vowel, and a few others
SAMPLE_ROOTS = ["kata", "pukul", "tulis", "sapu", "renang", "ajar", "ikut", "lihat",
                "main", "baik", "nyanyi", "jelek", "gambar", "dengar", "opini"]
DEFAULT_CONFIG = PipelineConfig()
NEURAL_CONFIG = replace(DEFAULT_CONFIG, remove_stopwords=False, stem=False)


def _affixed_words():
    """Every prefix rule and recoding x every derivational suffix (and none),
    alone, stacked on a second prefix, and under an inflectional suffix."""
    words = set()
    suffixes = ("",) + RULES.derivational_suffixes
    for rule in RULES.prefix_rules:
        for recode in rule.recodings:
            for root in SAMPLE_ROOTS:
                body = root[len(recode):] if recode and root.startswith(recode) else root
                for sfx in suffixes:
                    words.add(rule.pattern + body + sfx)
                    words.add(rule.pattern + body + sfx + "nya")
                    if root in SAMPLE_ROOTS[:4]:
                        words.update(outer.pattern + rule.pattern + body + sfx
                                     for outer in RULES.prefix_rules)
    return sorted(words)


AFFIXED_WORDS = _affixed_words()

FRAGMENTS = [
    "@", "#", "http://", "https://", "www.", "http", "www", "HTTP://", "WWW.", "ww.",
    "htt", ".", "/", "_", "user", "a.b", "t.co/x", " ", "  ", "\t", "\n", " ",
    "\U0001F602", "\U0001F64F\U0001F3FB", "❤️", "123", "!!", "é", "Jelekkk",
    "mantappp", "bgtttt", "aaa", "maaf", "kamu", "yang",
]
LINE_PARTS = (st.sampled_from(FRAGMENTS) | st.sampled_from(SLANG_KEYS)
              | st.sampled_from(AFFIXED_WORDS) | st.sampled_from(BUNDLED_TEXTS)
              | st.text(max_size=5))
LINES = st.lists(LINE_PARTS, max_size=12).flatmap(
    lambda parts: st.sampled_from(["", " "]).map(lambda sep: sep.join(parts)))


# ----------------------------------------------------------------------------
# preprocessing
# ----------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(LINES)
@example("cek www.contoh.com/abc @nama.panjang_12 #tag halo")
@example("lihat WWW.Contoh.id dan https://t.co/x@y#z")
@example("email@www.x.id #http://a.b")
def test_clean_matches_oracle(line):
    for text in (line, line.lower()):
        assert clean(text) == oracle_clean(text), text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aabkx\U0001F602 ", max_size=14), st.sampled_from([2, 3, 4]))
@example("jelekkk", 3)
@example("maaf", 2)
def test_collapse_elongation_matches_oracle(word, min_run):
    assert collapse_elongation(word, min_run) == oracle_collapse_elongation(word, min_run)


def test_stem_matches_oracle_on_every_prefix_suffix_combination():
    assert len(AFFIXED_WORDS) > 10_000
    for lexicon in (LEXICON, NO_ROOTS):
        for word in AFFIXED_WORDS:
            assert stem(word, RULES, lexicon) == oracle_stem(word, RULES, lexicon), word


def test_prefix_rules_sharing_a_first_letter_keep_file_order():
    # one-letter and longer patterns that share their first letter; the
    # first rule in file order that matches is the one committed
    shared = [PrefixRule("x", "m", ("",)), PrefixRule("y", "me", ("",)),
              PrefixRule("z", "mem", ("", "p")), PrefixRule("w", "b", ("", "p"))]
    words = ["memakan", "mmakan", "mempukul", "bemakan", "mbmakan", "makan", "m", "me"]
    results = []
    for order in (shared, shared[::-1], shared[1:] + shared[:1]):
        rules = StemmerRules(("nya",), ("an",), tuple(order),
                             frozenset({("y", "an")}), min_stem_length=1)
        for lexicon in (NO_ROOTS, replace(NO_ROOTS, root_words=frozenset({"akan", "pukul"}))):
            got = [stem(w, rules, lexicon) for w in words]
            assert got == [oracle_stem(w, rules, lexicon) for w in words], order
            results.append(got)
    assert results[0] != results[2]  # the order changed what was stripped


@settings(max_examples=200, deadline=None)
@given(LINES, st.sampled_from([2, 3, 4]))
def test_preprocessor_matches_oracle_pipeline(line, min_run):
    for config in (DEFAULT_CONFIG, NEURAL_CONFIG):
        config = replace(config, elongation_min_run=min_run)
        prep = Preprocessor(config, LEXICON, RULES)
        want = oracle_tokens(line, config, LEXICON, RULES)
        assert prep.tokens(line) == want
        assert prep.tokens(line) == want  # from the memo


def test_every_bundled_comment_matches_oracle():
    for min_run in (2, 3, 4):
        for config in (DEFAULT_CONFIG, NEURAL_CONFIG):
            config = replace(config, elongation_min_run=min_run)
            prep = Preprocessor(config, LEXICON, RULES)
            for text in BUNDLED_TEXTS:
                assert clean(text.lower()) == oracle_clean(text.lower())
                assert prep.tokens(text) == oracle_tokens(text, config, LEXICON, RULES), text


# ----------------------------------------------------------------------------
# TF-IDF rows
# ----------------------------------------------------------------------------

TFIDF_CONFIGS = [TfidfConfig(sublinear_tf=s, l2_normalize=n)
                 for s, n in itertools.product((False, True), repeat=2)]


def hex_rows(rows):
    return [(ids, [v.hex() for v in values]) for ids, values in rows]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), min_size=1, max_size=8),
    st.lists(st.lists(st.sampled_from("abcdefgxyz"), max_size=30), max_size=8),
)
def test_transform_all_matches_counter_oracle(fit_docs, docs):
    if not any(fit_docs):
        fit_docs = fit_docs + [["a"]]
    for config in TFIDF_CONFIGS:
        model = fit_tfidf(fit_docs, config)
        assert hex_rows(transform_all(docs, model)) == hex_rows(oracle_transform_all(docs, model))


def test_bundled_tfidf_rows_match_counter_oracle():
    token_lists = Preprocessor(DEFAULT_CONFIG, LEXICON, RULES).corpus(BUNDLED_TEXTS)
    for config in TFIDF_CONFIGS:
        model = fit_tfidf(token_lists[:150], config)
        got = transform_all(token_lists, model)
        assert hex_rows(got) == hex_rows(oracle_transform_all(token_lists, model))


# ----------------------------------------------------------------------------
# logistic regression: the one-problem gradient descent
# ----------------------------------------------------------------------------

def oracle_lr_loss_grad(X, y_signed, weights, bias, l2_lambda):
    n = len(X)
    z = X.matvec(weights) + bias
    margins = y_signed * z
    loss = float(np.logaddexp(0.0, -margins).mean() + 0.5 * l2_lambda * weights @ weights)
    coef = -y_signed * (1.0 / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))) / n
    grad_w = X.rmatvec(coef) + l2_lambda * weights
    grad_b = float(coef.sum())
    return loss, grad_w, grad_b


def oracle_train_lr(X, labels01, l2_lambda=1e-3, lr=0.1, epochs=500, grad_tol=1e-6):
    """(weights, bias, loss history), or raises train_lr's TrainingError."""
    if lr <= 0:
        raise TrainingError(f"learning rate must be positive, got {lr}")
    if epochs < 1:
        raise TrainingError(f"epochs must be at least 1, got {epochs}")
    if l2_lambda < 0:
        raise TrainingError(f"l2_lambda must be non-negative, got {l2_lambda}")
    if l2_lambda > 0:
        lr = min(lr, 1.0 / l2_lambda)
    y_signed = np.asarray([1.0 if y == 1 else -1.0 for y in labels01])
    weights = np.zeros(X.n_features, dtype=np.float64)
    bias = 0.0
    history = []
    for it in range(epochs):
        loss, grad_w, grad_b = oracle_lr_loss_grad(X, y_signed, weights, bias, l2_lambda)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        history.append(loss)
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < grad_tol:
            break
        weights -= lr * grad_w
        bias -= lr * grad_b
    return weights.tolist(), bias, history


def _hex(weights, bias, history):
    return [w.hex() for w in weights], float(bias).hex(), [loss.hex() for loss in history]


def _labels01(labels):
    return [1 if lab is Label.BULLYING else 0 for lab in labels]


def _oracle_grid(candidates, folds):
    """Each candidate's oracle result per fold, in grid order, or the first
    error's message."""
    try:
        return [[oracle_train_lr(fold.train_csr, _labels01(fold.train_labels), **params)
                 for fold in folds] for params in candidates]
    except TrainingError as exc:
        return str(exc)


def _stacked_grid(candidates, folds):
    """The models fold_reports trains for each candidate, captured as it
    scores them."""
    models = []
    original = predict_family

    def capture(family, model, X, threshold=0.5):
        models.append(model)
        return original(family, model, X, threshold)

    linear_models.predict_family = capture
    try:
        reports = fold_reports("lr", candidates, folds, 42)
    finally:
        linear_models.predict_family = original
    return reports, [models[i:i + len(folds)] for i in range(0, len(models), len(folds))]


def assert_grid_matches_oracle(candidates, folds):
    want = _oracle_grid(candidates, folds)
    assert not isinstance(want, str), want
    reports, models = _stacked_grid(candidates, folds)
    for params, want_models, got_models, got_reports in zip(candidates, want, models, reports):
        for fold, (weights, bias, history), model, report in zip(
                folds, want_models, got_models, got_reports):
            assert model.l2_lambda == params.get("l2_lambda", 1e-3)
            assert _hex(model.weights, model.bias, model.loss_history) == _hex(
                weights, bias, history), params
            assert report == evaluate(fold.test_labels, predict_family(
                "lr", type(model)(weights, bias, model.l2_lambda), fold.test)[0])
    return want


BUNDLED_TOKENS = Preprocessor(DEFAULT_CONFIG, LEXICON, RULES).corpus(BUNDLED_TEXTS)
BUNDLED_LABELS = [rec.label for rec in load_corpus(SYNTHETIC_CSV)]


def test_lr_grid_on_bundled_folds_matches_oracle():
    folds = featurize_folds(BUNDLED_TOKENS, BUNDLED_LABELS, 5, 42)
    assert_grid_matches_oracle(expand_grid(DEFAULT_GRIDS["lr"]), folds)


def test_lr_grid_on_ragged_folds_with_every_setting_varied_matches_oracle():
    # 103 comments of both classes in 4 folds: training parts of 77 and 78 rows
    pick = list(range(0, 200, 2)) + [1, 101, 199]
    folds = featurize_folds([BUNDLED_TOKENS[i] for i in pick],
                            [BUNDLED_LABELS[i] for i in pick], 4, 7)
    assert len({len(fold.train) for fold in folds}) == 2
    grid = {"l2_lambda": [0.0, 1e-3, 0.5], "lr": [0.1, 3.0], "epochs": [1, 40],
            "grad_tol": [1e-6, 0.02]}
    want = assert_grid_matches_oracle(expand_grid(grid), folds)
    # problems stop at different iterations, some by converging
    lengths = {len(history) for per_fold in want for _, _, history in per_fold}
    assert len(lengths) > 3
    assert any(1 < n < 40 for n in lengths)


def test_lr_problems_that_converge_at_different_iterations_match_oracle():
    folds = featurize_folds(BUNDLED_TOKENS, BUNDLED_LABELS, 3, 42)
    grid = {"l2_lambda": [0.3, 1.0, 3.0], "grad_tol": [0.01, 0.003], "epochs": [400]}
    want = assert_grid_matches_oracle(expand_grid(grid), folds)
    lengths = [len(history) for per_fold in want for _, _, history in per_fold]
    assert max(lengths) < 400 and len(set(lengths)) > 3


def _fold(train, labels, n_features):
    """A fold of TF-IDF rows, tested on its training part."""
    return FeaturizedFold(train=train, train_labels=labels, test=train, test_labels=labels,
                          n_features=n_features)


def test_lr_zero_feature_and_empty_row_problems_match_oracle():
    B, N = Label.BULLYING, Label.NON_BULLYING
    folds = [
        _fold([([], [])] * 3, [B, N, B], 0),               # no feature at all
        _fold([([], [])] * 4, [B, N, N, N], 5),            # features, but empty rows
        _fold([([0, 2], [0.6, 0.8]), ([], []), ([1], [1.0])], [B, N, B], 3),
    ]
    assert_grid_matches_oracle(expand_grid({"l2_lambda": [0.0, 1e-2]}), folds)


@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
def test_lr_problem_without_rows_raises_oracle_error():
    B, N = Label.BULLYING, Label.NON_BULLYING
    folds = [_fold([([0], [1.0]), ([1], [1.0])], [B, N], 2), _fold([], [], 2)]
    want = _oracle_grid([{"l2_lambda": 1e-3}], folds)
    assert want == "non-finite loss at iteration 0"
    with np.errstate(all="ignore"), pytest.raises(TrainingError) as exc:
        fold_reports("lr", [{"l2_lambda": 1e-3}], folds, 42)
    assert str(exc.value) == want


@pytest.mark.parametrize("bad", [{"l2_lambda": -1e-3}, {"epochs": 0}, {"lr": 0.0}])
def test_lr_grid_with_invalid_second_candidate_raises_oracle_error(bad):
    folds = featurize_folds(BUNDLED_TOKENS[::3], BUNDLED_LABELS[::3], 3, 42)
    candidates = [{"l2_lambda": 1e-3, "epochs": 5}, {"l2_lambda": 1e-3, "epochs": 5, **bad}]
    want = _oracle_grid(candidates, folds)
    assert isinstance(want, str)
    with pytest.raises(TrainingError) as exc:
        fold_reports("lr", candidates, folds, 42)
    assert str(exc.value) == want


def test_lr_grid_raises_the_first_divergence_in_grid_order():
    """A problem that diverges late is raised over one later in grid order
    that diverges early, and both over an invalid candidate after them."""
    B, N = Label.BULLYING, Label.NON_BULLYING
    folds = [_fold([([0], [-1.0]), ([0], [-1e50]), ([0], [1e50])], [N, B, B], 1),
             _fold([([0], [1.0]), ([0], [-1.0])], [B, N], 1)]
    late, early = {"l2_lambda": 0.0, "lr": 1e250}, {"l2_lambda": 0.0, "lr": 1e300}
    with np.errstate(all="ignore"):
        fails = [_oracle_grid([params], folds) for params in (late, early)]
        assert fails == ["non-finite loss at iteration 3", "non-finite loss at iteration 2"]
        for candidates in ([late, early], [early, late], [late, early, {"epochs": 0}],
                           [{"lr": 1.0}, early, late]):
            with pytest.raises(TrainingError) as exc:
                fold_reports("lr", candidates, folds, 42)
            assert str(exc.value) == _oracle_grid(candidates, folds)


def test_lr_grid_trains_no_problem_on_after_an_earlier_one_fails(monkeypatch):
    """Once a problem fails, the problems after it in grid order stop too, so
    a failing grid does not run the rest of its epochs."""
    B, N = Label.BULLYING, Label.NON_BULLYING
    folds = [_fold([([0], [-1.0]), ([0], [-1e50]), ([0], [1e50])], [N, B, B], 1)]
    calls, stack = [], linear_models._lr_stack

    def counting_stack(*args):
        starts, sizes, loss_grad = stack(*args)
        return starts, sizes, lambda W: (calls.append(1), loss_grad(W))[1]

    monkeypatch.setattr(linear_models, "_lr_stack", counting_stack)
    candidates = [{"l2_lambda": 0.0, "lr": 1e300}, {"l2_lambda": 1e-3, "epochs": 500}]
    with np.errstate(all="ignore"), pytest.raises(TrainingError) as exc:
        fold_reports("lr", candidates, folds, 42)
    assert str(exc.value) == "non-finite loss at iteration 2"
    assert len(calls) == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(-3, 3), min_size=4, max_size=4), min_size=1, max_size=6),
       st.lists(st.floats(-2, 2), min_size=5, max_size=5), st.sampled_from([0.0, 1e-3, 2.0]))
def test_lr_loss_grad_matches_oracle(dense, point, l2_lambda):
    X = Csr.from_rows([([i for i, v in enumerate(row) if v], [v for v in row if v])
                       for row in dense], 4)
    y = np.asarray([1.0 if i % 3 else -1.0 for i in range(len(dense))])
    w, b = np.asarray(point[:4]), point[4]
    loss, grad_w, grad_b = lr_loss_grad(X, y, w, b, l2_lambda)
    want_loss, want_w, want_b = oracle_lr_loss_grad(X, y, w, b, l2_lambda)
    assert (loss.hex(), grad_b.hex()) == (want_loss.hex(), want_b.hex())
    assert [g.hex() for g in grad_w.tolist()] == [g.hex() for g in want_w.tolist()]


def test_train_lr_matches_oracle_on_whole_bundled_corpus():
    tfidf = fit_tfidf(BUNDLED_TOKENS)
    X = Csr.from_rows(transform_all(BUNDLED_TOKENS, tfidf), tfidf.n_features)
    model = train_lr(X, _labels01(BUNDLED_LABELS))
    assert _hex(model.weights, model.bias, model.loss_history) == _hex(
        *oracle_train_lr(X, _labels01(BUNDLED_LABELS)))
