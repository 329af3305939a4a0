"""The fast paths of preprocessing, TF-IDF and LR training against the plain
code they replaced, kept here as oracles and compared bit for bit.

`clean` runs each removal pattern only when the text holds the literal its
matches start with and takes the runs of a-z from the encoded text's bytes,
`collapse_elongation` substitutes with a compiled pattern it keeps in a
dict, `stem` tries only the prefix rules whose pattern starts with the
word's first letter and the suffixes that end in its last letter, and
`transform_all` counts with a plain dict and sums the squares as it builds
a row. The pipeline hands stages 3-5 one cleaned word at a time as lists,
and `predict_texts` builds a majority fallback only for the texts that
preprocess to nothing. Each must give exactly what the code below gives:
the same strings, tokens and stage traces, and the same bits in every
TF-IDF value and score.

Logistic regression trains every (candidate, fold) problem of a grid search
in one stacked gradient descent, and `train_lr` and `lr_loss_grad` (below,
which the LR gradient tests read) are its one-problem case. Each problem
must get the weights, bias and loss history of the one-problem loop below,
bit for bit, and a grid must raise the error that loop raises first in grid
order.

A neural `predict_batch` computes the input gates x @ w + b once per distinct
token id of the call and gathers each packed row's from that table. Its
probabilities must equal, bit for bit, those of the forward below, which
multiplies every packed token of every pass by w, and its traced memory
peak, in a fresh process, must not exceed that forward's.

The PRNG jumps its bulk-draw lanes ahead with one nibble lookup table per
jump matrix; every level must give the words of the packed-row parity
product below. `init_params` takes all its weights from one bulk draw, and
`train` each epoch's batch order from `Rng.permutations`; they must give the
bytes and the PRNG state of one `uniform_array` call per weight block or
gate, and the orders of successive scalar `Rng.shuffle` calls.
"""

import functools
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bullyguard.linear_models as linear_models
from bullyguard import neural, rng
from bullyguard.artifact import ModelArtifact, Prediction, predict_texts
from bullyguard.corpus import Label, TrainConfig, load_corpus
from bullyguard.features import TfidfConfig, fit_tfidf, transform_all
from bullyguard.linear_models import (
    DEFAULT_GRIDS,
    Csr,
    FeaturizedFold,
    TrainingError,
    expand_grid,
    featurize_folds,
    fold_reports,
    predict_family,
    train_lr,
)
from bullyguard.metrics import evaluate
from bullyguard.neural import (
    PREDICT_TOKEN_BUDGET,
    UNK_ID,
    NeuralNetParams,
    NeuralVocab,
    build_neural_vocab,
    encode_batch,
    init_params,
    predict_batch,
)
from bullyguard.rng import Rng
from bullyguard.preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    PrefixRule,
    STAGE_NAMES,
    StemmerRules,
    clean,
    collapse_elongation,
    load_default_lexicon,
    load_default_stemmer_rules,
    run_pipeline_trace,
    stem,
)

from conftest import SYNTHETIC_CSV, src_env
from generate_corpus import generate

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


def oracle_word_stages(word, config, lexicon, rules):
    """Stages 3-5 of one cleaned word as the tuple-building per-word
    function gave them: its tokens after each stage."""
    tokens = [word]
    if config.normalize:
        word = oracle_collapse_elongation(word, config.elongation_min_run)
        tokens = [tok for tok in lexicon.slang_map.get(word, word).split(" ") if tok]
    normalized = tuple(tokens)
    if config.remove_stopwords:
        tokens = [tok for tok in tokens if tok not in lexicon.stopwords]
    kept = tuple(tokens)
    if config.stem:
        tokens = [oracle_stem(tok, rules, lexicon) for tok in tokens]
    return normalized, kept, tuple(tokens)


def oracle_trace(text, config, lexicon, rules):
    """run_pipeline_trace when stages 1-2 gave the folded text, the cleaned
    text and the cleaned text split again."""
    folded = text.lower() if config.case_fold else text
    cleaned = oracle_clean(folded) if config.clean else folded
    states = ([], [], [])
    for word in cleaned.split():
        for state, tokens in zip(states, oracle_word_stages(word, config, lexicon, rules)):
            state.extend(tokens)
    return list(zip(STAGE_NAMES, (folded, cleaned, *states, list(states[-1]))))


def oracle_predict_texts(artifact, token_lists):
    """A classical predict_texts over preprocessed texts that builds a
    majority fallback for every text, then overwrites the non-empty ones."""
    predictions = [Prediction(artifact.majority_label, 0.0, True) for _ in token_lists]
    rows = [i for i, tokens in enumerate(token_lists) if tokens]
    X = oracle_transform_all([token_lists[i] for i in rows], artifact.tfidf)
    labels, scores = predict_family(artifact.family, artifact.model, X, artifact.threshold)
    for row, label, score in zip(rows, labels, scores):
        predictions[row] = Prediction(label, score, False)
    return predictions


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
NEURAL_CONFIG = DEFAULT_CONFIG._replace(remove_stopwords=False, stem=False)


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
        for lexicon in (NO_ROOTS, NO_ROOTS._replace(root_words=frozenset({"akan", "pukul"}))):
            got = [stem(w, rules, lexicon) for w in words]
            assert got == [oracle_stem(w, rules, lexicon) for w in words], order
            results.append(got)
    assert results[0] != results[2]  # the order changed what was stripped


def test_suffix_rules_sharing_a_last_letter_keep_file_order():
    # suffixes that end alike, one the tail of another: the first in file
    # order that fits is stripped, and derivational candidates keep theirs
    prefixes = (PrefixRule("x", "di", ("",)),)
    words = ["makannya", "makana", "dimakankan", "makanan", "dibacakan", "kana", "ikan", "an"]
    roots = NO_ROOTS._replace(root_words=frozenset({"makan", "baca", "bacak"}))
    results = []
    for inflectional, derivational in ((("a", "nya", "ya"), ("an", "kan", "n")),
                                       (("nya", "ya", "a"), ("kan", "n", "an"))):
        for min_len in (1, 3):
            rules = StemmerRules(inflectional, derivational, prefixes, frozenset(),
                                 min_stem_length=min_len)
            for lexicon in (NO_ROOTS, roots):
                got = [stem(w, rules, lexicon) for w in words]
                assert got == [oracle_stem(w, rules, lexicon) for w in words], rules
                results.append(got)
    assert results[0] != results[4]  # the order changed what was stripped


@settings(max_examples=200, deadline=None)
@given(LINES, st.sampled_from([2, 3, 4]))
def test_preprocessor_matches_oracle_pipeline(line, min_run):
    for config in (DEFAULT_CONFIG, NEURAL_CONFIG):
        config = config._replace(elongation_min_run=min_run)
        prep = Preprocessor(config, LEXICON, RULES)
        want = oracle_tokens(line, config, LEXICON, RULES)
        assert prep.tokens(line) == want
        assert prep.tokens(line) == want  # from the memo


def test_every_bundled_comment_matches_oracle():
    for min_run in (2, 3, 4):
        for config in (DEFAULT_CONFIG, NEURAL_CONFIG):
            config = config._replace(elongation_min_run=min_run)
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
# the per-line and per-word pipeline, its TF-IDF rows and predict_texts
# ----------------------------------------------------------------------------

ELONGATED = ["jelekkk", "mantappp", "bgtttt", "bangettt", "kerennnn", "aaa", "maaf", "sihhh"]
MULTI_TOKEN_SLANG = sorted(key for key, value in LEXICON.slang_map.items() if " " in value)
MARKUP = ["http://t.co/x", "https://contoh.id/a?b=1", "www.contoh.id/abc", "@nama_1",
          "@nama.panjang", "#viral", "#Tag_2", "😂", "😂😂", "❤️", "🙏🏻", "!!", "...", "123"]
PIPELINE_WORDS = (st.sampled_from(ELONGATED) | st.sampled_from(MULTI_TOKEN_SLANG)
                  | st.sampled_from(SLANG_KEYS) | st.sampled_from(sorted(LEXICON.stopwords))
                  | st.sampled_from(sorted(LEXICON.root_words)) | st.sampled_from(AFFIXED_WORDS)
                  | st.sampled_from(MARKUP))
# words, some upper-cased, each followed by a separator; [] is the empty line
PIPELINE_LINES = st.lists(
    st.tuples(PIPELINE_WORDS, st.sampled_from([" ", "  ", "! ", ",", "\t", ""]), st.booleans()),
    max_size=12,
).map(lambda parts: "".join((w.upper() if up else w) + sep for w, sep, up in parts))
# every on/off combination of the five stages that act, and two other run thresholds
PIPELINE_CONFIGS = [PipelineConfig(*flags) for flags in itertools.product((True, False), repeat=5)]
PIPELINE_CONFIGS += [DEFAULT_CONFIG._replace(elongation_min_run=r) for r in (2, 4)]


def assert_pipeline_matches_oracle(texts, config):
    want = [oracle_trace(text, config, LEXICON, RULES) for text in texts]
    assert [run_pipeline_trace(text, config, LEXICON, RULES) for text in texts] == want
    prep = Preprocessor(config, LEXICON, RULES)
    assert prep.corpus(texts) == [trace[-1][1] for trace in want]
    assert prep.corpus(texts) == [trace[-1][1] for trace in want]  # from the memo
    return [trace[-1][1] for trace in want]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PIPELINE_LINES)
@example("")
@example("😂😂 ❤️")
@example("@user_1 #viral http://t.co/x www.contoh.id")
@example("JELEKKK bgt sihhh @nama.panjang makasih gpp yang kamu mempermainkannya!!")
def test_pipeline_trace_and_tokens_match_oracle(line):
    for config in PIPELINE_CONFIGS:
        assert_pipeline_matches_oracle([line], config)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(PIPELINE_LINES, min_size=1, max_size=8), st.lists(PIPELINE_LINES, max_size=8))
def test_tfidf_rows_of_pipeline_lines_match_oracle(fit_lines, lines):
    fit_docs = assert_pipeline_matches_oracle(fit_lines, DEFAULT_CONFIG)
    if not any(fit_docs):
        fit_docs.append(["kata"])
    docs = assert_pipeline_matches_oracle(lines, DEFAULT_CONFIG) + fit_docs
    for config in TFIDF_CONFIGS:
        model = fit_tfidf(fit_docs, config)
        assert hex_rows(transform_all(docs, model)) == hex_rows(oracle_transform_all(docs, model))


GENERATED_TEXTS = [rec.text for rec in generate(2000, 3)]


@pytest.fixture(scope="module")
def generated_tokens():
    """The default pipeline's tokens of a 2,000-comment generated corpus,
    checked against the oracle."""
    return assert_pipeline_matches_oracle(GENERATED_TEXTS, DEFAULT_CONFIG)


def test_generated_corpus_pipeline_matches_oracle(generated_tokens):
    assert_pipeline_matches_oracle(GENERATED_TEXTS, NEURAL_CONFIG)
    for config in TFIDF_CONFIGS:
        model = fit_tfidf(generated_tokens[:1500], config)
        assert hex_rows(transform_all(generated_tokens, model)) == hex_rows(
            oracle_transform_all(generated_tokens, model))


@pytest.mark.parametrize("family", ["nb", "lr", "svm"])
def test_predict_texts_matches_oracle_on_generated_corpus(generated_tokens, family):
    tfidf = fit_tfidf(BUNDLED_TOKENS)
    model = linear_models.train_family(family, transform_all(BUNDLED_TOKENS, tfidf),
                                       tfidf.n_features, BUNDLED_LABELS, {}, 42)
    artifact = ModelArtifact(family, 42, Label.NON_BULLYING, "", "", DEFAULT_CONFIG,
                             model=model, tfidf=tfidf, threshold=0.7)
    texts = GENERATED_TEXTS + ["😂😂", "", "@nama #tag"]
    prep = Preprocessor(DEFAULT_CONFIG, LEXICON, RULES)  # one memo for every chunk
    got = [pred for start in range(0, len(texts), 256)
           for pred in predict_texts(artifact, texts[start:start + 256], prep)]
    want = oracle_predict_texts(artifact, generated_tokens + [[], [], []])
    assert [(p.label, p.score.hex(), p.empty_input) for p in got] == [
        (p.label, p.score.hex(), p.empty_input) for p in want]
    assert sum(p.empty_input for p in got) >= 3


# ----------------------------------------------------------------------------
# logistic regression: the one-problem gradient descent
# ----------------------------------------------------------------------------

def lr_loss_grad(X, y_signed, weights, bias, l2_lambda):
    """Objective and gradient of the regularized logistic loss, as the
    one-problem case of the stack train_lr descends:

    J = (1/N) sum log(1 + exp(-y (Xw + b))) + (lambda/2) ||w||^2 with
    y in {-1, +1}; the bias is unregularized.
    """
    losses, grad = linear_models._lr_stack([X], [y_signed], [l2_lambda])[2](
        np.append(weights, bias))
    return float(losses[0]), grad[:-1], float(grad[-1])


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


# ----------------------------------------------------------------------------
# neural predict: input gates per packed token
# ----------------------------------------------------------------------------

# the forward's workspace aliases without a backward pass
ORACLE_FORWARD_ONLY = {
    **{f"bwd.{part}": f"fwd.{part}" for part in ("x", "gates", "c")},
    "states": "fwd.x", "att.u": "fwd.gates",
}


def oracle_run_lstm(x, pack, w, u, b, ws, name):
    n, h_dim = x.shape[0], u.shape[0]
    gates = np.matmul(x, w, out=ws.take(f"{name}.gates", n, 4 * h_dim))
    gates += b
    c, h = ws.take(f"{name}.c", n, h_dim), ws.take(f"{name}.h", n, h_dim)
    for now, before in pack.steps:
        if before is not None:
            gates[now] += h[before] @ u
        c_prev = 0.0 if before is None else c[before]
        neural._lstm_gates(gates[now], c_prev, c[now], h[now])
    return neural._LstmRun(gates, c, h)


def oracle_logits(ids, valid_lens, params, ws):
    p = params.blocks
    pack = neural._pack(valid_lens)
    tokens = ids[pack.rows, pack.cols]
    n, d = tokens.size, params.embedding_dim
    x = np.take(p["embedding"], tokens, axis=0, out=ws.take("fwd.x", n, d), mode="clip")
    fwd = oracle_run_lstm(x, pack, p["fwd.w"], p["fwd.u"], p["fwd.b"], ws, "fwd")
    x = np.take(p["embedding"], tokens[pack.rev], axis=0, out=ws.take("bwd.x", n, d), mode="clip")
    bwd = oracle_run_lstm(x, pack, p["bwd.w"], p["bwd.u"], p["bwd.b"], ws, "bwd")
    if params.use_attention:
        states = neural._encoder_states(pack, fwd, bwd, ids.shape[0], ws)
        features = neural._attention_core(states, valid_lens, params, ws)[0]
    else:
        last = pack.rev[:pack.first]
        features = np.zeros((ids.shape[0], 2 * params.hidden_dim))
        features[pack.rows[:pack.first]] = np.concatenate([fwd.h[last], bwd.h[last]], axis=1)
    return features @ p["head.w"] + p["head.b"]


def oracle_predict_probs(params, ids, valid_lens, token_budget=PREDICT_TOKEN_BUDGET):
    order = np.argsort(valid_lens, kind="stable")
    probs = np.empty((ids.shape[0], 2))
    ws = neural._Workspace(ORACLE_FORWARD_ONLY)
    for part in neural._token_passes(valid_lens[order].tolist(), token_budget):
        rows = order[part]
        probs[rows] = neural._softmax(oracle_logits(ids[rows], valid_lens[rows], params, ws))
    return probs


NEURAL_TOKENS = Preprocessor(NEURAL_CONFIG, LEXICON, RULES).corpus(BUNDLED_TEXTS)
# the words seen twice in the first 150 comments: the others are UNK, and the
# words only the first 100 use never occur in CHUNK_TOKENS
NEURAL_VOCAB = build_neural_vocab(NEURAL_TOKENS[:150], 2, TrainConfig().max_len_cap)
CHUNK_TOKENS = list(itertools.islice(itertools.cycle(NEURAL_TOKENS[100:]), 256))
LONG_ROW = 300  # tokens, more than PREDICT_TOKEN_BUDGET
NEURAL_SEED = 11


@pytest.fixture(scope="module", params=[False, True], ids=["bilstm", "bilstm_attention"])
def neural_params(request):
    return init_params(NEURAL_VOCAB.size, TrainConfig(), request.param, Rng(NEURAL_SEED))


def test_predict_chunk_has_unk_ids_and_misses_some_vocabulary_ids():
    ids, lens = encode_batch(CHUNK_TOKENS, NEURAL_VOCAB)
    real = ids[np.arange(ids.shape[1]) < lens[:, None]]
    assert UNK_ID in real
    assert set(range(2, NEURAL_VOCAB.size)) - set(real.tolist())


@pytest.mark.parametrize("budget", [1, 7, PREDICT_TOKEN_BUDGET, 10**9])
def test_predict_batch_matches_per_token_gates_oracle(neural_params, budget):
    long_tokens = list(itertools.islice(itertools.cycle(NEURAL_TOKENS[199]), LONG_ROW))
    ids, lens = encode_batch(CHUNK_TOKENS + [long_tokens],
                             NeuralVocab(NEURAL_VOCAB.token_to_id, LONG_ROW))
    _, probs = predict_batch(neural_params, ids, lens, budget)
    assert np.array_equal(probs, oracle_predict_probs(neural_params, ids, lens, budget))


@pytest.mark.parametrize("rows", [[[2]], [[UNK_ID] * 8] * 3, [[5] * 8, [5] * 5], [[3, 9]]],
                         ids=["one_token", "all_unk", "one_id_repeated", "two_ids"])
def test_predict_batch_matches_oracle_on_calls_with_one_or_two_ids(neural_params, rows):
    lens = np.asarray([len(row) for row in rows])
    ids = np.zeros((len(rows), lens.max()), dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
    _, probs = predict_batch(neural_params, ids, lens)
    assert np.array_equal(probs, oracle_predict_probs(neural_params, ids, lens))


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# predict_batch's traced peak in a fresh process, where the first call of a
# numpy routine pays its set-up: np.unique's first call traces ~1.2 MB
FRESH_PEAK = """
import sys, tracemalloc
import numpy as np
from bullyguard.corpus import TrainConfig
from bullyguard.neural import init_params, predict_batch
from bullyguard.rng import Rng
ids, lens = np.load(sys.argv[1]), np.load(sys.argv[2])
params = init_params(int(sys.argv[3]), TrainConfig(), sys.argv[4] == "True", Rng(int(sys.argv[5])))
tracemalloc.start()
predict_batch(params, ids, lens)
print(tracemalloc.get_traced_memory()[1])
"""


def test_predict_batch_peaks_no_higher_than_per_token_gates_oracle(tmp_path):
    ids, lens = encode_batch(CHUNK_TOKENS, NEURAL_VOCAB)
    np.save(tmp_path / "ids.npy", ids)
    np.save(tmp_path / "lens.npy", lens)
    for use_attention in (False, True):
        args = (NEURAL_VOCAB.size, use_attention, NEURAL_SEED)
        proc = subprocess.run([sys.executable, "-c", FRESH_PEAK, str(tmp_path / "ids.npy"),
                               str(tmp_path / "lens.npy"), *map(str, args)],
                              env=src_env(), capture_output=True, text=True, check=True)
        params = init_params(NEURAL_VOCAB.size, TrainConfig(), use_attention, Rng(NEURAL_SEED))
        want = _traced_peak(lambda: oracle_predict_probs(params, ids, lens))
        assert int(proc.stdout) <= want, (use_attention, int(proc.stdout), want)


# ----------------------------------------------------------------------------
# the PRNG's jump-ahead: packed-row parity products
# ----------------------------------------------------------------------------

def oracle_jump(rows, states):
    """GF(2) matrix times each state: rows (256, 4) and states (B, 4) packed
    little-endian; output bit i is the parity of (row i AND state)."""
    out = np.zeros_like(states)
    for c in range(0, 256, 32):
        both = rows[c:c + 32, None, :] & states[None, :, :]
        folded = both[..., 0] ^ both[..., 1] ^ both[..., 2] ^ both[..., 3]
        bits = (np.bitwise_count(folded) & 1).astype(np.uint64)
        shifts = np.arange(c % 64, c % 64 + 32, dtype=np.uint64)[:, None]
        out[:, c // 64] |= np.bitwise_or.reduce(bits << shifts, axis=0)
    return out


def oracle_pack(bits):
    """(256, 256) 0/1 matrix -> its rows packed as (256, 4) uint64."""
    packed = np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little"))
    return packed.view("<u8").astype(np.uint64)


def oracle_transpose(cols):
    """Packed columns (256, 4) of a GF(2) matrix -> its packed rows."""
    return oracle_pack(np.unpackbits(cols.astype("<u8").view(np.uint8), axis=1, bitorder="little").T)


@functools.cache
def oracle_jump_table():
    """Packed rows of A^(64 * 2^k) for k = 0..7, shape (8, 256, 4)."""
    basis = oracle_pack(np.eye(256, dtype=np.uint8))
    words = [basis[:, w].copy() for w in range(4)]
    for _ in range(64):
        rng._step_lanes(*words)
    cols = np.stack(words, axis=1)
    table = [oracle_transpose(cols)]
    while len(table) < 8:
        cols = oracle_jump(table[-1], cols)
        table.append(oracle_transpose(cols))
    return np.stack(table)


def scalar_states(seed, count):
    r = Rng(seed)
    return np.array([[r.next_u64() for _ in range(4)] for _ in range(count)], dtype=np.uint64)


@pytest.mark.parametrize("count", [1, 2, 255, 256])
def test_every_jump_table_level_matches_packed_row_oracle(count):
    table = rng._jump_table()
    assert table.shape == (8, 64 * 16, 4) and not table.flags.writeable
    states = scalar_states(count, count)
    for level, rows in enumerate(oracle_jump_table()):
        assert rng._jump(table[level], states).tolist() == oracle_jump(rows, states).tolist(), level


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_jump_table_levels_equal_scalar_steps(seed):
    # level k jumps 64 * 2^k outputs ahead: level 0 is 64 next_u64 steps
    scalar = Rng(seed)
    for level, table in enumerate(rng._jump_table()):
        start = np.array([scalar._s], dtype=np.uint64)
        for _ in range(64 << level):
            scalar.next_u64()
        assert rng._jump(table, start).tolist() == [scalar._s], level


# ----------------------------------------------------------------------------
# neural init: one uniform_array call per weight block or gate
# ----------------------------------------------------------------------------

def oracle_init_params(vocab_size, config, use_attention, stream):
    d, h, a = config.embedding_dim, config.hidden_dim, config.attention_dim

    def xavier(fan_in, fan_out, shape):
        limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
        return stream.uniform_array(shape, -limit, limit)

    blocks = {"embedding": stream.uniform_array((vocab_size, d), -0.05, 0.05)}
    for direction in ("fwd", "bwd"):
        blocks[f"{direction}.w"] = np.concatenate([xavier(d, h, (d, h)) for _ in range(4)], axis=1)
        blocks[f"{direction}.u"] = np.concatenate([xavier(h, h, (h, h)) for _ in range(4)], axis=1)
        b = blocks[f"{direction}.b"] = np.zeros(4 * h)
        b[h:2 * h] = 1.0
    blocks["att.w"] = xavier(2 * h, a, (2 * h, a))
    blocks["att.v"] = xavier(a, 1, (a,))
    blocks["att.b"] = np.zeros(a)
    blocks["head.w"] = xavier(2 * h, 2, (2 * h, 2))
    blocks["head.b"] = np.zeros(2)
    return NeuralNetParams(blocks, use_attention)


INIT_CASES = {
    "default_dims": (50, TrainConfig()),
    "all_dims_1": (2, TrainConfig(embedding_dim=1, hidden_dim=1, attention_dim=1)),
    # 130 * 128 = 16,640 embedding words: past the first 16,384-word block
    "embedding_crosses_a_block": (130, TrainConfig()),
}


@pytest.mark.parametrize("use_attention", [False, True], ids=["bilstm", "bilstm_attention"])
@pytest.mark.parametrize("case", list(INIT_CASES))
def test_one_draw_init_params_matches_per_block_oracle(monkeypatch, case, use_attention):
    vocab_size, config = INIT_CASES[case]
    real_uniform_array = Rng.uniform_array
    calls = []

    def counted(self, *args):
        calls.append(self)
        return real_uniform_array(self, *args)

    monkeypatch.setattr(Rng, "uniform_array", counted)
    bulk, scalar = Rng(5), Rng(5)
    got = init_params(vocab_size, config, use_attention, bulk)
    assert calls == [bulk]
    want = oracle_init_params(vocab_size, config, use_attention, scalar)
    assert calls.count(scalar) == 20
    assert list(got.blocks) == list(want.blocks) and got.use_attention == use_attention
    for name, arr in want.blocks.items():
        assert got.blocks[name].shape == arr.shape, name
        assert got.blocks[name].dtype == arr.dtype and got.blocks[name].tobytes() == arr.tobytes(), name
    assert bulk._s == scalar._s


# ----------------------------------------------------------------------------
# neural training: each epoch's batch order is one more scalar shuffle
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("rows, max_epochs, patience", [(16, 15, 2), (1, 3, 3)],
                         ids=["stops_early", "one_training_row"])
def test_train_epoch_orders_equal_successive_scalar_shuffles(monkeypatch, rows, max_epochs, patience):
    seen = []
    real_iter_batches = neural.iter_batches

    def recording(n, batch_size, order=None):
        if order is not None:  # a training epoch; evaluation passes no order
            seen.append(np.asarray(order).tolist())
        return real_iter_batches(n, batch_size, order)

    monkeypatch.setattr(neural, "iter_batches", recording)
    ids, lens = encode_batch(NEURAL_TOKENS[:rows], NEURAL_VOCAB)
    labels = np.asarray(_labels01(BUNDLED_LABELS[:rows]))
    config = TrainConfig(batch_size=4, embedding_dim=4, hidden_dim=3, attention_dim=3,
                         learning_rate=0.1, max_epochs=max_epochs, patience=patience, seed=9)
    # the validation labels are flipped, so the loss there soon rises
    _, trace = neural.train(True, (ids, lens, labels), (ids, lens, 1 - labels),
                            config, NEURAL_VOCAB.size)
    assert len(seen) == trace.stopped_epoch
    assert (trace.stopped_epoch < max_epochs) == (patience < max_epochs)
    scalar = Rng(config.seed)
    oracle_init_params(NEURAL_VOCAB.size, config, True, scalar)
    order = list(range(rows))
    for epoch, got in enumerate(seen, 1):
        scalar.shuffle(order)
        assert got == order, epoch


def test_epoch_orders_across_bulk_draws_equal_successive_scalar_shuffles():
    # neural.train's epoch orders: 20 epochs of 2,000 rows span three PRNG blocks
    bulk, scalar = Rng(4), Rng(4)
    order = list(range(2000))
    for epoch, got in enumerate(bulk.permutations(2000, 20), 1):
        scalar.shuffle(order)
        assert got.tolist() == order, epoch
    assert bulk._s == scalar._s
