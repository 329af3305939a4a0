"""The per-line fast paths of preprocessing and TF-IDF against the plain code
they replaced, kept here as oracles and compared bit for bit.

`clean` runs each removal pattern only when the text holds the literal its
matches start with, `collapse_elongation` returns a word without a run as
it is, `stem` tries only the prefix rules whose pattern starts with the
word's first letter, and `transform_all` counts with a plain dict. Each
must give exactly what the code below gives: the same strings and tokens,
and the same bits in every TF-IDF value.
"""

import itertools
import math
import re
from collections import Counter
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from bullyguard.corpus import load_corpus
from bullyguard.features import TfidfConfig, fit_tfidf, transform_all
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
