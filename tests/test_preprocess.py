import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from bullyguard import preprocess
from bullyguard.preprocess import (
    LexiconError,
    NormalizationLexicon,
    PipelineConfig,
    PrefixRule,
    Preprocessor,
    case_fold,
    clean,
    collapse_elongation,
    default_lexicon_paths,
    load_lexicon,
    load_slang_map,
    load_stemmer_rules,
    load_wordlist,
    normalize_slang,
    remove_stopwords,
    run_pipeline,
    run_pipeline_trace,
    stem,
    tokenize,
)


# ----------------------------------------------------------------------------
# individual stages
# ----------------------------------------------------------------------------

def test_case_fold():
    assert case_fold("HALO Kamu") == "halo kamu"
    assert case_fold("") == ""
    assert case_fold("B3GO") == "b3go"  # digits untouched


def test_clean_mention_url_emoji():
    assert clean("@si_anu kamu jelek!! \U0001F62D http://t.co/x") == "kamu jelek"
    assert clean("#gofamteam keren") == "keren"
    assert clean("halo") == "halo"


def test_clean_handles_www_and_dotted_mentions():
    assert clean("cek www.contoh.com/abc sekarang") == "cek sekarang"
    assert clean("@nama.panjang_12 halo") == "halo"


def test_clean_collapses_spaces_and_trims():
    assert clean("  a   b!!  ") == "a b"
    assert clean("12345 !!!") == ""


def test_collapse_elongation():
    assert collapse_elongation("mantappp") == "mantap"
    assert collapse_elongation("jelekkk") == "jelek"
    assert collapse_elongation("maaf") == "maaf"  # run of two stays
    assert collapse_elongation("jelekkkkkk") == "jelek"
    assert collapse_elongation("aaabbbccc") == "abc"


def test_collapse_elongation_threshold_configurable():
    assert collapse_elongation("maaf", min_run=2) == "maf"
    with pytest.raises(ValueError):
        collapse_elongation("x", min_run=1)
    with pytest.raises(ValueError, match="elongation_min_run must be at least 2"):
        PipelineConfig(elongation_min_run=1)


def test_normalize_slang(tiny_lexicon):
    assert normalize_slang("bgt", tiny_lexicon) == "banget"
    assert normalize_slang("kamu", tiny_lexicon) == "kamu"
    # composition with elongation collapse
    assert normalize_slang(collapse_elongation("bgttt"), tiny_lexicon) == "banget"


def test_remove_stopwords(tiny_lexicon):
    assert remove_stopwords(["yang", "jelek"], tiny_lexicon) == ["jelek"]
    assert remove_stopwords([], tiny_lexicon) == []
    assert remove_stopwords(["yang", "di", "dan"], tiny_lexicon) == []


def test_tokenize():
    assert tokenize("kamu  jelek") == ["kamu", "jelek"]
    assert tokenize("") == []
    assert tokenize(" a ") == ["a"]


# ----------------------------------------------------------------------------
# stemmer
# ----------------------------------------------------------------------------

def test_stem_spec_examples(tiny_lexicon, default_rules):
    assert stem("makanan", default_rules, tiny_lexicon) == "makan"
    assert stem("dibilang", default_rules, tiny_lexicon) == "bilang"
    assert stem("jelek", default_rules, tiny_lexicon) == "jelek"


def test_stem_confix_cases(default_lexicon, default_rules):
    cases = {
        "mengatakan": "kata",
        "menyanyi": "nyanyi",
        "kejelekan": "jelek",
        "diperbaiki": "baik",
        "berenang": "renang",
        "penulis": "tulis",
        "pemukul": "pukul",
        "makanannya": "makan",
        "belajar": "ajar",
        "terlihat": "lihat",
        "bukumu": "buku",
        "mempermainkan": "main",
    }
    for word, expected in cases.items():
        assert stem(word, default_rules, default_lexicon) == expected, word


def test_stem_rule_only_fallback(default_rules):
    # no dictionary: strip by rules alone, lower fidelity but deterministic
    empty = NormalizationLexicon(slang_map={}, stopwords=frozenset(), root_words=frozenset())
    assert stem("makanan", default_rules, empty) == "makan"
    assert stem("dibilang", default_rules, empty) == "bilang"


def test_stem_min_length_guard(default_lexicon, default_rules):
    # never strips below three characters
    for word in ("di", "ku", "ini", "nya"):
        assert len(stem(word, default_rules, default_lexicon)) >= min(
            len(word), default_rules.min_stem_length)
    assert stem("kei", default_rules, default_lexicon) == "kei"


def test_stem_unknown_word_unchanged(default_lexicon, default_rules):
    assert stem("xyzabc", default_rules, default_lexicon) == "xyzabc"


def test_stem_termination_budget(default_lexicon, default_rules):
    # inflectional + derivational + three prefixes is the worst case
    long_word = "dipermainkannya"
    result = stem(long_word, default_rules, default_lexicon)
    assert result == "main"


# ----------------------------------------------------------------------------
# full pipeline
# ----------------------------------------------------------------------------

def test_pipeline_spec_trace(tiny_lexicon, default_rules):
    config = PipelineConfig()
    tokens = run_pipeline("@bu_dewi Jelekkk bgt sihhh!!", config, tiny_lexicon, default_rules)
    assert tokens == ["jelek", "banget", "sih"]


def test_pipeline_fixpoint(tiny_lexicon, default_rules):
    config = PipelineConfig()
    assert run_pipeline("jelek", config, tiny_lexicon, default_rules) == ["jelek"]


def test_pipeline_stopword_after_slang_golden(default_rules):
    # the fixed stage order makes slang normalization feed stopword removal
    lexicon = NormalizationLexicon(
        slang_map={"bgt": "banget"},
        stopwords=frozenset({"banget"}),
        root_words=frozenset({"jelek", "banget"}),
    )
    config = PipelineConfig()
    assert run_pipeline("jelek bgt", config, lexicon, default_rules) == ["jelek"]
    # sanity: with stopword removal disabled the word survives
    config_off = PipelineConfig(remove_stopwords=False)
    assert run_pipeline("jelek bgt", config_off, lexicon, default_rules) == ["jelek", "banget"]


def test_pipeline_trace_has_six_stages(tiny_lexicon, default_rules):
    trace = run_pipeline_trace("Halo BGT!!", PipelineConfig(), tiny_lexicon, default_rules)
    assert [name for name, _ in trace] == [
        "case_fold", "clean", "normalize", "stopwords", "stem", "tokenize",
    ]
    assert isinstance(trace[0][1], str) and isinstance(trace[-1][1], list)


def test_pipeline_stage_disabling(tiny_lexicon, default_rules):
    config = PipelineConfig(case_fold=False, clean=False, normalize=False,
                            remove_stopwords=False, stem=False)
    assert run_pipeline("Jelekkk bgt", config, tiny_lexicon, default_rules) == ["Jelekkk", "bgt"]


def test_pipeline_multiword_slang(default_rules):
    lexicon = NormalizationLexicon(
        slang_map={"mksh": "terima kasih"},
        stopwords=frozenset(),
        root_words=frozenset({"terima", "kasih"}),
    )
    assert run_pipeline("mksh banyak", PipelineConfig(), lexicon, default_rules) == \
        ["terima", "kasih", "banyak"]


def test_pipeline_empty_results_are_legal(tiny_lexicon, default_rules):
    assert run_pipeline("!!! 123 @user", PipelineConfig(), tiny_lexicon, default_rules) == []
    assert run_pipeline("yang di dan", PipelineConfig(), tiny_lexicon, default_rules) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.sampled_from([
        "Jelekkk", "bgt", "KAMU", "keren", "yang", "b3go", "makanan",
        "dibilang", "@seseorang", "#tagar", "http://t.co/x", "!!",
        "mantappp", "gk", "bagus", "123",
    ]),
    min_size=0, max_size=10,
))
def test_pipeline_idempotent_and_clean_output(tiny_lexicon, default_rules, words):
    config = PipelineConfig()
    text = " ".join(words)
    tokens = run_pipeline(text, config, tiny_lexicon, default_rules)
    assert all(re.fullmatch(r"[a-z]+", tok) for tok in tokens)
    assert all(tok not in tiny_lexicon.stopwords for tok in tokens)
    again = run_pipeline(" ".join(tokens), config, tiny_lexicon, default_rules)
    assert again == tokens


def test_pipeline_idempotent_on_synthetic_corpus(
    synthetic_corpus_path, default_lexicon, default_rules,
):
    from bullyguard.corpus import load_corpus

    config = PipelineConfig()
    for rec in load_corpus(synthetic_corpus_path):
        tokens = run_pipeline(rec.text, config, default_lexicon, default_rules)
        assert run_pipeline(" ".join(tokens), config, default_lexicon, default_rules) == tokens
        assert all(re.fullmatch(r"[a-z]+", tok) for tok in tokens)
        assert all(tok not in default_lexicon.stopwords for tok in tokens)


# ----------------------------------------------------------------------------
# Preprocessor and run_pipeline_trace against an independent whole-list spec
# ----------------------------------------------------------------------------

def reference_trace(text, config, lexicon, rules):
    """The six stage states of text, each stage applied to the whole token
    list in turn: the spec that the per-word stages must reproduce."""
    state = text
    trace = []
    state = case_fold(state) if config.case_fold else state
    trace.append(("case_fold", state))
    state = clean(state) if config.clean else state
    trace.append(("clean", state))

    tokens = tokenize(state)
    if config.normalize:
        normalized = []
        for tok in tokens:
            tok = collapse_elongation(tok, config.elongation_min_run)
            normalized.extend(normalize_slang(tok, lexicon).split(" "))
        tokens = [tok for tok in normalized if tok]
    trace.append(("normalize", list(tokens)))

    if config.remove_stopwords:
        tokens = remove_stopwords(tokens, lexicon)
    trace.append(("stopwords", list(tokens)))

    if config.stem:
        tokens = [stem(tok, rules, lexicon) for tok in tokens]
    trace.append(("stem", list(tokens)))

    trace.append(("tokenize", list(tokens)))
    return trace


# slang that collapses from an elongation, expands to several words, or
# expands to a stopword
MEMO_LEXICON = NormalizationLexicon(
    slang_map={"bgt": "banget", "gk": "tidak", "mksh": "terima kasih",
               "yg": "yang", "tq": "terima kasih banyak"},
    stopwords=frozenset({"yang", "di", "dan", "kasih"}),
    root_words=frozenset({"jelek", "banget", "makan", "bilang", "terima", "main"}),
)
MEMO_WORDS = [
    "Jelekkk", "jelekkk", "bgt", "bgttt", "BGT", "gk", "mksh", "mkshh", "tq", "yg",
    "yang", "yangan", "di", "Dan", "makanan", "dibilang", "mempermainkan", "maaf",
    "aaa", "http://t.co/x", "www.contoh.id/a", "@seseorang", "@a.b_c", "#tagar",
    "!!", "b3go", "123", "😂", "\t", "  ",
]
MEMO_TEXTS = st.lists(
    st.lists(st.sampled_from(MEMO_WORDS) | st.text(max_size=6), max_size=8).map(" ".join),
    min_size=1, max_size=4,
)
ALL_FLAGS = list(itertools.product((False, True), repeat=6))


@settings(max_examples=40, deadline=None)
@given(texts=MEMO_TEXTS, min_run=st.sampled_from([2, 3, 4]))
@example(texts=[" ".join(MEMO_WORDS), " ".join(reversed(MEMO_WORDS))], min_run=3)
def test_preprocessor_equals_spec_for_all_stage_flags(default_rules, texts, min_run):
    assert len(ALL_FLAGS) == 64
    for flags in ALL_FLAGS:
        config = PipelineConfig(*flags, elongation_min_run=min_run)
        prep = Preprocessor(config, MEMO_LEXICON, default_rules)
        for text in texts + texts:  # the second pass reads the memo
            want = reference_trace(text, config, MEMO_LEXICON, default_rules)
            assert prep.tokens(text) == want[-1][1], (flags, text)
            assert run_pipeline_trace(text, config, MEMO_LEXICON, default_rules) == want
        assert prep.corpus(texts) == [run_pipeline(t, config, MEMO_LEXICON, default_rules)
                                      for t in texts]


def test_preprocessor_memo_stays_bounded(monkeypatch, default_lexicon, default_rules):
    monkeypatch.setattr(preprocess, "_MEMO_LIMIT", 5)
    config = PipelineConfig()
    prep = Preprocessor(config, default_lexicon, default_rules)
    words = ["makanan", "dibilang", "jelekkk", "bgt", "yang", "mempermainkan", "kamu"]
    texts = [" ".join(words[i % 7:] + words[:i % 7]) for i in range(20)] + words
    for text in texts:
        want = reference_trace(text, config, default_lexicon, default_rules)
        assert prep.tokens(text) == want[-1][1]
        assert run_pipeline_trace(text, config, default_lexicon, default_rules) == want
        assert len(prep._memo) <= 5


# ----------------------------------------------------------------------------
# lexicon loading
# ----------------------------------------------------------------------------

def test_load_slang_map(tmp_path):
    path = tmp_path / "slang.tsv"
    path.write_text("# comment\nbgt\tbanget\n\ngk\ttidak\n", encoding="utf-8")
    assert load_slang_map(path) == {"bgt": "banget", "gk": "tidak"}


def test_load_slang_map_bad_line(tmp_path):
    path = tmp_path / "slang.tsv"
    path.write_text("bgt banget\n", encoding="utf-8")  # space, not tab
    with pytest.raises(LexiconError, match="slang<TAB>canonical"):
        load_slang_map(path)


def test_load_wordlist(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# c\njelek\nbanget\n", encoding="utf-8")
    assert load_wordlist(path) == frozenset({"jelek", "banget"})


def test_crlf_lexicon_files_load_like_lf(tmp_path, default_lexicon, default_rules):
    crlf = {}
    for name, path in default_lexicon_paths().items():
        crlf[name] = tmp_path / path.name
        crlf[name].write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_lexicon(crlf["slang"], crlf["stopwords"], crlf["root_words"]) == default_lexicon
    assert load_stemmer_rules(crlf["stemmer_rules"]) == default_rules


def test_lexicon_invariants_enforced():
    with pytest.raises(LexiconError, match="maps to itself"):
        NormalizationLexicon(slang_map={"a": "a"}, stopwords=frozenset(), root_words=frozenset())
    with pytest.raises(LexiconError, match="lowercase"):
        NormalizationLexicon(slang_map={"Bgt": "banget"}, stopwords=frozenset(), root_words=frozenset())
    with pytest.raises(LexiconError, match="lowercase"):
        NormalizationLexicon(slang_map={}, stopwords=frozenset({"Yang"}), root_words=frozenset())


def test_default_lexicon_sane(default_lexicon):
    assert len(default_lexicon.slang_map) >= 200
    assert len(default_lexicon.stopwords) >= 120
    assert len(default_lexicon.root_words) >= 2000
    assert default_lexicon.slang_map["bgt"] == "banget"
    assert "yang" in default_lexicon.stopwords
    assert "jelek" in default_lexicon.root_words
    # leetspeak is handled only through explicit slang entries
    assert default_lexicon.slang_map["b3go"] == "bego"


def test_stemmer_rules_file_errors(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("nonsense directive here\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="bad rules directive"):
        load_stemmer_rules(path)
    path.write_text("min_stem_length 3\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="must define"):
        load_stemmer_rules(path)


@pytest.mark.parametrize("raw", ["0", "-5", "abc", "3.0"])
def test_min_stem_length_below_1_or_not_an_integer_is_refused(tmp_path, default_rules, raw):
    path = tmp_path / "rules.txt"
    path.write_text(f"# rules\nmin_stem_length {raw}\ninflectional nya\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=rf"^{re.escape(str(path))}:2: min_stem_length "
                                           rf"must be an integer of at least 1, got '{raw}'$"):
        load_stemmer_rules(path)
    for value in (0, -5, 2.0, "3"):
        with pytest.raises(LexiconError, match="min_stem_length must be an integer"):
            replace(default_rules, min_stem_length=value)


RULES_FORBID_FIRST = """forbid me an
min_stem_length 3
inflectional nya
derivational i an
prefix me me -
prefix di di -
"""


def test_forbid_lines_may_come_before_what_they_name(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(RULES_FORBID_FIRST, encoding="utf-8")
    assert load_stemmer_rules(path).forbidden_pairs == {("me", "an")}


@pytest.mark.parametrize("line, message", [
    ("forbid mee an", "forbid names prefix class 'mee', which no prefix line defines"),
    ("forbid di kan", "forbid names suffix 'kan', which no derivational line lists"),
])
def test_forbid_naming_an_undefined_class_or_suffix_is_refused(tmp_path, line, message):
    path = tmp_path / "rules.txt"
    path.write_text(RULES_FORBID_FIRST + line + "\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=rf"^{re.escape(str(path))}:7: {re.escape(message)}$"):
        load_stemmer_rules(path)


def test_second_min_stem_length_line_is_refused(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(RULES_FORBID_FIRST + "min_stem_length 5\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=rf"^{re.escape(str(path))}:7: second min_stem_length "
                                           rf"line; line 2 already sets it$"):
        load_stemmer_rules(path)


def test_min_stem_length_1_keeps_every_token_non_empty(default_lexicon, default_rules):
    rules = replace(default_rules, min_stem_length=1)
    tokens = Preprocessor(PipelineConfig(), default_lexicon, rules).tokens("an kan nya di")
    assert tokens and all(re.fullmatch(r"[a-z]+", tok) for tok in tokens)


def test_prefix_rule_with_empty_pattern_is_refused(default_rules):
    with pytest.raises(LexiconError, match="empty pattern"):
        replace(default_rules, prefix_rules=(PrefixRule("x", "", ("",)),))


def test_lexicon_file_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"jelek\n\xff\n")
    with pytest.raises(LexiconError, match=rf"^cannot read {re.escape(str(path))}: 'utf-8' codec"):
        load_wordlist(path)
    with pytest.raises(LexiconError, match=re.escape(str(path))):
        load_stemmer_rules(path)


def test_default_rules_shape(default_rules):
    assert default_rules.inflectional_suffixes[0] == "lah"
    assert default_rules.derivational_suffixes == ("i", "an", "kan")
    assert default_rules.min_stem_length == 3
    assert ("me", "an") in default_rules.forbidden_pairs
