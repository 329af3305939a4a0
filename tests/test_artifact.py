import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bullyguard.artifact import (
    FORMAT_VERSION,
    ArtifactError,
    ModelArtifact,
    _fmt_row,
    check_fingerprint,
    data_fingerprint,
    load_artifact,
    predict_text,
    predict_texts,
    preprocessing_fingerprint,
    save_artifact,
)
from bullyguard.corpus import Label
from bullyguard.features import TfidfConfig, TfidfModel, Vocabulary, fit_tfidf, transform_all
from bullyguard.linear_models import (
    LinearSvmModel,
    LogisticRegressionModel,
    NaiveBayesModel,
    train_family,
)
from bullyguard.neural import (
    NeuralVocab,
    TrainConfig,
    build_neural_vocab,
    encode_batch,
    init_params,
    train,
)
from bullyguard.preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    preprocess_corpus,
)
from bullyguard.rng import Rng
from conftest import make_record

B, N = Label.BULLYING, Label.NON_BULLYING
DEFAULT = TrainConfig()  # its min_freq and max_len_cap build each vocabulary


def corpus_fixture():
    records = []
    for i in range(10):
        records.append(make_record(
            index=2 * i + 1, text=f"dasar jelek bego nomor{i % 3}", label=B))
        records.append(make_record(
            index=2 * i + 2, text=f"kamu keren bagus nomor{i % 3}", label=N))
    return records


def build_classical_artifact(family, records, lexicon, rules, params=None):
    pipeline = PipelineConfig()
    tokens = preprocess_corpus([r.text for r in records], pipeline, lexicon, rules)
    labels = [r.label for r in records]
    tfidf = fit_tfidf(tokens, TfidfConfig())
    model = train_family(family, transform_all(tokens, tfidf), tfidf.n_features, labels,
                         params or {}, 42)
    return ModelArtifact(
        family=family, seed=42, majority_label=B,
        preprocessing_fp=preprocessing_fingerprint(pipeline, lexicon, rules),
        data_fp=data_fingerprint(records),
        pipeline=pipeline, tfidf=tfidf, model=model,
    )


def build_neural_artifact(use_attention, records, lexicon, rules):
    pipeline = PipelineConfig()
    tokens = preprocess_corpus([r.text for r in records], pipeline, lexicon, rules)
    labels = np.asarray([r.label.index for r in records], dtype=np.int64)
    vocab = build_neural_vocab(tokens, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(tokens, vocab)
    config = TrainConfig(batch_size=8, embedding_dim=8, hidden_dim=4,
                         attention_dim=4, learning_rate=0.05,
                         max_epochs=2, patience=2, seed=42)
    params, _ = train(use_attention, (ids, lens, labels), (ids, lens, labels),
                      config, vocab.size)
    return ModelArtifact(
        family="bilstm_attention" if use_attention else "bilstm",
        seed=42, majority_label=B,
        preprocessing_fp=preprocessing_fingerprint(pipeline, lexicon, rules),
        data_fp=data_fingerprint(records),
        pipeline=pipeline, neural_vocab=vocab, model=params,
    )


FIXTURE_LINES = [
    "dasar jelek banget kamu",
    "keren banget penampilannya",
    "bego tolol jelek",
    "bagus sekali fotonya",
    "@seseorang jelek bgt!!",
    "mantap kak keren",
    "dasar norak kampungan",
    "suka banget lagunya bagus",
    "jelek jelek jelek",
    "hebat keren bagus mantap",
    "kamu bego banget sih",
    "cantik banget kakak",
    "sampah banget kontennya jelek",
    "pintar dan rajin sekali",
    "gendut jelek dekil",
    "imut banget sih",
    "tolol bgt dasar",
    "kereeen bangettt",
    "jelekkk bangettt muka kamu",
    "senyumnya manis banget",
]


@pytest.mark.parametrize("family", ["nb", "lr", "svm", "bilstm", "bilstm_attention"])
def test_artifact_roundtrip_predictions(tmp_path, family, default_lexicon, default_rules):
    records = corpus_fixture()
    if family in ("nb", "lr", "svm"):
        artifact = build_classical_artifact(family, records, default_lexicon, default_rules)
    else:
        artifact = build_neural_artifact(family == "bilstm_attention", records,
                                         default_lexicon, default_rules)
    path = tmp_path / f"{family}.model"
    save_artifact(artifact, path)
    loaded = load_artifact(path)
    assert loaded.family == family
    assert loaded.preprocessing_fp == artifact.preprocessing_fp
    assert loaded.data_fp == artifact.data_fp
    for line in FIXTURE_LINES:
        before = predict_text(artifact, line, default_lexicon, default_rules)
        after = predict_text(loaded, line, default_lexicon, default_rules)
        assert before.label is after.label, line
        assert before.score == pytest.approx(after.score, abs=1e-9)
        assert before.empty_input == after.empty_input


@pytest.mark.parametrize("family", ["nb", "lr", "svm", "bilstm", "bilstm_attention"])
def test_artifact_bytes_deterministic(tmp_path, family, default_lexicon, default_rules):
    records = corpus_fixture()

    def build():
        if family in ("nb", "lr", "svm"):
            return build_classical_artifact(family, records, default_lexicon, default_rules)
        return build_neural_artifact(family == "bilstm_attention", records,
                                     default_lexicon, default_rules)

    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_artifact(build(), p1)
    save_artifact(build(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_artifact_version_rejected(tmp_path, default_lexicon, default_rules):
    artifact = build_classical_artifact("nb", corpus_fixture(),
                                        default_lexicon, default_rules)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("bullyguard-model 2\n") and FORMAT_VERSION == 2
    for other in (1, 3):  # 1 is the per-gate LSTM layout, which must be retrained
        path.write_text(text.replace("bullyguard-model 2", f"bullyguard-model {other}", 1),
                        encoding="utf-8")
        with pytest.raises(ArtifactError, match="unsupported format version"):
            load_artifact(path)


def test_lr_threshold_saved_exactly(tmp_path, default_lexicon, default_rules):
    artifact = build_classical_artifact("lr", corpus_fixture(), default_lexicon, default_rules)
    path = tmp_path / "m.model"
    # 12 significant digits would write the first as 1, which loading refuses
    for threshold in (float(np.nextafter(1.0, 0.0)), 5e-324, 0.3):
        artifact.threshold = threshold
        save_artifact(artifact, path)
        assert load_artifact(path).threshold == threshold


def test_artifact_not_a_model(tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("hello world\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="not a model artifact"):
        load_artifact(path)
    with pytest.raises(ArtifactError, match="cannot read"):
        load_artifact(tmp_path / "missing.model")


def test_artifact_truncated_or_corrupt(tmp_path, default_lexicon, default_rules):
    artifact = build_classical_artifact("lr", corpus_fixture(),
                                        default_lexicon, default_rules)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    lines = path.read_text(encoding="utf-8").splitlines()

    truncated = tmp_path / "trunc.model"
    truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactError):
        load_artifact(truncated)

    corrupt = tmp_path / "corrupt.model"
    corrupt.write_text(
        "\n".join(line.replace("bias ", "bias not_a_number ", 1) for line in lines) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ArtifactError, match="malformed"):
        load_artifact(corrupt)


def test_fingerprint_gate(tmp_path, default_lexicon, default_rules):
    artifact = build_classical_artifact("lr", corpus_fixture(),
                                        default_lexicon, default_rules)
    assert check_fingerprint(artifact, default_lexicon, default_rules)
    altered = NormalizationLexicon(
        slang_map=dict(default_lexicon.slang_map, zzz="banget"),
        stopwords=default_lexicon.stopwords,
        root_words=default_lexicon.root_words,
    )
    with pytest.raises(ArtifactError, match="fingerprint mismatch"):
        check_fingerprint(artifact, altered, default_rules)
    assert check_fingerprint(artifact, altered, default_rules, force=True) is False


def test_fingerprint_sensitive_to_pipeline_flags(default_lexicon, default_rules):
    fp1 = preprocessing_fingerprint(PipelineConfig(), default_lexicon, default_rules)
    fp2 = preprocessing_fingerprint(PipelineConfig(stem=False), default_lexicon, default_rules)
    assert fp1 != fp2


def test_pipeline_text_in_artifacts_is_pinned(tmp_path, default_lexicon, default_rules):
    """Saved artifacts carry these fingerprints and this [pipeline] section;
    renaming or reordering a PipelineConfig field must change neither."""
    keep_function_words = PipelineConfig(remove_stopwords=False, stem=False)
    assert preprocessing_fingerprint(PipelineConfig(), default_lexicon, default_rules) == (
        "636086e8f8ba65ab916470b19972398dd65ece7b53facc7dcd19423eb19348e5")
    assert preprocessing_fingerprint(keep_function_words, default_lexicon, default_rules) == (
        "114bf777f5ed32453d181e6136c4d745aa2af553a9003af617a87214cea24171")
    artifact = build_classical_artifact("nb", corpus_fixture(), default_lexicon, default_rules)
    artifact.pipeline = PipelineConfig(remove_stopwords=False, stem=False, elongation_min_run=4)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("[pipeline]")
    assert lines[start:lines.index("[tfidf]")] == [
        "[pipeline]", "case_fold true", "clean true", "normalize true",
        "remove_stopwords false", "stem false", "tokenize true", "elongation_min_run 4",
    ]
    assert load_artifact(path).pipeline == artifact.pipeline


@pytest.mark.parametrize("family, section", [
    ("nb", ["[nb]", "alpha", "log_prior", "log_likelihood", "log_likelihood"]),
    ("lr", ["[lr]", "l2_lambda", "threshold", "bias", "weights"]),
    ("svm", ["[svm]", "reg_lambda", "bias", "weights"]),
])
def test_classical_text_in_artifacts_is_pinned(tmp_path, default_lexicon, default_rules,
                                               family, section):
    """Saved classical artifacts keep this key order from [tfidf] to the end
    marker, token ids in order and the log_likelihood row indices."""
    artifact = build_classical_artifact(family, corpus_fixture(), default_lexicon, default_rules)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = lines[lines.index("[tfidf]"):]
    n_tokens = artifact.tfidf.n_features
    assert [line.split(" ", 1)[0] for line in lines] == (
        ["[tfidf]", "sublinear_tf", "l2_normalize", "min_df", "n_documents", "vocab"]
        + ["token"] * n_tokens + section + ["end"])
    assert [line.split(" ")[2] for line in lines[6:6 + n_tokens]] == [
        str(i) for i in range(n_tokens)]
    assert [line.split(" ")[1] for line in lines if line.startswith("log_likelihood ")] == (
        ["0", "1"] if family == "nb" else [])


@pytest.mark.parametrize("family", ["bilstm", "bilstm_attention"])
def test_neural_text_in_artifacts_is_pinned(tmp_path, default_lexicon, default_rules, family):
    """Saved neural artifacts keep this key order from [neural] to the end
    marker, token ids in order, and these parameter blocks: their order, shape
    lines and row counts (embedding dim 8, hidden 4, attention 4)."""
    artifact = build_neural_artifact(family == "bilstm_attention", corpus_fixture(),
                                     default_lexicon, default_rules)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = lines[lines.index("[neural]"):]
    v = artifact.neural_vocab.size
    blocks = [
        ("embedding", (v, 8)),
        ("fwd.w", (8, 16)), ("fwd.u", (4, 16)), ("fwd.b", (16,)),
        ("bwd.w", (8, 16)), ("bwd.u", (4, 16)), ("bwd.b", (16,)),
        ("att.w", (8, 4)), ("att.v", (4,)), ("att.b", (4,)),
        ("head.w", (8, 2)), ("head.b", (2,)),
    ]
    head = lines[:lines.index("[param embedding]")]
    assert [line.split(" ", 1)[0] for line in head] == (
        ["[neural]", "embedding_dim", "hidden_dim", "attention_dim", "max_seq_len",
         "use_attention", "vocab"] + ["token"] * (v - 2))
    assert [line.split(" ")[2] for line in head[7:]] == [str(i) for i in range(2, v)]
    i = len(head)
    for name, shape in blocks:
        n_rows = shape[0] if len(shape) > 1 else 1
        assert lines[i:i + 2] == [f"[param {name}]", "shape " + " ".join(map(str, shape))]
        rows = lines[i + 2:i + 2 + n_rows]
        assert [len(row.split(" ")) for row in rows] == [shape[-1]] * n_rows, name
        i += 2 + n_rows
    assert lines[i:] == ["end"]


def test_data_fingerprint_orders_and_content():
    records = corpus_fixture()
    fp = data_fingerprint(records)
    assert fp == data_fingerprint(list(records))
    assert fp != data_fingerprint(records[::-1])
    altered = records[:-1] + [make_record(index=999, text="beda sendiri", label=N)]
    assert fp != data_fingerprint(altered)


def test_predict_empty_input_majority_fallback(default_lexicon, default_rules):
    artifact = build_classical_artifact("nb", corpus_fixture(),
                                        default_lexicon, default_rules)
    pred = predict_text(artifact, "!!! 123 @user", default_lexicon, default_rules)
    assert pred.empty_input and pred.label is artifact.majority_label


def test_predict_texts_rejects_a_preprocessor_for_another_pipeline(
        default_lexicon, default_rules):
    artifact = build_classical_artifact("nb", corpus_fixture(),
                                        default_lexicon, default_rules)
    other = Preprocessor(PipelineConfig(stem=False), default_lexicon, default_rules)
    with pytest.raises(ValueError, match="pipeline differs"):
        predict_texts(artifact, FIXTURE_LINES, other)
    same = Preprocessor(PipelineConfig(), default_lexicon, default_rules)
    assert predict_texts(artifact, FIXTURE_LINES, same) == [
        predict_text(artifact, line, default_lexicon, default_rules) for line in FIXTURE_LINES]


# ----------------------------------------------------------------------------
# round-trip properties
# ----------------------------------------------------------------------------

TOKENS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda tok: not any(ch.isspace() for ch in tok))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def floats(draw, shape):
    return np.asarray(draw(st.lists(FINITE, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def artifacts(draw):
    """Any savable artifact: arbitrary tokens, flags and finite numbers."""
    family = draw(st.sampled_from(["nb", "lr", "svm", "bilstm", "bilstm_attention"]))
    artifact = ModelArtifact(
        family=family,
        seed=draw(st.integers(0, 2**63 - 1)),
        majority_label=draw(st.sampled_from([B, N])),
        preprocessing_fp=draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
        data_fp=draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
        pipeline=PipelineConfig(*draw(st.lists(st.booleans(), min_size=6, max_size=6)),
                                elongation_min_run=draw(st.integers(2, 6))),
    )
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=6, unique=True))
    v = len(tokens)
    if family in ("bilstm", "bilstm_attention"):
        artifact.neural_vocab = NeuralVocab({tok: i + 2 for i, tok in enumerate(tokens)},
                                            max_seq_len=draw(st.integers(1, 8)))
        config = TrainConfig(embedding_dim=draw(st.integers(1, 4)),
                             hidden_dim=draw(st.integers(1, 3)),
                             attention_dim=draw(st.integers(1, 3)))
        params = init_params(v + 2, config, family == "bilstm_attention",
                             Rng(draw(st.integers(0, 2**32))))
        for arr in params.blocks.values():  # one arbitrary number per block
            arr.reshape(-1)[draw(st.integers(0, arr.size - 1))] = draw(FINITE)
        artifact.model = params
        return artifact
    artifact.tfidf = TfidfModel(
        vocabulary=Vocabulary({tok: i for i, tok in enumerate(tokens)},
                              {i: draw(st.integers(1, 50)) for i in range(v)},
                              draw(st.integers(1, 50))),
        idf=floats(draw, (v,)).tolist(),
        config=TfidfConfig(draw(st.booleans()), draw(st.booleans()), draw(st.integers(1, 3))),
    )
    if family == "nb":
        artifact.model = NaiveBayesModel(floats(draw, (2,)).tolist(),
                                         floats(draw, (2, v)).tolist(), draw(FINITE))
    elif family == "lr":
        artifact.model = LogisticRegressionModel(floats(draw, (v,)).tolist(), draw(FINITE),
                                                 draw(FINITE))
        artifact.threshold = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        artifact.model = LinearSvmModel(floats(draw, (v,)).tolist(), draw(FINITE), draw(FINITE))
    return artifact


@settings(max_examples=60, deadline=None)
@given(artifacts())
def test_artifact_save_load_save_is_byte_identical(artifact):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.model", Path(tmp) / "second.model"
        save_artifact(artifact, first)
        save_artifact(load_artifact(first), second)
        assert second.read_bytes() == first.read_bytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), use_attention=st.booleans(),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)))
def test_loaded_neural_artifact_predicts_the_same(seed, use_attention, dims,
                                                  default_lexicon, default_rules):
    prep = Preprocessor(PipelineConfig(), default_lexicon, default_rules)
    vocab = build_neural_vocab(prep.corpus(FIXTURE_LINES[::2]),  # odd lines meet OOV tokens
                               DEFAULT.min_freq, DEFAULT.max_len_cap)
    embedding_dim, hidden_dim, attention_dim = dims
    config = TrainConfig(embedding_dim=embedding_dim, hidden_dim=hidden_dim,
                         attention_dim=attention_dim)
    artifact = ModelArtifact(
        family="bilstm_attention" if use_attention else "bilstm", seed=seed,
        majority_label=N, preprocessing_fp="0" * 64, data_fp="0" * 64,
        pipeline=PipelineConfig(), neural_vocab=vocab,
        model=init_params(vocab.size, config, use_attention, Rng(seed)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        save_artifact(loaded, path)
        reloaded = load_artifact(path)
    before = predict_texts(artifact, FIXTURE_LINES, prep)
    after = predict_texts(loaded, FIXTURE_LINES, prep)
    assert [p.label for p in after] == [p.label for p in before]
    assert [p.empty_input for p in after] == [p.empty_input for p in before]
    # the file keeps 12 significant digits, so scores move by far less than 1e-9
    np.testing.assert_allclose([p.score for p in after], [p.score for p in before],
                               rtol=0, atol=1e-9)
    assert predict_texts(reloaded, FIXTURE_LINES, prep) == after


# Numbers at the edges of the .12g text: signed zeros, subnormals, the
# switches to exponent form below 1e-4 and at 1e12, integral values, and
# values that round up to the next power of ten.
EDGE_NUMBERS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e-05, -1e-05, 9.9999999999995e-06, 0.0001, 9.99999999999949e-05,
    1e16, -1e16, 9.999999999995e15, 1e15, 999999999999.5, 1e12, 123456789012.0,
    3.0, -7.0, 1.0, 2.0**53, 1 / 3, -2 / 3, 0.1, 1.7976931348623157e308,
]


def test_rows_are_written_as_the_per_number_writer_wrote_them():
    rng = Rng(9)
    rows = [EDGE_NUMBERS, EDGE_NUMBERS[::-1], rng.uniform_array((50,), -4.0, 4.0).tolist(),
            [x * 1e-300 for x in rng.uniform_array((20,), -1.0, 1.0).tolist()],
            list(np.float64(EDGE_NUMBERS)), [7.5]]
    for row in rows:
        assert _fmt_row(row) == " ".join(format(float(x), ".12g") for x in row)


def test_neural_blocks_read_back_as_float_reads_their_text(tmp_path):
    vocab = NeuralVocab(token_to_id={"halo": 2, "jelek": 3}, max_seq_len=3)
    config = TrainConfig(embedding_dim=len(EDGE_NUMBERS), hidden_dim=2, attention_dim=2)
    params = init_params(vocab.size, config, True, Rng(4))
    params.blocks["embedding"][1] = EDGE_NUMBERS
    params.blocks["embedding"][2] = [-x for x in EDGE_NUMBERS]
    artifact = ModelArtifact(
        family="bilstm_attention", seed=4, majority_label=N, preprocessing_fp="0" * 64,
        data_fp="0" * 64, pipeline=PipelineConfig(), neural_vocab=vocab, model=params)
    path = tmp_path / "m.model"
    save_artifact(artifact, path)
    loaded = load_artifact(path).model
    for name, arr in params.blocks.items():
        want = np.asarray([float(format(x, ".12g")) for x in arr.ravel().tolist()])
        got = loaded.blocks[name]
        assert got.shape == arr.shape
        assert got.ravel().tobytes() == want.tobytes(), name
