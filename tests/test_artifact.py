import numpy as np
import pytest

from bullyguard.artifact import (
    ArtifactError,
    ModelArtifact,
    check_fingerprint,
    data_fingerprint,
    load_artifact,
    predict_text,
    predict_texts,
    preprocessing_fingerprint,
    save_artifact,
)
from bullyguard.corpus import Label
from bullyguard.features import TfidfConfig, fit_tfidf, transform_all
from bullyguard.linear_models import train_family
from bullyguard.neural import TrainConfig, build_neural_vocab, encode_batch, train
from bullyguard.preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    preprocess_corpus,
)
from conftest import make_record

B, N = Label.BULLYING, Label.NON_BULLYING


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
    model = train_family(family, transform_all(tokens, tfidf), labels, params or {}, 42)
    artifact = ModelArtifact(
        family=family, seed=42, majority_label=B,
        preprocessing_fp=preprocessing_fingerprint(pipeline, lexicon, rules),
        data_fp=data_fingerprint(records),
        pipeline=pipeline, tfidf=tfidf,
    )
    setattr(artifact, family, model)
    return artifact


def build_neural_artifact(use_attention, records, lexicon, rules):
    pipeline = PipelineConfig()
    tokens = preprocess_corpus([r.text for r in records], pipeline, lexicon, rules)
    labels = np.asarray([r.label.index for r in records], dtype=np.int64)
    vocab = build_neural_vocab(tokens)
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
        pipeline=pipeline, neural_vocab=vocab, neural_params=params,
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
    path.write_text(text.replace("bullyguard-model 1", "bullyguard-model 2", 1),
                    encoding="utf-8")
    with pytest.raises(ArtifactError, match="unsupported format version"):
        load_artifact(path)


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
