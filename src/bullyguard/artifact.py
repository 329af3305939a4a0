"""Portable text-based model persistence for all five model families.

A model artifact is a single self-describing UTF-8 text file with sectioned
blocks and decimal weights at 12 significant digits, so artifacts diff
cleanly, survive version control, and can be re-read by implementations in
other languages. Saving is deterministic: identical training inputs and seed
produce byte-identical files.

The artifact embeds two fingerprints: one over the preprocessing setup
(pipeline flags + lexicons + stemmer rules) and one over the training data.
Prediction refuses a model whose preprocessing fingerprint does not match the
live lexicons unless explicitly forced, because tokens would no longer mean
the same thing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import CLASS_ORDER, CommentRecord, Label
from .features import TfidfConfig, TfidfModel, Vocabulary, transform_all
from .linear_models import (
    CLASSICAL_FAMILIES,
    LinearSvmModel,
    LogisticRegressionModel,
    NaiveBayesModel,
    predict_family,
)
from .neural import (
    BLOCK_NAMES,
    NeuralNetParams,
    NeuralVocab,
    block_shapes,
    encode_batch,
    predict_batch,
)
from .preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    StemmerRules,
)

FORMAT_VERSION = 2  # version 2 stores one fused w, u, b per LSTM direction
MAGIC = "bullyguard-model"
FAMILIES = CLASSICAL_FAMILIES + ("bilstm", "bilstm_attention")


class ArtifactError(Exception):
    """Unreadable, malformed, or incompatible model artifact."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


def preprocessing_fingerprint(
    pipeline: PipelineConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> str:
    """SHA-256 over a canonical rendering of the preprocessing setup."""
    parts = [
        "pipeline:" + ",".join(f"{k}={int(v)}" for k, v in asdict(pipeline).items()),
        "slang:" + ";".join(f"{k}={v}" for k, v in sorted(lexicon.slang_map.items())),
        "stopwords:" + ";".join(sorted(lexicon.stopwords)),
        "roots:" + ";".join(sorted(lexicon.root_words)),
        "rules:inflectional=" + ",".join(rules.inflectional_suffixes)
        + "|derivational=" + ",".join(rules.derivational_suffixes)
        + "|prefix=" + ";".join(
            f"{r.cls}:{r.pattern}:{','.join(rec or '-' for rec in r.recodings)}"
            for r in rules.prefix_rules
        )
        + "|forbid=" + ";".join(f"{c}:{s}" for c, s in sorted(rules.forbidden_pairs))
        + f"|min_stem_length={rules.min_stem_length}",
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def data_fingerprint(records: list[CommentRecord]) -> str:
    h = hashlib.sha256()
    for rec in records:
        row = "\x1f".join([
            str(rec.index), rec.commenter_handle, rec.text,
            rec.label.value, rec.posted_date, rec.target_handle,
        ])
        h.update(row.encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


@dataclass
class ModelArtifact:
    family: str
    seed: int
    majority_label: Label
    preprocessing_fp: str
    data_fp: str
    pipeline: PipelineConfig
    format_version: int = FORMAT_VERSION
    # classical payload
    tfidf: TfidfModel | None = None
    nb: NaiveBayesModel | None = None
    lr: LogisticRegressionModel | None = None
    svm: LinearSvmModel | None = None
    threshold: float = 0.5
    # neural payload
    neural_vocab: NeuralVocab | None = None
    neural_params: NeuralNetParams | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArtifactError(f"unknown model family {self.family!r}")


# ----------------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------------

def _pipeline_lines(pipeline: PipelineConfig) -> list[str]:
    """One line per field; the flags as true/false, the others as numbers."""
    return ["[pipeline]"] + [
        f"{k} {str(v).lower() if isinstance(v, bool) else v}" for k, v in asdict(pipeline).items()]


def _tfidf_lines(model: TfidfModel) -> list[str]:
    lines = [
        "[tfidf]",
        f"sublinear_tf {'true' if model.config.sublinear_tf else 'false'}",
        f"l2_normalize {'true' if model.config.l2_normalize else 'false'}",
        f"min_df {model.config.min_df}",
        f"n_documents {model.vocabulary.n_documents}",
        f"vocab {len(model.vocabulary)}",
    ]
    by_id = sorted(model.vocabulary.token_to_id.items(), key=lambda kv: kv[1])
    for token, idx in by_id:
        if not token or any(ch.isspace() for ch in token):
            raise ArtifactError(f"token not serializable: {token!r}")
        df = model.vocabulary.document_frequency[idx]
        lines.append(f"token {token} {idx} {df} {_fmt(model.idf[idx])}")
    return lines


def save_artifact(artifact: ModelArtifact, path: str | Path) -> None:
    lines = [
        f"{MAGIC} {artifact.format_version}",
        f"family {artifact.family}",
        "[meta]",
        f"seed {artifact.seed}",
        f"majority_label {artifact.majority_label.value}",
        f"preprocessing_fingerprint {artifact.preprocessing_fp}",
        f"data_fingerprint {artifact.data_fp}",
    ]
    lines.extend(_pipeline_lines(artifact.pipeline))
    if artifact.family in CLASSICAL_FAMILIES:
        if artifact.tfidf is None:
            raise ArtifactError("classical artifact requires a fitted tfidf model")
        lines.extend(_tfidf_lines(artifact.tfidf))
    if artifact.family == "nb":
        model = artifact.nb
        lines.extend([
            "[nb]",
            f"alpha {_fmt(model.alpha)}",
            f"log_prior {_fmt_row(model.log_prior)}",
            f"log_likelihood 0 {_fmt_row(model.log_likelihood[0])}",
            f"log_likelihood 1 {_fmt_row(model.log_likelihood[1])}",
        ])
    elif artifact.family == "lr":
        model = artifact.lr
        lines.extend([
            "[lr]",
            f"l2_lambda {_fmt(model.l2_lambda)}",
            # shortest exact form: 12 digits would round 0.9999999999999 up to 1
            f"threshold {float(artifact.threshold)!r}",
            f"bias {_fmt(model.bias)}",
            f"weights {_fmt_row(model.weights)}",
        ])
    elif artifact.family == "svm":
        model = artifact.svm
        lines.extend([
            "[svm]",
            f"reg_lambda {_fmt(model.reg_lambda)}",
            f"bias {_fmt(model.bias)}",
            f"weights {_fmt_row(model.weights)}",
        ])
    else:
        vocab, params = artifact.neural_vocab, artifact.neural_params
        if vocab is None or params is None:
            raise ArtifactError("neural artifact requires vocab and parameters")
        lines.extend([
            "[neural]",
            f"embedding_dim {params.embedding_dim}",
            f"hidden_dim {params.hidden_dim}",
            f"attention_dim {params.attention_dim}",
            f"max_seq_len {vocab.max_seq_len}",
            f"use_attention {'true' if params.use_attention else 'false'}",
            f"vocab {vocab.size}",
        ])
        for token, idx in sorted(vocab.token_to_id.items(), key=lambda kv: kv[1]):
            if not token or any(ch.isspace() for ch in token):
                raise ArtifactError(f"token not serializable: {token!r}")
            lines.append(f"token {token} {idx}")
        for name, arr in params.blocks():
            lines.append(f"[param {name}]")
            lines.append("shape " + " ".join(str(d) for d in arr.shape))
            matrix = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
            lines.extend(_fmt_row(row) for row in matrix)
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------------

class _Cursor:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise ArtifactError("unexpected end of artifact")
        self.pos += 1
        return line

    def expect_kv(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ArtifactError(f"expected {key!r}, found {line!r}")
        return rest


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ArtifactError(f"expected true/false, found {raw!r}")


def _parse_pipeline(cur: _Cursor) -> PipelineConfig:
    if cur.next() != "[pipeline]":
        raise ArtifactError("missing [pipeline] section")
    return PipelineConfig(**{
        f.name: (_parse_bool if isinstance(f.default, bool) else int)(cur.expect_kv(f.name))
        for f in fields(PipelineConfig)})


def _parse_tfidf(cur: _Cursor) -> TfidfModel:
    if cur.next() != "[tfidf]":
        raise ArtifactError("missing [tfidf] section")
    config = TfidfConfig(
        sublinear_tf=_parse_bool(cur.expect_kv("sublinear_tf")),
        l2_normalize=_parse_bool(cur.expect_kv("l2_normalize")),
        min_df=int(cur.expect_kv("min_df")),
    )
    n_documents = int(cur.expect_kv("n_documents"))
    size = int(cur.expect_kv("vocab"))
    token_to_id: dict[str, int] = {}
    document_frequency: dict[int, int] = {}
    idf = [0.0] * size
    for _ in range(size):
        parts = cur.next().split(" ")
        if len(parts) != 5 or parts[0] != "token":
            raise ArtifactError(f"bad tfidf token line: {parts!r}")
        token, idx, df, value = parts[1], int(parts[2]), int(parts[3]), _parse_float(parts[4])
        token_to_id[token] = idx
        document_frequency[idx] = df
        idf[idx] = value
    return TfidfModel(
        vocabulary=Vocabulary(token_to_id, document_frequency, n_documents),
        idf=idf,
        config=config,
    )


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ArtifactError(f"non-finite number {raw!r}")
    return value


def _parse_floats(raw: str, size: int | None = None) -> np.ndarray:
    """A row of numbers; exactly size of them when size is given."""
    values = np.asarray([float(x) for x in raw.split(" ") if x], dtype=np.float64)
    if size is not None and values.size != size:
        raise ArtifactError(f"parameter row has {values.size} numbers, expected {size}")
    return values


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ArtifactError(f"non-finite number in {name}")
    return values


def load_artifact(path: str | Path) -> ModelArtifact:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(f"cannot read model file {path}: {exc}") from exc
    try:
        return _parse_artifact(path, text)
    except ArtifactError:
        raise
    except (ValueError, IndexError, KeyError) as exc:
        raise ArtifactError(f"{path}: malformed model artifact: {exc}") from exc


def _parse_artifact(path: str | Path, text: str) -> ModelArtifact:
    cur = _Cursor(text.splitlines())
    head = cur.next().split(" ")
    if len(head) != 2 or head[0] != MAGIC:
        raise ArtifactError(f"{path}: not a model artifact")
    version = int(head[1])
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    family = cur.expect_kv("family")
    if family not in FAMILIES:
        raise ArtifactError(f"unknown model family {family!r}")
    if cur.next() != "[meta]":
        raise ArtifactError("missing [meta] section")
    seed = int(cur.expect_kv("seed"))
    majority = Label.parse(cur.expect_kv("majority_label"))
    preprocessing_fp = cur.expect_kv("preprocessing_fingerprint")
    data_fp = cur.expect_kv("data_fingerprint")
    pipeline = _parse_pipeline(cur)

    artifact = ModelArtifact(
        family=family, seed=seed, majority_label=majority,
        preprocessing_fp=preprocessing_fp, data_fp=data_fp,
        pipeline=pipeline, format_version=version,
    )
    if family in CLASSICAL_FAMILIES:
        artifact.tfidf = _parse_tfidf(cur)
    if family == "nb":
        if cur.next() != "[nb]":
            raise ArtifactError("missing [nb] section")
        alpha = _parse_float(cur.expect_kv("alpha"))
        log_prior = _finite("log_prior", _parse_floats(cur.expect_kv("log_prior"), 2))
        rows = []
        for cls in range(2):
            raw = cur.expect_kv("log_likelihood")
            idx, _, values = raw.partition(" ")
            if int(idx) != cls:
                raise ArtifactError("log_likelihood rows out of order")
            rows.append(_parse_floats(values, artifact.tfidf.n_features))
        artifact.nb = NaiveBayesModel(
            log_prior=log_prior, log_likelihood=_finite("log_likelihood", np.vstack(rows)),
            alpha=alpha,
        )
    elif family == "lr":
        if cur.next() != "[lr]":
            raise ArtifactError("missing [lr] section")
        l2 = _parse_float(cur.expect_kv("l2_lambda"))
        artifact.threshold = _parse_float(cur.expect_kv("threshold"))
        if not 0.0 < artifact.threshold < 1.0:
            raise ArtifactError(
                f"lr threshold must lie strictly between 0 and 1, got {artifact.threshold!r}")
        bias = _parse_float(cur.expect_kv("bias"))
        weights = _finite("weights", _parse_floats(cur.expect_kv("weights"),
                                                   artifact.tfidf.n_features))
        artifact.lr = LogisticRegressionModel(weights=weights, bias=bias, l2_lambda=l2)
    elif family == "svm":
        if cur.next() != "[svm]":
            raise ArtifactError("missing [svm] section")
        reg = _parse_float(cur.expect_kv("reg_lambda"))
        bias = _parse_float(cur.expect_kv("bias"))
        weights = _finite("weights", _parse_floats(cur.expect_kv("weights"),
                                                   artifact.tfidf.n_features))
        artifact.svm = LinearSvmModel(weights=weights, bias=bias, reg_lambda=reg)
    else:
        if cur.next() != "[neural]":
            raise ArtifactError("missing [neural] section")
        emb_dim = int(cur.expect_kv("embedding_dim"))
        hidden = int(cur.expect_kv("hidden_dim"))
        att_dim = int(cur.expect_kv("attention_dim"))
        max_len = int(cur.expect_kv("max_seq_len"))
        use_att = _parse_bool(cur.expect_kv("use_attention"))
        size = int(cur.expect_kv("vocab"))
        token_to_id: dict[str, int] = {}
        for _ in range(size - 2):  # PAD and UNK are implicit
            parts = cur.next().split(" ")
            if len(parts) != 3 or parts[0] != "token":
                raise ArtifactError(f"bad neural token line: {parts!r}")
            token_to_id[parts[1]] = int(parts[2])
        vocab = NeuralVocab(token_to_id=token_to_id, max_seq_len=max_len)
        arrays: dict[str, np.ndarray] = {}
        expected = block_shapes(size, emb_dim, hidden, att_dim)
        for name in BLOCK_NAMES:
            header = cur.next()
            if header != f"[param {name}]":
                raise ArtifactError(f"expected [param {name}], found {header!r}")
            shape = tuple(int(d) for d in cur.expect_kv("shape").split(" "))
            if shape != expected[name]:
                raise ArtifactError(f"[param {name}] has shape {shape}, expected "
                                    f"{expected[name]} from the vocabulary and [neural] header")
            n_rows = shape[0] if len(shape) > 1 else 1
            rows = [_parse_floats(cur.next(), shape[-1]) for _ in range(n_rows)]
            arrays[name] = _finite(name, np.vstack(rows).reshape(shape))
        artifact.neural_vocab = vocab
        artifact.neural_params = NeuralNetParams.from_blocks(arrays, use_att)
    if cur.next() != "end":
        raise ArtifactError("missing end marker")
    return artifact


# ----------------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------------

@dataclass
class Prediction:
    label: Label
    score: float
    empty_input: bool  # true when the text preprocessed to nothing


def check_fingerprint(
    artifact: ModelArtifact,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
    force: bool = False,
) -> bool:
    """True when the live preprocessing setup matches the artifact's.

    Raises ArtifactError on mismatch unless force is set.
    """
    live = preprocessing_fingerprint(artifact.pipeline, lexicon, rules)
    if live == artifact.preprocessing_fp:
        return True
    if force:
        return False
    raise ArtifactError(
        "preprocessing fingerprint mismatch: the live lexicons/rules differ from "
        "the ones this model was trained with (use --force to override)"
    )


# Neural rows per forward pass: 16 scores as fast as 32, and each larger
# batch only adds peak memory.
PREDICT_BATCH_SIZE = 16


def predict_texts(
    artifact: ModelArtifact,
    texts: list[str],
    prep: Preprocessor,
) -> list[Prediction]:
    """Classify raw comments, one Prediction per text in input order.

    Texts that preprocess to an empty token list fall back to the training
    majority class with the empty_input flag set. Scores are family-specific:
    NB and the neural models report the predicted class's posterior
    probability, LR the positive-class probability, SVM the signed margin.
    NB, LR and SVM score the non-empty texts as one TF-IDF matrix; the neural
    families score them in length-sorted batches so each batch carries
    little padding. prep must run the artifact's own pipeline; one instance
    can serve every chunk of a stream, so its word memo carries over.
    """
    if prep.config != artifact.pipeline:
        raise ValueError("the preprocessor's pipeline differs from the model's")
    token_lists = prep.corpus(texts)
    predictions = [_fallback(artifact) for _ in texts]
    if artifact.family in CLASSICAL_FAMILIES:
        rows = [i for i, tokens in enumerate(token_lists) if tokens]
        X = transform_all([token_lists[i] for i in rows], artifact.tfidf)
        labels, scores = predict_family(
            artifact.family, getattr(artifact, artifact.family), X, artifact.threshold)
        if artifact.family == "nb":  # the predicted class's posterior
            shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
            scores = shifted.max(axis=1) / shifted.sum(axis=1)
    else:
        ids, lens = encode_batch(token_lists, artifact.neural_vocab)
        nonempty = np.flatnonzero(lens)
        rows = nonempty[np.argsort(lens[nonempty], kind="stable")].tolist()
        classes, probs = predict_batch(
            artifact.neural_params, ids[rows], lens[rows], PREDICT_BATCH_SIZE)
        labels = [CLASS_ORDER[cls] for cls in classes.tolist()]
        scores = probs[np.arange(len(rows)), classes]
    for row, label, score in zip(rows, labels, scores.tolist()):
        predictions[row] = Prediction(label, score, False)
    return predictions


def predict_text(
    artifact: ModelArtifact,
    text: str,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> Prediction:
    """Classify one raw comment; see predict_texts."""
    return predict_texts(artifact, [text], Preprocessor(artifact.pipeline, lexicon, rules))[0]


def _fallback(artifact: ModelArtifact) -> Prediction:
    return Prediction(label=artifact.majority_label, score=0.0, empty_input=True)
