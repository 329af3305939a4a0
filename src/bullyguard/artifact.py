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
import itertools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .base import CLASS_ORDER, Label
from .features import TfidfConfig, TfidfModel, Vocabulary, transform_all
from .linear_models import (
    CLASSICAL_FAMILIES,
    LinearSvmModel,
    LogisticRegressionModel,
    NaiveBayesModel,
    predict_family,
)
from .preprocess import (
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    StemmerRules,
)

# neural and numpy are imported only where a neural artifact is read or
# scored, so a classical predict never loads them; nor does it load corpus
if TYPE_CHECKING:
    from .corpus import CommentRecord
    from .neural import NeuralNetParams, NeuralVocab

FORMAT_VERSION = 2  # version 2 stores one fused w, u, b per LSTM direction
MAGIC = "bullyguard-model"
FAMILIES = CLASSICAL_FAMILIES + ("bilstm", "bilstm_attention")


class ArtifactError(Exception):
    """Unreadable, malformed, or incompatible model artifact."""


class FingerprintMismatch(ArtifactError):
    """The live preprocessing setup differs from the artifact's."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_row(values) -> str:
    """Numbers as _fmt writes them, in one format operation: %-formatting
    with .12g converts each float exactly as format(x, ".12g") does."""
    return " ".join(["%.12g"] * len(values)) % tuple(values)


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
    model: NaiveBayesModel | LogisticRegressionModel | LinearSvmModel | NeuralNetParams | None = None
    tfidf: TfidfModel | None = None  # classical families
    threshold: float = 0.5  # LR only
    neural_vocab: NeuralVocab | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArtifactError(f"unknown model family {self.family!r}")


# Per classical family, in file order: the model class, its scalar keys and
# its row keys (a 2-D row key takes one indexed line per row). threshold
# belongs to the artifact, not to the LR model.
_CLASSICAL_SECTIONS = {
    "nb": (NaiveBayesModel, ("alpha",), ("log_prior", "log_likelihood")),
    "lr": (LogisticRegressionModel, ("l2_lambda", "threshold", "bias"), ("weights",)),
    "svm": (LinearSvmModel, ("reg_lambda", "bias"), ("weights",)),
}


# ----------------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------------

def _flag_lines(section: str, config) -> list[str]:
    """One line per dataclass field; the booleans as true/false, the others as numbers."""
    return [f"[{section}]"] + [
        f"{k} {str(v).lower() if isinstance(v, bool) else v}" for k, v in asdict(config).items()]


def _token_lines(token_to_id: dict[str, int], rest) -> list[str]:
    """One `token t id` line per token in id order, followed by rest(id)."""
    lines = []
    for token, idx in sorted(token_to_id.items(), key=lambda kv: kv[1]):
        if not token or any(ch.isspace() for ch in token):
            raise ArtifactError(f"token not serializable: {token!r}")
        lines.append(f"token {token} {idx}{rest(idx)}")
    return lines


def _classical_lines(artifact: ModelArtifact) -> list[str]:
    """[tfidf], then the family's section."""
    tfidf, model = artifact.tfidf, artifact.model
    lines = _flag_lines("tfidf", tfidf.config) + [
        f"n_documents {tfidf.vocabulary.n_documents}", f"vocab {len(tfidf.vocabulary)}"]
    lines += _token_lines(tfidf.vocabulary.token_to_id, lambda idx: (
        f" {tfidf.vocabulary.document_frequency[idx]} {_fmt(tfidf.idf[idx])}"))
    _, scalars, rows = _CLASSICAL_SECTIONS[artifact.family]
    lines.append(f"[{artifact.family}]")
    for key in scalars:
        if key == "threshold":  # shortest exact form: 12 digits would round 0.9999999999999 up to 1
            lines.append(f"{key} {float(artifact.threshold)!r}")
        else:
            lines.append(f"{key} {_fmt(getattr(model, key))}")
    for key in rows:
        values = getattr(model, key)
        if isinstance(values[0], list):
            lines.extend(f"{key} {i} {_fmt_row(row)}" for i, row in enumerate(values))
        else:
            lines.append(f"{key} {_fmt_row(values)}")
    return lines


def _param_lines(params: NeuralNetParams):
    """Each block's header, shape and rows, one line at a time."""
    for name, arr in params.blocks.items():
        yield f"[param {name}]"
        yield "shape " + " ".join(str(d) for d in arr.shape)
        for row in arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1):
            yield _fmt_row(row.tolist())


def save_artifact(artifact: ModelArtifact, path: str | Path) -> None:
    """Write the artifact line by line; everything but the neural parameter
    rows is built and checked before the file is opened."""
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"family {artifact.family}",
        "[meta]",
        f"seed {artifact.seed}",
        f"majority_label {artifact.majority_label.value}",
        f"preprocessing_fingerprint {artifact.preprocessing_fp}",
        f"data_fingerprint {artifact.data_fp}",
    ]
    lines.extend(_flag_lines("pipeline", artifact.pipeline))
    rows = ()  # the neural parameter rows, formatted as they are written
    if artifact.family in CLASSICAL_FAMILIES:
        if artifact.tfidf is None or artifact.model is None:
            raise ArtifactError("classical artifact requires a fitted tfidf model and classifier")
        lines.extend(_classical_lines(artifact))
    else:
        vocab, params = artifact.neural_vocab, artifact.model
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
        lines.extend(_token_lines(vocab.token_to_id, lambda idx: ""))
        rows = _param_lines(params)
    with Path(path).open("w", encoding="utf-8") as handle:
        for line in itertools.chain(lines, rows, ["end"]):
            handle.write(line + "\n")


# ----------------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------------

class _Cursor:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos == len(self.lines):
            raise ArtifactError("unexpected end of artifact")
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect_kv(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ArtifactError(f"expected {key!r}, found {line!r}")
        return rest

    def section(self, name: str) -> None:
        if self.next() != f"[{name}]":
            raise ArtifactError(f"missing [{name}] section")


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ArtifactError(f"expected true/false, found {raw!r}")


def _parse_flags(cur: _Cursor, section: str, cls):
    """The section written by _flag_lines, as a cls instance."""
    cur.section(section)
    return cls(**{
        f.name: (_parse_bool if isinstance(f.default, bool) else int)(cur.expect_kv(f.name))
        for f in fields(cls)})


def _parse_tokens(cur: _Cursor, kind: str, n: int, first: int,
                  n_fields: int) -> tuple[dict[str, int], list[list[str]]]:
    """n lines `token t id ...` of n_fields words, with the ids first ..
    first + n - 1 each once; token -> id and the further words by id - first."""
    token_to_id: dict[str, int] = {}
    rest: list = [None] * n
    for _ in range(n):
        parts = cur.next().split(" ")
        if len(parts) != n_fields or parts[0] != "token":
            raise ArtifactError(f"bad {kind} token line: {parts!r}")
        idx = int(parts[2])
        if not first <= idx < first + n or rest[idx - first] is not None:
            raise ArtifactError(f"{kind} token id {idx} is repeated or outside "
                                f"{first}..{first + n - 1}")
        token_to_id[parts[1]] = idx
        rest[idx - first] = parts[3:]
    return token_to_id, rest


def _parse_tfidf(cur: _Cursor) -> TfidfModel:
    config = _parse_flags(cur, "tfidf", TfidfConfig)
    n_documents = int(cur.expect_kv("n_documents"))
    size = int(cur.expect_kv("vocab"))
    token_to_id, rest = _parse_tokens(cur, "tfidf", size, 0, 5)
    return TfidfModel(
        vocabulary=Vocabulary(token_to_id, {idx: int(df) for idx, (df, _) in enumerate(rest)},
                              n_documents),
        idf=[_parse_float(idf) for _, idf in rest],
        config=config,
    )


def _parse_classical(cur: _Cursor, artifact: ModelArtifact) -> None:
    """Read the family's section into artifact.model (and the LR threshold)."""
    cls, scalars, rows = _CLASSICAL_SECTIONS[artifact.family]
    cur.section(artifact.family)
    values = {key: _parse_float(cur.expect_kv(key)) for key in scalars}
    artifact.threshold = values.pop("threshold", artifact.threshold)
    if not 0.0 < artifact.threshold < 1.0:
        raise ArtifactError(
            f"lr threshold must lie strictly between 0 and 1, got {artifact.threshold!r}")
    v = artifact.tfidf.n_features
    shapes = {"log_prior": (2,), "log_likelihood": (2, v), "weights": (v,)}
    for key in rows:
        shape = shapes[key]
        if len(shape) == 1:
            values[key] = _parse_floats(cur.expect_kv(key), shape[0], key)
            continue
        matrix = []
        for i in range(shape[0]):
            idx, _, raw = cur.expect_kv(key).partition(" ")
            if int(idx) != i:
                raise ArtifactError(f"{key} rows out of order")
            matrix.append(_parse_floats(raw, shape[1], key))
        values[key] = matrix
    artifact.model = cls(**values)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ArtifactError(f"non-finite number {raw!r}")
    return value


def _parse_floats(raw: str, size: int, name: str) -> list[float]:
    """A row of exactly size finite numbers of the block name."""
    values = [float(x) for x in raw.split(" ") if x]
    if len(values) != size:
        raise ArtifactError(f"parameter row has {len(values)} numbers, expected {size}")
    if not all(map(math.isfinite, values)):
        raise ArtifactError(f"non-finite number in {name}")
    return values


def load_artifact(path: str | Path) -> ModelArtifact:
    try:  # only the lines outlive this statement, not the whole-file string
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ArtifactError(f"cannot read model file {path}: {exc}") from exc
    try:
        return _parse_artifact(path, lines)
    except ArtifactError:
        raise
    except (ValueError, IndexError, KeyError) as exc:
        raise ArtifactError(f"{path}: malformed model artifact: {exc}") from exc


def _parse_neural(cur: _Cursor, artifact: ModelArtifact) -> None:
    """Read the [neural] header, the vocabulary and the parameter blocks
    into artifact.neural_vocab and artifact.model."""
    import numpy as np

    from .neural import BLOCK_NAMES, NeuralNetParams, NeuralVocab, block_shapes

    cur.section("neural")
    emb_dim = int(cur.expect_kv("embedding_dim"))
    hidden = int(cur.expect_kv("hidden_dim"))
    att_dim = int(cur.expect_kv("attention_dim"))
    max_len = int(cur.expect_kv("max_seq_len"))
    if max_len < 1:
        raise ArtifactError(f"[neural] max_seq_len {max_len} leaves no token to classify")
    use_att = _parse_bool(cur.expect_kv("use_attention"))
    if use_att != (artifact.family == "bilstm_attention"):
        raise ArtifactError(f"[neural] use_attention contradicts family {artifact.family}")
    size = int(cur.expect_kv("vocab"))
    if size < 2:
        raise ArtifactError(f"[neural] vocab {size} leaves no rows for PAD and UNK")
    token_to_id, _ = _parse_tokens(cur, "neural", size - 2, 2, 3)  # PAD, UNK implicit
    artifact.neural_vocab = NeuralVocab(token_to_id=token_to_id, max_seq_len=max_len)
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
        block = np.empty((shape[0] if len(shape) > 1 else 1, shape[-1]))
        for row in block:  # numpy reads each number as float() does
            numbers = cur.next().split(" ")
            if len(numbers) != row.size:
                raise ArtifactError(
                    f"parameter row has {len(numbers)} numbers, expected {row.size}")
            row[:] = np.array(numbers, dtype=np.float64)
        if not np.isfinite(block).all():
            raise ArtifactError(f"non-finite number in {name}")
        arrays[name] = block.reshape(shape)
    artifact.model = NeuralNetParams(arrays, use_att)


def _parse_artifact(path: str | Path, lines: list[str]) -> ModelArtifact:
    cur = _Cursor(lines)
    head = cur.next().split(" ")
    if len(head) != 2 or head[0] != MAGIC:
        raise ArtifactError(f"{path}: not a model artifact")
    version = int(head[1])
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    family = cur.expect_kv("family")  # ModelArtifact rejects an unknown one
    cur.section("meta")
    artifact = ModelArtifact(
        family=family,
        seed=int(cur.expect_kv("seed")),
        majority_label=Label.parse(cur.expect_kv("majority_label")),
        preprocessing_fp=cur.expect_kv("preprocessing_fingerprint"),
        data_fp=cur.expect_kv("data_fingerprint"),
        pipeline=_parse_flags(cur, "pipeline", PipelineConfig),
    )
    if family in CLASSICAL_FAMILIES:
        artifact.tfidf = _parse_tfidf(cur)
        _parse_classical(cur, artifact)
    else:
        _parse_neural(cur, artifact)
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

    Raises FingerprintMismatch on mismatch unless force is set.
    """
    live = preprocessing_fingerprint(artifact.pipeline, lexicon, rules)
    if live == artifact.preprocessing_fp:
        return True
    if force:
        return False
    raise FingerprintMismatch(
        "preprocessing fingerprint mismatch: the live lexicons/rules differ from "
        "the ones this model was trained with (use --force to override)"
    )


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
    NB, LR and SVM score the non-empty texts' TF-IDF rows with Python sums;
    the neural families score them in length-sorted passes of a fixed token
    budget (neural.predict_batch). prep must run the artifact's own pipeline;
    one instance can serve every chunk of a stream, so its word memo carries
    over.
    """
    if prep.config != artifact.pipeline:
        raise ValueError("the preprocessor's pipeline differs from the model's")
    token_lists = prep.corpus(texts)
    if artifact.family in CLASSICAL_FAMILIES:
        rows = [i for i, tokens in enumerate(token_lists) if tokens]
        X = transform_all([token_lists[i] for i in rows], artifact.tfidf)
        labels, scores = predict_family(artifact.family, artifact.model, X, artifact.threshold)
    else:
        import numpy as np

        from .neural import encode_batch, predict_batch

        ids, lens = encode_batch(token_lists, artifact.neural_vocab)
        rows = np.flatnonzero(lens).tolist()
        classes, probs = predict_batch(artifact.model, ids[rows], lens[rows])
        labels = [CLASS_ORDER[cls] for cls in classes.tolist()]
        scores = probs[np.arange(len(rows)), classes].tolist()
    predictions: list[Prediction | None] = [None] * len(texts)
    for row, label, score in zip(rows, labels, scores):
        predictions[row] = Prediction(label, score, False)
    return [pred or Prediction(artifact.majority_label, 0.0, True) for pred in predictions]


def predict_text(
    artifact: ModelArtifact,
    text: str,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> Prediction:
    """Classify one raw comment; see predict_texts."""
    return predict_texts(artifact, [text], Preprocessor(artifact.pipeline, lexicon, rules))[0]

