"""TF-IDF featurization over preprocessed token lists.

IDF uses the smoothed form ln((1 + N) / (1 + df)) + 1, so every vocabulary
term gets a strictly positive weight. Vectors are L2-normalized by default.
Vocabulary ids are assigned in first-occurrence order over the fitted
documents, which makes fitting deterministic and independent of hashing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


class FeatureError(Exception):
    """Invalid featurization request (e.g. empty corpus)."""


@dataclass(frozen=True)
class TfidfConfig:
    sublinear_tf: bool = False
    l2_normalize: bool = True
    min_df: int = 1


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    document_frequency: dict[int, int]
    n_documents: int

    def __len__(self) -> int:
        return len(self.token_to_id)


@dataclass
class TfidfModel:
    vocabulary: Vocabulary
    idf: list[float]
    config: TfidfConfig

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True, slots=True)
class SparseVector:
    """Sorted sparse vector; indices strictly increasing, values non-zero."""
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))

    def dot_dense(self, weights) -> float:
        """Dot product against a dense indexable weight vector."""
        return float(sum(v * weights[i] for i, v in zip(self.indices, self.values)))

    def to_dense(self, size: int) -> list[float]:
        dense = [0.0] * size
        for i, v in zip(self.indices, self.values):
            dense[i] = v
        return dense


def fit_tfidf(token_lists: list[list[str]], config: TfidfConfig | None = None) -> TfidfModel:
    """Build the vocabulary and IDF weights from training documents only."""
    if config is None:
        config = TfidfConfig()
    if not token_lists:
        raise FeatureError("fit_tfidf requires at least one document")
    if all(not tokens for tokens in token_lists):
        raise FeatureError("empty corpus after preprocessing")

    df: Counter = Counter()
    first_seen: dict[str, int] = {}
    position = 0
    for tokens in token_lists:
        for token in dict.fromkeys(tokens):  # unique, first-occurrence order
            df[token] += 1
            if token not in first_seen:
                first_seen[token] = position
                position += 1

    kept = [tok for tok in first_seen if df[tok] >= config.min_df]
    if not kept:
        raise FeatureError(f"no token reaches min_df={config.min_df}")
    token_to_id = {tok: i for i, tok in enumerate(kept)}
    n_docs = len(token_lists)
    document_frequency = {token_to_id[tok]: df[tok] for tok in kept}
    idf = [
        math.log((1.0 + n_docs) / (1.0 + document_frequency[i])) + 1.0
        for i in range(len(kept))
    ]
    return TfidfModel(
        vocabulary=Vocabulary(token_to_id, document_frequency, n_docs),
        idf=idf,
        config=config,
    )


def transform(tokens: list[str], model: TfidfModel) -> SparseVector:
    """TF-IDF vector for one document; OOV tokens are ignored.

    tf is the raw in-document count (1 + ln(count) when sublinear_tf).
    Documents with no in-vocabulary tokens become the zero vector, including
    under L2 normalization.
    """
    counts: Counter = Counter()
    vocab = model.vocabulary.token_to_id
    for token in tokens:
        idx = vocab.get(token)
        if idx is not None:
            counts[idx] += 1
    if not counts:
        return SparseVector(indices=(), values=())
    indices = sorted(counts)
    values = []
    for i in indices:
        tf = float(counts[i])
        if model.config.sublinear_tf:
            tf = 1.0 + math.log(tf)
        values.append(tf * model.idf[i])
    if model.config.l2_normalize:
        norm = math.sqrt(sum(v * v for v in values))
        values = [v / norm for v in values]
    return SparseVector(indices=tuple(indices), values=tuple(values))


def transform_all(token_lists: list[list[str]], model: TfidfModel) -> list[SparseVector]:
    return [transform(tokens, model) for tokens in token_lists]
