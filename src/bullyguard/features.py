"""TF-IDF featurization over preprocessed token lists.

IDF uses the smoothed form ln((1 + N) / (1 + df)) + 1, so every vocabulary
term gets a strictly positive weight. Rows are L2-normalized by default.
Vocabulary ids are assigned in first-occurrence order over the fitted
documents, which makes fitting deterministic and independent of hashing.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple


class FeatureError(Exception):
    """Invalid featurization request (e.g. empty corpus)."""


class TfidfConfig(NamedTuple):
    sublinear_tf: bool = False
    l2_normalize: bool = True
    min_df: int = 1


class Vocabulary(NamedTuple):
    token_to_id: dict[str, int]
    document_frequency: dict[int, int]
    n_documents: int


class TfidfModel(NamedTuple):
    vocabulary: Vocabulary
    idf: list[float]
    config: TfidfConfig

    @property
    def n_features(self) -> int:
        return len(self.vocabulary.token_to_id)


# One TF-IDF document: its column ids, strictly increasing, and their values.
Row = tuple[list[int], list[float]]


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


def transform_all(token_lists: list[list[str]], model: TfidfModel) -> list[Row]:
    """TF-IDF rows, one (ids, values) pair per document; OOV tokens are ignored.

    tf is the raw in-document count (1 + ln(count) when sublinear_tf).
    Documents with no in-vocabulary tokens become empty rows, including under
    L2 normalization.
    """
    vocab = model.vocabulary.token_to_id
    idf = model.idf
    sublinear = model.config.sublinear_tf
    normalize = model.config.l2_normalize
    log, sqrt = math.log, math.sqrt
    rows = []
    for tokens in token_lists:
        counts: dict[int, int] = {}
        for token in tokens:
            i = vocab.get(token)
            if i is not None:
                counts[i] = counts.get(i, 0) + 1
        ids = sorted(counts)
        values = []
        # a plain left-to-right sum: sum() compensates floats on Python 3.12+,
        # which would tie the values to the Python version
        squares = 0.0
        for i in ids:  # an int count converts to float exactly, as float() would
            v = ((1.0 + log(counts[i])) if sublinear else counts[i]) * idf[i]
            values.append(v)
            squares += v * v
        if normalize and values:
            norm = sqrt(squares)
            values = [v / norm for v in values]
        rows.append((ids, values))
    return rows


def transform(tokens: list[str], model: TfidfModel) -> Row:
    """One document's transform_all row."""
    return transform_all([tokens], model)[0]
