import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bullyguard.features import (
    FeatureError,
    TfidfConfig,
    TfidfModel,
    Vocabulary,
    fit_tfidf,
    transform,
    transform_all,
)
from bullyguard.linear_models import Csr
from bullyguard.rng import Rng


def dense_tfidf_oracle(docs, query, sublinear=False, l2=False, min_df=1):
    """Naive dense TF-IDF, written independently of the sparse code path.

    Builds the vocabulary by scanning documents in order, computes document
    frequencies by explicit membership tests, and produces the query's dense
    vector straight from the formula idf = ln((1+N)/(1+df)) + 1.
    """
    vocab = []
    for doc in docs:
        for token in doc:
            if token not in vocab:
                vocab.append(token)
    df = {tok: sum(1 for doc in docs if tok in doc) for tok in vocab}
    vocab = [tok for tok in vocab if df[tok] >= min_df]
    n = len(docs)
    idf = {tok: math.log((1 + n) / (1 + df[tok])) + 1.0 for tok in vocab}
    dense = []
    for tok in vocab:
        count = sum(1 for q in query if q == tok)
        if count == 0:
            dense.append(0.0)
            continue
        tf = 1.0 + math.log(count) if sublinear else float(count)
        dense.append(tf * idf[tok])
    if l2:
        norm = math.sqrt(sum(v * v for v in dense))
        if norm > 0:
            dense = [v / norm for v in dense]
    return vocab, dense


def test_fit_hand_case():
    model = fit_tfidf([["a", "b"], ["a"]], TfidfConfig(l2_normalize=False))
    vocab = model.vocabulary
    assert vocab.token_to_id == {"a": 0, "b": 1}
    assert vocab.document_frequency == {0: 2, 1: 1}
    assert model.idf[0] == pytest.approx(1.0)
    assert model.idf[1] == pytest.approx(math.log(3 / 2) + 1.0)


def test_fit_single_doc_uniform_idf():
    model = fit_tfidf([["x", "y", "z"]])
    assert all(v == pytest.approx(1.0) for v in model.idf)


def test_fit_min_df_threshold():
    model = fit_tfidf([["a", "b"], ["a"]], TfidfConfig(min_df=2))
    assert set(model.vocabulary.token_to_id) == {"a"}


def test_fit_rejects_empty():
    with pytest.raises(FeatureError, match="at least one document"):
        fit_tfidf([])
    with pytest.raises(FeatureError, match="empty corpus after preprocessing"):
        fit_tfidf([[], []])


def dense(row, n_features: int) -> list[float]:
    """A TF-IDF row as a dense list."""
    out = [0.0] * n_features
    for i, v in zip(*row):
        out[i] = v
    return out


def test_transform_hand_case_unnormalized():
    model = fit_tfidf([["a", "b"], ["a"]], TfidfConfig(l2_normalize=False))
    ids, values = transform(["a", "a", "b"], model)
    assert ids == [0, 1]
    assert values[0] == pytest.approx(2.0)
    assert values[1] == pytest.approx(math.log(3 / 2) + 1.0)


def test_transform_l2_normalized():
    model = fit_tfidf([["a", "b"], ["a"]], TfidfConfig(l2_normalize=True))
    _, values = transform(["a", "a", "b"], model)
    b_idf = math.log(3 / 2) + 1.0
    norm = math.sqrt(2.0 ** 2 + b_idf ** 2)
    assert values[0] == pytest.approx(2.0 / norm)
    assert values[1] == pytest.approx(b_idf / norm)
    assert math.sqrt(sum(v * v for v in values)) == pytest.approx(1.0, abs=1e-9)


def test_l2_norm_is_a_sequential_sum():
    # squares 1, 1e16, 1: left to right each 1 is lost to rounding, while a
    # compensated sum (math.fsum, or sum() on Python 3.12+) keeps both
    model = TfidfModel(
        vocabulary=Vocabulary({"a": 0, "b": 1, "c": 2}, {0: 1, 1: 1, 2: 1}, 1),
        idf=[1.0, 1e8, 1.0],
        config=TfidfConfig(l2_normalize=True),
    )
    values = [1.0, 1e8, 1.0]
    squares = 0.0
    for v in values:
        squares += v * v
    assert squares != math.fsum(v * v for v in values)
    expected = [v / math.sqrt(squares) for v in values]
    assert transform_all([["a", "b", "c"]], model)[0][1] == expected


def test_transform_oov_zero_vector():
    model = fit_tfidf([["a", "b"], ["a"]])
    rows = transform_all([["zzz"]], model)
    assert len(rows) == 1 and rows[0] == ([], [])
    assert transform([], model) == ([], [])


def test_transform_sublinear_tf():
    model = fit_tfidf([["a"]], TfidfConfig(sublinear_tf=True, l2_normalize=False))
    _, values = transform(["a", "a", "a"], model)
    assert values[0] == pytest.approx(1.0 + math.log(3.0))


def test_idf_monotone_in_rarity():
    docs = [["a", "b"], ["a", "c"], ["a"], ["b"]]
    model = fit_tfidf(docs)
    df = model.vocabulary.document_frequency
    tid = model.vocabulary.token_to_id
    for t1 in tid:
        for t2 in tid:
            if df[tid[t1]] < df[tid[t2]]:
                assert model.idf[tid[t1]] > model.idf[tid[t2]]


def _random_corpus(rng: Rng, max_docs=10, vocab_size=8):
    alphabet = [f"w{i}" for i in range(1 + rng.randbelow(vocab_size))]
    n_docs = 1 + rng.randbelow(max_docs)
    docs = []
    for _ in range(n_docs):
        docs.append([alphabet[rng.randbelow(len(alphabet))]
                     for _ in range(1 + rng.randbelow(6))])
    return docs


@pytest.mark.parametrize("sublinear,l2", [(False, False), (True, False), (False, True), (True, True)])
def test_oracle_equivalence_modes(sublinear, l2):
    rng = Rng(99)
    for _ in range(25):
        docs = _random_corpus(rng)
        config = TfidfConfig(sublinear_tf=sublinear, l2_normalize=l2)
        model = fit_tfidf(docs, config)
        query = docs[rng.randbelow(len(docs))] + ["w0"]
        vocab, expected = dense_tfidf_oracle(docs, query, sublinear, l2)
        got = dense(transform(query, model), model.n_features)
        assert len(vocab) == model.n_features
        for tok, want in zip(vocab, expected):
            has = got[model.vocabulary.token_to_id[tok]]
            assert has == pytest.approx(want, abs=1e-9), tok


def test_transform_independent_of_other_documents_order():
    docs = [["a", "b"], ["b", "c"], ["a"]]
    model = fit_tfidf(docs)
    v1 = transform(["a", "c"], model)
    v2 = transform(["a", "c"], model)
    for field in (0, 1):  # ids, values
        assert v1[field] == v2[field]


def test_sparse_vector_invariants():
    with pytest.raises(ValueError):
        Csr(np.asarray([0, 2]), np.asarray([0, 1]), np.asarray([1.0]), 2)
    vec = Csr(np.asarray([0, 2]), np.asarray([1, 3]), np.asarray([2.0, -1.0]), 5)
    assert vec.matvec(np.asarray([0.0, 10.0, 0.0, 4.0])) == pytest.approx([16.0])
    built = Csr.from_rows([([1, 3], [2.0, -1.0])], 5)
    assert [built.indptr.tolist(), built.indices.tolist(), built.data.tolist(),
            built.n_features] == [[0, 2], [1, 3], [2.0, -1.0], 5]


def py_rows(rows: list[dict[int, float]]) -> list[tuple[list[int], list[float]]]:
    """TF-IDF rows, one per {column: value} dict."""
    return [(sorted(row), [float(row[i]) for i in sorted(row)]) for row in rows]


def csr_rows(rows: list[dict[int, float]], n_features: int) -> Csr:
    """Csr with one row per {column: value} dict."""
    return Csr.from_rows(py_rows(rows), n_features)


# wide magnitudes, so a sum taken in any other order would show
FLOATS = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
N_COLS, MAX_ROWS = 6, 8
ROWS = st.lists(
    st.dictionaries(st.integers(0, N_COLS - 1), FLOATS.filter(lambda v: v != 0.0)),
    max_size=MAX_ROWS,
)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, w=st.lists(FLOATS, min_size=N_COLS, max_size=N_COLS),
       c=st.lists(FLOATS, min_size=MAX_ROWS, max_size=MAX_ROWS))
@example(rows=[], w=[1.0] * N_COLS, c=[1.0] * MAX_ROWS)
@example(rows=[{}, {}, {}], w=[1.0] * N_COLS, c=[1.0] * MAX_ROWS)
@example(rows=[{4: 2.5}, {}, {0: -1e12}], w=[3.0] * N_COLS, c=[0.5] * MAX_ROWS)
@example(rows=[{0: 1e12, 1: 1.0, 2: -1e12}, {0: 1.0}, {0: 1e12}, {0: -1e12}],
         w=[1.0] * N_COLS, c=[1.0] * MAX_ROWS)
def test_matvec_bit_identical_to_sequential_loops(rows, w, c):
    X = csr_rows(rows, N_COLS)
    want_xw = []
    for row in rows:
        acc = 0.0
        for i in sorted(row):
            acc += row[i] * w[i]
        want_xw.append(acc)
    want_xtc = [0.0] * N_COLS
    for row, cr in zip(rows, c):
        for i in sorted(row):
            want_xtc[i] += row[i] * cr
    assert X.matvec(np.asarray(w)).tolist() == want_xw
    assert X.rmatvec(np.asarray(c[:len(rows)])).tolist() == want_xtc


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=6),
    min_size=1, max_size=8,
).filter(lambda docs: any(docs)))
def test_transform_indices_sorted_values_nonzero(docs):
    model = fit_tfidf(docs)
    for doc in docs:
        ids, values = transform(doc, model)
        assert ids == sorted(set(ids))
        assert all(v != 0.0 for v in values)
    rows = transform_all(docs, model)
    X = Csr.from_rows(rows, model.n_features)
    assert len(X) == len(docs) and X.indptr[0] == 0 and X.indptr[-1] == X.data.size
    for r, doc in enumerate(docs):
        row = slice(X.indptr[r], X.indptr[r + 1])
        assert np.array_equal(X.indices[row], transform(doc, model)[0])
        assert np.array_equal(X.data[row], transform(doc, model)[1])
        assert rows[r] == transform(doc, model)
