from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bullyguard.corpus import (
    CorpusError,
    Label,
    SplitSpec,
    compute_stats,
    kfold_split,
    load_corpus,
    majority_label,
    stratified_split,
    validate_corpus,
    validation_text,
    write_corpus,
)
from conftest import balanced_records, make_record

HEADER = "no;username;komentar;label;tanggal;akun_target"


def write_csv(tmp_path, body: str, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + body, encoding="utf-8")
    return path


# ----------------------------------------------------------------------------
# load_corpus
# ----------------------------------------------------------------------------

def test_load_basic_row(tmp_path):
    path = write_csv(tmp_path, "1;userA;dasar jelek banget;Bullying;2024-01-05;artistX\n")
    records = load_corpus(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.index == 1
    assert rec.commenter_handle == "userA"
    assert rec.text == "dasar jelek banget"
    assert rec.label is Label.BULLYING
    assert rec.posted_date == "2024-01-05"
    assert rec.target_handle == "artistX"


def test_load_header_only(tmp_path):
    path = write_csv(tmp_path, "")
    assert load_corpus(path) == []


def test_load_wrong_field_count(tmp_path):
    path = write_csv(tmp_path, "1;userA;halo;Bullying;2024-01-05\n")
    with pytest.raises(CorpusError, match=r"line 2: expected 6 fields, found 5"):
        load_corpus(path)


def test_load_error_names_the_first_line_of_a_record(tmp_path):
    path = write_csv(tmp_path, '1;u;"dua\nbaris";Positif;2024-01-05;t\n')
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == "line 2: unknown label 'Positif' (record spans lines 2-3)"
    path = write_csv(tmp_path, '1;u;"a\nb' + "x" * 200_000 + '";Bullying;2024-01-05;t\n')
    with pytest.raises(CorpusError, match=r"^line 2: field larger than field limit "
                                          r"\(\d+\) \(record spans lines 2-3\)$"):
        load_corpus(path)


def test_load_unknown_label(tmp_path):
    path = write_csv(tmp_path, "1;u;halo;Positif;2024-01-05;t\n")
    with pytest.raises(CorpusError, match=r"line 2: unknown label 'Positif'"):
        load_corpus(path)


def test_load_missing_label(tmp_path):
    path = write_csv(tmp_path, "1;u;halo;;2024-01-05;t\n")
    with pytest.raises(CorpusError, match=r"line 2: missing value for field 'label'"):
        load_corpus(path)


def test_load_label_spellings(tmp_path):
    body = (
        "1;u;a;bullying;2024-01-05;t\n"
        "2;u;b;Non-Bullying;2024-01-05;t\n"
        "3;u;c;non bullying;2024-01-05;t\n"
        "4;u;d;NonBullying;2024-01-05;t\n"
    )
    labels = [r.label for r in load_corpus(write_csv(tmp_path, body))]
    assert labels == [Label.BULLYING, Label.NON_BULLYING, Label.NON_BULLYING, Label.NON_BULLYING]


def test_load_bad_index(tmp_path):
    path = write_csv(tmp_path, "x;u;halo;Bullying;2024-01-05;t\n")
    with pytest.raises(CorpusError, match="invalid index"):
        load_corpus(path)
    path = write_csv(tmp_path, "0;u;halo;Bullying;2024-01-05;t\n", name="c2.csv")
    with pytest.raises(CorpusError, match="must be positive"):
        load_corpus(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(tmp_path / "nope.csv")


def test_load_non_utf8_names_line(tmp_path):
    # the bad byte sits past the text decoder's first read-ahead block
    good = "".join(f"{i};u;komentar nomor {i};Bullying;2024-01-05;t\n" for i in range(1, 400))
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\n" + good).encode("utf-8") + b"400;u;caf\xe9;Bullying;d;t\n")
    with pytest.raises(CorpusError, match=r"^line 401: not valid UTF-8 \(.+\)$"):
        load_corpus(path)


def test_load_oversized_field_names_line(tmp_path):
    body = "1;u;ok;Bullying;d;t\n2;u;" + "a" * 200_000 + ";Bullying;d;t\n"
    path = write_csv(tmp_path, body)
    with pytest.raises(CorpusError, match=r"^line 3: field larger than field limit"):
        load_corpus(path)


def test_load_quoted_delimiter(tmp_path):
    path = write_csv(tmp_path, '1;u;"keren; suka banget";Non-bullying;2024-01-05;t\n')
    records = load_corpus(path)
    assert records[0].text == "keren; suka banget"


def test_load_custom_column_map(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id;who;comment;label;date;target\n1;u;halo;Bullying;2024-01-05;t\n",
        encoding="utf-8",
    )
    records = load_corpus(path, column_map={
        "index": "id", "commenter_handle": "who", "text": "comment",
        "posted_date": "date", "target_handle": "target",
    })
    assert records[0].text == "halo"


def test_load_missing_column(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a;b;c;d;e;f\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="missing column"):
        load_corpus(path)


# ----------------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------------

_text_alphabet = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"),
    whitelist_characters=';"\n @#!?.,-',
)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.text(alphabet=_text_alphabet, min_size=1, max_size=40).filter(lambda s: s.strip()),
        st.sampled_from(list(Label)),
    ),
    min_size=0, max_size=12,
))
def test_write_load_roundtrip(tmp_path_factory, rows):
    records = [
        make_record(index=i + 1, text=text, label=label)
        for i, (text, label) in enumerate(rows)
    ]
    path = tmp_path_factory.mktemp("rt") / "corpus.csv"
    write_corpus(records, path)
    assert load_corpus(path) == records


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=4))
@example(["\r"])
@example(["a\rb", "\r\n", "", '"\r;'])
def test_write_load_roundtrip_keeps_any_text(tmp_path_factory, texts):
    records = [make_record(index=i + 1, text=text) for i, text in enumerate(texts)]
    path = tmp_path_factory.mktemp("rt") / "corpus.csv"
    write_corpus(records, path)
    assert load_corpus(path) == records


# ----------------------------------------------------------------------------
# validate_corpus
# ----------------------------------------------------------------------------

def test_validate_duplicates():
    records = [
        make_record(index=1, text="sama persis"),
        make_record(index=2, text="beda"),
        make_record(index=3, text="sama persis"),
    ]
    report = validate_corpus(records)
    assert report["duplicates"] == [[0, 2]]
    assert report["duplicates"] or report["missing_fields"]


def test_validate_duplicate_is_case_sensitive():
    records = [make_record(index=1, text="Halo"), make_record(index=2, text="halo")]
    assert validate_corpus(records)["duplicates"] == []


def test_validate_balanced_counts():
    report = validate_corpus(balanced_records(650))
    assert report["class_counts"][Label.BULLYING.value] == 325
    assert report["class_counts"][Label.NON_BULLYING.value] == 325
    assert report["balanced"]
    assert "balanced: yes" in validation_text(report)


def test_validate_missing_fields():
    records = [make_record(index=1), make_record(index=2, text="  ", date="")]
    report = validate_corpus(records)
    assert [1, "text"] in report["missing_fields"]
    assert [1, "posted_date"] in report["missing_fields"]
    assert report["duplicates"] or report["missing_fields"]


def test_validate_empty_input_rejected():
    with pytest.raises(ValueError):
        validate_corpus([])


# ----------------------------------------------------------------------------
# compute_stats
# ----------------------------------------------------------------------------

def test_stats_hand_case():
    records = [
        make_record(index=1, text="ab cd", label=Label.BULLYING),
        make_record(index=2, text="abcdef", label=Label.NON_BULLYING),
    ]
    stats = compute_stats(records)
    char_len = stats["char_len"]
    assert char_len["mean"] == pytest.approx(5.5)
    assert char_len["min"] == 5 and char_len["max"] == 6
    assert char_len["median"] == pytest.approx(5.5)
    assert char_len["stddev"] == pytest.approx(0.5)  # population form
    assert stats["avg_words_per_class"][Label.BULLYING.value] == pytest.approx(2.0)
    assert stats["avg_words_per_class"][Label.NON_BULLYING.value] == pytest.approx(1.0)


def test_stats_single_record_stddev_zero():
    stats = compute_stats([make_record()])
    assert stats["char_len"]["stddev"] == 0.0


def test_stats_sample_stddev_flag():
    records = [make_record(index=1, text="ab"), make_record(index=2, text="abcd")]
    pop = compute_stats(records)["char_len"]["stddev"]
    assert pop == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.text(alphabet="ab c", min_size=1, max_size=20).filter(lambda s: s.strip()),
    min_size=1, max_size=15,
))
def test_stats_word_counts_match_bruteforce(texts):
    records = [make_record(index=i + 1, text=t) for i, t in enumerate(texts)]
    stats = compute_stats(records)
    # independent recount
    by_class = {}
    for rec in records:
        by_class.setdefault(rec.label, []).append(len(rec.text.split()))
    for label, counts in by_class.items():
        assert stats["avg_words_per_class"][label.value] == pytest.approx(sum(counts) / len(counts))


# ----------------------------------------------------------------------------
# stratified_split
# ----------------------------------------------------------------------------

def test_split_650_balanced_sizes():
    records = balanced_records(650)
    spec = SplitSpec(0.8, 0.1, 0.1, seed=42)
    train, val, test = stratified_split(records, spec)
    assert (len(train), len(val), len(test)) == (520, 65, 65)
    for part in (train, val, test):
        bully = sum(1 for r in part if r.label is Label.BULLYING)
        assert abs(bully - len(part) / 2) <= 1  # 50% plus or minus one record


def test_split_deterministic():
    records = balanced_records(100)
    spec = SplitSpec(0.8, 0.1, 0.1, seed=42)
    first = stratified_split(records, spec)
    second = stratified_split(records, spec)
    assert [[r.index for r in part] for part in first] == \
           [[r.index for r in part] for part in second]


def test_split_seed_changes_assignment():
    records = balanced_records(100)
    a = stratified_split(records, SplitSpec(0.8, 0.1, 0.1, seed=1))
    b = stratified_split(records, SplitSpec(0.8, 0.1, 0.1, seed=2))
    assert [r.index for r in a[0]] != [r.index for r in b[0]]


def test_split_ten_records():
    records = [make_record(index=i + 1, text=f"t {i}") for i in range(10)]
    train, val, test = stratified_split(records, SplitSpec(0.8, 0.1, 0.1, seed=42))
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_partitions_disjoint_and_complete():
    records = balanced_records(73)
    train, val, test = stratified_split(records, SplitSpec(0.6, 0.2, 0.2, seed=3))
    ids = [r.index for part in (train, val, test) for r in part]
    assert sorted(ids) == [r.index for r in records]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_split_partition_property(n, seed):
    records = balanced_records(n)
    train, val, test = stratified_split(records, SplitSpec(0.8, 0.1, 0.1, seed=seed))
    ids = [r.index for part in (train, val, test) for r in part]
    assert sorted(ids) == sorted(r.index for r in records)
    assert len(set(ids)) == len(ids)


def test_split_invalid_fractions():
    with pytest.raises(ValueError):
        SplitSpec(0.8, 0.1, 0.2, seed=1)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0.0, 0.0, seed=1)


def test_split_unstratified():
    records = balanced_records(50)
    train, val, test = stratified_split(
        records, SplitSpec(0.8, 0.1, 0.1, seed=4, stratified=False))
    assert (len(train), len(val), len(test)) == (40, 5, 5)


def test_majority_label_ties_go_to_bullying():
    B, N = Label.BULLYING, Label.NON_BULLYING
    assert majority_label([N, B, N]) is N
    assert majority_label([N, B]) is B
    assert majority_label([]) is B


# ----------------------------------------------------------------------------
# kfold_split
# ----------------------------------------------------------------------------

def test_kfold_partition_10_5():
    records = [make_record(index=i + 1, text=f"t {i}") for i in range(10)]
    folds = kfold_split([r.label for r in records], k=5, seed=42)
    assert len(folds) == 5
    all_test = [i for _, test_idx in folds for i in test_idx]
    assert sorted(all_test) == list(range(10))
    for train_idx, test_idx in folds:
        assert len(test_idx) == 2
        assert set(train_idx).isdisjoint(test_idx)
        assert sorted(train_idx + test_idx) == list(range(10))


def test_kfold_stratified_balanced_20():
    records = balanced_records(20)
    folds = kfold_split([r.label for r in records], k=5, seed=42)
    for _, test_idx in folds:
        counts = Counter(records[i].label for i in test_idx)
        assert counts[Label.BULLYING] == 2
        assert counts[Label.NON_BULLYING] == 2


def test_kfold_too_many_folds():
    records = [make_record(index=i + 1, text=f"t {i}") for i in range(10)]
    with pytest.raises(CorpusError):
        kfold_split([r.label for r in records], k=11, seed=1)


def test_kfold_class_smaller_than_k():
    records = balanced_records(6)  # 3 per class
    with pytest.raises(CorpusError):
        kfold_split([r.label for r in records], k=4, seed=1)


def test_kfold_deterministic():
    records = balanced_records(30)
    labels = [r.label for r in records]
    assert kfold_split(labels, 5, 9) == kfold_split(labels, 5, 9)


@settings(max_examples=30, deadline=None)
@given(
    n_half=st.integers(min_value=5, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_kfold_property(n_half, k, seed):
    records = balanced_records(2 * n_half)
    folds = kfold_split([r.label for r in records], k=k, seed=seed)
    n = len(records)
    all_test = [i for _, test_idx in folds for i in test_idx]
    assert sorted(all_test) == list(range(n))  # every index in exactly one test fold
    sizes = [len(test_idx) for _, test_idx in folds]
    assert max(sizes) - min(sizes) <= 1
    for train_idx, test_idx in folds:
        assert set(train_idx) | set(test_idx) == set(range(n))
        assert set(train_idx).isdisjoint(test_idx)
