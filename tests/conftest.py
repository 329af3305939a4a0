import os
import time
from pathlib import Path

import pytest

import bullyguard
from bullyguard.corpus import CommentRecord, Label
from bullyguard.preprocess import (
    NormalizationLexicon,
    StemmerRules,
    load_default_lexicon,
    load_default_stemmer_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_CSV = REPO_ROOT / "data" / "comments_synthetic.csv"


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(bullyguard.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def default_lexicon() -> NormalizationLexicon:
    return load_default_lexicon()


@pytest.fixture(scope="session")
def default_rules() -> StemmerRules:
    return load_default_stemmer_rules()


@pytest.fixture(scope="session")
def synthetic_corpus_path() -> Path:
    assert SYNTHETIC_CSV.exists(), "bundled synthetic corpus is missing"
    return SYNTHETIC_CSV


@pytest.fixture(scope="session")  # a named tuple, safe to share
def tiny_lexicon() -> NormalizationLexicon:
    return NormalizationLexicon(
        slang_map={"bgt": "banget", "gk": "tidak", "b3go": "bego"},
        stopwords=frozenset({"yang", "di", "dan"}),
        root_words=frozenset({
            "jelek", "banget", "bego", "makan", "bilang", "kamu", "keren",
            "tidak", "bagus", "main", "kata", "ajar",
        }),
    )


def make_record(
    index: int = 1,
    text: str = "kamu jelek",
    label: Label = Label.BULLYING,
    commenter: str = "user_a",
    date: str = "2024-01-05",
    target: str = "artis_x",
) -> CommentRecord:
    return CommentRecord(
        index=index,
        commenter_handle=commenter,
        text=text,
        label=label,
        posted_date=date,
        target_handle=target,
    )


def balanced_records(n: int, bully_text="dasar jelek", praise_text="kamu keren"):
    """n records, alternating classes, unique texts."""
    records = []
    for i in range(n):
        label = Label.BULLYING if i % 2 == 0 else Label.NON_BULLYING
        base = bully_text if label is Label.BULLYING else praise_text
        records.append(make_record(index=i + 1, text=f"{base} nomor {i}", label=label))
    return records


BENCHMARK_OUTPUTS = ("benchmark_tables.txt", "benchmark_report.json")


def bundled_benchmark(out_dir: Path) -> dict[str, bytes]:
    """One seeded ``benchmark`` run on the bundled corpus with the default
    config: the bytes of each output file."""
    from bullyguard.cli import main

    code = main(["benchmark", "--corpus", str(SYNTHETIC_CSV), "--out-dir", str(out_dir),
                 "--seed", "42", "--quiet"])
    assert code == 0
    return {name: (out_dir / name).read_bytes() for name in BENCHMARK_OUTPUTS}


@pytest.fixture(scope="session")
def bundled_benchmark_runs(tmp_path_factory) -> tuple[list[dict[str, bytes]], float]:
    """Two bundled_benchmark runs, shared by the tests that read them, and the
    seconds both took."""
    started = time.perf_counter()
    runs = [bundled_benchmark(tmp_path_factory.mktemp(f"benchmark_{run}"))
            for run in ("one", "two")]
    return runs, time.perf_counter() - started
