"""SHA-256 digests of preprocessing and study outputs on the bundled corpus.

The committed digests in ``digests.json`` pin, byte for byte:

- ``preprocess_trace``: what ``bullyguard preprocess --trace`` prints;
- ``tokens_default`` and ``tokens_neural``: every comment's tokens under the
  default pipeline and under the neural track's ``keep_function_words``
  pipeline (no stopword removal, no stemming);
- ``tfidf_rows``: the ``float.hex`` TF-IDF rows of every comment, from a
  model fitted on the whole corpus with the default settings;
- ``benchmark_report`` and ``benchmark_tables``: ``benchmark_report.json``
  and ``benchmark_tables.txt`` of ``bullyguard benchmark --seed 42`` with the
  default config (acceptance test 9's run);
- ``tune_lr_artifact`` and ``tune_lr_stdout``: the model file and what
  ``bullyguard tune --family lr`` prints, its output path written as
  ``MODEL``.

A change that moves one of them on purpose rewrites the file for that reason
alone:

    PYTHONPATH=src python tests/test_digests.py

The digests were recorded under the Python, numpy and BLAS versions the file
names. Under another version the tests still run; a mismatch there is a skip
that names the outputs that moved, since case folding, the ``\\w`` and ``\\S``
classes and ``str.split`` follow that Python's Unicode tables, and the study's
floats follow numpy's ``exp`` and ``log`` and the BLAS dot product.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from bullyguard import cli
from bullyguard.corpus import load_corpus
from bullyguard.features import fit_tfidf, transform_all
from bullyguard.preprocess import (
    PipelineConfig,
    Preprocessor,
    load_default_lexicon,
    load_default_stemmer_rules,
)

from conftest import bundled_benchmark

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"
CORPUS = Path(__file__).resolve().parent.parent / "data" / "comments_synthetic.csv"


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode("utf-8")).hexdigest()


def _token_lines(token_lists) -> str:
    return "".join(" ".join(tokens) + "\n" for tokens in token_lists)


def compute_digests() -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["preprocess", "--trace", "--corpus", str(CORPUS)]) == 0
    texts = [rec.text for rec in load_corpus(CORPUS)]
    lexicon, rules = load_default_lexicon(), load_default_stemmer_rules()
    default = PipelineConfig()
    neural = replace(default, remove_stopwords=False, stem=False)
    tokens = Preprocessor(default, lexicon, rules).corpus(texts)
    rows = transform_all(tokens, fit_tfidf(tokens))
    return {
        "preprocess_trace": _sha(out.getvalue()),
        "tokens_default": _sha(_token_lines(tokens)),
        "tokens_neural": _sha(_token_lines(Preprocessor(neural, lexicon, rules).corpus(texts))),
        "tfidf_rows": _sha("".join(
            " ".join(f"{i}:{v.hex()}" for i, v in zip(ids, values)) + "\n"
            for ids, values in rows)),
    }


def study_digests(benchmark: dict[str, bytes], tmp: Path) -> dict[str, str]:
    """The digests of one bundled_benchmark run's outputs, and of a
    ``tune --family lr`` run here, writing into tmp."""
    model = tmp / "lr.model"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["tune", "--family", "lr", "--corpus", str(CORPUS),
                         "--out", str(model)]) == 0
    return {
        "benchmark_report": _sha(benchmark["benchmark_report.json"]),
        "benchmark_tables": _sha(benchmark["benchmark_tables.txt"]),
        "tune_lr_artifact": _sha(model.read_bytes()),
        "tune_lr_stdout": _sha(out.getvalue().replace(str(model), "MODEL")),
    }


PREPROCESSING_OUTPUTS = ("preprocess_trace", "tokens_default", "tokens_neural", "tfidf_rows")
STUDY_OUTPUTS = ("benchmark_report", "benchmark_tables", "tune_lr_artifact", "tune_lr_stdout")
VERSIONS = ("python", "numpy", "blas")


def _environment(keys: tuple[str, ...]) -> dict[str, str]:
    """The versions that keys name, from VERSIONS; numpy loads only if one
    of them is numpy's or the BLAS's, and a build that does not name its
    BLAS reads as "?"."""
    environment = {"python": ".".join(platform.python_version_tuple()[:2])}
    if {"numpy", "blas"} & set(keys):
        import numpy as np

        config = getattr(np.__config__, "CONFIG", {})
        blas = config.get("Build Dependencies", {}).get("blas", {})
        environment["numpy"] = np.__version__
        environment["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    return {key: environment[key] for key in keys}


def _assert_unmoved(digests: dict[str, str], owned: tuple[str, ...],
                    depends_on: tuple[str, ...]) -> None:
    """Check that digests holds exactly the owned outputs, and fail naming
    each one that moved, or skip if one of the versions in depends_on
    differs from the recorded one."""
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert set(PREPROCESSING_OUTPUTS + STUDY_OUTPUTS) == set(recorded["outputs"])
    assert set(digests) == set(owned)
    moved = sorted(name for name, digest in digests.items()
                   if recorded["outputs"][name] != digest)
    environment = _environment(depends_on)
    if moved and environment != {key: recorded["environment"].get(key) for key in depends_on}:
        pytest.skip(f"recorded under {recorded['environment']}; under {environment} "
                    f"these moved: {', '.join(moved)}")
    assert not moved, f"outputs that moved: {', '.join(moved)}"


def test_preprocessing_outputs_match_committed_digests():
    _assert_unmoved(compute_digests(), PREPROCESSING_OUTPUTS, ("python",))


def test_study_outputs_match_committed_digests(bundled_benchmark_runs, tmp_path):
    _assert_unmoved(study_digests(bundled_benchmark_runs[0][0], tmp_path),
                    STUDY_OUTPUTS, VERSIONS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {**compute_digests(),
                   **study_digests(bundled_benchmark(Path(tmp)), Path(tmp))}
    DIGEST_FILE.write_text(json.dumps(
        {"environment": _environment(VERSIONS), "outputs": outputs}, indent=2) + "\n",
        encoding="utf-8")
