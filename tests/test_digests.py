"""SHA-256 digests of preprocessing and study outputs on the bundled corpus.

The committed digests in ``digests.json`` pin, byte for byte:

- ``preprocess_trace``: what ``bullyguard preprocess --trace`` prints;
- ``tokens_default`` and ``tokens_neural``: every comment's tokens under the
  default pipeline and under the neural track's ``keep_function_words``
  pipeline (no stopword removal, no stemming);
- ``tfidf_rows``: the ``float.hex`` TF-IDF rows of every comment, from a
  model fitted on the whole corpus with the default settings;
- ``stats_json``: what ``bullyguard stats --json`` prints;
- ``benchmark_report`` and ``benchmark_tables``: ``benchmark_report.json``
  and ``benchmark_tables.txt`` of ``bullyguard benchmark --seed 42`` with the
  default config (acceptance test 9's run), and ``benchmark_ini_report`` and
  ``benchmark_ini_tables`` the same with ``perfbench/bench.ini``;
- ``train_<family>_artifact``: the model file ``bullyguard train`` writes for
  nb, lr and svm, and for bilstm and bilstm_attention with
  ``perfbench/bench.ini``;
- ``predict_<family>_stdout`` and ``predict_<family>_stderr``: what
  ``bullyguard predict`` with each of those five models prints for the
  corpus texts plus ``EDGE_LINES``: an empty line, an emoji-only line and a
  5,000-character line;
- ``tune_<family>_artifact`` and ``tune_<family>_stdout``: the model file and
  what ``bullyguard tune`` prints for nb, lr and svm, its output path written
  as ``MODEL``.

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
from pathlib import Path

import pytest

from bullyguard import cli
from bullyguard.artifact import FAMILIES
from bullyguard.corpus import load_corpus
from bullyguard.features import fit_tfidf, transform_all
from bullyguard.linear_models import CLASSICAL_FAMILIES
from bullyguard.preprocess import (
    PipelineConfig,
    Preprocessor,
    load_default_lexicon,
    load_default_stemmer_rules,
)

from conftest import bundled_benchmark

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"
CORPUS = Path(__file__).resolve().parent.parent / "data" / "comments_synthetic.csv"
BENCH_INI = Path(__file__).resolve().parent.parent / "perfbench" / "bench.ini"


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode("utf-8")).hexdigest()


def _token_lines(token_lists) -> str:
    return "".join(" ".join(tokens) + "\n" for tokens in token_lists)


def _run(argv: list[str]) -> tuple[str, str]:
    """What one successful in-process ``bullyguard`` run prints to stdout
    and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 0
    return out.getvalue(), err.getvalue()


def _stdout(argv: list[str]) -> str:
    return _run(argv)[0]


# The predict input: the corpus texts, then the edge lines a stream carries
# (empty, emoji only, longer than any model's max_seq_len).
EDGE_LINES = ("", "\U0001F621\U0001F92C\U0001F480", ("dasar jelek bego bgt " * 250)[:5000])


def predict_input(tmp: Path) -> Path:
    path = tmp / "predict_input.txt"
    lines = [rec.text for rec in load_corpus(CORPUS)] + list(EDGE_LINES)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def compute_digests() -> dict[str, str]:
    texts = [rec.text for rec in load_corpus(CORPUS)]
    lexicon, rules = load_default_lexicon(), load_default_stemmer_rules()
    default = PipelineConfig()
    neural = default._replace(remove_stopwords=False, stem=False)
    tokens = Preprocessor(default, lexicon, rules).corpus(texts)
    rows = transform_all(tokens, fit_tfidf(tokens))
    return {
        "preprocess_trace": _sha(_stdout(["preprocess", "--trace", "--corpus", str(CORPUS)])),
        "tokens_default": _sha(_token_lines(tokens)),
        "tokens_neural": _sha(_token_lines(Preprocessor(neural, lexicon, rules).corpus(texts))),
        "tfidf_rows": _sha("".join(
            " ".join(f"{i}:{v.hex()}" for i, v in zip(ids, values)) + "\n"
            for ids, values in rows)),
        "stats_json": _sha(_stdout(["stats", "--json", "--corpus", str(CORPUS)])),
    }


def study_digests(benchmark: dict[str, bytes], tmp: Path) -> dict[str, str]:
    """The digests of one bundled_benchmark run's outputs, and of the
    ``bench.ini`` benchmark and the ``train``, ``predict`` and ``tune`` runs
    made here, writing into tmp."""
    ini = tmp / "ini"
    _stdout(["benchmark", "--corpus", str(CORPUS), "--config", str(BENCH_INI),
             "--out-dir", str(ini), "--quiet"])
    digests = {
        "benchmark_report": _sha(benchmark["benchmark_report.json"]),
        "benchmark_tables": _sha(benchmark["benchmark_tables.txt"]),
        "benchmark_ini_report": _sha((ini / "benchmark_report.json").read_bytes()),
        "benchmark_ini_tables": _sha((ini / "benchmark_tables.txt").read_bytes()),
    }
    texts = predict_input(tmp)
    for family in FAMILIES:
        model = tmp / f"{family}.model"
        config = [] if family in CLASSICAL_FAMILIES else ["--config", str(BENCH_INI)]
        _stdout(["train", "--family", family, "--corpus", str(CORPUS), "--out", str(model),
                 "--quiet", *config])
        digests[f"train_{family}_artifact"] = _sha(model.read_bytes())
        out, err = _run(["predict", "--model", str(model), "--input", str(texts)])
        digests[f"predict_{family}_stdout"] = _sha(out)
        digests[f"predict_{family}_stderr"] = _sha(err)
        if family not in CLASSICAL_FAMILIES:
            continue
        out = _stdout(["tune", "--family", family, "--corpus", str(CORPUS), "--out", str(model)])
        digests[f"tune_{family}_artifact"] = _sha(model.read_bytes())
        digests[f"tune_{family}_stdout"] = _sha(out.replace(str(model), "MODEL"))
    return digests


PREPROCESSING_OUTPUTS = ("preprocess_trace", "tokens_default", "tokens_neural", "tfidf_rows",
                         "stats_json")
STUDY_OUTPUTS = ("benchmark_report", "benchmark_tables", "benchmark_ini_report",
                 "benchmark_ini_tables",
                 *(f"{command}_{family}_{part}" for family in FAMILIES
                   for command, part in (("train", "artifact"), ("predict", "stdout"),
                                         ("predict", "stderr"))),
                 *(f"tune_{family}_{part}" for family in CLASSICAL_FAMILIES
                   for part in ("artifact", "stdout")))
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
