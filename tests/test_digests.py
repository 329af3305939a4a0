"""SHA-256 digests of preprocessing outputs on the bundled corpus.

The committed digests in ``digests.json`` pin, byte for byte:

- ``preprocess_trace``: what ``bullyguard preprocess --trace`` prints;
- ``tokens_default`` and ``tokens_neural``: every comment's tokens under the
  default pipeline and under the neural track's ``keep_function_words``
  pipeline (no stopword removal, no stemming);
- ``tfidf_rows``: the ``float.hex`` TF-IDF rows of every comment, from a
  model fitted on the whole corpus with the default settings.

A change that moves one of them on purpose rewrites the file for that reason
alone:

    PYTHONPATH=src python tests/test_digests.py

The digests were recorded under the Python version the file names. Under
another version the test still runs; a mismatch there is a skip that names
the outputs that moved, since case folding, the ``\\w`` and ``\\S`` classes
and ``str.split`` follow that version's Unicode tables.
"""

import contextlib
import hashlib
import io
import json
import platform
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

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"
CORPUS = Path(__file__).resolve().parent.parent / "data" / "comments_synthetic.csv"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def _python_version() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def test_preprocessing_outputs_match_committed_digests():
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    digests = compute_digests()
    assert set(digests) == set(recorded["outputs"])
    moved = sorted(name for name, digest in digests.items()
                   if recorded["outputs"][name] != digest)
    if moved and recorded["python"] != _python_version():
        pytest.skip(f"recorded under Python {recorded['python']}; under "
                    f"{_python_version()} these moved: {', '.join(moved)}")
    assert not moved, f"outputs that moved: {', '.join(moved)}"


if __name__ == "__main__":
    DIGEST_FILE.write_text(json.dumps(
        {"python": _python_version(), "outputs": compute_digests()}, indent=2) + "\n",
        encoding="utf-8")
