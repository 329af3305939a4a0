"""One invocation's fixed cost, paid before its first comment.

Makes exactly the set-up calls of a ``bullyguard`` command and exits; the
parent times the whole process, interpreter start included::

    python3 setup_probe.py corpus CORPUS.csv [CONFIG.ini]
    python3 setup_probe.py artifact MODEL_FILE

Nothing else is imported before ``bullyguard.cli``, so the time is the CLI's.
"""

import sys

import bullyguard.cli as cli
from bullyguard.artifact import check_fingerprint, load_artifact
from bullyguard.corpus import load_corpus
from bullyguard.preprocess import load_default_lexicon, load_default_stemmer_rules


def main(kind: str, path: str, config: str | None = None) -> None:
    cli.RunConfig.load(config)
    lexicon = load_default_lexicon()
    rules = load_default_stemmer_rules()
    if kind == "corpus":
        load_corpus(path)
    elif kind == "artifact":
        check_fingerprint(load_artifact(path), lexicon, rules)
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")


if __name__ == "__main__":
    main(*sys.argv[1:])
