"""Child-process jobs of the benchmark (``run.py``).

    python3 worker.py prepare DIR N SEED CONFIG [FAMILY ...]
        corpus.csv (``scripts/generate_corpus.py``), stream.txt, probe.txt,
        info.json and, per FAMILY, DIR/FAMILY.model trained by the CLI.
    python3 worker.py probe LINES OUT.json WARMUP SPREAD MODEL ...
        in-process ``artifact.predict_text``, one caller, after WARMUP untimed
        calls per model. With SPREAD 1, line i of LINES goes to model i mod
        (number of models), so every line is timed once; with SPREAD 0 every
        model gets every line. Records per-line latency and the line the CLI
        would print.

``run.py`` itself imports no bullyguard code; everything that does runs here
or in the CLI, with the BLAS thread count ``run.py`` sets.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from bullyguard import cli
from bullyguard.artifact import load_artifact, predict_text
from bullyguard.corpus import write_corpus
from bullyguard.preprocess import (
    default_lexicon_paths,
    load_default_lexicon,
    load_default_stemmer_rules,
    load_wordlist,
)

import stream

ROOT = Path(__file__).resolve().parent.parent
STREAM_LINES = 2000
PROBE_LINES = 64
PROBE_SEED = 90210  # stream seed of the train check's probe lines, for every input set


def _generator():
    path = ROOT / "scripts" / "generate_corpus.py"
    spec = importlib.util.spec_from_file_location("generate_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _openblas_version() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def prepare(out_dir: str, n: str, seed: str, config: str, *families: str) -> None:
    out = Path(out_dir)
    records = _generator().generate(int(n), int(seed))
    write_corpus(records, out / "corpus.csv")
    roots = sorted(load_wordlist(default_lexicon_paths()["root_words"]))
    comments = [rec.text for rec in records]
    lines = stream.make_stream(comments, roots, STREAM_LINES, int(seed))
    (out / "stream.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    probe = stream.make_stream(comments, roots, PROBE_LINES, PROBE_SEED)
    (out / "probe.txt").write_text("\n".join(probe) + "\n", encoding="utf-8")
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
    }
    (out / "info.json").write_text(json.dumps(info), encoding="utf-8")
    for family in families:
        code = cli.main(["train", "--config", config, "--quiet", "--corpus",
                         str(out / "corpus.csv"), "--family", family,
                         "--out", str(out / f"{family}.model")])
        if code != 0:
            raise SystemExit(f"training {family} for the predict workload failed ({code})")


def probe(lines_path: str, out_path: str, warmup: str, spread: str, *models: str) -> None:
    lines = Path(lines_path).read_text(encoding="utf-8").splitlines()
    lexicon = load_default_lexicon()
    rules = load_default_stemmer_rules()
    clock = time.perf_counter_ns
    artifacts = [load_artifact(model) for model in models]
    for artifact in artifacts:
        for line in lines[: int(warmup)]:
            predict_text(artifact, line, lexicon, rules)
    result = {Path(m).stem: {"line": [], "latency_ns": [], "printed": []} for m in models}
    if spread == "1":
        jobs = [(i, i % len(models)) for i in range(len(lines))]
    else:
        jobs = [(i, m) for m in range(len(models)) for i in range(len(lines))]
    for i, m in jobs:
        model, artifact, line = models[m], artifacts[m], lines[i]
        start = clock()
        pred = predict_text(artifact, line, lexicon, rules)
        elapsed = clock() - start
        entry = result[Path(model).stem]
        entry["line"].append(i)
        entry["latency_ns"].append(elapsed)
        entry["printed"].append(f"{pred.label.value}\t{pred.score:.6f}")
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    jobs = {"prepare": prepare, "probe": probe}
    jobs[sys.argv[1]](*sys.argv[2:])
