import functools
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bullyguard
from bullyguard import cli, eval as study, linear_models, neural
from bullyguard.artifact import ArtifactError, load_artifact, predict_text
from bullyguard.cli import PREDICT_CHUNK_LINES, main
from bullyguard.corpus import Label, SplitSpec, write_corpus
from bullyguard.features import TfidfConfig
from bullyguard.neural import BLOCK_NAMES, TrainConfig
from bullyguard.preprocess import PipelineConfig, default_lexicon_paths, run_pipeline
from conftest import make_record

B, N = Label.BULLYING, Label.NON_BULLYING
REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(bullyguard.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_fixture_corpus(tmp_path, n_half=10, name="corpus.csv"):
    records = []
    for i in range(n_half):
        records.append(make_record(
            index=2 * i + 1, text=f"dasar jelek bego nomor{i % 3}", label=B))
        records.append(make_record(
            index=2 * i + 2, text=f"kamu keren bagus nomor{i % 3}", label=N))
    path = tmp_path / name
    write_corpus(records, path)
    return path


FAST_MODEL_INI = """\
[model]
batch_size = 8
embedding_dim = 8
hidden_dim = 4
attention_dim = 4
learning_rate = 0.05
max_epochs = 2
patience = 2
epochs = 120

[split]
train_fraction = 0.7
val_fraction = 0.2
test_fraction = 0.1
"""


def write_config(tmp_path, content=FAST_MODEL_INI, name="run.ini"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


# ----------------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------------

def test_stats_balanced(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "balanced: yes" in out
    assert "comments: 20" in out


def test_stats_json(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["validation"]["balanced"] is True
    assert payload["stats"]["n_total"] == 20


def test_stats_strict_duplicates_exit_2(tmp_path):
    records = [
        make_record(index=1, text="sama"),
        make_record(index=2, text="sama", label=N),
    ]
    path = tmp_path / "dup.csv"
    write_corpus(records, path)
    assert main(["stats", "--corpus", str(path)]) == 0
    assert main(["stats", "--corpus", str(path), "--strict"]) == 2


def test_stats_missing_corpus_exit_1(tmp_path):
    assert main(["stats", "--corpus", str(tmp_path / "none.csv")]) == 1


def test_malformed_corpus_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("no;username;komentar;label;tanggal;akun_target\n1;u;x;Bullying\n",
                    encoding="utf-8")
    assert main(["stats", "--corpus", str(path)]) == 2


@pytest.mark.parametrize("field, message", [
    (b"caf\xe9", "error: line 2: not valid UTF-8"),
    (b"a" * 200_000, "error: line 2: field larger than field limit"),
])
def test_unreadable_corpus_exit_2_one_line(tmp_path, capsys, field, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"no;username;komentar;label;tanggal;akun_target\n1;u;"
                     + field + b";Bullying;2024-01-05;t\n")
    assert main(["stats", "--corpus", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_unclosed_quote_corpus_exit_2_names_its_line(tmp_path, capsys):
    rows = [f"{i};u;teks {i};Bullying;2024-01-05;t" for i in range(1, 40)]
    rows[4] = '5;u;"teks tanpa tutup;Bullying;2024-01-05;t'  # line 6 of 40
    path = tmp_path / "bad.csv"
    path.write_text("no;username;komentar;label;tanggal;akun_target\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    assert main(["stats", "--corpus", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 6: expected 6 fields, found 3 (record spans lines 6-40)\n")


# ----------------------------------------------------------------------------
# preprocess
# ----------------------------------------------------------------------------

def test_preprocess_shows_slang_expansion(tmp_path, capsys):
    records = [make_record(index=1, text="Jelekkk bgt sih kamu")]
    path = tmp_path / "one.csv"
    write_corpus(records, path)
    assert main(["preprocess", "--corpus", str(path)]) == 0
    out = capsys.readouterr().out
    assert "banget" in out
    assert out.splitlines()[0] == "raw\tprocessed"


def test_preprocess_trace_six_columns(tmp_path, capsys):
    records = [make_record(index=1, text="Jelekkk bgt!!")]
    path = tmp_path / "one.csv"
    write_corpus(records, path)
    assert main(["preprocess", "--corpus", str(path), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == [
        "raw", "case_fold", "clean", "normalize", "stopwords", "stem", "tokenize",
    ]
    assert len(lines[1].split("\t")) == 7


def test_preprocess_clean_text_unchanged(tmp_path, capsys):
    records = [make_record(index=1, text="jelek")]
    path = tmp_path / "one.csv"
    write_corpus(records, path)
    main(["preprocess", "--corpus", str(path)])
    assert "jelek\tjelek" in capsys.readouterr().out


@pytest.mark.parametrize("trace, columns", [(False, 2), (True, 7)])
def test_preprocess_keeps_one_row_per_comment(tmp_path, capsys, trace, columns):
    records = [make_record(index=1, text="jelek\nbgt\r\nsih\rkamu\tdasar\v\u2028bego"),
               make_record(index=2, text="Kamu\r\n\nkeren")]
    path = tmp_path / "two.csv"
    write_corpus(records, path)
    assert main(["preprocess", "--corpus", str(path), *(["--trace"] if trace else [])]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 1 + len(records)
    assert all(len(row) == columns and "\r" not in "".join(row) for row in rows)
    assert rows[1][0] == "jelek bgt  sih kamu dasar  bego"
    if trace:
        assert rows[2][1] == "kamu   keren"  # the case_fold cell


def test_preprocess_elongation_min_run_below_2_exit_1(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, "[pipeline]\nelongation_min_run = 1\n", name="bad.ini")
    assert main(["preprocess", "--corpus", str(corpus), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: elongation_min_run must be at least 2, got 1\n"


def test_preprocess_negative_limit_exit_1_one_line(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    assert main(["preprocess", "--corpus", str(corpus), "--limit", "-18"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --limit must be 0 or more, got -18\n"
    assert main(["preprocess", "--corpus", str(corpus), "--limit", "0"]) == 0
    assert capsys.readouterr().out == "raw\tprocessed\n"


# ----------------------------------------------------------------------------
# train / tune / predict
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["nb", "lr", "svm", "bilstm", "bilstm_attention"])
def test_train_and_predict_flow(tmp_path, capsys, family):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path)
    model_path = tmp_path / "model.txt"
    assert main([
        "train", "--corpus", str(corpus), "--family", family,
        "--out", str(model_path), "--config", str(config), "--quiet",
    ]) == 0
    assert model_path.exists()

    lines = tmp_path / "input.txt"
    lines.write_text("dasar jelek banget\nkamu keren bagus\ndasar jelek banget\n",
                     encoding="utf-8")
    assert main([
        "predict", "--model", str(model_path), "--input", str(lines),
        "--config", str(config),
    ]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 3
    assert out_lines[0] == out_lines[2]  # same input line, identical output
    for line in out_lines:
        label, score = line.split("\t")
        assert label in ("Bullying", "Non-bullying")
        float(score)


def test_train_deterministic_artifact_bytes(tmp_path):
    corpus = write_fixture_corpus(tmp_path)
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    for path in (p1, p2):
        assert main(["train", "--corpus", str(corpus), "--family", "lr",
                     "--out", str(path), "--seed", "42", "--quiet"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_tune_single_candidate_matches_train(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(
        tmp_path,
        FAST_MODEL_INI + "\n[tune]\ngrid_l2_lambda = 0.001\n",
    )
    trained, tuned = tmp_path / "train.txt", tmp_path / "tune.txt"
    assert main(["train", "--corpus", str(corpus), "--family", "lr",
                 "--out", str(trained), "--config", str(config), "--quiet"]) == 0
    assert main(["tune", "--corpus", str(corpus), "--family", "lr",
                 "--out", str(tuned), "--config", str(config), "--folds", "2",
                 "--quiet"]) == 0
    assert trained.read_bytes() == tuned.read_bytes()


def test_tune_lists_all_candidates(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(
        tmp_path, FAST_MODEL_INI + "\n[tune]\ngrid_alpha = 0.5,1.0,2.0\n",
    )
    assert main(["tune", "--corpus", str(corpus), "--family", "nb",
                 "--out", str(tmp_path / "nb.txt"), "--config", str(config),
                 "--folds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("folds") >= 3
    assert "best:" in out


def test_tune_prints_its_trainer_settings_once_above_the_grid(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, "[model]\nepochs = 7\n[tune]\ngrid_reg_lambda = 0.01, 0.1\n")
    argv = ["tune", "--corpus", str(corpus), "--family", "svm", "--folds", "2",
            "--out", str(tmp_path / "svm.txt"), "--config", str(config)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    settings = "trainer settings under each grid point: {'reg_lambda': 0.001, 'epochs': 7}"
    assert lines.count(settings) == 1
    assert lines.index(settings) < min(i for i, line in enumerate(lines) if " folds " in line)
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_predict_empty_line_majority_warning(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(corpus), "--family", "nb",
          "--out", str(model_path), "--quiet"])
    lines = tmp_path / "input.txt"
    lines.write_text("!!! 123\n", encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--input", str(lines)]) == 0
    captured = capsys.readouterr()
    assert "majority" in captured.err
    assert captured.out.startswith(("Bullying", "Non-bullying"))


# Lines that preprocess to text, to nothing (blank, emoji, URL, mention), and
# to more tokens than a fixture model's max_seq_len.
PREDICT_VARIANTS = [
    "dasar jelek bego nomor1",
    "",
    "😂😂 🔥",
    "kamu keren bagus nomor2",
    "http://t.co/abc12 @user #viral",
    " ".join(["kamu keren bagus jelek bego"] * 8),
    "jelek bgt sih kamu",
    "   ",
    "kata kata baru sekali",
]
LONG_VARIANT = PREDICT_VARIANTS[5]


def expected_predict_output(artifact, texts, lexicon, rules):
    """stdout and stderr lines of predict, built from per-line predict_text."""
    out, err = [], []
    for lineno, text in enumerate(texts, start=1):
        pred = predict_text(artifact, text, lexicon, rules)
        if pred.empty_input:
            err.append(f"warning: line {lineno} preprocessed to empty; using majority class")
        out.append(f"{pred.label.value}\t{pred.score:.6f}")
    return out, err


KEEP_FUNCTION_WORDS_INI = "\n[pipeline]\nneural_keep_function_words = true\n"


# the keep-function-words artifact carries its own pipeline (no stopword
# removal, no stemming) and is predicted under the default config
@pytest.mark.parametrize("family, train_ini", [
    *(pytest.param(f, "", id=f) for f in ("nb", "lr", "svm", "bilstm", "bilstm_attention")),
    pytest.param("bilstm_attention", KEEP_FUNCTION_WORDS_INI,
                 id="bilstm_attention_keep_function_words"),
])
def test_predict_chunks_match_per_line(tmp_path, capsys, monkeypatch, family, train_ini,
                                       default_lexicon, default_rules):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path)
    train_config = write_config(tmp_path, FAST_MODEL_INI + train_ini, name="train.ini")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--corpus", str(corpus), "--family", family,
                 "--out", str(model_path), "--config", str(train_config), "--quiet"]) == 0
    artifact = load_artifact(model_path)
    assert (artifact.pipeline == PipelineConfig()) == (not train_ini)
    if artifact.neural_vocab is not None:
        long_tokens = run_pipeline(LONG_VARIANT, artifact.pipeline, default_lexicon, default_rules)
        assert len(long_tokens) > artifact.neural_vocab.max_seq_len
    texts = [PREDICT_VARIANTS[i % len(PREDICT_VARIANTS)]
             for i in range(2 * PREDICT_CHUNK_LINES + 88)]
    expected = expected_predict_output(artifact, texts, default_lexicon, default_rules)
    assert expected[1]

    path = tmp_path / "input.txt"  # alternating LF and CRLF endings
    path.write_bytes("".join(
        text + ("\r\n" if i % 2 else "\n") for i, text in enumerate(texts)).encode("utf-8"))
    assert main(["predict", "--model", str(model_path), "--input", str(path),
                 "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines(), captured.err.splitlines()) == expected

    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(texts) + "\n"))
    assert main(["predict", "--model", str(model_path), "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines(), captured.err.splitlines()) == expected

    if artifact.neural_vocab is None:
        return
    # a pass per row, and one pass per chunk, print the same lines
    predict_batch = neural.predict_batch
    for budget in (1, PREDICT_CHUNK_LINES * artifact.neural_vocab.max_seq_len):
        monkeypatch.setattr(neural, "predict_batch",
                            functools.partial(predict_batch, token_budget=budget))
        assert main(["predict", "--model", str(model_path), "--input", str(path),
                     "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err.splitlines()) == expected, budget


def test_predict_warnings_name_input_lines(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(corpus), "--family", "nb",
          "--out", str(model_path), "--quiet"])
    lines = tmp_path / "input.txt"  # an input file splits like str.splitlines()
    lines.write_bytes("dasar jelek\n\x0c😂\u2028kamu keren\r\n@user".encode("utf-8"))
    assert main(["predict", "--model", str(model_path), "--input", str(lines)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 5
    assert [line.split(";")[0] for line in captured.err.splitlines()] == [
        "warning: line 2 preprocessed to empty",
        "warning: line 3 preprocessed to empty",
        "warning: line 5 preprocessed to empty",
    ]


def test_predict_empty_stdin(tmp_path, capsys, monkeypatch):
    corpus = write_fixture_corpus(tmp_path)
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(corpus), "--family", "lr",
          "--out", str(model_path), "--quiet"])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["predict", "--model", str(model_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_predict_input_directory_exit_1(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(corpus), "--family", "nb",
          "--out", str(model_path), "--quiet"])
    capsys.readouterr()
    input_dir = tmp_path / "inputs"
    input_dir.mkdir()
    assert main(["predict", "--model", str(model_path), "--input", str(input_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot read input file {input_dir}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["train", "tune", "benchmark"])
def test_all_empty_corpus_exit_3_one_line(tmp_path, capsys, command):
    records = [make_record(index=i + 1, text=f"!!! {i}", label=B if i % 2 else N)
               for i in range(20)]
    corpus = tmp_path / "corpus.csv"
    write_corpus(records, corpus)
    out = ["--out-dir", str(tmp_path / "reports")] if command == "benchmark" else [
        "--family", "nb", "--out", str(tmp_path / "model.txt")]
    assert main([command, "--corpus", str(corpus), "--quiet", *out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: empty corpus after preprocessing\n"


@pytest.mark.parametrize("command, family, section, key, raw", [
    ("train", "nb", "model", "alpha", "nan"),
    ("train", "lr", "model", "l2_lambda", "inf"),
    ("train", "lr", "model", "lr", "-inf"),
    ("train", "lr", "model", "threshold", "NaN"),
    ("train", "svm", "model", "reg_lambda", "nan"),
    ("train", "bilstm", "model", "learning_rate", "inf"),
    ("train", "bilstm", "model", "min_improvement", "nan"),
    ("train", "bilstm", "split", "train_fraction", "nan"),
    ("tune", "svm", "tune", "grid_reg_lambda", "0.01, nan"),
])
def test_non_finite_config_number_exit_1_one_line(tmp_path, capsys, command, family,
                                                   section, key, raw):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[{section}]\n{key} = {raw}\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    assert main([command, "--corpus", str(corpus), "--family", family, "--quiet",
                 "--out", str(model_path), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "finite numbers" if "," in raw else "a finite number"
    assert captured.err == f"error: config [{section}] {key}: expected {expected}, got {raw!r}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("command, key, raw", [
    ("tune", "grid_reg_lambda", ","),
    ("tune", "grid_reg_lambda", ""),
    ("benchmark", "grid_alpha", " , "),
])
def test_empty_tuning_grid_exit_1_one_line(tmp_path, capsys, command, key, raw):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[tune]\n{key} = {raw}\n", name="bad.ini")
    out_path = tmp_path / "out"
    out = ["--out-dir", str(out_path)] if command == "benchmark" else [
        "--family", "svm", "--out", str(out_path)]
    assert main([command, "--corpus", str(corpus), "--quiet", "--config", str(config),
                 *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: config [tune] {key}: expected at least one number, "
                            f"got {raw.strip()!r}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command, family, raw", [
    ("train", "lr", "7"),
    ("train", "lr", "1"),
    ("train", "lr", "1.0000001"),
    ("train", "svm", "0"),
    ("tune", "lr", "-0.25"),
    ("tune", "nb", "1"),
])
def test_threshold_outside_open_unit_interval_exit_1_one_line(tmp_path, capsys, command,
                                                             family, raw):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[model]\nthreshold = {raw}\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    assert main([command, "--corpus", str(corpus), "--family", family, "--quiet",
                 "--out", str(model_path), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config [model] threshold: expected a number strictly "
                            f"between 0 and 1, got {raw!r}\n")
    assert not model_path.exists()


@pytest.mark.parametrize("command, raw", [
    ("stats", ";;"),
    ("stats", ""),
    ("preprocess", ",,"),
    ("train", "ab"),
])
def test_delimiter_not_one_character_exit_1_one_line(tmp_path, capsys, command, raw):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[corpus]\ndelimiter = {raw}\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    extra = ["--family", "nb", "--out", str(model_path)] if command == "train" else []
    assert main([command, "--corpus", str(corpus), "--quiet", "--config", str(config),
                 *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config [corpus] delimiter: expected one character, "
                            f"got {raw!r}\n")
    assert not model_path.exists()


@pytest.mark.parametrize("family, epochs", [("svm", 0), ("lr", -3)])
def test_epochs_below_1_exit_3_one_line(tmp_path, capsys, family, epochs):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[model]\nepochs = {epochs}\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--corpus", str(corpus), "--family", family, "--quiet",
                 "--out", str(model_path), "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: epochs must be at least 1, got {epochs}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("command, section, key", [
    ("train", "model", "reg_lambda"), ("tune", "tune", "grid_reg_lambda")])
def test_svm_non_finite_weights_exit_3_one_line(tmp_path, capsys, command, section, key):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[{section}]\n{key} = 1e-320\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    assert main([command, "--corpus", str(corpus), "--family", "svm", "--quiet", "--folds", "2",
                 "--out", str(model_path), "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: SVM training diverged to non-finite weights or bias "
                            "at reg_lambda 1e-320\n")
    assert not model_path.exists()


@pytest.mark.parametrize("command, section, key", [
    ("train", "model", "reg_lambda"), ("tune", "tune", "grid_reg_lambda")])
def test_svm_huge_weights_exit_3_one_line(tmp_path, capsys, command, section, key):
    # the first Pegasos step is 1/lambda: 1e300, finite but no usable score
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[{section}]\n{key} = 1e-300\n", name="bad.ini")
    model_path = tmp_path / "model.txt"
    assert main([command, "--corpus", str(corpus), "--family", "svm", "--quiet", "--folds", "2",
                 "--out", str(model_path), "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: SVM training diverged to weights or bias above 1e+12 "
                            "in magnitude at reg_lambda 1e-300\n")
    assert not model_path.exists()


@pytest.mark.parametrize("command, family", [
    ("tune", "nb"), ("tune", "lr"), ("tune", "svm"), ("benchmark", None)])
def test_unknown_objective_exit_1_one_line(tmp_path, capsys, monkeypatch, command, family):
    def no_preprocessing(self, texts):
        raise AssertionError("preprocessed before the objective was checked")
    monkeypatch.setattr(cli.Preprocessor, "corpus", no_preprocessing)
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, "[tune]\nobjective = roc_auc\n", name="bad.ini")
    out_path = tmp_path / "out"
    out = ["--out-dir", str(out_path)] if command == "benchmark" else [
        "--family", family, "--out", str(out_path)]
    assert main([command, "--corpus", str(corpus), "--quiet", "--config", str(config),
                 *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config [tune] objective: expected one of f1_weighted, "
                            "f1_macro, accuracy, got 'roc_auc'\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command, family", [
    ("train", "bilstm"), ("train", "bilstm_attention"), ("benchmark", None)])
def test_min_freq_no_token_reaches_exit_3_one_line(tmp_path, capsys, command, family):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, FAST_MODEL_INI.replace(
        "[model]\n", "[model]\nmin_freq = 100000\n"), name="bad.ini")
    out_path = tmp_path / "out"
    out = ["--out-dir", str(out_path)] if command == "benchmark" else [
        "--family", family, "--out", str(out_path)]
    assert main([command, "--corpus", str(corpus), "--quiet", "--config", str(config),
                 *out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no token reaches min_freq=100000\n"
    assert not out_path.exists()


@pytest.mark.parametrize("key, command, raw", [
    pytest.param("max_len_cap", "train", 0, id="train-0"),
    pytest.param("max_len_cap", "train", -3, id="train--3"),
    pytest.param("max_len_cap", "benchmark", 0, id="benchmark-0"),
    pytest.param("min_freq", "train", 0, id="min_freq-train-0"),
    pytest.param("min_freq", "train", -5, id="min_freq-train--5"),
    pytest.param("min_freq", "benchmark", 0, id="min_freq-benchmark-0"),
])
def test_max_len_cap_below_1_exit_1_one_line(tmp_path, capsys, monkeypatch, key, command, raw):
    def no_preprocessing(self, texts):
        raise AssertionError("preprocessed before the config was checked")
    monkeypatch.setattr(cli.Preprocessor, "corpus", no_preprocessing)
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, f"[model]\n{key} = {raw}\n", name="bad.ini")
    out_path = tmp_path / "out"
    out = ["--out-dir", str(out_path)] if command == "benchmark" else [
        "--family", "bilstm", "--out", str(out_path)]
    assert main([command, "--corpus", str(corpus), "--quiet", "--config", str(config),
                 *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config [model] {key}: expected at least 1, got {raw}\n"
    assert not out_path.exists()


def fail_if_reached(monkeypatch):
    """Make loading or preprocessing the corpus fail the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("read the corpus before the arguments were checked")
    monkeypatch.setattr(cli, "load_corpus", unreachable)
    monkeypatch.setattr(cli.Preprocessor, "corpus", unreachable)


@pytest.mark.parametrize("key, value, message", [
    (("split", "folds"), 1, "--folds / [split] folds: expected at least 2, got 1"),
    (("model", "threshold"), 2.0,
     "[model] threshold: expected a number strictly between 0 and 1, got 2.0"),
    (("model", "threshold"), 0.0,
     "[model] threshold: expected a number strictly between 0 and 1, got 0.0"),
])
def test_run_config_of_checks_the_folds_and_threshold_of_any_caller(key, value, message):
    with pytest.raises(cli.ConfigError) as raised:
        cli.RunConfig.of({key: value})
    assert str(raised.value) == message


@pytest.mark.parametrize("command, via", [
    ("tune", "flag"), ("tune", "config"), ("benchmark", "flag"), ("benchmark", "config")])
def test_folds_below_2_exit_1_one_line(tmp_path, capsys, monkeypatch, command, via):
    corpus = write_fixture_corpus(tmp_path)
    fail_if_reached(monkeypatch)
    folds = (["--folds", "1"] if via == "flag" else
             ["--config", str(write_config(tmp_path, "[split]\nfolds = 1\n", name="f.ini"))])
    out_path = tmp_path / "out"
    out = ["--out-dir", str(out_path)] if command == "benchmark" else [
        "--family", "nb", "--out", str(out_path)]
    assert main([command, "--corpus", str(corpus), "--quiet", *folds, *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --folds / [split] folds: expected at least 2, got 1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command, family, dest, problem", [
    ("train", "nb", "missing_dir/m.txt", "directory not found: {tmp}/missing_dir"),
    ("train", "bilstm", "missing_dir/m.txt", "directory not found: {tmp}/missing_dir"),
    ("tune", "svm", "missing_dir/m.txt", "directory not found: {tmp}/missing_dir"),
    ("train", "nb", ".", "is a directory"),
    ("benchmark", None, "taken", "not a directory: {tmp}/taken"),
    ("benchmark", None, "taken/reports", "not a directory: {tmp}/taken"),
])
def test_unwritable_output_exit_1_one_line(tmp_path, capsys, monkeypatch, command, family,
                                           dest, problem):
    corpus = write_fixture_corpus(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    fail_if_reached(monkeypatch)
    path = tmp_path / dest
    flag = "--out-dir" if command == "benchmark" else "--out"
    family_args = ["--family", family] if family else []
    assert main([command, "--corpus", str(corpus), "--quiet", *family_args,
                 flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {path}: {problem.format(tmp=tmp_path)}\n"


def test_failed_write_exit_1_one_line(tmp_path, capsys, monkeypatch):
    def disk_full(artifact, path):
        raise OSError(28, "No space left on device", str(path))
    monkeypatch.setattr(cli, "save_artifact", disk_full)
    corpus = write_fixture_corpus(tmp_path)
    out_path = tmp_path / "m.txt"
    assert main(["train", "--corpus", str(corpus), "--family", "nb", "--quiet",
                 "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 28] No space left on device: '{out_path}'\n"


def test_cli_import_does_not_load_scipy():
    code = ("import sys, bullyguard.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_benchmark_entry_points_run(tmp_path, default_lexicon, default_rules):
    """The benchmark's set-up probe and predict probe run against this
    checkout, so a changed signature they call fails here first."""
    pytest.importorskip("scipy")  # perfbench/worker.py records its version
    corpus = write_fixture_corpus(tmp_path)
    model = tmp_path / "nb.model"
    assert main(["train", "--corpus", str(corpus), "--family", "nb",
                 "--out", str(model), "--quiet"]) == 0
    texts = ["dasar jelek bego", "kamu keren bagus", "😂", "jelek bgt sih kamu"]
    lines = tmp_path / "lines.txt"
    lines.write_text("\n".join(texts) + "\n", encoding="utf-8")
    out = tmp_path / "probe.json"
    for argv in (["setup_probe.py", "artifact", str(model)],
                 ["worker.py", "probe", str(lines), str(out), "0", "1", str(model)]):
        proc = subprocess.run([sys.executable, str(PERFBENCH / argv[0]), *argv[1:]],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    probe = json.loads(out.read_text(encoding="utf-8"))
    assert list(probe) == ["nb"]
    assert probe["nb"]["line"] == list(range(len(texts)))
    assert all(isinstance(ns, int) and ns > 0 for ns in probe["nb"]["latency_ns"])
    printed, _ = expected_predict_output(load_artifact(model), texts,
                                         default_lexicon, default_rules)
    assert probe["nb"]["printed"] == printed


def test_benchmark_tracer_hooks_resolve():
    """Every function that a per-layer metric of the benchmark needs, and each
    private step its tracer wraps by name, can still be hooked, so a renamed
    function fails here rather than turning its metrics into "missing"."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = tracer.Tracer()
    try:
        recorder.install(tracer.package_modules(), hooks={})
    finally:
        recorder.uninstall()
    needs = {need for _, _, metric_needs, _ in tracer.LAYER_METRICS for need in metric_needs}
    assert recorder.missing == set()
    assert needs | set(tracer.EXTRA_HOOKS) <= recorder.hooked


def test_benchmark_tracer_counts_a_traced_preprocess_run(capsys, synthetic_corpus_path):
    """The tracer's hook on run_pipeline_trace reads its result by position:
    a traced `preprocess --trace` counts each comment once, misses no hook and
    prints what an untraced run prints."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    argv = ["preprocess", "--corpus", str(synthetic_corpus_path), "--limit", "5", "--trace"]
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    recorder = tracer.Tracer()
    recorder.install(tracer.package_modules())
    try:
        assert cli.main(argv) == 0
    finally:
        recorder.uninstall()
    assert recorder.counters["preprocess.docs"] == 5
    assert recorder.missing == set()
    assert capsys.readouterr().out == untraced


def test_benchmark_tracer_counts_a_traced_svm_training(tmp_path, capsys, synthetic_corpus_path):
    """The tracer's hook on train_svm reads X at position 0 and epochs at
    position 3 or by keyword: a traced `train --family svm` counts every
    Pegasos step, misses no hook and prints what an untraced run prints."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    argv = ["train", "--corpus", str(synthetic_corpus_path), "--family", "svm",
            "--out", str(tmp_path / "svm.model")]
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    recorder = tracer.Tracer()
    recorder.install(tracer.package_modules())
    try:
        assert cli.main(argv) == 0
    finally:
        recorder.uninstall()
    assert recorder.counters["linear_models.svm_steps"] == 200 * 200
    assert recorder.missing == set()
    assert capsys.readouterr().out == untraced


def test_generate_corpus_script_reproduces_the_bundled_corpus(tmp_path):
    out = tmp_path / "corpus.csv"
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "generate_corpus.py"),
                           "--out", str(out)], env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_bytes() == (REPO / "data" / "comments_synthetic.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--attention", "--no-attention"])
def test_check_gradients_script_reports_every_block(flag):
    script = Path(__file__).resolve().parents[1] / "scripts" / "check_gradients.py"
    proc = subprocess.run([sys.executable, str(script), flag], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    block_lines = [line.split(":")[0].strip() for line in proc.stdout.splitlines()
                   if ": max rel err " in line]
    assert block_lines == list(BLOCK_NAMES)


# ----------------------------------------------------------------------------
# config keys: each one reaches its dataclass field or trainer keyword
# ----------------------------------------------------------------------------

def config_keys(section):
    """The keys cli's table accepts in a config section, in table order."""
    return tuple(key for sec, key in cli._KEYS if sec == section)


def resolve(argv):
    ns = cli.build_parser().parse_args(argv)
    return ns, cli._resolve_runtime(ns)


def trainer_kwargs(rt, family):
    """The keywords train_family hands the family's trainer under rt's config."""
    params, seen = rt.trainer_params[family], {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear_models, f"train_{family}",  # n_features comes from the data
                      lambda X, labels, n_features=None, **kwargs: seen.update(kwargs))
        linear_models.train_family(family, [], 0, [], params, rt.seed)
    return seen


def run_settings(config):
    """What train, tune and benchmark read from a config file (or none)."""
    ns, rt = resolve(["train", "--out", "unused"] + (["--config", str(config)] if config else []))
    study = {"split": rt.split, "neural": rt.neural, "grids": rt.grids,
             "objective": rt.objective, "folds": rt.folds}
    trainers = {}
    for family in linear_models.CLASSICAL_FAMILIES:
        signature = inspect.signature(getattr(linear_models, f"train_{family}"))
        trainers[family] = {name: p.default for name, p in signature.parameters.items()
                            if p.default is not p.empty}
        trainers[family].update(trainer_kwargs(rt, family))
    return {
        "family": ns.family or rt.family, "threshold": rt.threshold, "study": study,
        "delimiter": rt.delimiter, "columns": rt.column_map, "trainers": trainers,
        "fingerprint": cli.preprocessing_fingerprint(rt.pipeline, rt.lexicon, rt.rules),
    }


def test_example_config_restates_the_defaults(monkeypatch):
    monkeypatch.chdir(REPO)  # its [corpus] path is relative to the checkout
    example = REPO / "config.example.ini"
    assert cli.RunConfig.load(example).values["corpus", "path"] is not None
    assert run_settings(example) == run_settings(None)


def test_example_config_runs_from_any_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["stats", "--config", str(REPO / "config.example.ini")]) == 0
    assert "records" in capsys.readouterr().out


def test_config_paths_are_relative_to_the_config_file(tmp_path, monkeypatch):
    conf = tmp_path / "conf"
    conf.mkdir()
    write_fixture_corpus(conf)
    lexicons = {key: path.name for key, path in default_lexicon_paths().items()}
    for key, path in default_lexicon_paths().items():
        (conf / lexicons[key]).write_bytes(path.read_bytes())
    config = write_config(conf, "[corpus]\npath = corpus.csv\n[output]\ndir = reports\n"
                          "[lexicons]\n" + "".join(f"{k} = {v}\n" for k, v in lexicons.items()))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    loaded = cli.RunConfig.load(Path("..") / "conf" / config.name)
    assert loaded.values["corpus", "path"] == Path("../conf/corpus.csv")
    assert Path(loaded.values["output", "dir"]) == Path("../conf/reports")
    for key, name in lexicons.items():
        assert loaded.values["lexicons", key] == Path("../conf") / name
    # a command-line path stays relative to the working directory
    write_fixture_corpus(elsewhere, name="corpus.csv")
    ns, rt = resolve(["stats", "--corpus", "corpus.csv", "--config", str(config)])
    assert cli._corpus_path(ns, rt) == Path("corpus.csv")


EVERY_KEY_INI = """\
[pipeline]
case_fold = false
clean = false
normalize = false
remove_stopwords = false
stem = false
tokenize = false
elongation_min_run = 4
neural_keep_function_words = true

[tfidf]
sublinear_tf = true
l2_normalize = false
min_df = 2

[model]
family = svm
alpha = 0.5
l2_lambda = 0.02
lr = 0.3
epochs = 7
reg_lambda = 0.04
threshold = 0.6
batch_size = 5
embedding_dim = 6
hidden_dim = 7
attention_dim = 8
learning_rate = 0.02
max_epochs = 9
patience = 4
min_improvement = 0.003
min_freq = 2
max_len_cap = 11

[split]
train_fraction = 0.6
val_fraction = 0.3
test_fraction = 0.1
seed = 9
folds = 3
stratified = false
"""


def test_every_config_key_reaches_its_setting(tmp_path):
    config = write_config(tmp_path, EVERY_KEY_INI, name="every.ini")
    read = cli._read_keys(config)
    for section in ("pipeline", "tfidf", "model", "split"):
        assert {key for sec, key in read if sec == section} == set(config_keys(section))
    ns, rt = resolve(["train", "--out", "unused", "--config", str(config)])
    assert (rt.seed, rt.folds, rt.threshold, ns.family or rt.family) == (9, 3, 0.6, "svm")
    assert rt.pipeline == PipelineConfig(False, False, False, False, False, False, 4)
    assert rt.tfidf == TfidfConfig(sublinear_tf=True, l2_normalize=False, min_df=2)
    assert rt.split == SplitSpec(0.6, 0.3, 0.1, seed=9, stratified=False)
    assert rt.neural == TrainConfig(
        batch_size=5, embedding_dim=6, hidden_dim=7, attention_dim=8, learning_rate=0.02,
        max_epochs=9, patience=4, min_improvement=0.003, seed=9,
        keep_function_words=True, min_freq=2, max_len_cap=11)
    assert trainer_kwargs(rt, "nb") == {"alpha": 0.5}
    assert trainer_kwargs(rt, "lr") == {"l2_lambda": 0.02, "lr": 0.3, "epochs": 7}
    assert trainer_kwargs(rt, "svm") == {"reg_lambda": 0.04, "epochs": 7, "seed": 9}


# Each split fraction moves with another, so that the three still sum to 1.
FRACTION_PARTNERS = {"train_fraction": "val_fraction", "val_fraction": "train_fraction",
                     "test_fraction": "train_fraction"}
ECHO_VALUES = {("model", "family"): "svm", ("model", "threshold"): 0.25,
               ("tune", "objective"): "accuracy", ("model", "epochs"): 7}


def other_value(section, key, default):
    """A valid value of the key other than its default."""
    if (section, key) in ECHO_VALUES:
        return ECHO_VALUES[section, key]
    if default is None:  # a classical trainer keyword, unset
        return 0.25
    if isinstance(default, bool):
        return not default
    if isinstance(default, list):
        return [0.5]
    return default + 1 if isinstance(default, int) else default / 2


ECHOED_KEYS = [key for key in cli._KEYS if key[0] not in ("corpus", "lexicons", "output")]


@pytest.mark.parametrize("section, key", ECHOED_KEYS, ids=[f"{s}/{k}" for s, k in ECHOED_KEYS])
def test_echo_names_every_setting(section, key):
    default = cli.RunConfig.of({}).values
    keys = {(section, key): other_value(section, key, default[section, key])}
    if key in FRACTION_PARTNERS:
        partner = FRACTION_PARTNERS[key]
        keys = {(section, key): default[section, key] + 0.05,
                (section, partner): default[section, partner] - 0.05}
    value, default_echo = keys[section, key], cli.RunConfig.of({}).echo()
    echo = cli.RunConfig.of(keys).echo()
    assert echo != default_echo
    json.dumps(echo)  # the report writes it as JSON
    reached = [family for family in linear_models.CLASSICAL_FAMILIES
               if key in default_echo["trainers"][family]] if section == "model" else []
    for family in reached:  # a trainer keyword is echoed as each trainer it reaches ran it
        assert echo["trainers"][family][key] == value
    # once: under trainers if it is a trainer keyword, else in its section
    assert (key in echo[section]) != bool(reached)
    if not reached:
        assert echo[section][key] == value


@pytest.mark.parametrize("key", ["beta1", "beta2", "epsilon"])
def test_adam_constants_are_not_config_keys(tmp_path, capsys, key):
    config = write_config(tmp_path, f"[model]\n{key} = 0.5\n", name="adam.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["train", "--corpus", str(corpus), "--family", "bilstm", "--quiet",
                 "--out", str(tmp_path / "m.txt"), "--config", str(config)]) == 1
    assert capsys.readouterr().err == \
        f"error: unknown config key {key!r} in section [model]\n"


def test_example_config_names_every_key():
    """config.example.ini shows each accepted key, set or commented out."""
    named, section = set(), None
    for line in (REPO / "config.example.ini").read_text(encoding="utf-8").splitlines():
        line = line.removeprefix("# ")
        if match := re.fullmatch(r"\[(\w+)\]", line):
            section = match[1]
        elif match := re.match(r"(\w+) = ", line):
            named.add((section, match[1]))
    assert named == set(cli._KEYS)


# ----------------------------------------------------------------------------
# one config table: each key is typed and checked at load, whatever the command
# ----------------------------------------------------------------------------

# The (section, key) pairs a config could set before the table replaced the
# hand-written list; the table accepts exactly these.
ACCEPTED_KEYS = {
    "corpus": ("path", "delimiter", "col_index", "col_username", "col_text",
               "col_label", "col_date", "col_target"),
    "lexicons": ("slang", "stopwords", "root_words", "stemmer_rules"),
    "pipeline": ("case_fold", "clean", "normalize", "remove_stopwords", "stem",
                 "tokenize", "elongation_min_run", "neural_keep_function_words"),
    "tfidf": ("sublinear_tf", "l2_normalize", "min_df"),
    "model": ("family", "alpha", "l2_lambda", "lr", "epochs", "reg_lambda",
              "threshold", "batch_size", "embedding_dim", "hidden_dim",
              "attention_dim", "learning_rate", "max_epochs", "patience",
              "min_improvement", "min_freq", "max_len_cap"),
    "split": ("train_fraction", "val_fraction", "test_fraction", "seed",
              "folds", "stratified"),
    "tune": ("objective", "grid_alpha", "grid_l2_lambda", "grid_reg_lambda"),
    "output": ("dir",),
}


def test_table_accepts_the_same_keys():
    assert set(cli._KEYS) == {(section, key) for section, keys in ACCEPTED_KEYS.items()
                              for key in keys}


# A value that each key's reader refuses, by its type or its load-time range
# check; every key not named here takes a number, a boolean or a list of numbers.
BAD_VALUES = {
    ("corpus", "path"): "/nonexistent/corpus.csv",
    ("corpus", "delimiter"): ";;",
    **{("corpus", key): "" for key in ACCEPTED_KEYS["corpus"] if key.startswith("col_")},
    **{("lexicons", key): f"/nonexistent/{key}" for key in ACCEPTED_KEYS["lexicons"]},
    ("model", "family"): "bogus",
    ("model", "threshold"): "1",
    ("split", "folds"): "1",
    ("tune", "objective"): "nope",
    ("output", "dir"): "",
}
COMMANDS = ("stats", "preprocess", "train", "tune", "predict", "benchmark")


def commands_with_config(tmp_path, monkeypatch, config_text):
    """Each command's argv with config_text as its --config, on a corpus that
    exists; reading the corpus or a model fails the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("read a model before the config was checked")
    fail_if_reached(monkeypatch)
    monkeypatch.setattr(cli, "load_artifact", unreachable)
    corpus = ["--corpus", str(write_fixture_corpus(tmp_path))]
    out = ["--out", str(tmp_path / "model.txt")]
    args = {"stats": corpus, "preprocess": corpus,
            "train": [*corpus, "--family", "nb", *out], "tune": [*corpus, "--family", "nb", *out],
            "predict": ["--model", str(tmp_path / "nb.model")],
            "benchmark": [*corpus, "--out-dir", str(tmp_path / "reports")]}
    config = write_config(tmp_path, config_text, name="bad.ini")
    return [[command, *args[command], "--quiet", "--config", str(config)] for command in COMMANDS]


def assert_config_error_names(argv, capsys, section, key):
    assert main(argv) == 1, argv[0]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv[0]
    assert f"[{section}] {key}: " in captured.err, (argv[0], captured.err)


@pytest.mark.parametrize("section, key", list(cli._KEYS), ids="/".join)
def test_malformed_config_value_exit_1_one_line_under_every_command(
        tmp_path, capsys, monkeypatch, section, key):
    raw = BAD_VALUES.get((section, key), "banana")
    for argv in commands_with_config(tmp_path, monkeypatch, f"[{section}]\n{key} = {raw}\n"):
        assert_config_error_names(argv, capsys, section, key)


@pytest.mark.parametrize("first, second", [
    (("tune", "objective"), ("model", "alpha")),
    (("model", "alpha"), ("tune", "objective")),
    (("split", "folds"), ("corpus", "path")),
    (("lexicons", "stopwords"), ("lexicons", "slang")),
    (("model", "threshold"), ("model", "family")),
], ids=lambda pair: "/".join(pair))
def test_two_bad_config_keys_name_the_first_in_file_order(
        tmp_path, capsys, monkeypatch, first, second):
    text = ""
    for (section, key), previous in zip((first, second), (None, first[0])):
        if section != previous:
            text += f"[{section}]\n"
        text += f"{key} = {BAD_VALUES.get((section, key), 'banana')}\n"
    for argv in commands_with_config(tmp_path, monkeypatch, text):
        assert_config_error_names(argv, capsys, *first)


@pytest.mark.parametrize("text, error", [
    ("[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
    ("[DEFAULT]\nseed = 3\n[split]\nfolds = 3\n", "unknown config section [DEFAULT]"),
    ("[splits]\nseed = 3\n", "unknown config section [splits]"),
])
def test_unknown_config_section_exit_1_one_line(tmp_path, capsys, monkeypatch, text, error):
    """A [DEFAULT] section is refused too: configparser would give its keys
    to every section, or to none when it stands alone."""
    for argv in commands_with_config(tmp_path, monkeypatch, text):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("raw", ["reports%1", "%(nowhere)s"])
def test_config_value_with_bad_interpolation_exit_1_one_line(tmp_path, capsys, monkeypatch, raw):
    for argv in commands_with_config(tmp_path, monkeypatch, f"[output]\ndir = {raw}\n"):
        assert_config_error_names(argv, capsys, "output", "dir")


TWO_CANDIDATE_INI = """\
[model]
epochs = 7
lr = 0.2
[tune]
grid_alpha = 1.0
grid_l2_lambda = 0.001, 0.01
grid_reg_lambda = 0.001, 0.01
"""


@pytest.mark.parametrize("command", ["tune-lr", "tune-svm", "benchmark"])
def test_model_keys_reach_every_grid_training(tmp_path, monkeypatch, command):
    """tune and benchmark train each grid candidate on each fold under the
    config's [model] keys, with the grid point's own key over them."""
    lr_problems, svm_params = [], []
    real_stack, real_svm = linear_models._train_lr_stack, linear_models.train_svm

    def stack_spy(problems):
        lr_problems.extend(problems)
        return real_stack(problems)

    def svm_spy(*args, **kwargs):
        svm_params.append(kwargs)
        return real_svm(*args, **kwargs)

    def stop(*args, **kwargs):  # the neural track reads no [model] key under test
        raise linear_models.TrainingError("stopped before the neural track")
    monkeypatch.setattr(linear_models, "_train_lr_stack", stack_spy)
    monkeypatch.setattr(linear_models, "train_svm", svm_spy)
    monkeypatch.setattr(study, "prepare_neural_data", stop)
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, TWO_CANDIDATE_INI)
    if command == "benchmark":
        argv, code = ["benchmark", "--out-dir", str(tmp_path / "reports")], 3
    else:
        argv, code = ["tune", "--family", command[5:], "--out", str(tmp_path / "m.txt")], 0
    assert main([*argv, "--corpus", str(corpus), "--config", str(config), "--folds", "2",
                 "--quiet"]) == code
    # (l2_lambda, lr, epochs) of each LR problem, (reg_lambda, epochs) of each SVM training
    lr_seen = sorted({problem[2:5] for problem in lr_problems})
    svm_seen = sorted({(params["reg_lambda"], params["epochs"]) for params in svm_params})
    assert lr_seen == ([] if command == "tune-svm" else [(0.001, 0.2, 7), (0.01, 0.2, 7)])
    assert svm_seen == ([] if command == "tune-lr" else [(0.001, 7), (0.01, 7)])
    assert len(lr_problems) + len(svm_params) == {"tune-lr": 5, "tune-svm": 5,
                                                  "benchmark": 8}[command]


# ----------------------------------------------------------------------------
# fault injection: each bad input exits with its code and one stderr line
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """One small artifact per family under test, trained once for the module."""
    tmp = tmp_path_factory.mktemp("models")
    corpus = write_fixture_corpus(tmp)
    config = write_config(tmp)
    models = {}
    for family in ("nb", "lr", "svm", "bilstm", "bilstm_attention"):
        models[family] = tmp / f"{family}.model"
        assert main(["train", "--corpus", str(corpus), "--family", family, "--config",
                     str(config), "--out", str(models[family]), "--quiet"]) == 0
    return models


def edit_line(key, new):
    """Artifact edit: the first line whose first word is key becomes new(line)."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
        return lines[:i] + [new(lines[i])] + lines[i + 1:]
    return edit


def nan_row_after(header):
    """Artifact edit: the first value row after the header line becomes NaN."""
    def edit(lines):
        i = lines.index(header) + 2  # skip the shape line
        return lines[:i] + [" ".join("nan" for _ in lines[i].split(" "))] + lines[i + 1:]
    return edit


def double_space_after(header):
    """Artifact edit: the first value row after the header line gets an empty
    field between its first two numbers."""
    def edit(lines):
        i = lines.index(header) + 2  # skip the shape line
        return lines[:i] + [lines[i].replace(" ", "  ", 1)] + lines[i + 1:]
    return edit


def cut_in_line(key, keep):
    """Artifact edit: the file ends inside the first line whose first word is
    key, after its first keep(line) characters."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
        return lines[:i] + [lines[i][:keep(lines[i])]]
    return edit


def drop_last_value(header):
    """Artifact edit: the 1-D block after the header loses its last number,
    in its shape line and its value row alike."""
    def edit(lines):
        i = lines.index(header)
        size = int(lines[i + 1].split(" ")[1])
        cut = [f"shape {size - 1}", lines[i + 2].rsplit(" ", 1)[0]]
        return lines[:i + 1] + cut + lines[i + 3:]
    return edit


def set_token_id(nth, new_id):
    """Artifact edit: the nth token line, counting from 0, gets the id new_id."""
    def edit(lines):
        i = [i for i, line in enumerate(lines) if line.split(" ", 1)[0] == "token"][nth]
        parts = lines[i].split(" ")
        return lines[:i] + [" ".join(parts[:2] + [str(new_id)] + parts[3:])] + lines[i + 1:]
    return edit


def swap_with_next(key):
    """Artifact edit: the first line whose first word is key trades places
    with the line after it."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    return edit


def neural_vocab_1(lines):
    """Artifact edit: a neural vocabulary of PAD alone, consistent across the
    [neural] header, the token lines and the embedding block."""
    i = lines.index("[param embedding]")
    _, rows, dim = lines[i + 1].split(" ")
    head = [("vocab 1" if line.startswith("vocab ") else line)
            for line in lines[:i] if not line.startswith("token ")]
    return head + [lines[i], f"shape 1 {dim}", lines[i + 2]] + lines[i + 2 + int(rows):]


# family and edit of the artifact's lines; each must exit 1
BAD_ARTIFACTS = {
    "lr_two_weights": ("lr", edit_line("weights", lambda line: "weights 1 2")),
    "lr_nan_weights": ("lr", edit_line(
        "weights", lambda line: " ".join(["weights"] + ["nan"] * (len(line.split()) - 1)))),
    "lr_nan_bias": ("lr", edit_line("bias", lambda line: "bias nan")),
    "lr_inf_threshold": ("lr", edit_line("threshold", lambda line: "threshold inf")),
    "lr_threshold_0": ("lr", edit_line("threshold", lambda line: "threshold 0")),
    "lr_threshold_1": ("lr", edit_line("threshold", lambda line: "threshold 1")),
    "lr_threshold_7": ("lr", edit_line("threshold", lambda line: "threshold 7")),
    "bilstm_format_1": ("bilstm", edit_line(
        "bullyguard-model", lambda line: "bullyguard-model 1")),
    "lr_truncated": ("lr", lambda lines: lines[: len(lines) // 2]),
    "lr_cut_in_weights_row": ("lr", cut_in_line(
        "weights", lambda line: line.rindex(" ", 0, len(line) // 2))),
    "lr_cut_in_number": ("lr", cut_in_line(
        "weights", lambda line: line.rindex(" ", 0, len(line) // 2) + 3)),
    "svm_extra_weight": ("svm", edit_line("weights", lambda line: line + " 0.5")),
    "svm_inf_weight": ("svm", edit_line("weights", lambda line: line.rsplit(" ", 1)[0] + " inf")),
    "svm_1e999_weight": ("svm", edit_line(
        "weights", lambda line: line.rsplit(" ", 1)[0] + " 1e999")),
    "svm_nan_bias": ("svm", edit_line("bias", lambda line: "bias nan")),
    "nb_nan_likelihood": ("nb", edit_line(
        "log_likelihood", lambda line: line.rsplit(" ", 1)[0] + " nan")),
    "nb_likelihood_rows_swapped": ("nb", swap_with_next("log_likelihood")),
    "nb_minus_inf_prior": ("nb", edit_line(
        "log_prior", lambda line: "log_prior -inf " + line.split(" ")[2])),
    "nb_three_priors": ("nb", edit_line("log_prior", lambda line: line + " -1")),
    "nb_short_likelihood": ("nb", edit_line(
        "log_likelihood", lambda line: line.rsplit(" ", 1)[0])),
    "nb_inf_idf": ("nb", edit_line("token", lambda line: line.rsplit(" ", 1)[0] + " inf")),
    "bilstm_nan_head_bias": ("bilstm", nan_row_after("[param head.b]")),
    "bilstm_double_space_in_row": ("bilstm", double_space_after("[param fwd.b]")),
    "bilstm_attention_short_att_v": ("bilstm_attention", drop_last_value("[param att.v]")),
    "bilstm_token_id_out_of_range": ("bilstm", set_token_id(0, 99999)),
    "bilstm_negative_token_id": ("bilstm", set_token_id(0, -5)),
    "bilstm_vocab_1": ("bilstm", neural_vocab_1),
    "bilstm_max_seq_len_0": ("bilstm", edit_line("max_seq_len", lambda line: "max_seq_len 0")),
    "bilstm_max_seq_len_negative": ("bilstm", edit_line(
        "max_seq_len", lambda line: "max_seq_len -2")),
    "bilstm_use_attention_true": ("bilstm", edit_line(
        "use_attention", lambda line: "use_attention true")),
    "bilstm_attention_use_attention_false": ("bilstm_attention", edit_line(
        "use_attention", lambda line: "use_attention false")),
    "lr_duplicate_token_id": ("lr", set_token_id(1, 0)),
    "lr_negative_token_id": ("lr", set_token_id(0, -1)),
    # a parse error that quotes a fingerprint line is a malformed artifact, not a mismatch
    "lr_no_data_fingerprint": ("lr", lambda lines: [
        line for line in lines if not line.startswith("data_fingerprint ")]),
    "lr_garbled_data_fingerprint": ("lr", edit_line(
        "data_fingerprint", lambda line: line.replace(" ", "=", 1))),
}


@pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
def test_bad_artifact_exit_code_one_line(tmp_path, capsys, trained_models, case):
    family, edit = BAD_ARTIFACTS[case]
    lines = trained_models[family].read_text(encoding="utf-8").splitlines()
    model = tmp_path / "bad.model"
    model.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    text = tmp_path / "input.txt"
    text.write_text("halo bodoh jelek anjing\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--input", str(text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    with pytest.raises(ArtifactError):  # rejected on load, not when first used
        load_artifact(model)


def test_import_and_predict_build_no_jump_table(tmp_path, trained_models):
    # the bulk PRNG's jump table costs set-up time; only drawing in bulk builds it
    lines = tmp_path / "input.txt"
    lines.write_text("dasar jelek banget\nkamu keren bagus\n", encoding="utf-8")
    code = (
        "import sys, bullyguard.cli as cli, bullyguard.rng as rng\n"
        "print(rng._jump_table.cache_info().currsize)\n"
        "for model in sys.argv[2:]:\n"
        "    assert cli.main(['predict', '--quiet', '--input', sys.argv[1], '--model', model]) == 0\n"
        "print(rng._jump_table.cache_info().currsize, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(lines),
                           *(str(path) for path in trained_models.values())],
                          env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[0] == "0"
    assert proc.stderr == "0\n"


# ----------------------------------------------------------------------------
# what each command loads: a classical run never compiles the neural or study code
# ----------------------------------------------------------------------------

LOADED_MODULES = (
    "import sys\n"
    "from bullyguard import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules\n"
    "                      if m.startswith('bullyguard.')\n"
    "                      or m in ('numpy', 'statistics', 'csv', 'json'))))\n"
    "sys.exit(code)\n"
)


def loaded_modules(args) -> set[str]:
    """The bullyguard modules, and numpy, statistics, csv and json if loaded,
    that a fresh process has loaded after cli.main(args), which must return 0."""
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *map(str, args)],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bundled_models(tmp_path_factory, synthetic_corpus_path):
    """One artifact per family, trained on the bundled corpus."""
    tmp = tmp_path_factory.mktemp("bundled")
    config = write_config(tmp)
    models = {}
    for family in ("nb", "lr", "svm", "bilstm", "bilstm_attention"):
        models[family] = tmp / f"{family}.model"
        assert main(["train", "--corpus", str(synthetic_corpus_path), "--family", family,
                     "--config", str(config), "--out", str(models[family]), "--quiet"]) == 0
    return models


NEURAL, STUDY, NUMPY = "bullyguard.neural", "bullyguard.eval", "numpy"
# what only the corpus readers and writers, stats, the study and its reports use
UNUSED_BY_PREDICT = {"statistics", "csv", "json", "bullyguard.metrics"}


@pytest.mark.parametrize("family, unloaded", [
    *((family, {NEURAL, STUDY, NUMPY, *UNUSED_BY_PREDICT})
      for family in linear_models.CLASSICAL_FAMILIES),
    ("bilstm", {STUDY}), ("bilstm_attention", {STUDY})])
def test_predict_loads_only_its_family(tmp_path, bundled_models, family, unloaded):
    lines = tmp_path / "input.txt"
    lines.write_text("dasar jelek banget\nkamu keren bagus\n\n", encoding="utf-8")
    loaded = loaded_modules(["predict", "--model", bundled_models[family], "--input", lines])
    assert "bullyguard.artifact" in loaded and not loaded & unloaded
    assert (NUMPY in loaded) == (NUMPY not in unloaded)


def test_classical_predict_with_every_config_key_loads_no_numpy(
        tmp_path, bundled_models, synthetic_corpus_path):
    lexicons = "".join(f"{key} = {path}\n" for key, path in default_lexicon_paths().items())
    config = write_config(tmp_path, EVERY_KEY_INI + f"""
[corpus]
path = {synthetic_corpus_path}
delimiter = ,
col_index = no
col_username = username
col_text = komentar
col_label = label
col_date = tanggal
col_target = akun_target

[lexicons]
{lexicons}
[tune]
objective = accuracy
grid_alpha = 0.5
grid_l2_lambda = 0.01
grid_reg_lambda = 0.01, 0.1

[output]
dir = {tmp_path / "reports"}
""", name="every.ini")
    assert set(cli._read_keys(config)) == set(cli._KEYS)
    lines = tmp_path / "input.txt"
    lines.write_text("dasar jelek banget\nkamu keren bagus\n", encoding="utf-8")
    loaded = loaded_modules(["predict", "--model", bundled_models["lr"], "--input", lines,
                             "--config", config])
    assert "bullyguard.preprocess" in loaded and not loaded & {NUMPY, NEURAL}


def test_importing_the_cli_loads_no_numpy():
    code = "import sys, bullyguard.cli\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("args", [
    ["stats"], ["preprocess"],
    *(["train", "--family", family] for family in linear_models.CLASSICAL_FAMILIES),
    *(["tune", "--family", family] for family in linear_models.CLASSICAL_FAMILIES)],
    ids=lambda args: "-".join(arg for arg in args if not arg.startswith("--")))
def test_classical_commands_load_no_neural_or_study_code(tmp_path, synthetic_corpus_path, args):
    out = ["--out", tmp_path / "model.txt"] if args[0] in ("train", "tune") else []
    loaded = loaded_modules([*args, "--corpus", synthetic_corpus_path, "--quiet", *out])
    assert "bullyguard.preprocess" in loaded and not loaded & {NEURAL, STUDY}


@pytest.mark.parametrize("args", [["train", "--family", "bilstm_attention"], ["benchmark"]],
                         ids=["train-bilstm_attention", "benchmark"])
def test_neural_train_and_benchmark_load_what_they_run(tmp_path, args):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, FAST_MODEL_INI + "\n[tune]\ngrid_alpha = 1.0\n"
                          "grid_l2_lambda = 0.001\ngrid_reg_lambda = 0.001\n")
    out = (["--out-dir", tmp_path / "reports"] if args[0] == "benchmark"
           else ["--out", tmp_path / "model.txt"])
    loaded = loaded_modules([*args, "--corpus", corpus, "--config", config, "--folds", "2",
                             "--quiet", *out])
    assert {NEURAL, STUDY} <= loaded


def run_module_cli(args) -> subprocess.CompletedProcess:
    """`python -m bullyguard.cli args` in a fresh process: each module loads
    only when the command reaches it."""
    return subprocess.run([sys.executable, "-m", "bullyguard.cli", *map(str, args)],
                          env=src_env(), capture_output=True, text=True, timeout=300)


def wrong_block_shape(lines):
    """Artifact edit: [param head.b] declares 3 rows of output instead of 2."""
    i = lines.index("[param head.b]")
    return lines[:i + 1] + ["shape 3"] + lines[i + 2:]


@pytest.mark.parametrize("case", ["neural_min_freq", "neural_block_shape", "svm_reg_lambda"])
def test_exit_codes_hold_when_the_raising_module_loads_late(tmp_path, trained_models, case):
    corpus = write_fixture_corpus(tmp_path)
    if case == "neural_min_freq":
        config = write_config(tmp_path, FAST_MODEL_INI.replace(
            "[model]\n", "[model]\nmin_freq = 100000\n"), name="bad.ini")
        args, code = ["train", "--family", "bilstm", "--corpus", corpus, "--config", config,
                      "--out", tmp_path / "m.txt"], 3
    elif case == "neural_block_shape":
        model = tmp_path / "bad.model"
        lines = trained_models["bilstm"].read_text(encoding="utf-8").splitlines()
        model.write_text("\n".join(wrong_block_shape(lines)) + "\n", encoding="utf-8")
        text = tmp_path / "input.txt"
        text.write_text("halo bodoh jelek anjing\n", encoding="utf-8")
        args, code = ["predict", "--model", model, "--input", text], 1
    else:
        config = write_config(tmp_path, "[model]\nreg_lambda = 1e-320\n", name="bad.ini")
        args, code = ["train", "--family", "svm", "--corpus", corpus, "--config", config,
                      "--out", tmp_path / "m.txt"], 3
    proc = run_module_cli([*args, "--quiet"])
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "m.txt").exists()


def test_predict_fingerprint_mismatch(tmp_path, capsys):
    corpus = write_fixture_corpus(tmp_path)
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(corpus), "--family", "nb",
          "--out", str(model_path), "--quiet"])
    # retrain-time lexicon differs from predict-time lexicon
    slang = tmp_path / "slang.tsv"
    slang.write_text("zzz\tbanget\n", encoding="utf-8")
    config = write_config(
        tmp_path, f"[lexicons]\nslang = {slang}\n", name="altered.ini",
    )
    lines = tmp_path / "input.txt"
    lines.write_text("dasar jelek\n", encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--input", str(lines),
                 "--config", str(config)]) == 2
    assert main(["predict", "--model", str(model_path), "--input", str(lines),
                 "--config", str(config), "--force"]) == 0
    assert "mismatch" in capsys.readouterr().err


def test_missing_lexicon_path_exit_1(tmp_path):
    config = write_config(
        tmp_path, "[lexicons]\nslang = /nonexistent/slang.tsv\n", name="bad.ini",
    )
    corpus = write_fixture_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus), "--config", str(config)]) == 1


@pytest.mark.parametrize("key", config_keys("lexicons"))
def test_missing_lexicons_file_exit_1_one_line(tmp_path, capsys, key):
    config = write_config(tmp_path, f"[lexicons]\n{key} = /nonexistent/{key}\n", name="bad.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus), "--config", str(config)]) == 1
    assert capsys.readouterr().err == \
        f"error: config [lexicons] {key}: file not found: /nonexistent/{key}\n"


def test_several_missing_files_name_the_first_at_any_hash_seed(tmp_path):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, "[lexicons]\n" + "".join(
        f"{key} = /nonexistent/{key}\n" for key in config_keys("lexicons")), name="bad.ini")
    code = "import sys, bullyguard.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", code, "stats", "--corpus", str(corpus), "--config", str(config)],
            env=dict(src_env(), PYTHONHASHSEED=seed), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: config [lexicons] slang: file not found: /nonexistent/slang\n"


@pytest.mark.parametrize("key", config_keys("lexicons"))
def test_lexicons_file_not_utf8_exit_1_one_line(tmp_path, capsys, key):
    bad = tmp_path / f"{key}.bin"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    config = write_config(tmp_path, f"[lexicons]\n{key} = {bad}\n", name="bad.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["preprocess", "--corpus", str(corpus), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("raw", ["0", "-5", "abc", "2.5"])
def test_min_stem_length_not_a_positive_integer_exit_1_one_line(tmp_path, capsys, raw):
    rules = tmp_path / "rules.txt"
    text = default_lexicon_paths()["stemmer_rules"].read_text(encoding="utf-8")
    assert text.splitlines()[2] == "min_stem_length 3"
    rules.write_text(text.replace("min_stem_length 3", f"min_stem_length {raw}"), encoding="utf-8")
    config = write_config(tmp_path, f"[lexicons]\nstemmer_rules = {rules}\n", name="bad.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["preprocess", "--corpus", str(corpus), "--config", str(config)]) == 1
    assert capsys.readouterr().err == (f"error: {rules}:3: min_stem_length must be an "
                                       f"integer of at least 1, got {raw!r}\n")


@pytest.mark.parametrize("edit, message", [
    ("forbid mee an", "forbid names prefix class 'mee', which no prefix line defines"),
    ("forbid di anx", "forbid names suffix 'anx', which no derivational line lists"),
    ("min_stem_length 5", "second min_stem_length line; line 3 already sets it"),
])
def test_rules_file_bad_forbid_or_second_min_stem_length_exit_1_one_line(
        tmp_path, capsys, edit, message):
    rules = tmp_path / "rules.txt"
    text = default_lexicon_paths()["stemmer_rules"].read_text(encoding="utf-8")
    line = len(text.splitlines()) + 1  # the edit, appended to the bundled rules
    rules.write_text(text + edit + "\n", encoding="utf-8")
    config = write_config(tmp_path, f"[lexicons]\nstemmer_rules = {rules}\n", name="bad.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["preprocess", "--corpus", str(corpus), "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {rules}:{line}: {message}\n"


def test_every_lexicons_key_reaches_its_loader(tmp_path):
    paths = default_lexicon_paths()
    assert tuple(paths) == config_keys("lexicons")
    edits = {  # a rules file sets min_stem_length once, so that line is replaced
        "slang": lambda text: text + "\nzzq\tbanget\n",
        "stopwords": lambda text: text + "\nzzq\n",
        "root_words": lambda text: text + "\nzzq\n",
        "stemmer_rules": lambda text: text.replace("min_stem_length 3", "min_stem_length 4"),
    }
    lines = ["[lexicons]"]
    for key, path in paths.items():
        copy = tmp_path / path.name
        copy.write_text(edits[key](path.read_text(encoding="utf-8")), encoding="utf-8")
        lines.append(f"{key} = {copy}")
    config = write_config(tmp_path, "\n".join(lines) + "\n", name="lexicons.ini")
    _, rt = resolve(["train", "--out", "unused", "--config", str(config)])
    assert rt.lexicon.slang_map["zzq"] == "banget"
    assert "zzq" in rt.lexicon.stopwords and "zzq" in rt.lexicon.root_words
    assert rt.rules.min_stem_length == 4


def test_unknown_config_key_exit_1(tmp_path):
    config = write_config(tmp_path, "[model]\nbananas = 3\n", name="bad.ini")
    corpus = write_fixture_corpus(tmp_path)
    assert main(["stats", "--corpus", str(corpus), "--config", str(config)]) == 1


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", "x.csv"])  # --out missing
    assert exc.value.code == 1


def test_cli_flag_overrides_config_seed(tmp_path):
    corpus = write_fixture_corpus(tmp_path)
    config = write_config(tmp_path, "[split]\nseed = 7\n", name="seeded.ini")
    base, flagged, config_only = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    main(["train", "--corpus", str(corpus), "--family", "svm",
          "--out", str(base), "--seed", "42", "--quiet"])
    main(["train", "--corpus", str(corpus), "--family", "svm",
          "--out", str(flagged), "--config", str(config), "--seed", "42", "--quiet"])
    main(["train", "--corpus", str(corpus), "--family", "svm",
          "--out", str(config_only), "--config", str(config), "--quiet"])
    assert base.read_bytes() == flagged.read_bytes()  # flag wins over config
    assert base.read_bytes() != config_only.read_bytes()  # config wins over default


def test_commands_never_mutate_inputs(tmp_path):
    corpus = write_fixture_corpus(tmp_path)
    before = corpus.read_bytes()
    main(["stats", "--corpus", str(corpus), "--quiet"])
    main(["preprocess", "--corpus", str(corpus), "--limit", "2"])
    main(["train", "--corpus", str(corpus), "--family", "nb",
          "--out", str(tmp_path / "m.txt"), "--quiet"])
    assert corpus.read_bytes() == before


# ----------------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------------

def test_benchmark_writes_reports(tmp_path, capsys, monkeypatch):
    corpus = write_fixture_corpus(tmp_path, n_half=20)
    config = write_config(
        tmp_path,
        FAST_MODEL_INI + "\n[tune]\ngrid_alpha = 1.0\n"
        "grid_l2_lambda = 0.001\ngrid_reg_lambda = 0.001\n",
    )
    out_dir = tmp_path / "reports"
    returned = []
    real_run = study.run_benchmark
    monkeypatch.setattr(study, "run_benchmark",
                        lambda *args: returned.append(real_run(*args)) or returned[-1])
    assert main([
        "benchmark", "--corpus", str(corpus), "--config", str(config),
        "--out-dir", str(out_dir), "--folds", "2", "--quiet",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"benchmark finished in \d+\.\ds; reports in {re.escape(str(out_dir))}\n",
                        captured.err)
    [doc] = returned
    assert (out_dir / "benchmark_report.json").read_text(encoding="utf-8") == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "benchmark_tables.txt").read_text(encoding="utf-8") == \
        study.render_benchmark_tables(doc)
    tables = (out_dir / "benchmark_tables.txt").read_text(encoding="utf-8")
    assert "Logistic Regression" in tables and "BiLSTM+Attention" in tables
    payload = json.loads((out_dir / "benchmark_report.json").read_text(encoding="utf-8"))
    assert len(payload["ml_models"]) == 3
    assert len(payload["dl_models"]) == 2
    assert payload["config"]["split"]["folds"] == 2
