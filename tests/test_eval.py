import json

import pytest

import bullyguard.linear_models as lm
from bullyguard.artifact import data_fingerprint, preprocessing_fingerprint
from bullyguard.cli import RunConfig
from bullyguard.corpus import Label, stratified_split
from bullyguard.eval import (
    ModelSpec,
    cross_validate,
    render_benchmark_tables,
    run_benchmark,
)
from bullyguard.metrics import SCORES
from conftest import balanced_records, make_record

B, N = Label.BULLYING, Label.NON_BULLYING


def separable_corpus(n_half=12):
    records = []
    for i in range(n_half):
        records.append(make_record(
            index=2 * i + 1, text=f"dasar jelek bego nomor{i % 4}", label=B))
        records.append(make_record(
            index=2 * i + 2, text=f"kamu keren bagus nomor{i % 4}", label=N))
    return records


FAST_NEURAL = {("model", "batch_size"): 8, ("model", "embedding_dim"): 8,
               ("model", "hidden_dim"): 4, ("model", "attention_dim"): 4,
               ("model", "learning_rate"): 0.05, ("model", "max_epochs"): 3,
               ("model", "patience"): 3}


def test_cross_validate_structural_k2(default_lexicon, default_rules):
    records = separable_corpus(4)
    spec = ModelSpec(family="nb", params={"alpha": 1.0})
    result = cross_validate(spec, records, k=2, seed=1,
                            lexicon=default_lexicon, rules=default_rules)
    assert len(result["fold_reports"]) == 2
    for key in ("accuracy", "f1_weighted", "f1_macro"):
        assert key in result["cv_mean"] and key in result["cv_std"]


def test_cross_validate_lr_separable_perfect(default_lexicon, default_rules):
    records = separable_corpus(12)
    spec = ModelSpec(family="lr", params={"l2_lambda": 1e-4, "lr": 0.5, "epochs": 400})
    result = cross_validate(spec, records, k=3, seed=42,
                            lexicon=default_lexicon, rules=default_rules)
    assert result["cv_mean"]["accuracy"] == pytest.approx(1.0)
    assert result["cv_std"]["accuracy"] == pytest.approx(0.0, abs=1e-12)


def test_cross_validate_deterministic(default_lexicon, default_rules):
    records = separable_corpus(8)
    spec = ModelSpec(family="svm", params={"reg_lambda": 1e-3, "epochs": 30})
    r1 = cross_validate(spec, records, 2, 5, default_lexicon, default_rules)
    r2 = cross_validate(spec, records, 2, 5, default_lexicon, default_rules)
    assert r1["cv_mean"] == r2["cv_mean"] and r1["cv_std"] == r2["cv_std"]


def test_cross_validate_rejects_bad_k(default_lexicon, default_rules):
    with pytest.raises(ValueError):
        cross_validate(ModelSpec(family="nb"), separable_corpus(4), 1, 1,
                       default_lexicon, default_rules)


def fast_benchmark_config(keys=None):
    """A small network, 2 folds and one grid point per family, under keys."""
    return RunConfig.of({
        **FAST_NEURAL,
        ("split", "folds"): 2,
        ("split", "seed"): 42,
        ("tune", "grid_alpha"): [1.0],
        ("tune", "grid_l2_lambda"): [1e-3],
        ("tune", "grid_reg_lambda"): [1e-3],
        **(keys or {}),
    })


def test_run_benchmark_structure(default_lexicon, default_rules):
    records = separable_corpus(20)
    report = run_benchmark(records, fast_benchmark_config(),
                           default_lexicon, default_rules)
    assert [row["name"] for row in report["ml_models"]] == \
        ["Naive Bayes", "Logistic Regression", "SVM"]
    assert [row["name"] for row in report["dl_models"]] == ["BiLSTM", "BiLSTM+Attention"]
    assert len(report["ml_models"]) + len(report["dl_models"]) == 5
    for row in report["ml_models"]:
        assert len(row["fold_reports"]) == 2

    tables = render_benchmark_tables(report)
    assert "Naive Bayes" in tables and "BiLSTM+Attention" in tables
    assert "F1 Macro" in tables and "F1-Score" in tables
    # wall-clock timing never appears in rendered output
    assert "elapsed" not in tables and "seconds" not in tables

    assert json.dumps(report)  # JSON-serializable
    assert set(report) == {"config", "ml_models", "dl_models"}
    assert len(report["ml_models"]) == 3 and len(report["dl_models"]) == 2
    assert "elapsed" not in json.dumps(report)


def test_run_benchmark_config_is_the_echo_the_data_and_the_input_digests(
        default_lexicon, default_rules):
    records = separable_corpus(20)
    config = fast_benchmark_config()
    echo = run_benchmark(records, config, default_lexicon, default_rules)["config"]
    assert echo.pop("data_fingerprint") == data_fingerprint(records)
    assert echo.pop("preprocessing_fingerprint") == \
        preprocessing_fingerprint(config.pipeline, default_lexicon, default_rules)
    data = echo.pop("data")
    assert (data["n_records"], data["n_train"], data["n_val"], data["n_test"]) == (40, 32, 4, 4)
    assert data["vocab_size"] > 2 and data["max_seq_len"] >= 1
    assert echo == config.echo()


def test_run_benchmark_deterministic_rendering(default_lexicon, default_rules):
    records = separable_corpus(20)
    config = fast_benchmark_config()
    r1 = run_benchmark(records, config, default_lexicon, default_rules)
    r2 = run_benchmark(records, config, default_lexicon, default_rules)
    assert render_benchmark_tables(r1) == render_benchmark_tables(r2)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_benchmark_counts_empty_documents(default_lexicon, default_rules):
    records = separable_corpus(20)
    # texts that clean away entirely are dropped from neural training
    records[4] = make_record(index=995, text="!!! 123", label=B)
    records[7] = make_record(index=996, text="@seseorang 456", label=N)
    report = run_benchmark(records, fast_benchmark_config(),
                           default_lexicon, default_rules)
    dropped = sum(
        row["dropped_empty_train"] + row["dropped_empty_val"] + row["empty_test_fallbacks"]
        for row in report["dl_models"][:1]
    )
    assert dropped == 2


def test_run_benchmark_featurizes_each_fold_once(default_lexicon, default_rules, monkeypatch):
    records = separable_corpus(20)
    records[4] = make_record(index=995, text="dasar jelek bagus nomor9", label=N)
    # over-regularized first candidates lose, so each winner is the second
    config = fast_benchmark_config({
        ("split", "folds"): 3,
        ("tune", "grid_alpha"): [50.0, 0.1],
        ("tune", "grid_l2_lambda"): [10.0, 1e-3],
        ("tune", "grid_reg_lambda"): [10.0, 1e-3],
    })
    fits = []
    real_fit = lm.fit_tfidf

    def spy(token_lists, tfidf_config=None):
        fits.append(len(token_lists))
        return real_fit(token_lists, tfidf_config)

    monkeypatch.setattr(lm, "fit_tfidf", spy)
    report = run_benchmark(records, config, default_lexicon, default_rules)
    assert len(fits) == config.folds  # shared by every candidate of every family
    monkeypatch.undo()

    # the CV row is the grid winner's folds, equal to a fresh CV of that candidate
    train_recs, _, _ = stratified_split(records, config.split)
    for row in report["ml_models"]:
        winner = row["grid"][1]
        assert row["best_params"] == winner["params"]
        assert [r["weighted"]["f1"] for r in row["fold_reports"]] == winner["fold_scores"]
        spec = ModelSpec(family=row["family"], params=row["best_params"])
        fresh = cross_validate(spec, train_recs, config.folds, config.seed,
                               default_lexicon, default_rules)
        assert row["fold_reports"] == fresh["fold_reports"]
        assert row["cv_mean"] == fresh["cv_mean"] and row["cv_std"] == fresh["cv_std"]
        assert set(row["cv_mean"]) == set(row["cv_std"]) == set(SCORES)
