"""Command-line interface: stats, preprocess, train, tune, predict, benchmark.

Settings come from (highest precedence first) command-line flags, an INI-style
config file (``--config``), and built-in defaults. Exit codes: 0 success,
1 usage or configuration error, 2 data-validation failure, 3 training failure.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .artifact import (
    ArtifactError,
    ModelArtifact,
    check_fingerprint,
    data_fingerprint,
    load_artifact,
    predict_texts,
    preprocessing_fingerprint,
    save_artifact,
)
from .corpus import (
    CorpusError,
    SplitSpec,
    compute_stats,
    load_corpus,
    majority_label,
    stratified_split,
    validate_corpus,
)
from .eval import (
    DEFAULT_GRIDS,
    BenchmarkConfig,
    benchmark_to_dict,
    prepare_neural_data,
    render_benchmark_tables,
    run_benchmark,
)
from .features import FeatureError, TfidfConfig, fit_tfidf, transform_all
from .linear_models import TrainingError, featurize_folds, grid_search, train_family
from .neural import NeuralError, TrainConfig, train as train_neural
from .preprocess import (
    LexiconError,
    NormalizationLexicon,
    PipelineConfig,
    Preprocessor,
    StemmerRules,
    default_lexicon_paths,
    load_lexicon,
    load_stemmer_rules,
    run_pipeline_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_TRAINING = 3


class ConfigError(Exception):
    """Bad config file: unknown keys, missing files, or unparseable values."""


# ----------------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------------

_SCHEMA: dict[str, tuple[str, ...]] = {
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

_FILE_KEYS = {("corpus", "path"), ("lexicons", "slang"), ("lexicons", "stopwords"),
              ("lexicons", "root_words"), ("lexicons", "stemmer_rules")}


@dataclass
class RunConfig:
    values: dict[tuple[str, str], str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path | None) -> "RunConfig":
        cfg = cls()
        if path is None:
            return cfg
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                cfg.values[(section, key)] = value
        for section, key in _FILE_KEYS:
            raw = cfg.values.get((section, key))
            if raw is not None and not Path(raw).exists():
                raise ConfigError(f"config [{section}] {key}: file not found: {raw}")
        return cfg

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.values.get((section, key), default)

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"config [{section}] {key}: expected a boolean, got {raw!r}")

    def get_int(self, section: str, key: str, default: int) -> int:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config [{section}] {key}: expected an integer, got {raw!r}") from None

    def get_float(self, section: str, key: str, default: float) -> float:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"config [{section}] {key}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"config [{section}] {key}: expected a finite number, got {raw!r}")
        return value

    def get_float_list(self, section: str, key: str, default: list[float]) -> list[float]:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            values = [float(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"config [{section}] {key}: expected comma-separated numbers") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"config [{section}] {key}: expected finite numbers, got {raw!r}")
        if not values:
            raise ConfigError(f"config [{section}] {key}: expected at least one number, got {raw!r}")
        return values


@dataclass
class Runtime:
    """Everything a command needs, resolved from CLI args + config + defaults."""
    config: RunConfig
    seed: int
    folds: int
    quiet: bool
    pipeline: PipelineConfig
    tfidf: TfidfConfig
    lexicon: NormalizationLexicon
    rules: StemmerRules
    column_map: dict[str, str]
    delimiter: str
    threshold: float  # LR decision threshold on P(Bullying)


def _resolve_runtime(ns: argparse.Namespace) -> Runtime:
    config = RunConfig.load(ns.config)
    seed = ns.seed if ns.seed is not None else config.get_int("split", "seed", 42)
    folds = ns.folds if ns.folds is not None else config.get_int("split", "folds", 5)
    pipeline = PipelineConfig(
        case_fold=config.get_bool("pipeline", "case_fold", True),
        clean=config.get_bool("pipeline", "clean", True),
        normalize=config.get_bool("pipeline", "normalize", True),
        remove_stopwords=config.get_bool("pipeline", "remove_stopwords", True),
        stem=config.get_bool("pipeline", "stem", True),
        tokenize=config.get_bool("pipeline", "tokenize", True),
        elongation_min_run=config.get_int("pipeline", "elongation_min_run", 3),
    )
    tfidf = TfidfConfig(
        sublinear_tf=config.get_bool("tfidf", "sublinear_tf", False),
        l2_normalize=config.get_bool("tfidf", "l2_normalize", True),
        min_df=config.get_int("tfidf", "min_df", 1),
    )
    # p can reach exactly 0 or 1, so only an open-interval threshold splits both ways
    threshold = config.get_float("model", "threshold", 0.5)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"config [model] threshold: expected a number strictly "
                          f"between 0 and 1, got {config.get('model', 'threshold')!r}")
    defaults = default_lexicon_paths()
    lexicon = load_lexicon(
        config.get("lexicons", "slang", str(defaults["slang"])),
        config.get("lexicons", "stopwords", str(defaults["stopwords"])),
        config.get("lexicons", "root_words", str(defaults["root_words"])),
    )
    rules = load_stemmer_rules(
        config.get("lexicons", "stemmer_rules", str(defaults["stemmer_rules"])),
    )
    column_map = {}
    for key, field_name in (
        ("col_index", "index"), ("col_username", "commenter_handle"),
        ("col_text", "text"), ("col_label", "label"),
        ("col_date", "posted_date"), ("col_target", "target_handle"),
    ):
        raw = config.get("corpus", key)
        if raw is not None:
            column_map[field_name] = raw
    return Runtime(
        config=config, seed=seed, folds=folds, quiet=ns.quiet,
        pipeline=pipeline, tfidf=tfidf, lexicon=lexicon, rules=rules,
        column_map=column_map,
        delimiter=config.get("corpus", "delimiter", ";"),
        threshold=threshold,
    )


def _corpus_path(ns: argparse.Namespace, rt: Runtime) -> Path:
    raw = ns.corpus or rt.config.get("corpus", "path")
    if raw is None:
        raise ConfigError("no corpus given: pass --corpus or set [corpus] path in the config")
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"corpus file not found: {path}")
    return path


def _load_records(ns: argparse.Namespace, rt: Runtime):
    return load_corpus(_corpus_path(ns, rt), rt.delimiter, rt.column_map or None)


def _say(rt: Runtime, message: str) -> None:
    if not rt.quiet:
        print(message)


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def cmd_stats(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    report = validate_corpus(records)
    stats = compute_stats(records)
    if ns.json:
        print(json.dumps({"validation": report.to_dict(), "stats": stats.to_dict()},
                         indent=2, sort_keys=True))
    else:
        print(stats.render_text())
        print()
        print(report.render_text())
    if ns.strict and not report.clean:
        print("strict mode: corpus has validation failures", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_preprocess(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    if ns.limit is not None:
        records = records[: ns.limit]
    stage_names = ("case_fold", "clean", "normalize", "stopwords", "stem", "tokenize")
    if ns.trace:
        print("raw\t" + "\t".join(stage_names))
    else:
        print("raw\tprocessed")
    for rec in records:
        trace = run_pipeline_trace(rec.text, rt.pipeline, rt.lexicon, rt.rules)
        if ns.trace:
            cells = [
                state if isinstance(state, str) else " ".join(state)
                for _, state in trace
            ]
            print(rec.text.replace("\t", " ") + "\t" + "\t".join(cells))
        else:
            print(rec.text.replace("\t", " ") + "\t" + " ".join(trace[-1][1]))
    return EXIT_OK


def _neural_train_config(rt: Runtime) -> TrainConfig:
    cfg = rt.config
    return TrainConfig(
        batch_size=cfg.get_int("model", "batch_size", 32),
        embedding_dim=cfg.get_int("model", "embedding_dim", 128),
        hidden_dim=cfg.get_int("model", "hidden_dim", 64),
        attention_dim=cfg.get_int("model", "attention_dim", 64),
        learning_rate=cfg.get_float("model", "learning_rate", 0.001),
        max_epochs=cfg.get_int("model", "max_epochs", 15),
        patience=cfg.get_int("model", "patience", 3),
        min_improvement=cfg.get_float("model", "min_improvement", 1e-4),
        seed=rt.seed,
    )


def _split_spec(rt: Runtime) -> SplitSpec:
    cfg = rt.config
    return SplitSpec(
        train_fraction=cfg.get_float("split", "train_fraction", 0.8),
        val_fraction=cfg.get_float("split", "val_fraction", 0.1),
        test_fraction=cfg.get_float("split", "test_fraction", 0.1),
        seed=rt.seed,
        stratified=cfg.get_bool("split", "stratified", True),
    )


def _model_params(rt: Runtime, family: str) -> dict:
    cfg = rt.config
    if family == "nb":
        return {"alpha": cfg.get_float("model", "alpha", 1.0)}
    if family == "lr":
        return {
            "l2_lambda": cfg.get_float("model", "l2_lambda", 1e-3),
            "lr": cfg.get_float("model", "lr", 0.1),
            "epochs": cfg.get_int("model", "epochs", 500),
        }
    if family == "svm":
        return {
            "reg_lambda": cfg.get_float("model", "reg_lambda", 1e-3),
            "epochs": cfg.get_int("model", "epochs", 200),
            "seed": rt.seed,
        }
    raise ConfigError(f"unknown model family {family!r}")


def _train_artifact(rt: Runtime, prep: Preprocessor, records, family: str,
                    params: dict | None) -> ModelArtifact:
    """Shared by train and tune: fit one model, preprocessed by prep (which
    runs rt's pipeline), and wrap it as an artifact."""
    labels = [rec.label for rec in records]
    base = ModelArtifact(
        family=family,
        seed=rt.seed,
        majority_label=majority_label(labels),
        preprocessing_fp="",
        data_fp=data_fingerprint(records),
        pipeline=rt.pipeline,
    )
    if family in ("nb", "lr", "svm"):
        tokens = prep.corpus([r.text for r in records])
        tfidf = fit_tfidf(tokens, rt.tfidf)
        model = train_family(
            family, transform_all(tokens, tfidf), labels,
            params if params is not None else _model_params(rt, family), rt.seed,
        )
        base.tfidf = tfidf
        setattr(base, family, model)
        base.threshold = rt.threshold
        base.preprocessing_fp = preprocessing_fingerprint(rt.pipeline, rt.lexicon, rt.rules)
        return base
    # neural families: split for early stopping, drop empty documents
    train_recs, val_recs, _ = stratified_split(records, _split_spec(rt))
    data = prepare_neural_data(
        train_recs, val_recs, prep,
        rt.config.get_bool("pipeline", "neural_keep_function_words", False),
        rt.config.get_int("model", "min_freq", 1),
        rt.config.get_int("model", "max_len_cap", 40),
    )
    dropped = data.n_dropped_train + data.n_dropped_val
    if dropped:
        print(f"note: dropped {dropped} empty documents from neural training", file=sys.stderr)
    params_out, trace = train_neural(
        family == "bilstm_attention", data.train, data.val,
        _neural_train_config(rt), data.vocab.size,
    )
    _say(rt, f"stopped after epoch {trace.stopped_epoch}, best epoch {trace.best_epoch}")
    base.pipeline = data.prep.config
    base.majority_label = data.majority
    base.neural_vocab = data.vocab
    base.neural_params = params_out
    base.preprocessing_fp = preprocessing_fingerprint(data.prep.config, rt.lexicon, rt.rules)
    return base


def cmd_train(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    family = ns.family or rt.config.get("model", "family", "lr")
    artifact = _train_artifact(rt, Preprocessor(rt.pipeline, rt.lexicon, rt.rules),
                               records, family, None)
    save_artifact(artifact, ns.out)
    _say(rt, f"wrote {family} model to {ns.out}")
    return EXIT_OK


def _tune_grid(rt: Runtime, family: str) -> dict[str, list]:
    cfg = rt.config
    if family == "nb":
        return {"alpha": cfg.get_float_list("tune", "grid_alpha", DEFAULT_GRIDS["nb"]["alpha"])}
    if family == "lr":
        return {"l2_lambda": cfg.get_float_list("tune", "grid_l2_lambda",
                                                DEFAULT_GRIDS["lr"]["l2_lambda"])}
    if family == "svm":
        return {"reg_lambda": cfg.get_float_list("tune", "grid_reg_lambda",
                                                 DEFAULT_GRIDS["svm"]["reg_lambda"])}
    raise ConfigError(f"family {family!r} does not support grid search")


def cmd_tune(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    family = ns.family or rt.config.get("model", "family", "lr")
    if family not in ("nb", "lr", "svm"):
        raise ConfigError(f"family {family!r} does not support grid search")
    grid = _tune_grid(rt, family)
    objective = rt.config.get("tune", "objective", "f1_weighted")
    prep = Preprocessor(rt.pipeline, rt.lexicon, rt.rules)
    tokens = prep.corpus([r.text for r in records])
    folds = featurize_folds(tokens, [rec.label for rec in records], rt.folds, rt.seed, rt.tfidf)
    result = grid_search(family, grid, folds, rt.seed, objective)
    _say(rt, f"grid search over {len(result.per_candidate)} candidates "
             f"({rt.folds}-fold CV, objective {objective})")
    for params, scores in result.per_candidate:
        mean = sum(scores) / len(scores)
        marker = " *" if params == result.best_params else ""
        _say(rt, f"  {params} -> mean {mean:.4f} folds "
                 + " ".join(f"{s:.4f}" for s in scores) + marker)
    _say(rt, f"best: {result.best_params} (mean {result.best_score:.4f})")
    full_params = dict(_model_params(rt, family))
    full_params.update(result.best_params)
    artifact = _train_artifact(rt, prep, records, family, full_params)
    save_artifact(artifact, ns.out)
    _say(rt, f"wrote tuned {family} model to {ns.out}")
    return EXIT_OK


# Input lines scored per predict_texts call; stdin is never read whole.
PREDICT_CHUNK_LINES = 256


def _predict_input_lines(source: str):
    """The predict input, one line at a time, without line terminators.

    stdin splits at newlines only; an --input file splits like
    str.splitlines() over the whole file.
    """
    if source == "-":
        for line in sys.stdin:
            yield line.rstrip("\n")
        return
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    try:
        handle = path.open(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc.strerror}") from None
    with handle:
        for line in handle:
            # each universal-newline line ends at a splitlines() boundary,
            # so splitting it again yields the same pieces as the whole file
            yield from line.splitlines()


def cmd_predict(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    artifact = load_artifact(ns.model)
    matched = check_fingerprint(artifact, rt.lexicon, rt.rules, force=ns.force)
    if not matched:
        print("warning: preprocessing fingerprint mismatch (forced)", file=sys.stderr)
    # the model's pipeline, not rt.pipeline: neural artifacts may keep
    # function words; one instance for the run keeps its word memo warm
    prep = Preprocessor(artifact.pipeline, rt.lexicon, rt.rules)
    lines = _predict_input_lines(ns.input)
    lineno = 0
    while chunk := list(itertools.islice(lines, PREDICT_CHUNK_LINES)):
        for pred in predict_texts(artifact, chunk, prep):
            lineno += 1
            if pred.empty_input:
                print(f"warning: line {lineno} preprocessed to empty; "
                      f"using majority class", file=sys.stderr)
            print(f"{pred.label.value}\t{pred.score:.6f}")
    return EXIT_OK


def cmd_benchmark(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    neural_cfg = _neural_train_config(rt)
    config = BenchmarkConfig(
        folds=rt.folds,
        seed=rt.seed,
        split=_split_spec(rt),
        pipeline=rt.pipeline,
        tfidf=rt.tfidf,
        grids={family: _tune_grid(rt, family) for family in ("nb", "lr", "svm")},
        objective=rt.config.get("tune", "objective", "f1_weighted"),
        neural=neural_cfg,
        neural_keep_function_words=rt.config.get_bool(
            "pipeline", "neural_keep_function_words", False),
        neural_min_freq=rt.config.get_int("model", "min_freq", 1),
        neural_max_len_cap=rt.config.get_int("model", "max_len_cap", 40),
    )
    report = run_benchmark(records, config, rt.lexicon, rt.rules)
    out_dir = Path(ns.out_dir or rt.config.get("output", "dir", "benchmark_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = render_benchmark_tables(report)
    (out_dir / "benchmark_tables.txt").write_text(tables, encoding="utf-8")
    (out_dir / "benchmark_report.json").write_text(
        json.dumps(benchmark_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    _say(rt, tables)
    print(f"benchmark finished in {report.elapsed_seconds:.1f}s; "
          f"reports in {out_dir}", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bullyguard",
        description="Cyberbullying detection for Indonesian Instagram comments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="random seed (default 42)")
    common.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    common.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common],
                       help="corpus statistics and validation report")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when duplicates or missing fields are found")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("preprocess", parents=[common],
                       help="show the pipeline output for each comment")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--trace", action="store_true", help="show all six stage columns")
    p.add_argument("--limit", type=int, help="only the first N comments")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common], help="train a model and save it")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--family", choices=("nb", "lr", "svm", "bilstm", "bilstm_attention"))
    p.add_argument("--out", required=True, help="model artifact output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", parents=[common],
                       help="grid-search hyperparameters, then train the best model")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--family", choices=("nb", "lr", "svm"))
    p.add_argument("--out", required=True, help="model artifact output path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", parents=[common], help="classify raw comment lines")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--input", default="-", help="text file with one comment per line, or - for stdin")
    p.add_argument("--force", action="store_true",
                   help="ignore a preprocessing fingerprint mismatch")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", parents=[common],
                       help="run the full model-comparison study")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--out-dir", help="directory for report files")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, LexiconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        code = EXIT_VALIDATION if "fingerprint" in str(exc) else EXIT_USAGE
        print(f"error: {exc}", file=sys.stderr)
        return code
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FeatureError, TrainingError, NeuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
