"""Command-line interface: stats, preprocess, train, tune, predict, benchmark.

Settings come from (highest precedence first) command-line flags, an INI-style
config file (``--config``), and built-in defaults. Exit codes: 0 success,
1 usage or configuration error, 2 data-validation failure, 3 training failure.

Each command imports what it runs: the study code (``eval``) and the neural
network (``neural``) load only in ``benchmark`` and in a neural ``train``, and
``neural`` also when ``predict`` reads a neural model. numpy loads only where
a model is trained or a neural model is read, so a classical ``predict``
never imports it.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import itertools
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, linear_models
from .artifact import (
    FAMILIES,
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
from .features import FeatureError, TfidfConfig, fit_tfidf, transform_all
from .linear_models import (
    CLASSICAL_FAMILIES,
    DEFAULT_FOLDS,
    DEFAULT_GRIDS,
    DEFAULT_OBJECTIVE,
    OBJECTIVES,
    TrainingError,
    featurize_folds,
    grid_search,
    train_family,
)
from .preprocess import (
    STAGE_NAMES,
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
from .rng import DEFAULT_SEED

if TYPE_CHECKING:
    from .neural import TrainConfig

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

# checked in this order, so a config with several missing files names the same one each run
_FILE_KEYS = (("corpus", "path"), *(("lexicons", key) for key in _SCHEMA["lexicons"]))


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


# each config value type: its parser and what the error message expects
_TYPED_READERS = {bool: (_parse_bool, "a boolean"), int: (int, "an integer"),
                  float: (float, "a number")}


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

    def get_typed(self, section: str, key: str, default: bool | int | float):
        """The key's value read as the type of its default."""
        raw = self.get(section, key)
        if raw is None:
            return default
        parse, expected = _TYPED_READERS[type(default)]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"config [{section}] {key}: expected {expected}, got {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
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


def _typed_keys(config: RunConfig, section: str, defaults: dict) -> dict:
    """The keys of `defaults` that the section sets, each read as the type of
    its default."""
    return {key: config.get_typed(section, key, default)
            for key, default in defaults.items() if config.get(section, key) is not None}


def _from_section(config: RunConfig, section: str, cls, **fixed):
    """A cls dataclass from the section's keys that name its fields. Fields in
    `fixed` take the given value; the others keep their dataclass default."""
    defaults = {f.name: f.default for f in fields(cls) if f.name not in fixed}
    return cls(**_typed_keys(config, section, defaults), **fixed)


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
    seed = (ns.seed if ns.seed is not None
            else config.get_typed("split", "seed", DEFAULT_SEED))
    folds = (ns.folds if ns.folds is not None
             else config.get_typed("split", "folds", DEFAULT_FOLDS))
    pipeline = _from_section(config, "pipeline", PipelineConfig)
    tfidf = _from_section(config, "tfidf", TfidfConfig)
    # p can reach exactly 0 or 1, so only an open-interval threshold splits both ways
    threshold = config.get_typed("model", "threshold", ModelArtifact.threshold)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"config [model] threshold: expected a number strictly "
                          f"between 0 and 1, got {config.get('model', 'threshold')!r}")
    delimiter = config.get("corpus", "delimiter", ";")
    if len(delimiter) != 1:  # csv.reader takes exactly one character
        raise ConfigError(f"config [corpus] delimiter: expected one character, got {delimiter!r}")
    paths = {key: config.get("lexicons", key, str(default))
             for key, default in default_lexicon_paths().items()}
    lexicon = load_lexicon(paths["slang"], paths["stopwords"], paths["root_words"])
    rules = load_stemmer_rules(paths["stemmer_rules"])
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
        column_map=column_map, delimiter=delimiter, threshold=threshold,
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


def _out_file(raw: str) -> Path:
    """The --out path, refused before any work if it cannot be written."""
    path = Path(raw)
    if path.is_dir():
        raise ConfigError(f"--out {path}: is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {path}: directory not found: {path.parent}")
    return path


def _out_dir(ns: argparse.Namespace, rt: Runtime) -> Path:
    """The report directory, refused before any work if a file stands where
    it or the nearest of its parents that exists should be a directory."""
    path = Path(ns.out_dir or rt.config.get("output", "dir", "benchmark_out"))
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {path}: not a directory: {existing}")
    return path


def _study_folds(rt: Runtime) -> int:
    """The cross-validation folds of tune and benchmark."""
    if rt.folds < 2:
        raise ConfigError(f"--folds / [split] folds: expected at least 2, got {rt.folds}")
    return rt.folds


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
        import json

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


# one TSV row per comment: a tab or any str.splitlines line boundary becomes a space
_TSV_BLANKS = str.maketrans(dict.fromkeys("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", " "))


def cmd_preprocess(ns: argparse.Namespace) -> int:
    if ns.limit is not None and ns.limit < 0:  # a negative slice would drop the last comments
        raise ConfigError(f"--limit must be 0 or more, got {ns.limit}")
    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    if ns.limit is not None:
        records = records[: ns.limit]
    print("raw\t" + "\t".join(STAGE_NAMES if ns.trace else ["processed"]))
    for rec in records:
        trace = run_pipeline_trace(rec.text, rt.pipeline, rt.lexicon, rt.rules)
        states = [state if isinstance(state, str) else " ".join(state)
                  for _, state in (trace if ns.trace else trace[-1:])]
        print("\t".join(cell.translate(_TSV_BLANKS) for cell in [rec.text, *states]))
    return EXIT_OK


def _neural_config(rt: Runtime) -> TrainConfig:
    """The run's neural settings: the [model] keys that name TrainConfig
    fields, and [pipeline] neural_keep_function_words."""
    from .neural import TrainConfig

    config = _from_section(
        rt.config, "model", TrainConfig, seed=rt.seed,
        keep_function_words=rt.config.get_typed(
            "pipeline", "neural_keep_function_words", TrainConfig.keep_function_words))
    # a cap of 0 would leave no token to classify; a min_freq below 1 keeps
    # the same tokens as 1
    for key in ("min_freq", "max_len_cap"):
        if getattr(config, key) < 1:
            raise ConfigError(f"config [model] {key}: expected at least 1, "
                              f"got {getattr(config, key)}")
    return config


def _split(rt: Runtime) -> SplitSpec:
    return _from_section(rt.config, "split", SplitSpec, seed=rt.seed)


def _model_params(rt: Runtime, family: str) -> dict:
    """The [model] keys that family's trainer takes and the config sets; the
    trainer's defaults fill in the rest."""
    trainer = getattr(linear_models, f"train_{family}")
    return _typed_keys(rt.config, "model", {
        name: p.default for name, p in inspect.signature(trainer).parameters.items()})


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
    if family in CLASSICAL_FAMILIES:
        tokens = prep.corpus([r.text for r in records])
        tfidf = fit_tfidf(tokens, rt.tfidf)
        model = train_family(
            family, transform_all(tokens, tfidf), tfidf.n_features, labels,
            params if params is not None else _model_params(rt, family), rt.seed,
        )
        base.tfidf = tfidf
        base.model = model
        base.threshold = rt.threshold
        base.preprocessing_fp = preprocessing_fingerprint(rt.pipeline, rt.lexicon, rt.rules)
        return base
    # neural families: split for early stopping, drop empty documents
    from .eval import prepare_neural_data
    from .neural import train as train_neural

    neural = _neural_config(rt)
    train_recs, val_recs, _ = stratified_split(records, _split(rt))
    data = prepare_neural_data(train_recs, val_recs, prep, neural)
    dropped = data.n_dropped_train + data.n_dropped_val
    if dropped:
        print(f"note: dropped {dropped} empty documents from neural training", file=sys.stderr)
    params_out, trace = train_neural(
        family == "bilstm_attention", data.train, data.val, neural, data.vocab.size,
    )
    _say(rt, f"stopped after epoch {trace.stopped_epoch}, best epoch {trace.best_epoch}")
    base.pipeline = data.prep.config
    base.majority_label = data.majority
    base.neural_vocab = data.vocab
    base.model = params_out
    base.preprocessing_fp = preprocessing_fingerprint(data.prep.config, rt.lexicon, rt.rules)
    return base


def _family(ns: argparse.Namespace, rt: Runtime) -> str:
    return ns.family or rt.config.get("model", "family", "lr")


def cmd_train(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    out = _out_file(ns.out)
    records = _load_records(ns, rt)
    family = _family(ns, rt)
    artifact = _train_artifact(rt, Preprocessor(rt.pipeline, rt.lexicon, rt.rules),
                               records, family, None)
    save_artifact(artifact, out)
    _say(rt, f"wrote {family} model to {ns.out}")
    return EXIT_OK


def _tune_grid(rt: Runtime, family: str) -> dict[str, list]:
    if family not in DEFAULT_GRIDS:
        raise ConfigError(f"family {family!r} does not support grid search")
    return {param: rt.config.get_float_list("tune", f"grid_{param}", values)
            for param, values in DEFAULT_GRIDS[family].items()}


def _objective(rt: Runtime) -> str:
    objective = rt.config.get("tune", "objective", DEFAULT_OBJECTIVE)
    if objective not in OBJECTIVES:
        raise ConfigError(f"config [tune] objective: expected one of "
                          f"{', '.join(OBJECTIVES)}, got {objective!r}")
    return objective


def cmd_tune(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    family = _family(ns, rt)
    grid = _tune_grid(rt, family)
    objective = _objective(rt)
    k = _study_folds(rt)
    out = _out_file(ns.out)
    records = _load_records(ns, rt)
    prep = Preprocessor(rt.pipeline, rt.lexicon, rt.rules)
    tokens = prep.corpus([r.text for r in records])
    folds = featurize_folds(tokens, [rec.label for rec in records], k, rt.seed, rt.tfidf)
    result = grid_search(family, grid, folds, rt.seed, objective)
    _say(rt, f"grid search over {len(result.per_candidate)} candidates "
             f"({k}-fold CV, objective {objective})")
    for params, scores in result.per_candidate:
        mean = sum(scores) / len(scores)
        marker = " *" if params == result.best_params else ""
        _say(rt, f"  {params} -> mean {mean:.4f} folds "
                 + " ".join(f"{s:.4f}" for s in scores) + marker)
    _say(rt, f"best: {result.best_params} (mean {result.best_score:.4f})")
    artifact = _train_artifact(rt, prep, records, family,
                               {**_model_params(rt, family), **result.best_params})
    save_artifact(artifact, out)
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
    import json

    from .eval import BenchmarkConfig, render_benchmark_tables, run_benchmark

    rt = _resolve_runtime(ns)
    config = BenchmarkConfig(
        folds=_study_folds(rt), seed=rt.seed, split=_split(rt),
        pipeline=rt.pipeline, tfidf=rt.tfidf,
        grids={family: _tune_grid(rt, family) for family in CLASSICAL_FAMILIES},
        objective=_objective(rt), neural=_neural_config(rt),
    )
    out_dir = _out_dir(ns, rt)
    records = _load_records(ns, rt)
    started = time.perf_counter()
    report = run_benchmark(records, config, rt.lexicon, rt.rules)
    elapsed = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = render_benchmark_tables(report)
    (out_dir / "benchmark_tables.txt").write_text(tables, encoding="utf-8")
    (out_dir / "benchmark_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _say(rt, tables)
    print(f"benchmark finished in {elapsed:.1f}s; reports in {out_dir}", file=sys.stderr)
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
    common.add_argument("--seed", type=int, help=f"random seed (default {DEFAULT_SEED})")
    common.add_argument("--folds", type=int,
                        help=f"cross-validation folds (default {DEFAULT_FOLDS})")
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
    p.add_argument("--limit", type=int, help="only the first N comments (N >= 0)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common], help="train a model and save it")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--out", required=True, help="model artifact output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", parents=[common],
                       help="grid-search hyperparameters, then train the best model")
    p.add_argument("--corpus", help="comment CSV path")
    p.add_argument("--family", choices=CLASSICAL_FAMILIES)
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
    except (FeatureError, TrainingError) as exc:  # neural.NeuralError is a TrainingError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
