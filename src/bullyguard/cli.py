"""Command-line interface: stats, preprocess, train, tune, predict, benchmark.

Settings come from (highest precedence first) command-line flags, an INI-style
config file (``--config``), and built-in defaults. Exit codes: 0 success,
1 usage or configuration error, 2 data-validation failure, 3 training failure.

Each command imports what it runs: the study code (``eval``) and the neural
network (``neural``) load only in ``benchmark`` and in a neural ``train``, and
``neural`` also when ``predict`` reads a neural model. numpy loads only where
a model is trained or a neural model is read, so a classical ``predict``
never imports it. Nor does any ``predict`` import the corpus loader
(``corpus``) or the PRNG (``rng``): the label space and the settings types
it shares with the other commands live in ``base``, and ``configparser``
loads only with ``--config``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from pathlib import Path

from . import __version__, linear_models
from .artifact import (
    FAMILIES,
    ArtifactError,
    FingerprintMismatch,
    ModelArtifact,
    check_fingerprint,
    data_fingerprint,
    load_artifact,
    predict_texts,
    preprocessing_fingerprint,
    save_artifact,
)
from .base import (
    DEFAULT_COLUMNS,
    DEFAULT_SEED,
    CorpusError,
    SplitSpec,
    TrainConfig,
    keyword_defaults,
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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_TRAINING = 3


class ConfigError(Exception):
    """Bad config file: unknown keys, missing files, or unparseable values."""


# The exit code of each error a command reports, by the error's class or its
# nearest base class here (neural.NeuralError is a TrainingError). OSError: an
# output that cannot be written.
_EXIT_CODES = {ConfigError: EXIT_USAGE, LexiconError: EXIT_USAGE, ArtifactError: EXIT_USAGE,
               ValueError: EXIT_USAGE, OSError: EXIT_USAGE,
               FingerprintMismatch: EXIT_VALIDATION, CorpusError: EXIT_VALIDATION,
               FeatureError: EXIT_TRAINING, TrainingError: EXIT_TRAINING}


# ----------------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------------

def _reader(parse, expected: str, *checks):
    """A key's reader: parse(raw), refused with ValueError saying what it
    expected if parse fails or the value fails one of the (ok, expected)
    checks, the first failure named."""
    def read(raw: str):
        try:
            value = parse(raw)
        except (ValueError, KeyError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None
        for ok, wanted in checks:
            if not ok(value):
                raise ValueError(f"expected {wanted}, got {raw!r}")
        return value
    return read


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
          **dict.fromkeys(("false", "no", "0", "off"), False)}
_FINITE = (math.isfinite, "a finite number")
_bool = _reader(lambda raw: _BOOLS[raw.strip().lower()], "a boolean")
_int = _reader(int, "an integer")
_float = _reader(float, "a number", _FINITE)
_floats = _reader(lambda raw: [float(part) for part in raw.split(",") if part.strip()],
                  "comma-separated numbers",
                  (lambda values: all(map(math.isfinite, values)), "finite numbers"),
                  (bool, "at least one number"))
_text = _reader(str, "text", (str.strip, "a non-empty value"))
# p can reach exactly 0 or 1, so only an open-interval threshold splits both ways
_OPEN_UNIT = (lambda p: 0.0 < p < 1.0, "a number strictly between 0 and 1")
_threshold = _reader(float, "a number", _FINITE, _OPEN_UNIT)
# csv.reader takes exactly one character
_delimiter = _reader(str, "text", (lambda raw: len(raw) == 1, "one character"))


def _one_of(choices):
    return _reader(str, "text", (choices.__contains__, f"one of {', '.join(choices)}"))


def _existing_file(raw: str) -> Path:
    if not raw or Path(raw).is_dir():  # Path("") is ".", a directory
        what = f"a directory: {raw}" if raw else "an empty value"
        raise ValueError(f"expected a file, got {what}")
    if not Path(raw).exists():
        raise ValueError(f"file not found: {raw}")
    return Path(raw)


def _folds(folds: int) -> int:
    """The cross-validation folds, from --folds or [split] folds."""
    if folds < 2:
        raise ConfigError(f"--folds / [split] folds: expected at least 2, got {folds}")
    return folds


_READ_AS = {bool: _bool, int: _int, float: _float}


def _field_rows(section: str, cls, skip: tuple[str, ...] = ()) -> dict:
    """A row for each field of the settings record cls not in skip, read as
    its default's type."""
    return {(section, name): (_READ_AS[type(default)], default)
            for name, default in cls._field_defaults.items() if name not in skip}


# Each classical trainer's [model] keys and their defaults: its keywords but
# the run's seed and LR's convergence tolerance, which no config sets.
_TRAINER_DEFAULTS = {
    family: {name: default for name, default in
             keyword_defaults(getattr(linear_models, f"train_{family}")).items()
             if name not in ("seed", "grad_tol")}
    for family in CLASSICAL_FAMILIES
}
# [corpus] column keys -> CommentRecord fields
_COLUMN_KEYS = {"col_index": "index", "col_username": "commenter_handle", "col_text": "text",
                "col_label": "label", "col_date": "posted_date", "col_target": "target_handle"}

# Every accepted (section, key), its reader and its default, both from the
# setting the key fills: a settings record's field, a trainer keyword, a lexicon path
# or a tuning grid; the keys listed by hand have no such home. A trainer
# keyword is None, unset: LR and SVM share epochs and keep their own defaults.
_KEYS = {
    ("corpus", "path"): (_existing_file, None),
    ("corpus", "delimiter"): (_delimiter, ";"),
    **{("corpus", key): (_text, DEFAULT_COLUMNS[name]) for key, name in _COLUMN_KEYS.items()},
    **{("lexicons", key): (_existing_file, path) for key, path in default_lexicon_paths().items()},
    **_field_rows("pipeline", PipelineConfig),
    ("pipeline", "neural_keep_function_words"):
        (_bool, TrainConfig._field_defaults["keep_function_words"]),
    **_field_rows("tfidf", TfidfConfig),
    ("model", "family"): (_one_of(FAMILIES), "lr"),
    **{("model", name): (_READ_AS[type(default)], None)
       for defaults in _TRAINER_DEFAULTS.values() for name, default in defaults.items()},
    ("model", "threshold"): (_threshold, keyword_defaults(ModelArtifact.__init__)["threshold"]),
    **_field_rows("model", TrainConfig, skip=("seed", "keep_function_words")),
    **_field_rows("split", SplitSpec, skip=("seed",)),
    ("split", "seed"): (_int, DEFAULT_SEED),
    ("split", "folds"): (lambda raw: _folds(_int(raw)), DEFAULT_FOLDS),
    ("tune", "objective"): (_one_of(OBJECTIVES), DEFAULT_OBJECTIVE),
    **{("tune", f"grid_{param}"): (_floats, points)
       for grid in DEFAULT_GRIDS.values() for param, points in grid.items()},
    ("output", "dir"): (_text, "benchmark_out"),
}
_SECTIONS = {section for section, _ in _KEYS}
_PATH_KEYS = {("corpus", "path"), ("output", "dir"), *(k for k in _KEYS if k[0] == "lexicons")}
_PATH_SECTIONS = ("corpus", "lexicons", "output")  # a report names its inputs by digest


def _read_keys(path: str | Path) -> dict[tuple[str, str], object]:
    """Each key of the config file, read by its row of _KEYS in file order,
    so the first bad one is named. A relative path in it is relative to the
    file's directory."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError("unknown config section [DEFAULT]")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            try:  # get expands %(name)s references, and refuses a stray %
                raw = parser.get(section, key)
                if (section, key) in _PATH_KEYS and raw:
                    raw = str(Path(path).parent / raw)
                values[(section, key)] = _KEYS[(section, key)][0](raw)
            except (ValueError, configparser.InterpolationError) as exc:
                raise ConfigError(f"config [{section}] {key}: {exc}") from None
    return values


def _settings(values: dict, section: str, cls, **fixed):
    """A cls settings record from the section's keys named as its fields,
    and `fixed`. Its checks' messages start with the fields they refuse: the
    config keys."""
    try:
        return cls(**{name: values[(section, name)] for name in cls._fields
                      if name not in fixed}, **fixed)
    except ValueError as exc:
        raise ConfigError(f"config [{section}] {exc}") from None


class RunConfig:
    """A run's settings: every key of _KEYS resolved, and the settings
    objects built from them. Built only by RunConfig.of."""
    seed = property(lambda self: self.values["split", "seed"])
    folds = property(lambda self: self.values["split", "folds"])
    family = property(lambda self: self.values["model", "family"])
    objective = property(lambda self: self.values["tune", "objective"])
    threshold = property(lambda self: self.values["model", "threshold"])  # LR, on P(Bullying)
    delimiter = property(lambda self: self.values["corpus", "delimiter"])

    def __init__(self, values: dict[tuple[str, str], object]):
        seed, keep = values["split", "seed"], values["pipeline", "neural_keep_function_words"]
        self.values = values
        self.pipeline = _settings(values, "pipeline", PipelineConfig)
        self.tfidf = _settings(values, "tfidf", TfidfConfig)
        self.split = _settings(values, "split", SplitSpec, seed=seed)
        self.neural = _settings(values, "model", TrainConfig, seed=seed, keep_function_words=keep)
        self.trainer_params = {  # each classical family's trainer keywords
            family: {**defaults, **{key: values["model", key] for key in defaults
                                    if values["model", key] is not None}}
            for family, defaults in _TRAINER_DEFAULTS.items()}
        self.grids = {family: {param: values["tune", f"grid_{param}"] for param in grid}
                      for family, grid in DEFAULT_GRIDS.items()}
        self.column_map = {name: values["corpus", key] for key, name in _COLUMN_KEYS.items()}

    @classmethod
    def of(cls, keys: dict[tuple[str, str], object]) -> "RunConfig":
        """The settings of keys, typed values by (section, key), over the defaults;
        the folds and the threshold are checked here, whoever supplies them."""
        if unknown := set(keys) - set(_KEYS):
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        values = {key: default for key, (_, default) in _KEYS.items()} | keys
        _folds(values["split", "folds"])
        if not _OPEN_UNIT[0](threshold := values["model", "threshold"]):
            raise ConfigError(f"[model] threshold: expected {_OPEN_UNIT[1]}, got {threshold!r}")
        return cls(values)

    @classmethod
    def load(cls, path: str | Path | None, seed: int | None = None,
             folds: int | None = None) -> "RunConfig":
        """The settings of the config file at path (None: no file); seed and
        folds, the command-line flags, stand over [split] seed and folds."""
        flags = {("split", "seed"): seed, ("split", "folds"): folds}
        keys = {} if path is None else _read_keys(path)
        return cls.of(keys | {key: flag for key, flag in flags.items() if flag is not None})

    def echo(self) -> dict:
        """Every setting outside the file sections, by section in table order,
        but the trainer keywords, unset by default: each family's, resolved."""
        echo = {}
        for (section, key), (_, default) in _KEYS.items():
            if section not in _PATH_SECTIONS and default is not None:
                echo.setdefault(section, {})[key] = self.values[section, key]
        return {**echo, "trainers": self.trainer_params}


class Runtime(RunConfig):
    """Everything a command needs: its RunConfig's settings, the lexicons
    they name, and --quiet."""

    def __init__(self, config: RunConfig, lexicon: NormalizationLexicon,
                 rules: StemmerRules, quiet: bool):
        vars(self).update(vars(config))
        self.lexicon, self.rules, self.quiet = lexicon, rules, quiet


def _resolve_runtime(ns: argparse.Namespace) -> Runtime:
    config = RunConfig.load(ns.config, ns.seed, ns.folds)
    slang, stopwords, roots, rules = (config.values["lexicons", key]
                                      for key in default_lexicon_paths())
    return Runtime(config, load_lexicon(slang, stopwords, roots), load_stemmer_rules(rules),
                   ns.quiet)


def _corpus_path(ns: argparse.Namespace, rt: Runtime) -> Path:
    raw = ns.corpus or rt.values["corpus", "path"]
    if raw is None:
        raise ConfigError("no corpus given: pass --corpus or set [corpus] path in the config")
    return _existing_file(str(raw))


def _load_records(ns: argparse.Namespace, rt: Runtime):
    """The corpus's records; a corpus of a header and no comments is refused."""
    from .corpus import load_corpus

    path = _corpus_path(ns, rt)
    if not (records := load_corpus(path, rt.delimiter, rt.column_map)):
        raise CorpusError(f"{path}: no comments after the header row")
    return records


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
    path = Path(ns.out_dir or rt.values["output", "dir"])
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {path}: not a directory: {existing}")
    return path


def _say(rt: Runtime, message: str) -> None:
    if not rt.quiet:
        print(message)


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def cmd_stats(ns: argparse.Namespace) -> int:
    from .corpus import compute_stats, stats_text, validate_corpus, validation_text

    rt = _resolve_runtime(ns)
    records = _load_records(ns, rt)
    report = validate_corpus(records)
    stats = compute_stats(records)
    if ns.json:
        import json

        print(json.dumps({"validation": report, "stats": stats}, indent=2, sort_keys=True))
    else:
        print(stats_text(stats))
        print()
        print(validation_text(report))
    if ns.strict and (report["duplicates"] or report["missing_fields"]):
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


def _train_artifact(rt: Runtime, prep: Preprocessor, records, family: str,
                    params: dict | None) -> ModelArtifact:
    """Shared by train and tune: fit one model, preprocessed by prep (which
    runs rt's pipeline), and wrap it as an artifact. params are a classical
    family's trainer keywords."""
    from .corpus import majority_label, stratified_split

    data_fp = data_fingerprint(records)
    if family in CLASSICAL_FAMILIES:
        labels = [rec.label for rec in records]
        tokens = prep.corpus([r.text for r in records])
        tfidf = fit_tfidf(tokens, rt.tfidf)
        model = train_family(
            family, transform_all(tokens, tfidf), tfidf.n_features, labels, params, rt.seed,
        )
        return ModelArtifact(
            family, rt.seed, majority_label(labels),
            preprocessing_fingerprint(rt.pipeline, rt.lexicon, rt.rules), data_fp, rt.pipeline,
            model, tfidf, rt.threshold,
        )
    # neural families: split for early stopping, drop empty documents
    from .eval import _train_neural_artifact, prepare_neural_data

    train_recs, val_recs, _ = stratified_split(records, rt.split)
    data = prepare_neural_data(train_recs, val_recs, prep, rt.neural)
    dropped = data.n_dropped_train + data.n_dropped_val
    if dropped:
        print(f"note: dropped {dropped} empty documents from neural training", file=sys.stderr)
    artifact, trace = _train_neural_artifact(family, data, rt.neural, data_fp)
    _say(rt, f"stopped after epoch {trace.stopped_epoch}, best epoch {trace.best_epoch}")
    return artifact


def cmd_train(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    out = _out_file(ns.out)
    records = _load_records(ns, rt)
    family = ns.family or rt.family
    artifact = _train_artifact(rt, Preprocessor(rt.pipeline, rt.lexicon, rt.rules),
                               records, family, rt.trainer_params.get(family))
    save_artifact(artifact, out)
    _say(rt, f"wrote {family} model to {ns.out}")
    return EXIT_OK


def cmd_tune(ns: argparse.Namespace) -> int:
    rt = _resolve_runtime(ns)
    family = ns.family or rt.family
    if family not in CLASSICAL_FAMILIES:
        raise ConfigError(f"family {family!r} does not support grid search")
    out = _out_file(ns.out)
    records = _load_records(ns, rt)
    prep = Preprocessor(rt.pipeline, rt.lexicon, rt.rules)
    tokens = prep.corpus([r.text for r in records])
    folds = featurize_folds(tokens, [rec.label for rec in records], rt.folds, rt.seed, rt.tfidf)
    params = rt.trainer_params[family]
    result = grid_search(family, rt.grids[family], folds, rt.seed, rt.objective, params)
    _say(rt, f"grid search over {len(result.per_candidate)} candidates "
             f"({rt.folds}-fold CV, objective {rt.objective})")
    _say(rt, f"trainer settings under each grid point: {params}")
    for point, scores in result.per_candidate:
        mean = sum(scores) / len(scores)
        marker = " *" if point == result.best_params else ""
        _say(rt, f"  {point} -> mean {mean:.4f} folds "
                 + " ".join(f"{s:.4f}" for s in scores) + marker)
    _say(rt, f"best: {result.best_params} (mean {result.best_score:.4f})")
    artifact = _train_artifact(rt, prep, records, family, {**params, **result.best_params})
    save_artifact(artifact, out)
    _say(rt, f"wrote tuned {family} model to {ns.out}")
    return EXIT_OK


# Input lines scored per predict_texts call; stdin is never read whole.
PREDICT_CHUNK_LINES = 256


def _predict_input_lines(source: str):
    """The predict input, one line at a time, without line terminators.

    stdin splits at newlines only; an --input file splits like
    str.splitlines() over the whole file. Either is read as UTF-8 whatever
    the locale, and a line that is not is refused by its number.
    """
    if source == "-":
        for lineno, raw in enumerate(sys.stdin.buffer, 1):
            try:
                yield raw.decode().rstrip("\n")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"cannot read standard input: line {lineno}: "
                                  f"not valid UTF-8 ({exc.reason})") from None
        return
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc.strerror}") from None
    with handle:
        lineno = 0
        for raw in handle:  # each ends at b"\n", a splitlines() boundary
            try:
                lines = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:  # the line of the first bad byte
                lineno += len((raw[:exc.start].decode("utf-8") + "-").splitlines())
                raise ConfigError(f"cannot read input file {path}: line {lineno}: "
                                  f"not valid UTF-8 ({exc.reason})") from None
            lineno += len(lines)
            yield from lines


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
        out = []  # one write per chunk
        for pred in predict_texts(artifact, chunk, prep):
            lineno += 1
            if pred.empty_input:
                print(f"warning: line {lineno} preprocessed to empty; "
                      f"using majority class", file=sys.stderr)
            out.append(f"{pred.label.value}\t{pred.score:.6f}\n")
        sys.stdout.write("".join(out))
    return EXIT_OK


def cmd_benchmark(ns: argparse.Namespace) -> int:
    import json

    from .eval import render_benchmark_tables, run_benchmark

    rt = _resolve_runtime(ns)
    out_dir = _out_dir(ns, rt)
    records = _load_records(ns, rt)
    started = time.perf_counter()
    report = run_benchmark(records, rt, rt.lexicon, rt.rules)
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
