"""The label space and the settings types that every command shares.

Kept apart from the corpus loader and the PRNG, so that a command which
reads no corpus and draws nothing, such as ``predict``, loads neither.
``corpus`` re-exports these names, and ``rng`` its ``DEFAULT_SEED``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

DEFAULT_SEED = 42  # the seed of a run that sets none: its split, folds, SVM and BiLSTM


def checked(record):
    """The NamedTuple class record as a subclass of the same name whose every
    build, by the constructor, _make or _replace, runs record._check on the
    new instance. The subclass has a __dict__, for what _check derives."""
    def new(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self
    return type(record.__name__, (record,), {
        "__new__": new, "_make": classmethod(lambda cls, values: cls(*values)),
        "__doc__": record.__doc__, "__module__": record.__module__,
        "__qualname__": record.__qualname__})


def keyword_defaults(fn) -> dict:
    """fn's parameters that have a default, name -> default, in order; a
    wrapper's (functools.wraps) are those of the function it wraps."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code, defaults = fn.__code__, fn.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
    return {**dict(zip(names, defaults)), **(fn.__kwdefaults__ or {})}


class CorpusError(Exception):
    """Malformed corpus file or invalid partitioning request."""


class Label(Enum):
    BULLYING = "Bullying"
    NON_BULLYING = "Non-bullying"

    @property
    def index(self) -> int:
        return CLASS_ORDER.index(self)

    @classmethod
    def parse(cls, raw: str) -> "Label":
        key = raw.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
        if key == "bullying":
            return cls.BULLYING
        if key == "nonbullying":
            return cls.NON_BULLYING
        raise ValueError(f"unknown label {raw.strip()!r}")


# Fixed class order used for class ids, tie-breaking, and report rows.
CLASS_ORDER: tuple[Label, Label] = (Label.BULLYING, Label.NON_BULLYING)


# Canonical field -> default CSV column name.
DEFAULT_COLUMNS: dict[str, str] = {
    "index": "no",
    "commenter_handle": "username",
    "text": "komentar",
    "label": "label",
    "posted_date": "tanggal",
    "target_handle": "akun_target",
}


@checked
class SplitSpec(NamedTuple):
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int | None = None  # required: every split names its seed
    stratified: bool = True

    def _check(self):  # each message starts with the fields it refuses
        if self.seed is None:
            raise TypeError("SplitSpec requires a seed")
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        names = ("train_fraction", "val_fraction", "test_fraction")
        if bad := [name for name, f in zip(names, fractions) if not 0.0 < f < 1.0]:
            raise ValueError(f"{', '.join(bad)}: split fractions must lie in (0, 1), "
                             f"got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"{', '.join(names)}: split fractions must sum to 1, "
                             f"got {sum(fractions)!r}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)


@checked
class TrainConfig(NamedTuple):
    """The neural track's settings: the BiLSTM's sizes, its Adam training
    with early stopping, and the data it trains on."""
    batch_size: int = 32
    embedding_dim: int = 128
    hidden_dim: int = 64          # per direction
    attention_dim: int = 64
    learning_rate: float = 0.001
    max_epochs: int = 15
    patience: int = 3
    min_improvement: float = 1e-4
    seed: int = DEFAULT_SEED
    # the neural track's data: its pipeline skips stopword removal and
    # stemming when keep_function_words; see neural.build_neural_vocab for the others
    keep_function_words: bool = False
    min_freq: int = 1
    max_len_cap: int = 40

    def _check(self):  # each message starts with the fields it refuses
        for name in ("batch_size", "embedding_dim", "hidden_dim", "attention_dim",
                     "learning_rate", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.patience > self.max_epochs:
            raise ValueError(f"patience, max_epochs: patience cannot exceed max_epochs, "
                             f"got {self.patience} > {self.max_epochs}")
        # a cap of 0 would leave no token to classify; a min_freq below 1
        # keeps the same tokens as 1
        for name in ("min_freq", "max_len_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: expected at least 1, got {getattr(self, name)}")
