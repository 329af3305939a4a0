"""The label space and the settings types that every command shares.

Kept apart from the corpus loader and the PRNG, so that a command which
reads no corpus and draws nothing, such as ``predict``, loads neither.
``corpus`` re-exports these names, and ``rng`` its ``DEFAULT_SEED``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from enum import Enum

DEFAULT_SEED = 42  # the seed of a run that sets none: its split, folds, SVM and BiLSTM


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


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    _: KW_ONLY
    seed: int
    stratified: bool = True

    def __post_init__(self):
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(not 0.0 < f < 1.0 for f in fractions):
            raise ValueError(f"split fractions must lie in (0, 1), got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fractions)!r}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)


@dataclass(frozen=True)
class TrainConfig:
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

    def __post_init__(self):
        for name in ("batch_size", "embedding_dim", "hidden_dim", "attention_dim",
                     "learning_rate", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        # a cap of 0 would leave no token to classify; a min_freq below 1
        # keeps the same tokens as 1. Named as the config key that sets each.
        for name in ("min_freq", "max_len_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"config [model] {name}: expected at least 1, "
                                 f"got {getattr(self, name)}")
