"""The BiLSTM's hand-written gradients against central finite differences.

A developer check, not part of the package: ``check_gradients.py`` prints
its report, and the test suite asserts it. ``backward`` gives the exact
gradients of one batch, ``gradient_check`` compares them with finite
differences on coordinates drawn with ``sample_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bullyguard import neural
from bullyguard.neural import NeuralNetParams
from bullyguard.rng import Rng


def sample_indices(rng: Rng, n: int, k: int) -> list[int]:
    """k distinct indices from range(n), in draw order."""
    if k > n:
        raise ValueError("cannot sample more indices than available")
    pool = list(range(n))
    picked = []
    for _ in range(k):
        j = rng.randbelow(len(pool))
        picked.append(pool.pop(j))
    return picked


def backward(
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: NeuralNetParams,
) -> dict[str, np.ndarray]:
    """Exact gradients of the mean batch cross-entropy w.r.t. every block.

    ``batch`` is (ids (B,T), valid_lens (B,), labels (B,)). Raises on any
    non-finite gradient, naming the offending parameter block.
    """
    ids, valid_lens, labels = batch
    cache = neural._forward_batch(ids, valid_lens, params)
    return neural._backward_from_cache(cache, np.asarray(labels, dtype=np.int64), params)


@dataclass
class GradCheckReport:
    per_block: dict[str, float]
    n_checked: int
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_block.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def render_text(self) -> str:
        lines = [f"gradient check over {self.n_checked} coordinates"]
        for name, err in self.per_block.items():
            lines.append(f"  {name}: max rel err {err:.3e}")
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"  overall: {self.max_rel_error:.3e} "
                     f"({verdict} at tolerance {self.tolerance:.0e})")
        return "\n".join(lines)


def gradient_check(
    params: NeuralNetParams,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    n_per_block: int = 20,
    seed: int = 0,
) -> GradCheckReport:
    """Central finite differences vs analytic gradients, per parameter block.

    Samples up to n_per_block coordinates per block (all of them for small
    blocks) with the pinned PRNG. Relative error uses the symmetric form
    |a - n| / max(|a|, |n|, 1e-12).
    """
    ids, valid_lens, labels = batch
    ids = np.asarray(ids, dtype=np.int64)
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    analytic = backward((ids, valid_lens, labels), params)
    rng = Rng(seed)
    per_block: dict[str, float] = {}
    n_checked = 0

    def loss_now() -> float:
        return neural.batch_loss(neural._forward_batch(ids, valid_lens, params), labels)

    for name, arr in params.blocks.items():
        flat = arr.reshape(-1)
        k = min(n_per_block, flat.size)
        coords = sample_indices(rng, flat.size, k)
        worst = 0.0
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + h
            loss_plus = loss_now()
            flat[idx] = original - h
            loss_minus = loss_now()
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
            n_checked += 1
        per_block[name] = worst
    return GradCheckReport(per_block=per_block, n_checked=n_checked, tolerance=tolerance)
