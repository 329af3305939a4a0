"""Pinned deterministic PRNG used for every randomized operation.

Seeded runs must be reproducible across machines and across reimplementations
in other languages, so the generator is fully specified here rather than
delegated to a platform RNG:

* State initialization: the 64-bit seed is expanded with splitmix64 into the
  four 64-bit words of the xoshiro256** state (first four outputs, in order).
* Stream: xoshiro256** 1.0 (Blackman & Vigna).
* ``random()``: take the top 53 bits of the next output, scale by 2^-53.
* ``randbelow(n)``: rejection sampling — draw 64-bit words until one is below
  ``2**64 - (2**64 % n)``, then reduce modulo ``n`` (unbiased).
* ``shuffle``: Fisher-Yates from the last index down, ``j = randbelow(i + 1)``.
* ``uniform(a, b)``: ``a + (b - a) * random()``.

Any change to these rules breaks seeded reproducibility and is a format break.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator with splitmix64 seeding."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        s = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            s.append(word)
        if not any(s):  # all-zero state is invalid for xoshiro
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * _DOUBLE_UNIT

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def uniform_array(self, shape: tuple[int, ...], a: float, b: float) -> np.ndarray:
        """Dense array of uniforms, filled in C (row-major) order."""
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = a + (b - a) * self.random()
        return out.reshape(shape)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if k > n:
            raise ValueError("cannot sample more indices than available")
        pool = list(range(n))
        picked = []
        for _ in range(k):
            j = self.randbelow(len(pool))
            picked.append(pool.pop(j))
        return picked
