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

The scalar methods (``next_u64``, ``randbelow``, ``shuffle``) are the spec
and the test oracle. ``uniform_array`` and ``permutations`` draw the same stream
in bulk: the xoshiro256** step is linear over GF(2), so a block of outputs
comes from up to 256 lanes, each started at a jump-ahead of the state and
each giving 64 consecutive outputs, all advanced in lockstep as numpy
``uint64`` arrays. A jump-ahead XORs a table's images of the state's 64
nibbles (Haramoto et al. 2008). A block leaves the state exactly where as
many scalar ``next_u64`` calls would. Weight initialization, batch order and
the SVM's reshuffles all draw in bulk. numpy is imported by the bulk draws
only, so a command that draws nothing in bulk never loads it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .base import DEFAULT_SEED  # re-exported: the seed of a run that sets none

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_DOUBLE_UNIT = 1.0 / (1 << 53)
_LANE = 64                # consecutive outputs per lane of a bulk draw
_BLOCK = 256 * _LANE      # outputs per bulk draw: the jump table covers 256 lanes


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(s0, s1, s2, s3) -> np.ndarray:
    """One xoshiro256** step of every lane, in place; returns the outputs."""
    out = s1 * 5
    out = ((out << 7) | (out >> 57)) * 9
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = (s3 << 45) | (s3 >> 19)
    return out


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each state (B, 4), whose bit 64*w + b is bit b of word w, times the GF(2)
    matrix of a `_nibble_table`: the XOR of its 64 nibbles' table entries."""
    import numpy as np
    nibbles = (states[:, :, None] >> np.arange(0, 64, 4, dtype=np.uint64)) & np.uint64(15)
    index = nibbles.reshape(len(states), 64).T.view(np.int64) + np.arange(0, 1024, 16)[:, None]
    return np.bitwise_xor.reduce(table[index], axis=0)  # (64, B, 4) -> (B, 4)


def _nibble_table(cols: np.ndarray) -> np.ndarray:
    """Columns (256, 4) of a GF(2) matrix -> its lookup table (64 * 16, 4),
    whose entry 16p + k is the matrix times nibble value k at position p."""
    import numpy as np
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    cols = cols.reshape(64, 4, 4)  # [nibble position, bit of the nibble, word]
    for b in range(4):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ cols[:, b, None]
    return table.reshape(1024, 4)


@functools.cache
def _jump_table() -> np.ndarray:
    """Nibble tables of A^(64 * 2^k) for k = 0..7, shape (8, 1024, 4), where A
    is one xoshiro256** step. Built on the first bulk draw, then kept."""
    import numpy as np
    basis = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    words = [basis[:, w].copy() for w in range(4)]
    for _ in range(_LANE):
        _step_lanes(*words)
    cols = np.stack(words, axis=1)  # column i of A^64 is A^64 applied to bit i
    tables = [_nibble_table(cols)]
    while len(tables) < 8:
        cols = _jump(tables[-1], cols)  # the columns of M @ M
        tables.append(_nibble_table(cols))
    out = np.stack(tables)
    out.flags.writeable = False
    return out


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
        """Unbiased integer in [0, n), for 1 <= n <= 2**64."""
        if not 0 < n <= 1 << 64:  # above 2**64 no word is accepted
            raise ValueError("randbelow() requires 1 <= n <= 2**64")
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

    def permutations(self, n: int, count: int) -> np.ndarray:
        """The orders of `count` successive shuffles of list(range(n)).

        Returns a read-only (count, n) int32 array whose row e is the list
        after e + 1 calls of `shuffle`; the state ends as after `count` calls.
        The draws of many shuffles come from one bulk draw; a bulk draw with
        a rejected word is replayed with the scalar `shuffle`.
        """
        import numpy as np
        out = np.tile(np.arange(n, dtype=np.int32), (count, 1))
        items = list(range(n))
        positions = range(n - 1, 0, -1)
        # draw k of a shuffle is randbelow(n - k): words above the bound are rejected
        moduli = np.arange(n, 1, -1, dtype=np.uint64)
        accept_max = np.array([_MASK64 - (1 << 64) % m for m in range(n, 1, -1)], dtype=np.uint64)
        per_block = max(1, _BLOCK // max(1, n - 1))
        for first in range(0, count if n > 1 else 0, per_block):  # fewer than 2 items draw nothing
            rows = out[first:first + per_block]
            saved = list(self._s)
            total = len(rows) * (n - 1)
            words = np.concatenate([self._block(min(_BLOCK, total - start))
                                    for start in range(0, total, _BLOCK)]).reshape(len(rows), n - 1)
            if (words > accept_max).any():
                self._s = saved
                for row in rows:
                    self.shuffle(items)
                    row[:] = items
                continue
            for row, js in zip(rows, (words % moduli).tolist()):
                for i, j in zip(positions, js):
                    items[i], items[j] = items[j], items[i]
                row[:] = items
        out.flags.writeable = False
        return out

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def uniform_array(self, shape: tuple[int, ...], a: float, b: float) -> np.ndarray:
        """Dense array of uniforms, filled in C (row-major) order."""
        import numpy as np
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for start in range(0, out.size, _BLOCK):
            words = self._block(min(_BLOCK, out.size - start))
            out[start:start + words.size] = a + (b - a) * ((words >> 11) * _DOUBLE_UNIT)
        return out.reshape(shape)

    def _block(self, n: int) -> np.ndarray:
        """The next n <= _BLOCK outputs of next_u64 as a uint64 array.

        Lane k starts at the state 64*k steps ahead, so lane k's 64 outputs
        are outputs 64*k .. 64*k + 63 of the block.
        """
        import numpy as np
        lanes = -(-n // _LANE)
        if lanes == 0:
            return np.empty(0, dtype=np.uint64)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        have = 1
        for table in _jump_table():  # lanes [have, 2*have) jump 64*have from lanes [0, have)
            if have >= lanes:
                break
            new = min(have, lanes - have)
            starts[have:have + new] = _jump(table, starts[:new])
            have += new
        words = [starts[:, w].copy() for w in range(4)]
        out = np.empty((_LANE, lanes), dtype=np.uint64)
        last_steps = n - _LANE * (lanes - 1)  # the last lane's share of the block
        for t in range(_LANE):
            out[t] = _step_lanes(*words)
            if t + 1 == last_steps:
                self._s = [int(w[-1]) for w in words]
        return out.T.reshape(-1)[:n]
