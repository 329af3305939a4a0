"""Comment streams with a natural vocabulary for the predict workloads.

Generated corpus comments alone repeat a vocabulary of under a hundred
words, so nearly every stemmer call would be a repeat and any memoisation
would look far better than on real traffic. Each stream line here is a
generated comment with affixed Indonesian root words mixed in at Zipf-like
frequencies, plus invented out-of-vocabulary words, and a small share of
lines that preprocess to nothing (emoji, URL or mention only).

Everything is drawn from ``random.Random(seed)``, so a seed fixes the stream.
"""

from __future__ import annotations

import itertools
import random

EMPTY_SHARE = 0.03   # lines that preprocess to an empty token list
OOV_SHARE = 0.15     # share of added words that are invented, not roots
ZIPF_EXPONENT = 1.1

_PREFIXES = ("", "", "", "di", "ter", "ber", "ke", "se", "meN", "peN")
_SUFFIXES = ("", "", "", "kan", "an", "i", "nya", "lah", "kah", "ku", "mu", "pun")
_SYLLABLES = ("ka", "lo", "mi", "tu", "re", "sa", "po", "nu", "gi", "da", "be", "wo")
_EMPTY_LINES = (
    "😂😂", "🔥🔥🔥", "❤️", "👍 👍", "http://t.co/{code}", "www.contoh.id/{code}",
    "@{handle}", "@{handle} #viral", "#gofamteam 😍", "!!! ...", "123 456",
)


def _nasal(prefix: str, root: str) -> str:
    """Attach meN-/peN- with the standard nasal assimilation."""
    head = prefix[:2]
    first = root[0]
    if first in "aeiough":
        return head + "ng" + root
    if first == "k":
        return head + "ng" + root[1:]
    if first in "bfv":
        return head + "m" + root
    if first == "p":
        return head + "m" + root[1:]
    if first in "cdjz":
        return head + "n" + root
    if first == "t":
        return head + "n" + root[1:]
    if first == "s":
        return head + "ny" + root[1:]
    return head + root


def _affixed(rng: random.Random, root: str) -> str:
    prefix = rng.choice(_PREFIXES)
    word = _nasal(prefix, root) if prefix.endswith("N") else prefix + root
    return word + rng.choice(_SUFFIXES)


def _invented(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(3, 5))) + "x"


def _empty_line(rng: random.Random) -> str:
    code = "".join(rng.choice("abcdefghij0123456789") for _ in range(5))
    handle = "user" + str(rng.randrange(1000))
    return rng.choice(_EMPTY_LINES).format(code=code, handle=handle)


def make_stream(
    comments: list[str], root_words: list[str], n_lines: int, seed: int,
) -> list[str]:
    """``n_lines`` comment lines built from ``comments`` and ``root_words``."""
    rng = random.Random(seed)
    ranked = list(root_words)
    rng.shuffle(ranked)  # Zipf rank must not follow alphabetical order
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))))
    lines = []
    for _ in range(n_lines):
        if rng.random() < EMPTY_SHARE:
            lines.append(_empty_line(rng))
            continue
        words = rng.choice(comments).split()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < OOV_SHARE:
                extra = _invented(rng)
            else:
                root = rng.choices(ranked, cum_weights=cum_weights)[0]
                extra = _affixed(rng, root)
            words.insert(rng.randrange(len(words) + 1), extra)
        lines.append(" ".join(words))
    return lines

