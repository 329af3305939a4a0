"""Six-stage text preprocessing pipeline for informal Indonesian comments.

Stage order is fixed: (1) case folding, (2) cleaning, (3) character-elongation
collapse followed by slang normalization, (4) stopword removal, (5) stemming,
(6) tokenization. Stages can be disabled individually for ablation but never
reordered. Stages 3-5 operate per word, so the pipeline splits on whitespace
after cleaning and stage 6 is the final materialization of the token list.
Stages 3-5 of one word are one function: Preprocessor memoizes its output
tokens, and run_pipeline_trace joins each of its states over a text's words.

Lexicons and stemmer rules are plain-text resources (see load_lexicon /
load_stemmer_rules); packaged starter files live under bullyguard/data.
"""

from __future__ import annotations

import operator
import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .base import checked


class LexiconError(Exception):
    """Malformed lexicon or stemmer-rules file."""


_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@[\w.]+")
_HASHTAG_RE = re.compile(r"#\w+")
# Every byte but a-z as a space. UTF-8 writes each non-ASCII character with
# bytes >= 0x80 alone, so the words of an encoded text mapped through this
# table are exactly the text's runs of a-z.
_LETTER_BYTES = bytes(b if 97 <= b <= 122 else 32 for b in range(256))


@checked
class NormalizationLexicon(NamedTuple):
    slang_map: dict[str, str]
    stopwords: frozenset[str]
    root_words: frozenset[str]

    def _check(self):
        for slang, canonical in self.slang_map.items():
            if slang != slang.lower() or any(ch.isspace() for ch in slang):
                raise LexiconError(f"slang key must be lowercase and whitespace-free: {slang!r}")
            if slang == canonical:
                raise LexiconError(f"slang entry maps to itself: {slang!r}")
            if not canonical or not re.fullmatch(r"[a-z]+(?: [a-z]+)*", canonical):
                raise LexiconError(f"slang value must be lowercase words: {canonical!r}")
        for word in self.stopwords:
            if word != word.lower():
                raise LexiconError(f"stopword must be lowercase: {word!r}")


class PrefixRule(NamedTuple):
    cls: str            # prefix family; a family is stripped at most once
    pattern: str        # literal prefix to remove
    recodings: tuple[str, ...]  # replacement initial(s) to try; "" = plain strip


@checked
class StemmerRules(NamedTuple):
    """_check also builds the indexes the stemmer reads: the prefix rules by
    their pattern's first letter and each suffix list by its suffixes' last
    letter, in file order, and the prefix classes each suffix forbids."""
    inflectional_suffixes: tuple[str, ...]
    derivational_suffixes: tuple[str, ...]
    prefix_rules: tuple[PrefixRule, ...]
    forbidden_pairs: frozenset[tuple[str, str]]  # (prefix class, derivational suffix)
    min_stem_length: int = 3

    def _check(self):
        if not isinstance(self.min_stem_length, int) or self.min_stem_length < 1:
            raise LexiconError(f"min_stem_length must be an integer of at least 1, "
                               f"got {self.min_stem_length!r}")
        for rule in self.prefix_rules:
            if not rule.pattern:
                raise LexiconError(f"prefix rule of class {rule.cls!r} has an empty pattern")
        if "" in self.inflectional_suffixes + self.derivational_suffixes:
            raise LexiconError("suffix rules hold an empty suffix")
        by_suffix: dict[str, set[str]] = {}
        for cls, sfx in self.forbidden_pairs:
            by_suffix.setdefault(sfx, set()).add(cls)
        for name, items, key in (
                ("_prefixes_by_initial", self.prefix_rules, lambda rule: rule.pattern[0]),
                ("_inflectional_by_final", self.inflectional_suffixes, lambda sfx: sfx[-1]),
                ("_derivational_by_final", self.derivational_suffixes, lambda sfx: sfx[-1])):
            groups: dict[str, list] = {}
            for item in items:
                groups.setdefault(key(item), []).append(item)
            setattr(self, name, {ch: tuple(group) for ch, group in groups.items()})
        self._forbidden_by_suffix = {sfx: frozenset(classes) for sfx, classes in by_suffix.items()}


@checked
class PipelineConfig(NamedTuple):
    """Stage enable flags, in the fixed stage order."""
    case_fold: bool = True
    clean: bool = True
    normalize: bool = True          # elongation collapse + slang lookup
    remove_stopwords: bool = True
    stem: bool = True
    tokenize: bool = True           # final materialization; kept for stage traces
    elongation_min_run: int = 3

    def _check(self):
        if self.elongation_min_run < 2:
            raise ValueError(
                f"elongation_min_run: expected at least 2, got {self.elongation_min_run}")


_CLEAN_ONLY = PipelineConfig(case_fold=False)  # stage 2 alone, as clean runs it

# The six stages in their fixed order, as run_pipeline_trace names their states.
STAGE_NAMES = ("case_fold", "clean", "normalize", "stopwords", "stem", "tokenize")


# ----------------------------------------------------------------------------
# lexicon / rules file loading
# ----------------------------------------------------------------------------

def _iter_content_lines(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def load_slang_map(path: str | Path) -> dict[str, str]:
    """One tab-separated ``slang<TAB>canonical`` pair per line; '#' comments."""
    slang = {}
    for lineno, line in _iter_content_lines(Path(path)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{path}:{lineno}: expected 'slang<TAB>canonical', got {line!r}")
        slang[parts[0].strip()] = parts[1].strip()
    return slang


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One lowercase word per line; '#' comments and blank lines ignored."""
    return frozenset(line for _, line in _iter_content_lines(Path(path)))


def load_lexicon(
    slang_path: str | Path,
    stopwords_path: str | Path,
    root_words_path: str | Path,
) -> NormalizationLexicon:
    return NormalizationLexicon(
        slang_map=load_slang_map(slang_path),
        stopwords=load_wordlist(stopwords_path),
        root_words=load_wordlist(root_words_path),
    )


def load_stemmer_rules(path: str | Path) -> StemmerRules:
    """Parse the stemmer rules file.

    Directives, one per line:
      ``min_stem_length N``
      ``inflectional sfx1 sfx2 ...``   (ordered)
      ``derivational sfx1 sfx2 ...``   (ordered)
      ``prefix <class> <pattern> <recodings>``  recodings comma-separated, '-' = plain strip
      ``forbid <class> <suffix>``

    ``min_stem_length`` may appear once, and each ``forbid`` line must name
    a class some ``prefix`` line defines and a suffix some ``derivational``
    line lists, wherever in the file those lines are.
    """
    min_len, min_len_line = 3, None
    inflectional: list[str] = []
    derivational: list[str] = []
    prefixes: list[PrefixRule] = []
    forbids: list[tuple[int, str, str]] = []  # (line, class, suffix)
    for lineno, line in _iter_content_lines(Path(path)):
        parts = line.split()
        directive = parts[0]
        if directive == "min_stem_length" and len(parts) == 2:
            if min_len_line is not None:
                raise LexiconError(f"{path}:{lineno}: second min_stem_length line; "
                                   f"line {min_len_line} already sets it")
            min_len_line = lineno
            try:
                min_len = int(parts[1])
            except ValueError:
                min_len = 0
            if min_len < 1:
                raise LexiconError(f"{path}:{lineno}: min_stem_length must be an integer "
                                   f"of at least 1, got {parts[1]!r}")
        elif directive == "inflectional":
            inflectional.extend(parts[1:])
        elif directive == "derivational":
            derivational.extend(parts[1:])
        elif directive == "prefix" and len(parts) == 4:
            recodings = tuple("" if r == "-" else r for r in parts[3].split(","))
            prefixes.append(PrefixRule(cls=parts[1], pattern=parts[2], recodings=recodings))
        elif directive == "forbid" and len(parts) == 3:
            forbids.append((lineno, parts[1], parts[2]))
        else:
            raise LexiconError(f"{path}:{lineno}: bad rules directive {line!r}")
    if not inflectional or not derivational or not prefixes:
        raise LexiconError(f"{path}: rules file must define inflectional, derivational, and prefix rules")
    for lineno, cls, sfx in forbids:
        if cls not in {rule.cls for rule in prefixes}:
            raise LexiconError(f"{path}:{lineno}: forbid names prefix class {cls!r}, "
                               f"which no prefix line defines")
        if sfx not in derivational:
            raise LexiconError(f"{path}:{lineno}: forbid names suffix {sfx!r}, "
                               f"which no derivational line lists")
    return StemmerRules(
        inflectional_suffixes=tuple(inflectional),
        derivational_suffixes=tuple(derivational),
        prefix_rules=tuple(prefixes),
        forbidden_pairs=frozenset((cls, sfx) for _, cls, sfx in forbids),
        min_stem_length=min_len,
    )


def _data_path(name: str) -> Path:
    return Path(str(resources.files("bullyguard").joinpath("data", name)))


def default_lexicon_paths() -> dict[str, Path]:
    return {
        "slang": _data_path("slang.tsv"),
        "stopwords": _data_path("stopwords.txt"),
        "root_words": _data_path("rootwords.txt"),
        "stemmer_rules": _data_path("stemmer_rules.txt"),
    }


def load_default_lexicon() -> NormalizationLexicon:
    paths = default_lexicon_paths()
    return load_lexicon(paths["slang"], paths["stopwords"], paths["root_words"])


def load_default_stemmer_rules() -> StemmerRules:
    return load_stemmer_rules(default_lexicon_paths()["stemmer_rules"])


# ----------------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------------

def case_fold(text: str) -> str:
    return text.lower()


def clean(text: str) -> str:
    """Strip URLs, @mentions, #hashtags, then everything outside [a-z ].

    Removal order matters: URLs first (they may contain '@' or '#'), then
    mentions and hashtags (marker plus tag word), then every remaining
    non-alphabetic character becomes a space; space runs collapse and the
    result is trimmed. Expects case-folded input.
    """
    return " ".join(_clean_words(text, _CLEAN_ONLY)[1])


def collapse_elongation(word: str, min_run: int = 3) -> str:
    """Collapse runs of >= min_run identical letters to a single letter.

    The default threshold of 3 preserves legitimate double letters in
    Indonesian roots ("maaf", "tunggu") while squashing typographic emphasis
    ("jelekkk" -> "jelek").
    """
    pattern = _ELONGATION_RES.get(min_run)
    if pattern is None:  # compiled once per threshold: building costs more than applying
        if min_run < 2:
            raise ValueError("min_run must be at least 2")
        pattern = _ELONGATION_RES[min_run] = re.compile(r"(.)\1{%d,}" % (min_run - 1))
    return pattern.sub(_RUN_LETTER, word)


_ELONGATION_RES: dict[int, re.Pattern[str]] = {}
_RUN_LETTER = operator.itemgetter(1)  # a run's letter; cheaper than the template r"\1"


def normalize_slang(word: str, lexicon: NormalizationLexicon) -> str:
    """Exact-match slang lookup; unknown words pass through unchanged."""
    return lexicon.slang_map.get(word, word)


def remove_stopwords(tokens: list[str], lexicon: NormalizationLexicon) -> list[str]:
    return [tok for tok in tokens if tok not in lexicon.stopwords]


def tokenize(text: str) -> list[str]:
    return text.split()


def _strip_prefixes(
    word: str,
    stripped_suffix: str | None,
    rules: StemmerRules,
    roots: frozenset[str],
) -> tuple[str | None, str]:
    """Strip up to three derivational prefixes with recoding.

    At each depth every matching rule's recoding variants are probed against
    the dictionary, in file order; the first dictionary hit wins. Absent a
    hit, the first matching variant is committed and stripping continues one
    level deeper. Returns (dictionary hit or None, end state of the committed
    path). Only the rules whose pattern starts with the word's first letter
    can match, so only those are tried.
    """
    by_initial = rules._prefixes_by_initial
    forbidden = rules._forbidden_by_suffix.get(stripped_suffix, ())
    min_len = rules.min_stem_length
    current = word
    used: tuple[str, ...] = ()
    for _ in (1, 2, 3):
        committed = None
        for cls, pattern, recodings in by_initial.get(current[:1], ()):
            if not current.startswith(pattern) or cls in used or cls in forbidden:
                continue
            stem_part = current[len(pattern):]
            for recode in recodings:
                candidate = recode + stem_part
                if len(candidate) < min_len:
                    continue
                if candidate in roots:
                    return candidate, candidate
                if committed is None:
                    committed, committed_cls = candidate, cls
        if committed is None:
            break
        current = committed
        used += (committed_cls,)
    return None, current


def stem(word: str, rules: StemmerRules, lexicon: NormalizationLexicon) -> str:
    """Confix-stripping stem of a lowercase alphabetic word.

    Dictionary-confirmed at every step: (1) known roots return unchanged;
    (2) one inflectional suffix is stripped; (3) one derivational suffix is
    stripped, with the alternatives kept as fallback candidates since e.g.
    '-an' shadows '-kan'; (4) up to three prefixes are stripped with recoding.
    Without a dictionary hit the result of rule-only stripping along the
    primary path is returned. No step may shorten a word below
    min_stem_length.
    """
    roots = lexicon.root_words
    if not word or word in roots:
        return word

    # only the suffixes that end in the word's last letter can match
    min_len = rules.min_stem_length
    base = word
    for sfx in rules._inflectional_by_final.get(word[-1], ()):
        if word.endswith(sfx) and len(word) - len(sfx) >= min_len:
            base = word[: -len(sfx)]
            if base in roots:
                return base
            break

    # the prefix search tries the first derivational candidate, then the
    # base, then the other candidates
    search_order: list[tuple[str, str | None]] = [(base, None)]
    for sfx in rules._derivational_by_final.get(base[-1], ()):
        if base.endswith(sfx) and len(base) - len(sfx) >= min_len:
            candidate = base[: -len(sfx)]
            if candidate in roots:
                return candidate
            search_order.insert(0 if len(search_order) == 1 else len(search_order),
                                (candidate, sfx))

    fallback: str | None = None
    for candidate, sfx in search_order:
        hit, end_state = _strip_prefixes(candidate, sfx, rules, roots)
        if hit is not None:
            return hit
        if fallback is None:
            fallback = end_state
    return fallback


def _clean_words(text: str, config: PipelineConfig) -> tuple[str, list[str]]:
    """Stages 1-2: the text after case folding, and the whitespace words of
    the text after cleaning. A removal pattern runs only when the text holds
    the literal every one of its matches starts with."""
    folded = text = case_fold(text) if config.case_fold else text
    if not config.clean:
        return folded, tokenize(folded)
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    letters = text.encode("utf-8", "surrogatepass").translate(_LETTER_BYTES)
    return folded, letters.decode("ascii").split()


def _word_stages(
    word: str,
    config: PipelineConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> tuple[list[str], list[str], list[str]]:
    """Stages 3-5 of one cleaned word: its tokens after normalization, after
    stopword removal and after stemming; a stage that is off passes its
    input list on. Calls the module-level stage functions, so that wrappers
    installed on them see every call."""
    # the word and every slang value hold no empty token to drop
    normalized = (normalize_slang(collapse_elongation(word, config.elongation_min_run),
                                  lexicon).split() if config.normalize else [word])
    kept = remove_stopwords(normalized, lexicon) if config.remove_stopwords else normalized
    if not config.stem:
        return normalized, kept, kept
    stemmed = []
    for tok in kept:  # a comprehension costs more, for the usual one token
        stemmed.append(stem(tok, rules, lexicon))
    return normalized, kept, stemmed


def run_pipeline(
    text: str,
    config: PipelineConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> list[str]:
    """Apply the enabled stages in the fixed order and return tokens."""
    return Preprocessor(config, lexicon, rules).tokens(text)


def run_pipeline_trace(
    text: str,
    config: PipelineConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> list[tuple[str, str | list[str]]]:
    """Like run_pipeline but returns the intermediate state after each stage.

    Yields six (stage name, state) pairs, named by STAGE_NAMES; states are
    strings for stages 1-2 and token lists afterwards. Disabled stages pass
    their input through.
    """
    folded, words = _clean_words(text, config)
    cleaned = " ".join(words) if config.clean else folded
    states: tuple[list[str], ...] = ([], [], [])  # normalize, stopwords, stem
    for word in words:
        for state, tokens in zip(states, _word_stages(word, config, lexicon, rules)):
            state.extend(tokens)
    return list(zip(STAGE_NAMES, (folded, cleaned, *states, list(states[-1]))))


def preprocess_corpus(
    texts: list[str],
    config: PipelineConfig,
    lexicon: NormalizationLexicon,
    rules: StemmerRules,
) -> list[list[str]]:
    return Preprocessor(config, lexicon, rules).corpus(texts)


# Distinct words one Preprocessor remembers before it starts over, so a long
# predict stream cannot grow its memory without bound.
_MEMO_LIMIT = 65_536


class Preprocessor:
    """The pipeline of one (config, lexicon, rules), with a per-word memo.

    Stages 3-5 act on one whitespace word at a time, so a cleaned word's
    output tokens depend on that word alone. Each instance remembers them for
    up to _MEMO_LIMIT distinct words and then starts over; a memo is valid
    only for the config, lexicon and rules it was built with.
    """

    def __init__(self, config: PipelineConfig, lexicon: NormalizationLexicon,
                 rules: StemmerRules):
        self.config, self.lexicon, self.rules = config, lexicon, rules
        self._memo: dict[str, tuple[str, ...]] = {}

    def tokens(self, text: str) -> list[str]:
        memo, recall = self._memo, self._memo.get
        out: list[str] = []
        for word in _clean_words(text, self.config)[1]:
            done = recall(word)
            if done is None:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                stages = _word_stages(word, self.config, self.lexicon, self.rules)
                done = memo[word] = tuple(stages[-1])  # a tuple is smaller than a list
            out += done
        return out

    def corpus(self, texts: list[str]) -> list[list[str]]:
        return [self.tokens(text) for text in texts]
