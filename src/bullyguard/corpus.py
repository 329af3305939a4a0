"""Corpus ingestion, validation, statistics, and deterministic partitioning.

The input format is a semicolon-delimited CSV of annotated Instagram comments
with six columns (header ``no;username;komentar;label;tanggal;akun_target`` by
default, remappable via a column map). Fields containing the delimiter, a
double quote, or a newline are double-quoted with embedded quotes doubled
(RFC-4180 conventions with ';' as the delimiter).

validate_corpus and compute_stats return the JSON-ready records that
``stats --json`` prints, keyed by label value; validation_text and
stats_text render them as ``stats`` prints them.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import NamedTuple

# the shared label space and settings types live in base; importing them from
# here keeps working
from .base import CLASS_ORDER, DEFAULT_COLUMNS, CorpusError, Label, SplitSpec, TrainConfig
from .rng import Rng


def majority_label(labels: list[Label]) -> Label:
    """The most frequent label; a tie goes to the class first in CLASS_ORDER."""
    counts = Counter(labels)
    return max(CLASS_ORDER, key=lambda label: counts[label])  # max keeps the first


class CommentRecord(NamedTuple):
    index: int
    commenter_handle: str
    text: str
    label: Label
    posted_date: str
    target_handle: str


def _resolve_columns(header: list[str], column_map: dict[str, str] | None) -> dict[str, int]:
    """Map canonical field names to positions in the header row."""
    names = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise CorpusError(f"unknown column-map keys: {sorted(unknown)}")
        names.update(column_map)
    stripped = [h.strip() for h in header]
    positions = {}
    for field_name, column in names.items():
        try:
            positions[field_name] = stripped.index(column)
        except ValueError:
            raise CorpusError(
                f"missing column {column!r} in header {stripped!r}"
            ) from None
    return positions


def load_corpus(
    path: str | Path,
    delimiter: str = ";",
    column_map: dict[str, str] | None = None,
) -> list[CommentRecord]:
    """Parse the comment CSV into records, in file order.

    Structural problems (wrong field count, unparseable index, unknown or
    missing label, bytes that are not UTF-8, CSV syntax errors such as an
    oversized field) raise CorpusError naming the 1-based line. Empty string
    fields are tolerated here and surfaced by validate_corpus.
    """
    import csv

    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter, quotechar='"', doublequote=True)
        rows = _checked_rows(reader, path)
        try:
            _, _, header = next(rows)
        except StopIteration:
            raise CorpusError(f"{path}: empty file, expected a header row") from None
        positions = _resolve_columns(header, column_map)
        records = []
        for first, last, row in rows:
            if not row:
                continue  # skip blank lines
            try:
                records.append(_record(row, positions, len(header)))
            except ValueError as exc:
                raise CorpusError(_at_lines(first, last, exc)) from None
    return records


def _record(row: list[str], positions: dict[str, int], expected: int) -> CommentRecord:
    """One data row as a record; a ValueError says what is wrong with it."""
    if len(row) != expected:
        raise ValueError(f"expected {expected} fields, found {len(row)}")
    raw = {name: row[pos] for name, pos in positions.items()}
    try:
        index = int(raw["index"].strip())
    except ValueError:
        raise ValueError(f"invalid index {raw['index']!r}") from None
    if index <= 0:
        raise ValueError(f"index must be positive, got {index}")
    if not raw["label"].strip():
        raise ValueError("missing value for field 'label'")
    return CommentRecord(
        index=index,
        commenter_handle=raw["commenter_handle"].strip(),
        text=raw["text"],
        label=Label.parse(raw["label"]),
        posted_date=raw["posted_date"].strip(),
        target_handle=raw["target_handle"].strip(),
    )


def _checked_rows(reader, path: Path):
    """(first line, last line, row) for each of the reader's rows, with
    decoding and CSV syntax errors as CorpusError."""
    import csv

    last = 0
    try:
        for row in reader:
            yield last + 1, reader.line_num, row
            last = reader.line_num
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path)
        raise CorpusError(f"line {line}: not valid UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise CorpusError(_at_lines(last + 1, reader.line_num, exc)) from None


def _at_lines(first: int, last: int, problem: Exception) -> str:
    """An error message naming a record by its first line."""
    span = f" (record spans lines {first}-{last})" if last > first else ""
    return f"line {first}: {problem}{span}"


def _undecodable_line(path: Path) -> int:
    """1-based line of the first byte that is not UTF-8; the text decoder
    reads ahead, so the csv reader's line count cannot place it."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0  # the file changed after the failed read


def write_corpus(
    records: list[CommentRecord],
    path: str | Path,
    delimiter: str = ";",
) -> None:
    """Write records back to CSV; inverse of load_corpus."""
    import csv

    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        options = dict(delimiter=delimiter, quotechar='"', doublequote=True, lineterminator="\n")
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, **options)
        quote_all = csv.writer(handle, quoting=csv.QUOTE_ALL, **options)
        writer.writerow(DEFAULT_COLUMNS.values())
        for rec in records:
            row = [
                str(rec.index),
                rec.commenter_handle,
                rec.text,
                rec.label.value,
                rec.posted_date,
                rec.target_handle,
            ]
            # a minimal writer leaves a bare \r unquoted, which ends the record on reading
            (quote_all if any("\r" in f for f in row) else writer).writerow(row)


def validate_corpus(records: list[CommentRecord]) -> dict:
    """Data-quality report: exact duplicate texts as [first, later] position
    pairs, empty fields as [position, field name] pairs (positions 0-based),
    both class counts, and whether the classes are balanced."""
    if not records:
        raise ValueError("validate_corpus requires a non-empty record list")
    seen: dict[str, int] = {}
    duplicates = []
    missing = []
    counts: Counter = Counter()
    for pos, rec in enumerate(records):
        if rec.text in seen:
            duplicates.append([seen[rec.text], pos])
        else:
            seen[rec.text] = pos
        for name in ("text", "commenter_handle", "posted_date", "target_handle"):
            if not getattr(rec, name).strip():
                missing.append([pos, name])
        counts[rec.label] += 1
    class_counts = [counts[label] for label in CLASS_ORDER]
    return {
        "n_records": len(records),
        "duplicates": duplicates,
        "missing_fields": missing,
        "class_counts": {label.value: n for label, n in zip(CLASS_ORDER, class_counts)},
        "balanced": min(class_counts) > 0 and max(class_counts) == min(class_counts),
    }


def compute_stats(records: list[CommentRecord]) -> dict:
    """Descriptive statistics over raw text: character lengths, and the
    comments and mean word count of each label present.

    Word counts split on whitespace runs. The standard deviation is the
    population form (divide by N).
    """
    import statistics

    if not records:
        raise ValueError("compute_stats requires a non-empty record list")
    lengths = [len(rec.text) for rec in records]
    per_class_words: dict[str, list[int]] = {}
    for rec in records:
        per_class_words.setdefault(rec.label.value, []).append(len(rec.text.split()))
    return {
        "n_total": len(records),
        "n_per_class": {value: len(words) for value, words in per_class_words.items()},
        "char_len": {
            "min": float(min(lengths)),
            "max": float(max(lengths)),
            "median": float(statistics.median(lengths)),
            "mean": float(statistics.fmean(lengths)),
            "stddev": float(statistics.pstdev(lengths)),
        },
        "avg_words_per_class": {
            value: statistics.fmean(words) for value, words in per_class_words.items()
        },
    }


def stats_text(stats: dict) -> str:
    """The text form of compute_stats' record."""
    char_len = stats["char_len"]
    lines = [
        f"comments: {stats['n_total']}",
        f"char length min/max: {char_len['min']:.0f}/{char_len['max']:.0f}",
        f"char length median: {char_len['median']:.2f}",
        f"char length mean: {char_len['mean']:.2f}",
        f"char length stddev: {char_len['stddev']:.2f}",
    ]
    for label in CLASS_ORDER:
        if label.value in stats["n_per_class"]:
            lines.append(f"class {label.value}: {stats['n_per_class'][label.value]} comments, "
                         f"avg words {stats['avg_words_per_class'][label.value]:.2f}")
    return "\n".join(lines)


def validation_text(report: dict) -> str:
    """The text form of validate_corpus' record."""
    lines = [f"records: {report['n_records']}"]
    lines.extend(f"class {value}: {n}" for value, n in report["class_counts"].items())
    lines.append(f"balanced: {'yes' if report['balanced'] else 'no'}")
    lines.append(f"duplicate texts: {len(report['duplicates'])}")
    lines.extend(f"  duplicate: rows {i} and {j}" for i, j in report["duplicates"])
    lines.append(f"missing fields: {len(report['missing_fields'])}")
    lines.extend(f"  missing: row {pos} field {name}" for pos, name in report["missing_fields"])
    return "\n".join(lines)


def _apportion(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment of n items; ties go to earlier slots."""
    exact = [n * f for f in fractions]
    sizes = [int(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    leftover = n - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in range(leftover):
        sizes[order[i]] += 1
    return sizes


def stratified_split(
    records: list[CommentRecord], spec: SplitSpec
) -> tuple[list[CommentRecord], list[CommentRecord], list[CommentRecord]]:
    """Deterministic seeded train/val/test partition.

    Per-class positions are shuffled with the pinned PRNG (classes processed
    in CLASS_ORDER with a single generator stream), then sliced so that both
    the global partition sizes and every per-class allocation follow
    largest-remainder apportionment. Per-class counts in each partition
    deviate from exact proportionality by at most one record.
    """
    if not records:
        raise ValueError("cannot split an empty record list")
    fractions = spec.fractions
    global_sizes = _apportion(len(records), fractions)

    if not spec.stratified:
        order = list(range(len(records)))
        Rng(spec.seed).shuffle(order)
        parts: list[list[CommentRecord]] = []
        start = 0
        for size in global_sizes:
            parts.append([records[i] for i in order[start:start + size]])
            start += size
        return parts[0], parts[1], parts[2]

    rng = Rng(spec.seed)
    capacity = list(global_sizes)
    partitions: list[list[CommentRecord]] = [[], [], []]
    for label in CLASS_ORDER:
        positions = [i for i, rec in enumerate(records) if rec.label is label]
        if not positions:
            continue
        rng.shuffle(positions)
        exact = [len(positions) * f for f in fractions]
        alloc = [int(e) for e in exact]
        remainders = [e - a for e, a in zip(exact, alloc)]
        for _ in range(len(positions) - sum(alloc)):
            candidates = [p for p in range(3) if capacity[p] - alloc[p] > 0]
            p = min(candidates, key=lambda q: (-remainders[q], q))
            alloc[p] += 1
        start = 0
        for p, size in enumerate(alloc):
            partitions[p].extend(records[i] for i in positions[start:start + size])
            capacity[p] -= size
            start += size
    return partitions[0], partitions[1], partitions[2]


def kfold_split(
    labels: list[Label],
    k: int,
    seed: int,
) -> list[tuple[list[int], list[int]]]:
    """k disjoint stratified folds as (train positions, test positions) pairs.

    Positions are 0-based indices into the label list. Test folds partition
    the index set with sizes differing by at most one, and per-class fold
    sizes stay within one of each other by rotating the start of the
    oversized folds across classes.
    """
    n = len(labels)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n:
        raise CorpusError(f"cannot make {k} folds from {n} records")
    rng = Rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for label in CLASS_ORDER:
        positions = [i for i, lab in enumerate(labels) if lab is label]
        if not positions:
            continue
        if len(positions) < k:
            raise CorpusError(
                f"class {label.value} has {len(positions)} records, fewer than k={k}"
            )
        rng.shuffle(positions)
        base, extra = divmod(len(positions), k)
        start = 0
        for f in range(k):
            size = base + (1 if (f - offset) % k < extra else 0)
            fold_members[f].extend(positions[start:start + size])
            start += size
        offset += extra
    folds = []
    for f in range(k):
        test_idx = sorted(fold_members[f])
        test_set = set(test_idx)
        train_idx = [i for i in range(n) if i not in test_set]
        folds.append((train_idx, test_idx))
    return folds
