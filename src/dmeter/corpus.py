"""Corpus ingestion: records, tokens, vocabulary, frequency tables, fingerprints.

A Corpus is an immutable snapshot of a record sequence.  Tokenization is
applied once at construction time with an explicit TokenizerConfig, and the
config travels with the corpus so that downstream measurements can refuse
comparison across mismatched configs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

TOKENIZER_MODES = ("unicode-word", "whitespace", "character")

_WORD_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class TokenizerConfig:
    """How raw text becomes a token sequence.

    mode:
        "unicode-word"  maximal runs of word characters (letters, digits,
                        marks, underscore); punctuation never forms a token
        "whitespace"    split on whitespace runs
        "character"     one token per character, whitespace dropped
    case_fold:
        lowercase each token before emission
    """

    mode: str = "unicode-word"
    case_fold: bool = True

    def __post_init__(self) -> None:
        if self.mode not in TOKENIZER_MODES:
            raise ValueError(f"unknown tokenizer mode {self.mode!r}; choose from {TOKENIZER_MODES}")

    def as_dict(self) -> dict:
        return {"mode": self.mode, "case_fold": self.case_fold}


DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Split text into tokens per the config.  Empty text gives an empty list."""
    if config.mode == "unicode-word":
        tokens = _WORD_RE.findall(text)
    elif config.mode == "whitespace":
        tokens = text.split()
    else:  # character
        tokens = [ch for ch in text if not ch.isspace()]
    if config.case_fold:
        tokens = [t.lower() for t in tokens]
    return tokens


@dataclass(frozen=True)
class Record:
    """A single atomic data instance: one document."""

    id: str
    text: str
    attributes: Mapping[str, str] | None = None
    timestamp: int | None = None


@dataclass(frozen=True)
class IngestError:
    """A malformed source record that was skipped during ingestion."""

    line: int
    reason: str


class FrequencyTable:
    """Immutable item -> count map with a cached total.

    Counts are positive integers; zero-count items are never stored.
    """

    __slots__ = ("_entries", "_total")

    def __init__(self, entries: Mapping[Hashable, int]):
        clean = {}
        total = 0
        for item, count in entries.items():
            if count < 0:
                raise ValueError(f"negative count {count} for {item!r}")
            if count:
                clean[item] = int(count)
                total += int(count)
        self._entries = clean
        self._total = total

    @classmethod
    def from_items(cls, items: Iterable[Hashable]) -> "FrequencyTable":
        return cls(Counter(items))

    @property
    def entries(self) -> Mapping[Hashable, int]:
        return self._entries

    @property
    def total(self) -> int:
        return self._total

    def get(self, item: Hashable, default: int = 0) -> int:
        return self._entries.get(item, default)

    def __getitem__(self, item: Hashable) -> int:
        return self._entries[item]

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"FrequencyTable({len(self._entries)} items, total={self._total})"


def _normalize_for_fingerprint(text: str) -> str:
    # NFC + trim trailing whitespace: stable identity across encodings.
    return unicodedata.normalize("NFC", text).rstrip()


def _record_fingerprint_payload(record: Record) -> bytes:
    canon = {
        "id": record.id,
        "text": _normalize_for_fingerprint(record.text),
        "attributes": dict(sorted(record.attributes.items())) if record.attributes else None,
        "timestamp": record.timestamp,
    }
    return json.dumps(canon, sort_keys=True, ensure_ascii=False).encode("utf-8")


class Corpus:
    """Immutable snapshot of records with token streams and frequency tables."""

    def __init__(
        self,
        records: Iterable[Record],
        tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER,
        ingest_errors: Iterable[IngestError] = (),
    ):
        self._records = tuple(records)
        self._tokenizer_config = tokenizer_config
        self._ingest_errors = tuple(ingest_errors)

        seen_ids = set()
        for r in self._records:
            if r.id in seen_ids:
                raise ValueError(f"duplicate record id {r.id!r}")
            seen_ids.add(r.id)

        self._record_tokens = tuple(tuple(tokenize(r.text, tokenizer_config)) for r in self._records)

        self._token_counts = FrequencyTable(Counter(itertools.chain.from_iterable(self._record_tokens)))
        # Counter keeps first-occurrence order, so its keys are the vocabulary.
        self._vocabulary = tuple(self._token_counts)

        h = hashlib.sha256()
        for r in self._records:
            payload = _record_fingerprint_payload(r)
            h.update(len(payload).to_bytes(8, "big"))
            h.update(payload)
        self._fingerprint = h.hexdigest()

        self._ngram_cache: dict[int, FrequencyTable] = {1: self._token_counts}

    @property
    def records(self) -> tuple[Record, ...]:
        return self._records

    @property
    def tokenizer_config(self) -> TokenizerConfig:
        return self._tokenizer_config

    @property
    def ingest_errors(self) -> tuple[IngestError, ...]:
        return self._ingest_errors

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self._vocabulary

    @property
    def token_counts(self) -> FrequencyTable:
        return self._token_counts

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def total_tokens(self) -> int:
        return self._token_counts.total

    def iter_record_tokens(self) -> Iterator[tuple[str, ...]]:
        return iter(self._record_tokens)

    def ngram_counts(self, n: int) -> FrequencyTable:
        if n not in self._ngram_cache:
            self._ngram_cache[n] = ngrams(self, n)
        return self._ngram_cache[n]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"Corpus({self.n_records} records, {len(self._vocabulary)} types, "
            f"{self.total_tokens} tokens, fingerprint={self._fingerprint[:12]}...)"
        )


def ngrams(corpus: Corpus, n: int) -> FrequencyTable:
    """Count n-grams within record boundaries (no cross-record n-grams).

    n=1 keys are plain tokens; n>=2 keys are token tuples.  Total n-grams
    per record = max(0, token count - n + 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return corpus.token_counts
    counts: Counter = Counter()
    for toks in corpus.iter_record_tokens():
        if len(toks) >= n:
            counts.update(zip(*(toks[i:] for i in range(n))))
    return FrequencyTable(counts)


# --- ingestion ---------------------------------------------------------------

FORMATS = ("jsonl", "plaintext", "csv")


def ingest(
    source,
    format: str = "jsonl",
    tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER,
    text_field: str = "text",
    id_field: str = "id",
    timestamp_field: str = "timestamp",
) -> Corpus:
    """Read a file path or text stream into a Corpus.

    Malformed records, and lines that are not valid UTF-8, are skipped and
    recorded (with their line number) in the returned corpus's ingest_errors;
    an unreadable source is fatal.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {FORMATS}")

    if hasattr(source, "read"):
        opened = contextlib.nullcontext(source)
    else:
        # A byte that is not UTF-8 becomes a lone surrogate; readers skip its line.
        opened = open(source, "r", encoding="utf-8", errors="surrogateescape", newline="")
    with opened as stream:
        if format == "jsonl":
            records, errors = _read_jsonl(stream, text_field, id_field, timestamp_field)
        elif format == "plaintext":
            records, errors = _read_plaintext(stream)
        else:
            records, errors = _read_csv(stream, text_field, id_field, timestamp_field)
    return Corpus(records, tokenizer_config, ingest_errors=errors)


_NOT_UTF8 = re.compile("[\ud800-\udfff]")
_NOT_UTF8_REASON = "line is not valid UTF-8"


def _utf8_lines(stream, errors: list):
    """Number the lines of stream, diverting those that are not valid UTF-8 to errors."""
    for line_no, line in enumerate(stream, start=1):
        if _NOT_UTF8.search(line):
            errors.append(IngestError(line_no, _NOT_UTF8_REASON))
        else:
            yield line_no, line


def _dedupe_id(rid: str, seen: set, line: int, errors: list) -> bool:
    """Reserve rid for this line; False, with an error, when an earlier record holds it."""
    if rid in seen:
        errors.append(IngestError(line, f"duplicate record id {rid!r}"))
        return False
    seen.add(rid)
    return True


def _read_jsonl(stream, text_field, id_field, timestamp_field):
    records: list[Record] = []
    errors: list[IngestError] = []
    seen: set[str] = set()
    for line_no, line in _utf8_lines(stream, errors):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(IngestError(line_no, f"invalid JSON: {exc.msg}"))
            continue
        except (ValueError, RecursionError):
            # An integer past int's digit limit, or nesting past the recursion limit.
            errors.append(IngestError(line_no, "invalid JSON: number or nesting too large"))
            continue
        if not isinstance(obj, dict):
            errors.append(IngestError(line_no, "record is not a JSON object"))
            continue
        text = obj.get(text_field)
        if not isinstance(text, str):
            errors.append(IngestError(line_no, f"missing or non-string {text_field!r} field"))
            continue
        rid = obj.get(id_field)
        rid = str(rid) if rid is not None else str(line_no)
        attrs = obj.get("attributes")
        if attrs is not None:
            if not isinstance(attrs, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()
            ):
                errors.append(IngestError(line_no, "attributes must map strings to strings"))
                continue
        # A JSON escape such as "\ud800" gives a lone surrogate, which UTF-8 cannot encode.
        if any(map(_NOT_UTF8.search, [rid, text, *(attrs or {}), *(attrs or {}).values()])):
            errors.append(IngestError(line_no, _NOT_UTF8_REASON))
            continue
        ts = obj.get(timestamp_field)
        if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)):
            errors.append(IngestError(line_no, f"{timestamp_field!r} must be an integer"))
            continue
        # Reserve the id last, so a rejected line does not shadow a later valid one.
        if _dedupe_id(rid, seen, line_no, errors):
            records.append(Record(id=rid, text=text, attributes=attrs, timestamp=ts))
    return records, errors


def _read_plaintext(stream):
    errors: list[IngestError] = []
    records = [
        Record(id=str(line_no), text=line.rstrip("\n").rstrip("\r"))
        for line_no, line in _utf8_lines(stream, errors)
    ]
    return records, errors


def _csv_rows(reader, errors: list):
    """Yield (file line where the record starts, fields); a record the csv
    module rejects, such as a field over its size limit, goes to errors."""
    while True:
        # reader.line_num counts file lines read, so a record starts one past the last.
        line_no = reader.line_num + 1
        try:
            fields = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            errors.append(IngestError(line_no, f"malformed CSV record: {exc}"))
            continue
        yield line_no, fields


_CSV_INTEGER = re.compile("[+-]?[0-9]+")


def _read_csv(stream, text_field, id_field, timestamp_field):
    records: list[Record] = []
    errors: list[IngestError] = []
    seen: set[str] = set()
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"malformed CSV header: {exc}") from None
    if header is None:
        return records, errors
    if text_field not in header:
        raise ValueError(f"csv has no {text_field!r} column (columns: {header})")
    for line_no, fields in _csv_rows(reader, errors):
        if not fields:  # a blank line
            continue
        if any(map(_NOT_UTF8.search, fields)):
            errors.append(IngestError(line_no, _NOT_UTF8_REASON))
            continue
        row = dict(zip(header, fields))
        text = row.get(text_field)
        if text is None:
            errors.append(IngestError(line_no, f"missing {text_field!r} value"))
            continue
        rid = row.get(id_field) or str(line_no)
        ts = None
        raw_ts = row.get(timestamp_field)
        if raw_ts not in (None, ""):
            # An optional sign and ASCII digits only, as JSONL takes only JSON
            # integers: int() alone would also take "1_000", " 7 " and "٣".
            try:
                if not _CSV_INTEGER.fullmatch(raw_ts):
                    raise ValueError(raw_ts)
                ts = int(raw_ts)  # raises past the interpreter's digit limit
            except ValueError:
                errors.append(IngestError(line_no, f"non-integer {timestamp_field!r} value {raw_ts!r}"))
                continue
        if _dedupe_id(rid, seen, line_no, errors):
            records.append(Record(id=rid, text=text, timestamp=ts))
    return records, errors
