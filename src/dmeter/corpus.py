"""Corpus ingestion: records, tokens, vocabulary, frequency tables, fingerprints.

A Corpus is an immutable snapshot of a record sequence.  Its records are
tokenized once, with an explicit TokenizerConfig, when a token-level attribute
is first read; a command that reads only records and the fingerprint (such as
duplicate counting) never tokenizes.  The config travels with the corpus so
that downstream measurements can refuse comparison across mismatched configs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

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
    fold_each = config.case_fold
    if fold_each and text.isascii():
        # ASCII lowercasing only turns letters into letters, so folding the
        # text before the split gives the tokens folding each one after does.
        text, fold_each = text.lower(), False
    if config.mode == "unicode-word":
        tokens = _WORD_RE.findall(text)
    elif config.mode == "whitespace":
        tokens = text.split()
    else:  # character
        tokens = [ch for ch in text if not ch.isspace()]
    if fold_each:
        tokens = [t.lower() for t in tokens]
    return tokens


@dataclass(frozen=True)
class Record:
    """A single atomic data instance: one document."""

    id: str
    text: str
    attributes: dict[str, str] | None = None
    timestamp: int | None = None

    def __post_init__(self) -> None:
        # Exact types, so that _fingerprint_payload is the one payload writer.
        for name, value in (("id", self.id), ("text", self.text)):
            if type(value) is not str:
                raise TypeError(f"Record {name} must be a str, got {type(value).__name__}")
        attrs, ts = self.attributes, self.timestamp
        if attrs is not None and not (type(attrs) is dict and all(
                type(k) is str and type(v) is str for k, v in attrs.items())):
            raise TypeError("Record attributes must be None or a dict of str to str")
        if ts is not None and type(ts) is not int:
            raise TypeError(f"Record timestamp must be None or an int, got {type(ts).__name__}")


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

    @classmethod
    def _of_positive(cls, entries: dict, total: int) -> "FrequencyTable":
        """A table over counts already known to be positive ints summing to total."""
        table = cls.__new__(cls)
        table._entries = entries
        table._total = total
        return table

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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _normalize_for_fingerprint(text: str) -> str:
    # NFC + trim trailing whitespace: stable identity across encodings.
    return unicodedata.normalize("NFC", text).rstrip()


# json's string encoder for output with ensure_ascii=False.
_json_str = json.encoder.encode_basestring


def _fingerprint_payload(r: Record) -> bytes:
    """The record as the json module writes it with sorted keys and ensure_ascii
    off: empty attributes as null, and the text normalized for fingerprinting."""
    attrs, ts = r.attributes, r.timestamp
    attrs_json = ("{" + ", ".join([f"{_json_str(k)}: {_json_str(attrs[k])}" for k in sorted(attrs)])
                  + "}") if attrs else "null"
    return (f'{{"attributes": {attrs_json}, "id": {_json_str(r.id)}, '
            f'"text": {_json_str(_normalize_for_fingerprint(r.text))}, '
            f'"timestamp": {"null" if ts is None else ts}}}').encode("utf-8")


class _TokenStore(NamedTuple):
    """A Corpus's tokens as integer ids, with the tables built alongside them."""

    vocabulary: tuple[str, ...]
    index: dict[str, int]
    ids: np.ndarray
    offsets: np.ndarray
    counts: FrequencyTable


class Corpus:
    """Immutable snapshot of records with token streams and frequency tables.

    Record ids are checked and the fingerprint computed at construction.
    Tokens are stored once, as integer ids, built in one pass when any token
    attribute is first read: a flat int32 array indexing vocabulary
    (first-occurrence order) and int64 record offsets.  The text layers read
    these arrays; iter_record_tokens() rebuilds string tuples.
    """

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

        h = hashlib.sha256()
        for r in self._records:
            payload = _fingerprint_payload(r)
            h.update(len(payload).to_bytes(8, "big"))
            h.update(payload)
        self._fingerprint = h.hexdigest()

        self._ngram_cache: dict[int, FrequencyTable] = {}

    @cached_property
    def _store(self) -> _TokenStore:
        """The token store, built from every record in one pass on first read."""
        # One flat token stream; each record's tokens are ids[offsets[i]:offsets[i + 1]].
        stream: list[str] = []
        lengths = []
        for r in self._records:
            toks = tokenize(r.text, self._tokenizer_config)
            stream.extend(toks)
            lengths.append(len(toks))
        counts = Counter(stream)
        # Counter keeps first-occurrence order, so its keys are the vocabulary.
        vocabulary = tuple(counts)
        index = {t: i for i, t in enumerate(vocabulary)}
        ids = np.fromiter(map(index.__getitem__, stream), dtype=np.int32, count=len(stream))
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return _TokenStore(vocabulary, index, _frozen(ids), _frozen(offsets),
                           FrequencyTable._of_positive(dict(counts), len(stream)))

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
        return self._store.vocabulary

    @property
    def token_counts(self) -> FrequencyTable:
        return self._store.counts

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def total_tokens(self) -> int:
        return self.token_counts.total

    @property
    def token_ids(self) -> np.ndarray:
        """Every token in record order, as an int32 index into vocabulary (read-only)."""
        return self._store.ids

    @property
    def record_offsets(self) -> np.ndarray:
        """n_records + 1 int64 bounds: record i's tokens are
        token_ids[record_offsets[i]:record_offsets[i + 1]] (read-only)."""
        return self._store.offsets

    def token_id(self, token: str) -> int | None:
        """token's index into vocabulary; None when the corpus never has it."""
        return self._store.index.get(token)

    def iter_record_tokens(self) -> Iterator[tuple[str, ...]]:
        """Each record's tokens as a tuple, rebuilt from the id store."""
        vocab = self.vocabulary
        ids = self.token_ids.tolist()
        bounds = self.record_offsets.tolist()
        for start, end in zip(bounds, bounds[1:]):
            yield tuple(map(vocab.__getitem__, ids[start:end]))

    def ngram_counts(self, n: int) -> FrequencyTable:
        if n not in self._ngram_cache:
            self._ngram_cache[n] = ngrams(self, n)
        return self._ngram_cache[n]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"Corpus({self.n_records} records, {len(self.vocabulary)} types, "
            f"{self.total_tokens} tokens, fingerprint={self._fingerprint[:12]}...)"
        )


def ngrams(corpus: Corpus, n: int) -> FrequencyTable:
    """Count n-grams within record boundaries (no cross-record n-grams).

    n=1 keys are plain tokens; n>=2 keys are token tuples, in the order of
    their first occurrence.  Total n-grams per record = max(0, token count - n + 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return corpus.token_counts
    ids, offsets = corpus.token_ids, corpus.record_offsets
    lengths = np.diff(offsets)
    if not lengths.size or n > lengths.max():
        return FrequencyTable({})
    # A window starting at position i stays inside its record when i + n <= the record's end.
    n_windows = ids.size - n + 1
    ends = np.repeat(offsets[1:], lengths)[:n_windows]
    starts = np.flatnonzero(np.arange(n_windows) + n <= ends)
    codes = _window_codes(ids, len(corpus.vocabulary), n, starts)
    # return_index sorts stably, so first is each code's first window.
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    first, counts = starts[first[order]], counts[order]
    vocab = np.array(corpus.vocabulary, dtype=object)
    keys = zip(*(vocab[ids[first + k]].tolist() for k in range(n)))
    return FrequencyTable._of_positive(dict(zip(keys, counts.tolist())), int(starts.size))


_INT64_MAX = np.iinfo(np.int64).max


def _window_codes(ids: np.ndarray, n_types: int, n: int, starts: np.ndarray) -> np.ndarray:
    """One int64 per n-token window, equal exactly when the windows are.

    Each step appends a token as one more base-n_types digit; when the next
    digit would overflow, the codes are first replaced by their ranks, which
    are below the window count.
    """
    codes = ids[starts].astype(np.int64)
    for k in range(1, n):
        if int(codes.max()) + 1 > _INT64_MAX // n_types:
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
        codes = codes * n_types + ids[starts + k]
    return codes


# --- ingestion ---------------------------------------------------------------

FORMATS = ("jsonl", "plaintext", "csv")


def ingest(source, format: str = "jsonl",
           tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER) -> Corpus:
    """Read a file path or text stream into a Corpus, taking each record's
    "text", "id" and "timestamp" fields (and JSONL "attributes").

    Malformed records, and lines that are not valid UTF-8, are skipped and
    recorded (with their line number) in the returned corpus's ingest_errors;
    an unreadable source is fatal.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {FORMATS}")

    with _open_text(source) as stream:
        if format == "jsonl":
            records, errors = _read_jsonl(stream)
        elif format == "plaintext":
            records, errors = _read_plaintext(stream)
        else:
            records, errors = _read_csv(stream)
    return Corpus(records, tokenizer_config, ingest_errors=errors)


def _open_text(source):
    """A text stream as it is; a path opened as read_lines describes."""
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    return open(source, "r", encoding="utf-8", errors="surrogateescape", newline="")


_NOT_UTF8 = re.compile("[\ud800-\udfff]")
_NOT_UTF8_REASON = "line is not valid UTF-8"


def read_lines(source, skipped: list | None = None) -> Iterator[tuple[int, str]]:
    """Yield (file line number, line with its ending) for a path or text stream.

    A path is read as UTF-8, lines ending only at \\n, \\r\\n or \\r, and a line
    that is not valid UTF-8 (a byte read as a lone surrogate) raises ValueError
    naming it, or, given a skipped list, is recorded there and passed over."""
    with _open_text(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            if line.isascii() or not _NOT_UTF8.search(line):  # isascii() is O(1)
                yield line_no, line
            elif skipped is None:
                raise ValueError(f"line {line_no}: not valid UTF-8")
            else:
                skipped.append(IngestError(line_no, _NOT_UTF8_REASON))


def decode_json_line(line: str):
    """json.loads(line), raising ValueError("invalid JSON: ...") for a line it rejects."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError):
        # An integer past int's digit limit, or nesting past the recursion limit.
        raise ValueError("invalid JSON: number or nesting too large") from None


def _dedupe_id(rid: str, seen: set, line: int, errors: list) -> bool:
    """Reserve rid for this line; False, with an error, when an earlier record holds it."""
    if rid in seen:
        errors.append(IngestError(line, f"duplicate record id {rid!r}"))
        return False
    seen.add(rid)
    return True


def _read_jsonl(stream):
    records: list[Record] = []
    errors: list[IngestError] = []
    seen: set[str] = set()
    for line_no, line in read_lines(stream, errors):
        if not line.strip():
            continue
        try:
            obj = decode_json_line(line)
        except ValueError as exc:
            errors.append(IngestError(line_no, str(exc)))
            continue
        if not isinstance(obj, dict):
            errors.append(IngestError(line_no, "record is not a JSON object"))
            continue
        text = obj.get("text")
        if not isinstance(text, str):
            errors.append(IngestError(line_no, "missing or non-string 'text' field"))
            continue
        rid = obj.get("id")
        if isinstance(rid, bool) or not isinstance(rid, (str, int, type(None))):
            errors.append(IngestError(line_no, "'id' must be a string or an integer"))
            continue
        rid = str(line_no) if rid is None else str(rid)
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
        ts = obj.get("timestamp")
        if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)):
            errors.append(IngestError(line_no, "'timestamp' must be an integer"))
            continue
        # Reserve the id last, so a rejected line does not shadow a later valid one.
        if _dedupe_id(rid, seen, line_no, errors):
            records.append(Record(id=rid, text=text, attributes=attrs, timestamp=ts))
    return records, errors


def _read_plaintext(stream):
    errors: list[IngestError] = []
    records = [
        Record(id=str(line_no), text=line.rstrip("\n").rstrip("\r"))
        for line_no, line in read_lines(stream, errors)
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


def _read_csv(stream):
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
    if "text" not in header:
        raise ValueError(f"csv has no 'text' column (columns: {header})")
    for line_no, fields in _csv_rows(reader, errors):
        if not fields:  # a blank line
            continue
        if any(map(_NOT_UTF8.search, fields)):
            errors.append(IngestError(line_no, _NOT_UTF8_REASON))
            continue
        row = dict(zip(header, fields))
        text = row.get("text")
        if text is None:
            errors.append(IngestError(line_no, "missing 'text' value"))
            continue
        rid = row.get("id") or str(line_no)
        ts = None
        raw_ts = row.get("timestamp")
        if raw_ts not in (None, ""):
            # An optional sign and ASCII digits only, as JSONL takes only JSON
            # integers: int() alone would also take "1_000", " 7 " and "٣".
            try:
                if not _CSV_INTEGER.fullmatch(raw_ts):
                    raise ValueError(raw_ts)
                ts = int(raw_ts)  # raises past the interpreter's digit limit
            except ValueError:
                errors.append(IngestError(line_no, f"non-integer 'timestamp' value {raw_ts!r}"))
                continue
        if _dedupe_id(rid, seen, line_no, errors):
            records.append(Record(id=rid, text=text, timestamp=ts))
    return records, errors
