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
import itertools
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import check_choice, check_int

TOKENIZER_MODES = ("unicode-word", "whitespace", "character")

_WORD_RE = re.compile(r"\w+")
# A bytes.translate table: each ASCII byte that \w does not match ([^A-Za-z0-9_])
# becomes a space, and bytes >= 128 stay.  On the UTF-8 of ASCII text, or of
# text whose every non-ASCII character is inside a \w+ run, translate then
# split() gives the runs _WORD_RE finds.
_WORD_BYTES = bytes(b if b >= 128 or _WORD_RE.match(chr(b)) else 32 for b in range(256))
# A lone surrogate: a byte read with surrogateescape, or a JSON escape such as "\ud800".
_NOT_UTF8 = re.compile("[\ud800-\udfff]")
# Characters of record text the token store tokenizes at once, about 13,000
# tokens of the benchmark's text-zipf batch A.  The token strings, some 60
# bytes each, set the store's peak: tracemalloc saw 38.5 MiB with the whole
# corpus as one chunk and 5.5 MiB with chunks of 2**16 (the ids and tables
# are the rest).  Chunks of 2**13 to 2**18 characters built the store in 0.14
# to 0.16 s against 0.17 to 0.23 s as one chunk (2-vCPU Xeon).
_STORE_CHUNK_CHARS = 1 << 16
# Tokens that a pass over the token store takes at once, a block of records
# at a time (_record_blocks): n-gram codes, (context, token) codes and
# per-token logs, syllable counts.  On the benchmark's text-zipf batch A,
# tracemalloc saw ngram_diversity at n = 2 peak at 6.3 MiB this way against
# 24.6 MiB over the whole corpus at once.
_TOKEN_BLOCK = 1 << 16


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
        check_choice("tokenizer mode", self.mode, TOKENIZER_MODES)
        if type(self.case_fold) is not bool:
            raise ValueError(f"case_fold must be a bool, got {self.case_fold!r}")

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
        tokens = (text.encode().translate(_WORD_BYTES).decode().split() if text.isascii()
                  else _WORD_RE.findall(text))
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
        # These are the checks and the messages of a JSONL line's fields.
        if type(self.id) is not str:
            raise TypeError("'id' must be a string")
        if type(self.text) is not str:
            raise TypeError("missing or non-string 'text' field")
        attrs, ts = self.attributes, self.timestamp
        if attrs is not None and not (type(attrs) is dict and all(
                type(k) is str and type(v) is str for k, v in attrs.items())):
            raise TypeError("attributes must map strings to strings")
        if ts is not None and type(ts) is not int:
            raise TypeError("'timestamp' must be an integer")
        strings = (self.id, self.text, *attrs, *attrs.values()) if attrs else (self.id, self.text)
        if not all(map(str.isascii, strings)) and any(map(_NOT_UTF8.search, strings)):
            raise ValueError(f"record {self.id!r} holds a lone surrogate, which UTF-8 "
                             "cannot encode")


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
    Tokens are stored once, as integer ids, built when any token attribute is
    first read: a flat int32 array indexing vocabulary (first-occurrence
    order) and int64 record offsets.  The records are tokenized a chunk of
    about _STORE_CHUNK_CHARS characters at a time, so only one chunk's token
    strings are held at once.  Under unicode-word a chunk is one byte-table
    split of its joined record text, with tokenize() run only on non-ASCII
    records (_word_stream); under the other modes, tokenize() per record.
    The text layers read these arrays; iter_record_tokens() rebuilds string
    tuples.
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

    @cached_property
    def _store(self) -> _TokenStore:
        """The token store, built on first read from the records a chunk of
        about _STORE_CHUNK_CHARS characters at a time (_blocks): _word_stream's
        byte-table split of the chunk's text under unicode-word (non-ASCII
        records through tokenize()), tokenize() per record otherwise.  Each
        chunk's token strings are dropped once its ids are written, so the
        strings held at once are those of one chunk, not of the corpus."""
        # One flat token stream; each record's tokens are ids[offsets[i]:offsets[i + 1]].
        config = self._tokenizer_config
        records = self._records
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        # Counter keeps first-occurrence order, so its keys are the vocabulary.
        counts: Counter = Counter()
        index: dict[str, int] = {}
        ids = []
        n_tokens = 0
        sizes = np.fromiter((len(r.text) for r in records), dtype=np.int64, count=len(records))
        for start, stop in _blocks(sizes, _STORE_CHUNK_CHARS):
            texts = [r.text for r in records[start:stop]]
            if config.mode == "unicode-word":
                stream, ends = _word_stream(texts, config)
            else:
                stream, lengths = [], []
                for text in texts:
                    toks = tokenize(text, config)
                    stream.extend(toks)
                    lengths.append(len(toks))
                ends = np.cumsum(lengths, dtype=np.int64)
            counts.update(stream)
            # The chunk's new types are the last len(counts) - len(index) keys.
            new_types = list(itertools.islice(reversed(counts), len(counts) - len(index)))
            for token in reversed(new_types):
                index[token] = len(index)
            ids.append(np.fromiter(map(index.__getitem__, stream), dtype=np.int32,
                                   count=len(stream)))
            offsets[start + 1:stop + 1] = ends + n_tokens
            n_tokens += len(stream)
            del stream  # before the next chunk's strings are made
        return _TokenStore(tuple(counts), index, _frozen(np.concatenate(ids)), _frozen(offsets),
                           FrequencyTable._of_positive(dict(counts), n_tokens))

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
        return ngrams(self, n)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"Corpus({self.n_records} records, {len(self.vocabulary)} types, "
            f"{self.total_tokens} tokens, fingerprint={self._fingerprint[:12]}...)"
        )


def _word_stream(texts: list[str], config: TokenizerConfig) -> tuple[list[str], np.ndarray]:
    """The unicode-word tokens of texts as one list, and the stream position
    each text's tokens end at, as tokenize() per text would give them.

    Each text becomes one piece of a string joined by spaces: an ASCII text
    as it is (lowercased under case_fold), any other as its tokenize() tokens
    joined by spaces, since the byte table keeps non-ASCII punctuation.
    _WORD_BYTES turns every other separator into a space, so one split gives
    the stream; a token starts at each non-space byte after a space, and texts
    up to text i hold the tokens that start before the end of its piece.
    Each copy of the text is dropped once used, so the peak is the stream
    and one copy of the texts given: Corpus._store gives one chunk of
    records at a time.
    """
    fold = config.case_fold
    # A leading empty piece, so the joined text starts with a space.
    pieces = ["", *((t.lower() if fold else t) if t.isascii() else " ".join(tokenize(t, config))
                    for t in texts)]
    # Text i's piece ends (exclusive) at its and the earlier pieces' byte sizes,
    # plus one separator each.
    ends = np.cumsum(np.fromiter((len(p) if p.isascii() else len(p.encode()) for p in pieces[1:]),
                                 dtype=np.int64, count=len(texts)) + 1)
    data = " ".join(pieces).encode().translate(_WORD_BYTES)
    del pieces
    word = np.frombuffer(data, dtype=np.uint8) != 32
    # The space before each token: inside the token's piece or just before it,
    # and so before that piece's end and at or past the end of the piece before.
    ends = np.searchsorted(np.flatnonzero(word[1:] > word[:-1]), ends)
    del word
    text = data.decode()
    del data
    return text.split(), ends


def check_ngram_n(n) -> None:
    """ValueError unless n is an int >= 1."""
    check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def ngrams(corpus: Corpus, n: int) -> FrequencyTable:
    """Count n-grams within record boundaries (no cross-record n-grams).

    n=1 keys are plain tokens; n>=2 keys are token tuples, in the order of
    their first occurrence.  Total n-grams per record = max(0, token count - n + 1).
    """
    check_ngram_n(n)
    if n == 1:
        return corpus.token_counts
    starts, codes = ngram_windows(corpus, n)
    if not starts.size:
        return FrequencyTable({})
    # return_index sorts stably, so first is each code's first window.
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    first, counts = starts[first[order]], counts[order]
    ids, vocab = corpus.token_ids, np.array(corpus.vocabulary, dtype=object)
    keys = zip(*(vocab[ids[first + k]].tolist() for k in range(n)))
    return FrequencyTable._of_positive(dict(zip(keys, counts.tolist())), int(starts.size))


def ngram_windows(corpus: Corpus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, codes) for every n-token window inside one record, n >= 2: the
    token_ids position each window starts at, ascending, and one int64 code
    per window, equal exactly when the windows are."""
    starts = _window_starts(corpus.record_offsets, n)
    return starts, _window_codes(corpus.token_ids, len(corpus.vocabulary), n, starts)


def _ngram_code_blocks(corpus: Corpus, n: int) -> Iterator[np.ndarray]:
    """ngram_windows' codes, n >= 2, a block of records of about _TOKEN_BLOCK
    tokens at a time (_record_blocks), so no temporary spans the corpus.

    A block's codes are the corpus's only while no code is re-ranked, that is
    while n_types ** n fits in int64; past that, the one block is the whole
    corpus, whose ranks are the corpus's.
    """
    ids, offsets, n_types = corpus.token_ids, corpus.record_offsets, len(corpus.vocabulary)
    # n_types ** n is only computed for n < 64, past which it cannot fit for n_types >= 2.
    if not (n_types < 2 or (n < 64 and n_types ** n <= _INT64_MAX)):
        yield ngram_windows(corpus, n)[1]
        return
    for start, stop in _record_blocks(corpus):
        yield _window_codes(ids, n_types, n, _window_starts(offsets[start:stop + 1], n))


def _window_starts(offsets: np.ndarray, n: int) -> np.ndarray:
    """The token_ids position of every n-token window inside one record, for
    the records whose bounds these offsets are, ascending."""
    lengths = np.diff(offsets)
    if not lengths.size or n > lengths.max():
        return np.empty(0, dtype=np.int64)
    # A window starting at position i stays inside its record when i + n <= the record's end.
    first = int(offsets[0])
    n_windows = int(offsets[-1]) - first - n + 1
    ends = np.repeat(offsets[1:], lengths)[:n_windows]
    return first + np.flatnonzero(np.arange(first + n, first + n + n_windows) <= ends)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """The index of each value of a sorted array that differs from the one before."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes, sorted, and how often each occurs; sorts codes in place.
    One sort: numpy 2's np.unique without return_* hashes, which on this many
    codes is over ten times slower."""
    codes.sort()
    first = _run_starts(codes)
    return codes[first], np.diff(first, append=codes.size)


def _tally(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of these int64 blocks, sorted, and how often each
    occurs across them.  Each block is sorted in place (_distinct) and merged
    into the table: a code held adds its count, and a new one is inserted
    where searchsorted puts it, so the union is never sorted."""
    codes, counts = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for block in blocks:
        part, part_counts = _distinct(block)
        at = np.searchsorted(codes, part)
        held = at < codes.size
        held[held] = codes[at[held]] == part[held]
        counts[at[held]] += part_counts[held]
        new = ~held
        codes = np.insert(codes, at[new], part[new])
        counts = np.insert(counts, at[new], part_counts[new])
    return codes, counts


def _blocks(sizes: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """(start, stop) bounds that cut sizes, in order, into blocks whose sizes
    sum to at most limit; an item larger than limit is a block of its own.
    No items give one empty block."""
    ends = np.cumsum(sizes)
    start = 0
    while True:
        reach = (int(ends[start - 1]) if start else 0) + limit
        stop = max(int(np.searchsorted(ends, reach, side="right")), min(start + 1, ends.size))
        yield start, stop
        if stop == ends.size:
            return
        start = stop


def _record_blocks(corpus: Corpus) -> Iterator[tuple[int, int]]:
    """_blocks over the corpus's record token counts, with _TOKEN_BLOCK as the limit."""
    return _blocks(np.diff(corpus.record_offsets), _TOKEN_BLOCK)


_INT64_MAX = np.iinfo(np.int64).max


def _window_codes(ids: np.ndarray, n_types: int, n: int, starts: np.ndarray) -> np.ndarray:
    """One int64 per n-token window, equal exactly when the windows are.

    Each step appends a token as one more base-n_types digit; when the next
    digit would overflow, the codes are first replaced by their ranks, which
    are below the window count.
    """
    codes = ids[starts].astype(np.int64)
    if not codes.size:
        return codes
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
    check_choice("format", format, FORMATS)

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


_scan_json = json.JSONDecoder().scan_once


def _decode_record_line(line: str):
    """decode_json_line(line), through json's scanner alone where json.loads
    would make the same one call: the line starts with neither JSON whitespace
    nor a BOM, and after the value holds only JSON whitespace (not whatever
    str.strip() strips, such as \\x0b or \\x85, which json.loads refuses).
    Every other line, and every error, goes through decode_json_line."""
    if line[:1] not in " \t\n\r\ufeff":
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            pass
        else:
            if not line[end:].strip(" \t\n\r"):
                return obj
    return decode_json_line(line)


def record_id(raw) -> str:
    """A JSON id as a record id: a string, or an integer (a bool is not one)
    as its decimal string; anything else is a ValueError."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ValueError("'id' must be a string or an integer")
    return str(raw)


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
            obj = _decode_record_line(line)
            if not isinstance(obj, dict):
                raise ValueError("record is not a JSON object")
            rid = str(line_no) if obj.get("id") is None else record_id(obj["id"])
            record = Record(rid, obj.get("text"), obj.get("attributes"), obj.get("timestamp"))
        except (TypeError, ValueError) as exc:
            errors.append(IngestError(line_no, str(exc)))
            continue
        # Reserve the id last, so a rejected line does not shadow a later valid one.
        if _dedupe_id(rid, seen, line_no, errors):
            records.append(record)
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
