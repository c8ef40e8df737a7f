"""Ingestion, tokenization, n-gram counting, and fingerprint behavior."""

import hashlib
import io
import json
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmeter import corpus as corpus_module
from dmeter.corpus import (
    Corpus,
    FrequencyTable,
    IngestError,
    Record,
    TokenizerConfig,
    decode_json_line,
    ingest,
    ngrams,
    read_lines,
    record_id,
    tokenize,
    _NOT_UTF8,
    _NOT_UTF8_REASON,
    _dedupe_id,
    _fingerprint_payload,
    _decode_record_line,
    _normalize_for_fingerprint,
    _read_jsonl,
)


def make_corpus(texts, config=TokenizerConfig(), **kwargs):
    records = [Record(id=str(i), text=t) for i, t in enumerate(texts)]
    return Corpus(records, config, **kwargs)


# --- independent oracles --------------------------------------------------------


def charclass_tokenize(text, case_fold=True):
    """Reference segmentation: maximal runs of alphanumeric-or-underscore
    characters, built by character-class scanning instead of regex."""
    tokens = []
    current = []
    for ch in text:
        if ch.isalnum() or ch == "_":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return [t.lower() for t in tokens] if case_fold else tokens


def sliding_window_ngrams(token_lists, n):
    """Brute-force per-record n-gram recount."""
    counts = {}
    for toks in token_lists:
        for i in range(len(toks)):
            if i + n <= len(toks):
                key = toks[i] if n == 1 else tuple(toks[i : i + n])
                counts[key] = counts.get(key, 0) + 1
    return counts


# --- tokenize -------------------------------------------------------------------


class TestTokenize:
    def test_word_mode_drops_punctuation(self):
        assert tokenize("The cat, sat.") == ["the", "cat", "sat"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_case_fold_off(self):
        cfg = TokenizerConfig(case_fold=False)
        assert tokenize("The CAT", cfg) == ["The", "CAT"]

    def test_whitespace_mode_keeps_punctuation(self):
        cfg = TokenizerConfig(mode="whitespace")
        assert tokenize("The cat, sat.", cfg) == ["the", "cat,", "sat."]

    def test_character_mode_drops_whitespace(self):
        cfg = TokenizerConfig(mode="character", case_fold=False)
        assert tokenize("a b\tc", cfg) == ["a", "b", "c"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown tokenizer mode"):
            TokenizerConfig(mode="sentencepiece")

    @pytest.mark.parametrize("case_fold", ["false", "true", 0, 1, None])
    def test_non_bool_case_fold_rejected(self, case_fold):
        # "false" would fold and 0 would not; both would reach the provenance as given.
        with pytest.raises(ValueError, match=re.escape(f"case_fold must be a bool, got {case_fold!r}")):
            TokenizerConfig("unicode-word", case_fold)

    def test_matches_character_class_reference(self):
        # Random-ish unicode strings spanning scripts, digits, punctuation.
        samples = [
            "Hello, wörld! 123",
            "naïve  café　日本語テスト",
            "under_score mixed-CASE 'quoted'",
            "a b c",
            "πολύ καλό; Ψ=42",
            "\t\n  ",
            "x" * 50 + "!?" + "y_z9",
        ]
        for text in samples:
            assert tokenize(text) == charclass_tokenize(text)
            assert tokenize(text, TokenizerConfig(case_fold=False)) == charclass_tokenize(
                text, case_fold=False
            )


# --- ingest ---------------------------------------------------------------------


class TestIngestJsonl:
    def test_two_line_example(self):
        stream = io.StringIO('{"text": "a b"}\n{"text": "b c"}\n')
        corpus = ingest(stream)
        assert corpus.n_records == 2
        assert set(corpus.vocabulary) == {"a", "b", "c"}
        assert corpus.total_tokens == 4

    def test_empty_file(self):
        corpus = ingest(io.StringIO(""))
        assert corpus.n_records == 0
        assert corpus.vocabulary == ()
        assert len(corpus.fingerprint) == 64

    def test_malformed_lines_skipped_with_line_numbers(self):
        stream = io.StringIO(
            '{"text": "ok one"}\n'
            "not json\n"
            '{"no_text_field": 1}\n'
            '{"text": "ok two"}\n'
            '{"text": 42}\n'
        )
        corpus = ingest(stream)
        assert corpus.n_records == 2
        assert [e.line for e in corpus.ingest_errors] == [2, 3, 5]

    def test_duplicate_ids_skipped(self):
        stream = io.StringIO('{"id": "x", "text": "a"}\n{"id": "x", "text": "b"}\n')
        corpus = ingest(stream)
        assert corpus.n_records == 1
        assert len(corpus.ingest_errors) == 1
        assert "duplicate" in corpus.ingest_errors[0].reason

    def test_rejected_line_does_not_reserve_its_id(self):
        stream = io.StringIO(
            '{"id": "a", "text": "x", "timestamp": "soon"}\n'
            '{"id": "a", "text": "y", "timestamp": 3}\n'
        )
        corpus = ingest(stream)
        assert [(r.id, r.text) for r in corpus.records] == [("a", "y")]
        assert corpus.ingest_errors == (IngestError(1, "'timestamp' must be an integer"),)

    @pytest.mark.parametrize("line", ['{"text": "x", "id": ' + "1" * 5000 + "}", "[" * 100_000],
                             ids=["integer-too-long", "nesting-too-deep"])
    def test_unparseable_json_skipped_and_named(self, line):
        corpus = ingest(io.StringIO(line + '\n{"id": "b", "text": "fine"}\n'))
        assert [r.id for r in corpus.records] == ["b"]
        assert corpus.ingest_errors == (
            IngestError(1, "invalid JSON: number or nesting too large"),)

    def test_attributes_and_timestamp_parsed(self):
        stream = io.StringIO(
            '{"id": "r1", "text": "a", "attributes": {"lang": "en"}, "timestamp": 99}\n'
        )
        corpus = ingest(stream)
        assert corpus.records[0].attributes == {"lang": "en"}
        assert corpus.records[0].timestamp == 99

    def test_bad_timestamp_skipped(self):
        stream = io.StringIO('{"text": "a", "timestamp": "yesterday"}\n')
        corpus = ingest(stream)
        assert corpus.n_records == 0
        assert corpus.ingest_errors[0].line == 1

    def test_bool_timestamp_skipped(self):
        stream = io.StringIO(
            '{"text": "a", "timestamp": 3}\n'
            '{"text": "b", "timestamp": true}\n'
            '{"text": "c", "timestamp": false}\n'
        )
        corpus = ingest(stream)
        assert [r.timestamp for r in corpus.records] == [3]
        assert [e.line for e in corpus.ingest_errors] == [2, 3]
        assert "must be an integer" in corpus.ingest_errors[0].reason

    def test_id_must_be_a_string_or_an_integer(self):
        ids = ['"s"', "7", "null", '{"a": 1}', "true", "false", "1.0", "[1]", "1e400", '"7"']
        stream = io.StringIO("".join(f'{{"id": {rid}, "text": "x"}}\n' for rid in ids)
                             + '{"text": "no id"}\n')
        corpus = ingest(stream)
        assert [r.id for r in corpus.records] == ["s", "7", "3", "11"]  # "7" repeats int 7
        reason = "'id' must be a string or an integer"
        assert corpus.ingest_errors == (
            *(IngestError(line, reason) for line in range(4, 10)),
            IngestError(10, "duplicate record id '7'"),
        )

    @pytest.mark.parametrize("line", [
        '{"text": "x \\ud800 y"}',
        '{"id": "a\\udc00", "text": "x"}',
        '{"text": "x", "attributes": {"lang": "e\\udfffn"}}',
        '{"text": "x", "attributes": {"l\\ud801": "en"}}',
    ], ids=["text", "id", "attribute-value", "attribute-key"])
    def test_escaped_lone_surrogate_skipped_and_named(self, line):
        rows = ['{"id": "a", "text": "ok"}', line, '{"id": "c", "text": "fine"}']
        corpus = ingest(io.StringIO("\n".join(rows) + "\n"))
        assert [r.id for r in corpus.records] == ["a", "c"]
        rid = json.loads(line).get("id", "2")
        assert corpus.ingest_errors == (
            IngestError(2, f"record {rid!r} holds a lone surrogate, which UTF-8 cannot encode"),)

    @pytest.mark.parametrize("line, reason", [
        ('["text", "x"]', "record is not a JSON object"),
        ('"x"', "record is not a JSON object"),
        ('{"text": "x", "attributes": ["lang", "en"]}', "attributes must map strings to strings"),
        ('{"text": "x", "attributes": {"lang": 1}}', "attributes must map strings to strings"),
    ], ids=["array", "string", "attributes-a-list", "attribute-value-a-number"])
    def test_bad_record_shape_skipped_and_named(self, line, reason):
        corpus = ingest(io.StringIO('{"id": "a", "text": "ok"}\n' + line + "\n"))
        assert [r.id for r in corpus.records] == ["a"]
        assert corpus.ingest_errors == (IngestError(2, reason),)

    def test_unreadable_source_fatal(self):
        with pytest.raises(OSError):
            ingest("/nonexistent/path/corpus.jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            ingest(io.StringIO(""), format="parquet")


class TestIngestOtherFormats:
    def test_plaintext_one_record_per_line(self):
        corpus = ingest(io.StringIO("first line\nsecond line\n"), format="plaintext")
        assert corpus.n_records == 2
        assert corpus.records[1].text == "second line"

    def test_csv_with_declared_columns(self):
        stream = io.StringIO("id,text,timestamp\nr1,hello world,5\nr2,more text,\n")
        corpus = ingest(stream, format="csv")
        assert corpus.n_records == 2
        assert corpus.records[0].timestamp == 5
        assert corpus.records[1].timestamp is None

    def test_empty_csv_is_an_empty_corpus(self):
        assert ingest(io.StringIO(""), format="csv").n_records == 0

    def test_csv_missing_text_column_fatal(self):
        stream = io.StringIO("id,body\nr1,hello\n")
        with pytest.raises(ValueError, match="no 'text' column"):
            ingest(stream, format="csv")

    @pytest.mark.parametrize("fmt, data, kept, bad_line", [
        ("jsonl", b'{"id": "a", "text": "ok"}\n{"id": "b", "text": "bad \xff"}\n'
                  b'{"id": "c", "text": "fine"}\n', ["a", "c"], 2),
        ("plaintext", b"ok\nbad \xff\nfine\n", ["1", "3"], 2),
        ("csv", b"id,text\na,ok\nb,bad \xff\nc,fine\n", ["a", "c"], 3),
    ], ids=["jsonl", "plaintext", "csv"])
    def test_line_not_utf8_skipped_and_named(self, tmp_path, fmt, data, kept, bad_line):
        path = tmp_path / f"corpus.{fmt}"
        path.write_bytes(data)
        corpus = ingest(str(path), format=fmt)
        assert [r.id for r in corpus.records] == kept
        assert corpus.ingest_errors == (IngestError(bad_line, "line is not valid UTF-8"),)

    def test_csv_errors_and_default_ids_name_file_lines(self):
        # A blank line and a quoted newline each take a file line of their own.
        stream = io.StringIO('text,timestamp\nok,1\n\n"two\nlines",2\nbad,soon\n')
        corpus = ingest(stream, format="csv")
        assert [r.id for r in corpus.records] == ["2", "4"]
        assert corpus.records[1].text == "two\nlines"
        assert corpus.ingest_errors == (IngestError(6, "non-integer 'timestamp' value 'soon'"),)

    def test_csv_rejected_row_does_not_reserve_its_id(self):
        stream = io.StringIO("id,text,timestamp\na,x,soon\na,y,3\n")
        corpus = ingest(stream, format="csv")
        assert [(r.id, r.text) for r in corpus.records] == [("a", "y")]
        assert corpus.ingest_errors == (IngestError(2, "non-integer 'timestamp' value 'soon'"),)

    @pytest.mark.parametrize("text, newline", [
        ('text\n"' + "x" * 200_000 + '"\nok\n', ""),
        # A caller's stream that does not split lines at a lone carriage return.
        ("text\na\rb\nok\n", "\n"),
    ], ids=["field-over-size-limit", "carriage-return-in-unquoted-field"])
    def test_csv_record_the_csv_module_rejects_skipped_and_named(self, text, newline):
        corpus = ingest(io.StringIO(text, newline=newline), format="csv")
        assert [r.id for r in corpus.records] == ["3"]
        assert [e.line for e in corpus.ingest_errors] == [2]
        assert corpus.ingest_errors[0].reason.startswith("malformed CSV record: ")

    def test_csv_header_the_csv_module_rejects_is_a_value_error(self):
        stream = io.StringIO('"' + "x" * 200_000 + '",text\n1,ok\n')
        with pytest.raises(ValueError, match="^malformed CSV header: field larger than"):
            ingest(stream, format="csv")

    @pytest.mark.parametrize("raw", ["1_000", " 7 ", "7 ", "+-1", "1.0", "\u0663", "0x10", "-"])
    def test_csv_timestamp_must_be_sign_and_ascii_digits(self, raw):
        stream = io.StringIO(f"text,timestamp\nbad,{raw}\nok,-12\nfine,+007\n")
        corpus = ingest(stream, format="csv")
        assert [(r.text, r.timestamp) for r in corpus.records] == [("ok", -12), ("fine", 7)]
        assert corpus.ingest_errors == (IngestError(2, f"non-integer 'timestamp' value {raw!r}"),)

    def test_csv_bad_timestamp_skipped(self):
        stream = io.StringIO("text,timestamp\nhello,soon\nbye,3\n")
        corpus = ingest(stream, format="csv")
        assert corpus.n_records == 1
        assert corpus.ingest_errors[0].line == 2


class TestCountingOracle:
    def test_synthetic_corpus_matches_single_pass_recount(self):
        # 1,000 records of pseudo-words; oracle recounts from the raw texts.
        texts = []
        for i in range(1000):
            words = [f"w{(i * 7 + j) % 97}" for j in range(i % 13)]
            texts.append(" ".join(words))
        buf = io.StringIO("".join(json.dumps({"text": t}) + "\n" for t in texts))
        corpus = ingest(buf)

        oracle = {}
        total = 0
        for t in texts:
            for tok in charclass_tokenize(t):
                oracle[tok] = oracle.get(tok, 0) + 1
                total += 1
        assert dict(corpus.token_counts.entries) == oracle
        assert corpus.total_tokens == total
        assert len(corpus.vocabulary) <= corpus.total_tokens


# --- ngrams ---------------------------------------------------------------------


class TestNgrams:
    def test_unigrams(self):
        corpus = make_corpus(["a a b"])
        table = ngrams(corpus, 1)
        assert dict(table.entries) == {"a": 2, "b": 1}
        assert table.total == 3

    def test_bigrams(self):
        corpus = make_corpus(["a a b"])
        table = ngrams(corpus, 2)
        assert dict(table.entries) == {("a", "a"): 1, ("a", "b"): 1}
        assert table.total == 2

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            ngrams(make_corpus(["a"]), 0)

    def test_no_cross_record_ngrams(self):
        corpus = make_corpus(["a b", "c d"])
        assert ("b", "c") not in ngrams(corpus, 2).entries

    def test_trigrams_match_sliding_window_oracle(self):
        texts = [
            " ".join(f"t{(i * j) % 11}" for j in range(i % 9)) for i in range(60)
        ]
        corpus = make_corpus(texts)
        for n in (1, 2, 3):
            oracle = sliding_window_ngrams(list(corpus.iter_record_tokens()), n)
            assert dict(corpus.ngram_counts(n).entries) == oracle

    def test_huge_n_is_empty_without_building_n_iterators(self):
        corpus = make_corpus(["a b c"] * 1000)
        start = time.perf_counter()
        assert len(ngrams(corpus, 10**9)) == 0
        assert time.perf_counter() - start < 1.0

    def test_per_record_total_law(self):
        corpus = make_corpus(["a b c d", "x", "", "p q"])
        for n in (1, 2, 3, 5):
            expected = sum(max(0, len(t) - n + 1) for t in corpus.iter_record_tokens())
            assert ngrams(corpus, n).total == expected


# --- corpus invariants ----------------------------------------------------------


class TestCorpusInvariants:
    def test_deterministic_fingerprint_and_counts(self):
        a = make_corpus(["a b", "c"])
        b = make_corpus(["a b", "c"])
        assert a.fingerprint == b.fingerprint
        assert a.token_counts == b.token_counts

    def test_record_permutation_changes_fingerprint_not_counts(self):
        records = [Record(id="1", text="a b"), Record(id="2", text="c")]
        fwd = Corpus(records)
        rev = Corpus(list(reversed(records)))
        assert fwd.fingerprint != rev.fingerprint
        assert fwd.token_counts == rev.token_counts

    def test_fingerprint_normalizes_trailing_whitespace_and_nfc(self):
        # "é" composed vs decomposed, plus trailing spaces, fingerprint-equal.
        a = Corpus([Record(id="1", text="café  ")])
        b = Corpus([Record(id="1", text="café")])
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize("fields, message", [
        ({"id": 7}, "'id' must be a string"),
        ({"text": b"a"}, "missing or non-string 'text' field"),
        ({"attributes": {"k": 1}}, "attributes must map strings to strings"),
        ({"attributes": [("k", "v")]}, "attributes must map strings to strings"),
        ({"timestamp": True}, "'timestamp' must be an integer"),
        ({"timestamp": 1.0}, "'timestamp' must be an integer"),
    ])
    def test_record_field_types_are_checked(self, fields, message):
        with pytest.raises(TypeError, match=message):
            Record(**{"id": "a", "text": "x", **fields})

    def test_duplicate_record_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate record id"):
            Corpus([Record(id="1", text="a"), Record(id="1", text="b")])

    @pytest.mark.parametrize("fields", [{"text": "x\ud800"}, {"id": "b\udfff"},
                                        {"attributes": {"lang": "e\udc00n"}}],
                             ids=["text", "id", "attribute"])
    def test_lone_surrogate_is_named_by_its_record_id(self, fields):
        fields = {"id": "b", "text": "x", **fields}
        with pytest.raises(ValueError) as info:
            Record(**fields)
        assert str(info.value) == (f"record {fields['id']!r} holds a lone surrogate, "
                                   "which UTF-8 cannot encode")

    def test_vocabulary_in_first_seen_order(self):
        corpus = make_corpus(["b a", "a c"])
        assert corpus.vocabulary == ("b", "a", "c")


def first_occurrence_vocabulary(token_lists):
    """Scan every token once, keeping each type where it first appears: the
    second pass Corpus made before it took its vocabulary from the counts."""
    vocab = []
    for toks in token_lists:
        for t in toks:
            if t not in vocab:
                vocab.append(t)
    return tuple(vocab)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "\x00", "\x02", "dd"]), max_size=7),
                max_size=7))
def test_token_tables_match_per_token_oracles(records):
    corpus = make_corpus([" ".join(toks) for toks in records], TokenizerConfig(mode="whitespace"))
    assert corpus.vocabulary == first_occurrence_vocabulary(records)
    for n in (1, 2, 3, 8):
        assert dict(ngrams(corpus, n).entries) == sliding_window_ngrams(records, n)


class TestFrequencyTable:
    def test_zero_counts_dropped(self):
        table = FrequencyTable({"a": 2, "b": 0})
        assert "b" not in table
        assert table.total == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            FrequencyTable({"a": -1})

    def test_total_is_sum(self):
        table = FrequencyTable.from_items(["x", "y", "x", "z", "x"])
        assert table.total == sum(table.entries.values()) == 5
        assert table["x"] == 3
        assert table.get("missing") == 0


# --- fingerprint payloads against json.dumps ------------------------------------

# Characters json escapes or that NFC changes: quotes, backslash, controls,
# line and paragraph separators, non-BMP, and decomposed forms.
_fingerprint_text = st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029",
                     "\U0001F600", "e\u0301", "A\u030a", "\u1100\u1161", "\ufeff", " "])
    | st.characters(codec="utf-8"),
    max_size=12,
).map("".join)


def _record_fingerprint_payload(record: Record) -> bytes:
    """The json.dumps payload writer the corpus module used before Record
    checked its field types."""
    canon = {
        "id": record.id,
        "text": _normalize_for_fingerprint(record.text),
        "attributes": dict(sorted(record.attributes.items())) if record.attributes else None,
        "timestamp": record.timestamp,
    }
    return json.dumps(canon, sort_keys=True, ensure_ascii=False).encode("utf-8")


@st.composite
def ingest_shaped_records(draw):
    attributes = draw(st.none() | st.dictionaries(_fingerprint_text, _fingerprint_text, max_size=4))
    if attributes:  # out of order, as a JSON object may list them
        keys = draw(st.permutations(list(attributes)))
        attributes = {k: attributes[k] for k in keys}
    timestamp = draw(st.none() | st.integers(-2**70, 2**70)
                     | st.sampled_from([0, -1, 10**30, -10**30]))
    return Record(id=draw(_fingerprint_text), text=draw(_fingerprint_text),
                  attributes=attributes, timestamp=timestamp)


@settings(max_examples=300, deadline=None)
@given(st.lists(ingest_shaped_records(), max_size=5, unique_by=lambda r: r.id))
def test_direct_fingerprint_payload_matches_json_dumps(records):
    oracle = hashlib.sha256()
    for record in records:
        payload = _record_fingerprint_payload(record)
        assert _fingerprint_payload(record) == payload
        oracle.update(len(payload).to_bytes(8, "big"))
        oracle.update(payload)
    assert Corpus(records).fingerprint == oracle.hexdigest()


# --- the JSONL reader against the reader that restated Record's rules ----------


def parent_read_jsonl(stream):
    """_read_jsonl as it was when it checked each field rule itself, before
    it left them to Record; the oracle for the reader that builds a Record."""
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
        try:
            rid = str(line_no) if obj.get("id") is None else record_id(obj["id"])
        except ValueError as exc:
            errors.append(IngestError(line_no, str(exc)))
            continue
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


# JSON strings, some holding a lone surrogate, which json.dumps writes as a
# "\udXXX" escape unless the line is written with ensure_ascii off.
_json_text = st.lists(
    st.sampled_from(["a", "b", "c", "7", " ", "é", "ab", "xy", "\ud800", "\udfff"]), max_size=2,
).map("".join)
_json_scalar = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | _json_text
_json_value = (_json_scalar | st.lists(_json_scalar, max_size=2)
               | st.dictionaries(_json_text, _json_text, max_size=2)
               | st.dictionaries(_json_text, _json_scalar, max_size=2))


def _mostly(good, other=_json_value):
    """A draw from good three times in four, otherwise from other."""
    return st.tuples(good, other, st.integers(0, 3)).map(lambda t: t[1] if t[2] == 0 else t[0])


_json_object = st.fixed_dictionaries({"text": _mostly(_json_text)}, optional={
    "id": _mostly(st.sampled_from(["a", "b", "1", "2"]) | st.integers(1, 3)),
    "attributes": _mostly(st.dictionaries(_json_text, _json_text, max_size=2)),
    "timestamp": _mostly(st.integers(-2**70, 2**70)),
})
_jsonl_line = _mostly(st.builds(json.dumps, _json_object, ensure_ascii=st.booleans()),
                      st.sampled_from(["", "  ", "{bad"])
                      | st.builds(json.dumps, _json_value, ensure_ascii=st.booleans()))


def _field_faults(obj) -> tuple[int, bool]:
    """How many of Record's type rules obj breaks, and whether a string field
    that passes them holds a lone surrogate."""
    if not isinstance(obj, dict):
        return 1, False
    rid, text = obj.get("id"), obj.get("text")
    attrs, ts = obj.get("attributes"), obj.get("timestamp")
    bad_id = rid is not None and (isinstance(rid, bool) or not isinstance(rid, (str, int)))
    bad_text = not isinstance(text, str)
    bad_attrs = attrs is not None and not (isinstance(attrs, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()))
    bad_ts = ts is not None and (isinstance(ts, bool) or not isinstance(ts, int))
    strings = [s for s in (rid, text) if isinstance(s, str)]
    if isinstance(attrs, dict):
        strings += [s for kv in attrs.items() for s in kv if isinstance(s, str)]
    return bad_id + bad_text + bad_attrs + bad_ts, any(map(_NOT_UTF8.search, strings))


@settings(max_examples=300, deadline=None)
@given(st.lists(_jsonl_line, max_size=8))
def test_read_jsonl_matches_the_rule_by_rule_reader(lines):
    text = "".join(line + "\n" for line in lines)
    records, errors = _read_jsonl(io.StringIO(text))
    want_records, want_errors = parent_read_jsonl(io.StringIO(text))
    assert records == want_records
    assert [e.line for e in errors] == [e.line for e in want_errors]
    reasons = {e.line: e.reason for e in errors}
    for e in want_errors:
        line = lines[e.line - 1]
        raw = _NOT_UTF8.search(line) or line == "{bad"  # refused before it is decoded
        faults, surrogate = (0, False) if raw else _field_faults(json.loads(line))
        if faults + surrogate > 1:
            continue  # either fault may name the line
        if surrogate:
            raw_id = json.loads(line).get("id")
            rid = str(e.line) if raw_id is None else str(raw_id)
            assert reasons[e.line] == (f"record {rid!r} holds a lone surrogate, "
                                       "which UTF-8 cannot encode")
        else:
            assert reasons[e.line] == e.reason


# --- the scanner fast path against json.loads on every line ------------------------

# JSON whitespace, which json.loads skips around a value; characters str.strip()
# also strips, which it refuses; a BOM; and a no-break space.
_line_edge = st.sampled_from([" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x1f", "\x85", "\ufeff", "\xa0"])
_odd_json = st.sampled_from([
    "{bad", "{}", "[1,]", '"open', '{"text": "a"} x', '{"text": "a"}{}', '{"text": "a"}\x0b{}',
    "NaN", "-Infinity", '{"text": "a", "timestamp": NaN}', '{"text": Infinity}',
    '{"text": "a", "timestamp": ' + "9" * 5000 + "}", "-" + "1" * 4301,
    "[" * 50 + "]" * 50, '{"text": "a", "x": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"text": "\\ud800"}', '{"text": "a\\u0000b"}', '{"text": "tab\there"}',
])
_framed_line = st.tuples(
    st.lists(_line_edge, max_size=2).map("".join),
    _mostly(st.builds(json.dumps, _json_object, ensure_ascii=st.booleans()),
            _odd_json | st.builds(json.dumps, _json_value, ensure_ascii=st.booleans())),
    st.lists(_line_edge, max_size=2).map("".join),
).map("".join)


def _decoded(decode, line):
    try:
        return repr(decode(line))  # repr tells -0.0 from 0.0, and shows NaN
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.lists(_framed_line, max_size=6))
@example(["\x0b{}", "{}\x0c", '\ufeff{"text": "a"}', '{"text": "a"}\x85', ' {"text": "a"}\t\r'])
def test_scanner_fast_path_matches_json_loads(lines):
    for line in lines:
        assert _decoded(_decode_record_line, line) == _decoded(decode_json_line, line)
    text = "".join(line + "\n" for line in lines)
    with mock.patch.object(corpus_module, "_decode_record_line", decode_json_line):
        want = _read_jsonl(io.StringIO(text))
    assert _read_jsonl(io.StringIO(text)) == want


@pytest.mark.parametrize("n", [True, 2.0, 1.0, "2", None])
def test_ngram_size_that_is_not_an_int_is_refused(n):
    from dmeter.diversity import ngram_diversity

    corpus = make_corpus(["a b a", "b"])
    corpus.ngram_counts(1)  # True == 1: a cached table must not answer for True
    routes = (lambda: ngrams(corpus, n), lambda: corpus.ngram_counts(n),
              lambda: ngram_diversity(corpus, n))
    for route in routes:
        with pytest.raises(ValueError) as info:
            route()
        assert str(info.value) == f"n must be an integer, got {n!r}"
