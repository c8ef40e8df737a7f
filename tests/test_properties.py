"""Property tests for the report format (the canonical-JSON writer, the
non-finite encoding and the blocking-flag rule that decides comparability),
for the bounds of association and distance measures, for ingest on
arbitrary bytes, and for the line reader that ingest shares with the
logprob, embedding and target files, for the translation and
power-of-two scale invariance of the embedding measures and of the mean,
for whole reports that no renaming of record ids moves, and that a shuffle
of the records moves only where the order is read by design, and for the
report of a corpus with no tokens."""

import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dmeter.corpus as corpus_module
from dmeter.association import build_cooccurrence, npmi, top_npmi
from dmeter.cli import _read_targets
from dmeter.corpus import DEFAULT_TOKENIZER, FORMATS, Corpus, IngestError, Record, ingest
from dmeter.density import data_density, knn_density
from dmeter.distance import Distribution, emd_discrete, kl_divergence
from dmeter.diversity import embedding_dispersion, vendi_score
from dmeter.report import (
    METRIC_FAMILIES,
    SCHEMA_VERSION,
    MeasurementReport,
    _ReportBuilder,
    _sanitize,
    assemble_report,
    compare,
    is_blocking,
    parse_report,
    serialize_report,
)
from dmeter.tendency import perplexity_from_logprobs, summarize
from dmeter.vectors import EmbeddingMatrix, cosine_matrix, euclidean_matrix, load_embeddings

BLOCKING = ("error:internal", "error:argument", "skipped:no-embeddings",
            "infinite", "negative-infinite", "undefined")
INFORMATIONAL = ("low-confidence", "alpha-boundary", "singleton-convention",
                 "partial-coverage", "undefined:variance", "infinite:std",
                 "negative-infinite:min")

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalar = st.one_of(st.none(), st.booleans(), st.integers(), any_float, text)
nested = st.recursive(
    scalar,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=12,
)
# Report values as measurements return them: scalars, flat dicts and lists.
measured = st.one_of(
    st.one_of(st.none(), st.integers(), any_float),
    st.dictionaries(text, st.one_of(st.none(), st.integers(), any_float), max_size=4),
    st.lists(st.one_of(st.integers(), any_float), max_size=4),
)
numeric = st.one_of(st.integers(-10**12, 10**12), finite)
comparable_value = st.one_of(
    numeric,
    st.dictionaries(text, numeric, min_size=1, max_size=4),
)
flag_sets = st.lists(st.sampled_from(BLOCKING + INFORMATIONAL), max_size=3, unique=True)


def _report(measurements):
    return MeasurementReport(
        schema_version=SCHEMA_VERSION,
        corpus_fingerprint="f" * 64,
        tokenizer_config={"mode": "unicode-word", "case_fold": True},
        created_at="2026-01-01T00:00:00Z",
        measurements=measurements,
    )


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _non_finite(v):
    return isinstance(v, float) and not math.isfinite(v)


@settings(deadline=None)
@given(nested)
def test_sanitize_leaves_no_non_finite_float(value):
    flags = []
    out = _sanitize(value, flags)
    assert not any(map(_non_finite, _leaves(out)))
    assert len(flags) == sum(v is None or _non_finite(v) for v in _leaves(value))


@settings(deadline=None)
@given(st.dictionaries(text, measured, max_size=5))
def test_serialize_parse_serialize_is_byte_identical(values):
    builder = _ReportBuilder()
    for name, value in values.items():
        builder.add(name, "u", {"name": name}, lambda value=value: value)
    first = serialize_report(_report(builder.measurements))
    assert serialize_report(parse_report(io.StringIO(first))) == first


@settings(deadline=None)
@given(st.dictionaries(text, st.tuples(comparable_value, flag_sets), max_size=6))
def test_self_compare_is_zero_except_blocked_entries(entries):
    rep = _report({
        name: {"value": value, "unit": "u", "params": {}, "flags": sorted(flags),
               "provenance": "self-contained"}
        for name, (value, flags) in entries.items()
    })
    delta = compare(rep, rep)
    blocked = {name for name, (_, flags) in entries.items() if any(map(is_blocking, flags))}
    incomparable = {name for name, e in delta.entries.items() if not e["comparable"]}
    assert incomparable == blocked
    assert delta.n_incomparable == len(blocked)
    for entry in delta.entries.values():
        if entry["comparable"]:
            for d in entry["deltas"].values():
                assert d["absolute"] == 0.0
                assert d["relative"] in (0.0, None)
        else:
            assert entry["reason"] == "value-flagged"


def test_blocking_rule_on_known_flags():
    assert all(is_blocking(f) for f in BLOCKING)
    assert not any(is_blocking(f) for f in INFORMATIONAL)


# --- association and distance bounds ---------------------------------------------

words = st.lists(st.sampled_from("abcdef"), max_size=6)
smoothing = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@settings(deadline=None)
@given(st.lists(words, min_size=1, max_size=12), smoothing,
       st.sampled_from(["document", "window"]), st.integers(1, 4))
@example([[], ["a", "b"], ["a", "b"]], 0.5, "document", 1)  # 1 + 2**-52 without the cap
def test_npmi_and_top_npmi_lie_in_unit_interval(docs, alpha, mode, window):
    corpus = Corpus([Record(id=str(i), text=" ".join(d)) for i, d in enumerate(docs)])
    table = build_cooccurrence(corpus, context_mode=mode,
                               window_size=window if mode == "window" else None)
    terms = sorted(table.term_counts)
    for i, x in enumerate(terms):
        for y in terms[i + 1:]:
            assert -1.0 <= npmi(table, x, y, alpha) <= 1.0
        assert all(-1.0 <= score <= 1.0 for _, score, _ in top_npmi(table, x, 10, alpha))


@st.composite
def distributions(draw, support=st.sampled_from("abcdefgh")):
    items = draw(st.lists(support, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(0, 20), min_size=len(items), max_size=len(items)))
    if not any(weights):
        weights[0] = 1
    return Distribution.from_counts(dict(zip(items, weights)))


@settings(deadline=None)
@given(distributions(), distributions(), st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 1.0]))
def test_kl_divergence_is_non_negative(p, q, alpha):
    assert kl_divergence(p, q, alpha) >= 0.0
    assert kl_divergence(p, p, alpha) >= 0.0


@settings(deadline=None)
@given(distributions(st.integers(-5, 5)), distributions(st.integers(-5, 5)),
       st.sampled_from([lambda a, b: abs(a - b), lambda a, b: (a - b) ** 2,
                        lambda a, b: float(a != b)]))
def test_emd_discrete_is_symmetric_under_a_symmetric_cost(p, q, cost):
    # Equal up to rounding: HiGHS sums the objective in an order that depends
    # on which side is the rows, and test_distance pins emd_discrete to that
    # objective bit for bit, so the last bits may differ.
    assert emd_discrete(p, q, cost) == pytest.approx(emd_discrete(q, p, cost),
                                                     rel=1e-12, abs=1e-15)


# --- ingest on arbitrary bytes ------------------------------------------------------

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
json_line = st.fixed_dictionaries(
    {}, optional={"id": json_value, "text": json_value, "timestamp": json_value,
                  "attributes": json_value},
).map(lambda obj: json.dumps(obj).encode("ascii"))
any_line = st.one_of(st.binary(max_size=60), json_line,
                     st.sampled_from([b"", b'"', b'"a,b', b"a,1", b'{"text": "t", "id": "1"}']))


@settings(deadline=None)
@given(st.sampled_from(FORMATS), st.lists(any_line, max_size=8),
       st.sampled_from([b"\n", b"\r\n", b"\r"]))
def test_ingest_never_raises_on_arbitrary_line_bytes(fmt, lines, newline):
    header = b"id,text,timestamp" + newline if fmt == "csv" else b""
    data = header + newline.join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus")
        with open(path, "wb") as fh:
            fh.write(data)
        corpus = ingest(path, format=fmt)
    n_lines = len(data.splitlines())
    assert all(isinstance(e, IngestError) and 1 <= e.line <= n_lines
               for e in corpus.ingest_errors)
    assert corpus.n_records + len(corpus.ingest_errors) <= n_lines


# --- one line reader for the corpus and the side files -------------------------------

# str.splitlines() also ends a line at each of these; a file dmeter reads does not.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
side_rows = st.lists(st.tuples(st.text(st.sampled_from(SPLITLINES_ONLY), max_size=3),
                               st.sampled_from(["\n", "\r\n", "\r"])), min_size=1, max_size=6)


def _side_files(rows):
    """(line, ending) pairs of a target, a logprob and an embedding file with
    one line per row, each holding the row's separators."""
    keys = [f"r{i}{seps}x" for i, (seps, _) in enumerate(rows)]
    ends = [end for _, end in rows]
    return {
        "targets": list(zip(keys, ends)),
        "logprobs": [(json.dumps({"id": k, "logprob": -1.0, "n_tokens": 1}, ensure_ascii=False), e)
                     for k, e in zip(keys, ends)],
        "embeddings": [(f"{len(rows)} 1", "\n")]
                      + [(f"r{i}{seps} {i}", e) for i, (seps, e) in enumerate(rows)],
    }


def _embedding_rows(path):
    emb = load_embeddings(path)
    return [(label, float(row[0])) for label, row in zip(emb.labels, emb.matrix)]


SIDE_READERS = {
    "targets": lambda path: _read_targets(path, DEFAULT_TOKENIZER),
    "logprobs": lambda path: list(perplexity_from_logprobs(path).per_record),
    "embeddings": _embedding_rows,
}
# What each side reader makes of the lines ingest(format="plaintext") reads.
FROM_PLAINTEXT = {
    "targets": lambda texts: texts,
    "logprobs": lambda texts: [json.loads(t)["id"] for t in texts],
    "embeddings": lambda texts: [(t.split()[0], float(t.split()[1])) for t in texts[1:]],
}


@settings(deadline=None)
@given(side_rows, st.integers(0, 10))
@example([("\u2028", "\n"), ("\x85\x0c", "\r\n"), ("\x0b\x1c\x1d\x1e\u2029", "\r")], 1)
@example([("\u2028", "\n")], 0)
def test_side_readers_see_the_lines_ingest_sees(rows, bad):
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in _side_files(rows).items():
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write("".join(t + e for t, e in lines).encode("utf-8"))
            plain = ingest(path, format="plaintext")
            assert len(plain.records) == len(lines)
            texts = [r.text for r in plain.records]
            assert SIDE_READERS[name](path) == FROM_PLAINTEXT[name](texts)

            # A byte that is not UTF-8 on one line: each reader names the line ingest names.
            k = bad % len(lines)
            with open(path, "wb") as fh:
                fh.write(b"".join((b"\xff" if i == k else b"") + (t + e).encode("utf-8")
                                  for i, (t, e) in enumerate(lines)))
            assert [e.line for e in ingest(path, format="plaintext").ingest_errors] == [k + 1]
            prefix = "logprob file " if name == "logprobs" else ""
            with pytest.raises(ValueError, match=f"^{prefix}line {k + 1}: not valid UTF-8$"):
                SIDE_READERS[name](path)


# --- invariance ----------------------------------------------------------------
# Integer rows below 2**41 and their differences are exact, so a translation
# moves no digit of a distance or an extent.  Scaling by a power of two is
# exact while every value, square and product stays normal: entries of
# magnitude 0 or in [2**-20, 2**20], times 2**k for |k| <= 440, keep each
# square within [2**-960, 2**960].

def _int_rows(data, n, d, label):
    rows = st.lists(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d),
                    min_size=n, max_size=n)
    return np.array(data.draw(rows, label=label), dtype=np.float64)


def _offset(data, d):
    offsets = st.lists(st.integers(-(2**40) + 1, 2**40 - 1), min_size=d, max_size=d)
    return np.array(data.draw(offsets, label="offset"), dtype=np.float64)


_normal_entry = st.one_of(
    st.just(0.0),
    st.floats(2.0 ** -20, 2.0 ** 20).flatmap(lambda x: st.sampled_from([x, -x])),
)
_exponent = st.integers(-440, 440)


def _float_rows(data, n, d, label):
    rows = st.lists(st.lists(_normal_entry, min_size=d, max_size=d)
                    .filter(lambda row: any(row)), min_size=n, max_size=n)
    return np.array(data.draw(rows, label=label), dtype=np.float64)


def _emb(matrix):
    return EmbeddingMatrix([f"r{i}" for i in range(len(matrix))], matrix)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_euclidean_matrix_is_translation_invariant(data):
    d = data.draw(st.integers(1, 4), label="d")
    a = _int_rows(data, data.draw(st.integers(1, 5), label="n_a"), d, "a")
    b = _int_rows(data, data.draw(st.integers(1, 5), label="n_b"), d, "b")
    offset = _offset(data, d)
    assert euclidean_matrix(a + offset, b + offset).tolist() == euclidean_matrix(a, b).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_data_density_is_translation_invariant(data):
    d = data.draw(st.integers(1, 4), label="d")
    matrix = _int_rows(data, data.draw(st.integers(2, 8), label="n"), d, "rows")
    # A zero extent is widened relative to the coordinate, which moves with the offset.
    assume((matrix.max(axis=0) > matrix.min(axis=0)).all())
    offset = _offset(data, d)
    assert (data_density(_emb(matrix + offset)).log_density
            == data_density(_emb(matrix)).log_density)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_embedding_measures_are_power_of_two_scale_invariant(data):
    n = data.draw(st.integers(2, 8), label="n")
    matrix = _float_rows(data, n, data.draw(st.integers(1, 4), label="d"), "rows")
    k = data.draw(_exponent, label="k")
    emb, scaled = _emb(matrix), _emb(np.ldexp(matrix, k))
    assert vendi_score(scaled) == vendi_score(emb)
    knn = data.draw(st.integers(1, n - 1), label="knn_k")
    here, there = knn_density(emb, knn), knn_density(scaled, knn)
    assert (there.global_density, there.per_point_density) == (
        here.global_density, here.per_point_density)
    assert embedding_dispersion(scaled) == math.ldexp(embedding_dispersion(emb), k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cosine_matrix_is_power_of_two_scale_invariant(data):
    d = data.draw(st.integers(1, 4), label="d")
    a = _float_rows(data, data.draw(st.integers(1, 4), label="n_a"), d, "a")
    b = _float_rows(data, data.draw(st.integers(1, 4), label="n_b"), d, "b")
    j, k = data.draw(_exponent, label="j"), data.draw(_exponent, label="k")
    assert cosine_matrix(np.ldexp(a, j), np.ldexp(b, k)).tolist() == cosine_matrix(a, b).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(_normal_entry, min_size=1, max_size=12), _exponent)
def test_summarize_mean_scales_with_a_power_of_two(values, k):
    # std does not: _central_sums squares with `d ** 2`, and libm's pow is not
    # correctly rounded, so its last bit can move with the scale.
    here = summarize(values)
    assert summarize([math.ldexp(v, k) for v in values]).mean == math.ldexp(here.mean, k)


# --- whole reports under a renaming of record ids ---------------------------------


_report_words = st.sampled_from(["the", "cat", "sat", "on", "a", "mat", "dog", "ran",
                                 "quietly", "The", "beautiful", "x"])
_report_text = st.builds(
    lambda sentences: " ".join(" ".join(words) + end for words, end in sentences),
    st.lists(st.tuples(st.lists(_report_words, max_size=8), st.sampled_from([".", "!", "?", ""])),
             max_size=3),
)
_report_ids = st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                       min_size=1, max_size=8, unique=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_renaming_record_ids_moves_no_report_value_or_flag(data):
    ids = data.draw(_report_ids, label="ids")
    n = len(ids)
    renamed = data.draw(_report_ids.filter(lambda new: len(new) == n), label="renamed")
    texts = data.draw(st.lists(_report_text, min_size=n, max_size=n), label="texts")
    stamps = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 10**6)),
                                min_size=n, max_size=n), label="timestamps")
    sources = data.draw(st.lists(st.sampled_from([None, "web", "news"]), min_size=n, max_size=n),
                        label="sources")
    rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")) \
        .standard_normal((n, 3))
    config = {"lm_order": 2, "burstiness_token": "the", "diversity_attribute": "source"}

    def report(names):
        records = [Record(id=i, text=t, timestamp=ts, attributes=src and {"source": src})
                   for i, t, ts, src in zip(names, texts, stamps, sources)]
        rep = assemble_report(Corpus(records), METRIC_FAMILIES, config=config,
                              embeddings=EmbeddingMatrix(names, rows),
                              created_at="2026-01-01T00:00:00Z")
        return {name: (e["value"], e["flags"]) for name, e in rep.measurements.items()}

    assert report(renamed) == report(ids)


# --- whole reports of a corpus joined with a copy of itself -----------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(_report_text, min_size=1, max_size=8))
def test_a_corpus_joined_with_its_copy_keeps_its_shares_and_halves_its_diversity(texts):
    n = len(texts)
    records = [Record(id=f"a{i}", text=t) for i, t in enumerate(texts)]
    copies = [Record(id=f"b{i}", text=t) for i, t in enumerate(texts)]

    def entries(records):
        rep = assemble_report(Corpus(records), ["tendency", "diversity", "quality"],
                              created_at="2026-01-01T00:00:00Z")
        return {name: (e["value"], e["flags"]) for name, e in rep.measurements.items()}

    here, joined = entries(records), entries(records + copies)
    # Every type's share of the tokens is the same.
    for name in ("token_entropy", "token_gini"):
        assert joined[name] == here[name]
    # Twice the n-grams, and no new distinct one.
    ngram_entries = [name for name in here if name.startswith("ngram_diversity_")]
    assert ngram_entries and ngram_entries == [
        name for name in joined if name.startswith("ngram_diversity_")]
    for name in ngram_entries:
        value, flags = here[name]
        assert joined[name] == ((None if value is None else value / 2), flags)
    # Each record's text is the copy's.
    dup, dup_joined = here["duplicates_exact"][0], joined["duplicates_exact"][0]
    assert dup_joined["n_distinct"] == dup["n_distinct"]
    assert dup_joined["excess_duplicates"] == dup["excess_duplicates"] + n


# --- whole reports under a shuffle of the records ---------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shuffling_the_records_moves_no_report_value_but_the_stream_order_ones(data):
    # The record blocks the text layers take move with the record order, and
    # no value may move with them.  burstiness_token_* reads the token stream
    # in record order, by design.  perplexity_self sums the records'
    # log-probabilities in record order, so its corpus value may move by the
    # rounding of that sum: each record's sum keeps its bits, and the sum of
    # n values of one sign carries a relative error below (n - 1) * 2**-52.
    texts = data.draw(st.lists(_report_text, min_size=1, max_size=8), label="texts")
    n = len(texts)
    order = data.draw(st.permutations(range(n)), label="order")
    stamps = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 10**6)),
                                min_size=n, max_size=n), label="timestamps")
    sources = data.draw(st.lists(st.sampled_from([None, "web", "news"]), min_size=n, max_size=n),
                        label="sources")
    config = {"lm_order": data.draw(st.sampled_from([1, 2]), label="lm_order"),
              "burstiness_token": "the", "diversity_attribute": "source"}
    records = [Record(id=str(i), text=t, timestamp=ts, attributes=src and {"source": src})
               for i, (t, ts, src) in enumerate(zip(texts, stamps, sources))]
    block = data.draw(st.sampled_from([1, 3, 8, corpus_module._TOKEN_BLOCK]), label="block")

    def report(records):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
            rep = assemble_report(Corpus(records), ["tendency", "diversity", "quality"],
                                  config=config, created_at="2026-01-01T00:00:00Z")
        return {name: (e["value"], e["flags"]) for name, e in rep.measurements.items()}

    here, shuffled = report(records), report([records[i] for i in order])
    assert shuffled.keys() == here.keys()
    for name in here:
        if name.startswith("burstiness_token_"):
            continue
        if name == "perplexity_self" and here[name][0] is not None:
            (value, flags), (moved, moved_flags) = here[name], shuffled[name]
            assert moved_flags == flags
            assert math.isclose(moved, value, rel_tol=1e-12, abs_tol=0.0), (moved, value)
            continue
        assert shuffled[name] == here[name], name


# --- whole reports of a corpus whose records hold no tokens -----------------------


_no_token_text = st.text(st.sampled_from(" \t\n.,;:!?-—\"'()"), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_no_token_text, max_size=6), st.sampled_from([1, 2]))
@example(["", "..."], 1)
@example([], 2)  # no records
def test_a_corpus_with_no_tokens_gives_no_error_entry(texts, lm_order):
    records = [Record(id=str(i), text=t) for i, t in enumerate(texts)]
    corpus = Corpus(records)
    assert corpus.total_tokens == 0
    rep = assemble_report(corpus, ["tendency", "diversity", "quality"],
                          config={"lm_order": lm_order, "burstiness_token": "the"},
                          created_at="2026-01-01T00:00:00Z")
    errors = {name: e.get("note") for name, e in rep.measurements.items()
              if any(flag.startswith("error:") for flag in e["flags"])}
    assert not errors
    # Every entry that needs tokens says so.
    for name in ("token_count_stats", "zipf", "perplexity_self", "token_entropy", "token_gini",
                 "ngram_diversity_1", "ngram_diversity_2", "flesch_reading_ease"):
        assert rep.measurements[name]["flags"] == ["undefined"], name
    assert rep.measurements["burstiness_token_the"]["flags"] == [
        "skipped:needs-at-least-3-occurrences-of-the-token"]
    # And every entry that summarizes the records, where there are none.
    if not records:
        for name in ("record_length_tokens", "duplicates_exact", "duplicates_normalized",
                     "redundancy_entropy"):
            assert rep.measurements[name]["flags"] == ["undefined"], name
            assert rep.measurements[name]["note"] == "corpus has no records", name
