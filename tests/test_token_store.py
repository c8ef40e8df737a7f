"""The integer-id token store and the array routes that read it, each against
the per-token Python loop it replaced, kept here as the oracle."""

import itertools
import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmeter.association as association_module
import dmeter.corpus as corpus_module
from dmeter.association import build_cooccurrence, top_npmi
from dmeter.corpus import (
    TOKENIZER_MODES,
    Corpus,
    Record,
    TokenizerConfig,
    _blocks,
    _distinct,
    ngram_windows,
    ngrams,
    tokenize,
)
from dmeter.diversity import ngram_diversity
from dmeter.errors import UndefinedValueError
from dmeter.quality import (
    FleschReport,
    _word_and_syllable_counts,
    count_syllables,
    flesch_reading_ease,
)
from dmeter.tendency import (
    _NO_TOKENS,
    BOS,
    _aggregate,
    _bigram_table,
    _check_training,
    _logprob_rows,
    _self_perplexity,
    _smoothed,
    perplexity,
    summarize,
    token_recurrence_gaps,
    train_lm,
)

# Few distinct characters, so tokens repeat; case pairs, sentence marks,
# whitespace, and non-ASCII letters whose lowercase differs in length.
ALPHABET = list("aAbB c.!?\t\n") + ["É", "é", "ß", "İ", "̇", "ǅ", "1", "_"]
texts = st.text(alphabet=st.sampled_from(ALPHABET), max_size=24)
configs = st.builds(TokenizerConfig, st.sampled_from(TOKENIZER_MODES), st.booleans())


def corpus_of(texts, config=TokenizerConfig()):
    return Corpus([Record(id=str(i), text=t) for i, t in enumerate(texts)], config)


# --- the loops the id store replaced ---------------------------------------------


def loop_tokenize(text, config):
    """Split, then fold each token: tokenize before it folded ASCII text whole."""
    if config.mode == "unicode-word":
        tokens = re.findall(r"\w+", text)
    elif config.mode == "whitespace":
        tokens = text.split()
    else:
        tokens = [ch for ch in text if not ch.isspace()]
    return [t.lower() for t in tokens] if config.case_fold else tokens


def loop_ngrams(corpus, n):
    counts = Counter()
    for toks in corpus.iter_record_tokens():
        if len(toks) >= n:
            counts.update(zip(*(toks[i:] for i in range(n))))
    return counts


def loop_bigram_lm_tables(corpus):
    nonempty = [toks for toks in corpus.iter_record_tokens() if toks]
    starts = Counter(toks[0] for toks in nonempty)
    ends = Counter(toks[-1] for toks in nonempty)
    unigram = dict(corpus.token_counts.entries)
    return starts, dict(Counter(unigram) + Counter({BOS: len(nonempty)}) - ends)


def loop_logprob_rows(lm, corpus):
    rows = {}
    for record, toks in zip(corpus.records, corpus.iter_record_tokens()):
        if not toks:
            continue
        logprob = 0.0
        prev = BOS
        for tok in toks:
            p = lm.prob(tok, prev) if lm.order == 2 else lm.prob(tok)
            if p <= 0.0:
                logprob = -math.inf
                break
            logprob += math.log(p)
            prev = tok
        rows[record.id] = (logprob, len(toks))
    return rows


def loop_cooccurrence(corpus, targets, context_mode, window_size):
    def contexts():
        for toks in corpus.iter_record_tokens():
            if context_mode == "document":
                yield toks
            elif len(toks) <= window_size:
                if toks:
                    yield toks
            else:
                for i in range(len(toks) - window_size + 1):
                    yield toks[i : i + window_size]

    target_set = None if targets is None else set(targets)
    pair_counts, term_counts, n_contexts = Counter(), Counter(), 0
    for ctx in contexts():
        n_contexts += 1
        present = sorted(set(ctx))
        term_counts.update(present)
        for i, x in enumerate(present):
            for y in present[i + 1 :]:
                if target_set is None or x in target_set or y in target_set:
                    pair_counts[(x, y)] += 1
    return dict(pair_counts), dict(term_counts), n_contexts


def loop_recurrence_gaps(corpus, token):
    stream = itertools.chain.from_iterable(corpus.iter_record_tokens())
    positions = [i for i, t in enumerate(stream) if t == token]
    return [float(b - a) for a, b in zip(positions, positions[1:])]


def loop_flesch_score(text):
    """One record's score, its words found again in its text."""
    words = re.findall(r"\w+", text)
    if not words:
        raise UndefinedValueError("no words; readability undefined")
    sentences = [p for p in re.split(r"[.!?]+(?:\s+|$)", text) if re.search(r"\w+", p)]
    if not sentences:
        raise UndefinedValueError("no sentences; readability undefined")
    syllables = sum(map(count_syllables, words))
    return 206.835 - 1.015 * (len(words) / len(sentences)) - 84.6 * (syllables / len(words))


def loop_flesch(corpus):
    """Per-record scores and skipped ids, each word's syllables counted where it occurs."""
    per_record, skipped = {}, []
    for record in corpus.records:
        try:
            per_record[record.id] = loop_flesch_score(record.text)
        except UndefinedValueError:
            skipped.append(record.id)
    return per_record, tuple(skipped)


# --- the store itself -------------------------------------------------------------


def test_store_is_built_once_on_first_read(monkeypatch):
    calls = []
    word_stream = corpus_module._word_stream
    monkeypatch.setattr(corpus_module, "_word_stream",
                        lambda texts, config: calls.append(texts) or word_stream(texts, config))
    corpus = corpus_of(["b a", "", "a c"])
    assert calls == [] and corpus.n_records == 3 and len(corpus.fingerprint) == 64
    assert corpus.ngram_counts(1) is corpus.token_counts
    assert calls == [["b a", "", "a c"]]
    assert corpus.vocabulary == ("b", "a", "c") and corpus.token_id("c") == 2
    assert corpus.token_ids is corpus.token_ids and corpus.total_tokens == 4
    assert len(calls) == 1


def test_store_tokenizes_only_non_ascii_records_one_by_one(monkeypatch):
    calls = []
    monkeypatch.setattr(corpus_module, "tokenize",
                        lambda text, config: calls.append(text) or tokenize(text, config))
    corpus = corpus_of(["B a", "Été, b", "", "a—c ß"])
    assert corpus.vocabulary == ("b", "a", "été", "c", "ß")
    assert calls == ["Été, b", "a—c ß"]


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=6), configs)
def test_store_rebuilds_each_records_tokens(record_texts, config):
    corpus = corpus_of(record_texts, config)
    expected = [tuple(loop_tokenize(t, config)) for t in record_texts]
    assert [tuple(tokenize(t, config)) for t in record_texts] == expected
    assert list(corpus.iter_record_tokens()) == expected
    assert np.diff(corpus.record_offsets).tolist() == [len(t) for t in expected]
    assert corpus.token_ids.dtype == np.int32 and corpus.record_offsets.dtype == np.int64
    assert [corpus.vocabulary[i] for i in corpus.token_ids] == [t for ts in expected for t in ts]
    assert all(corpus.token_id(t) == i for i, t in enumerate(corpus.vocabulary))


# Every ASCII code point, with more weight on the edges of the two rules: NUL
# and DEL, which \w separates and str.split() does not; \x0b, \x0c and
# \x1c-\x1f, which both separate; "_" and digits, which \w keeps.  Non-ASCII
# separators and punctuation stay under the byte table, so their records take
# the tokenize() fallback.
ASCII_CHARS = [chr(b) for b in range(128)]
EDGE_CHARS = list("\x00\x7f\x0b\x0c\x1c\x1d\x1e\x1f_09") + ["\xa0", "\x85", "\u2028", "\u3000",
                                                              "—", "«"]
byte_table_texts = st.one_of(
    st.text(alphabet=st.sampled_from(ASCII_CHARS) | st.sampled_from(EDGE_CHARS + ALPHABET),
            max_size=24),
    st.sampled_from(["", " ", "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ", "\xa0\u3000"]),
)


def loop_store(record_texts, config):
    """(vocabulary, ids, offsets, counts) from loop_tokenize, record by record."""
    token_lists = [loop_tokenize(t, config) for t in record_texts]
    stream = [tok for toks in token_lists for tok in toks]
    vocabulary = tuple(dict.fromkeys(stream))
    offsets = [0]
    for toks in token_lists:
        offsets.append(offsets[-1] + len(toks))
    return vocabulary, [vocabulary.index(t) for t in stream], offsets, Counter(stream)


@settings(max_examples=300, deadline=None)
@given(st.lists(byte_table_texts, max_size=8), st.booleans())
@example([], True)  # no records
@example(["", " \x00 ", "\x1f"], False)  # records, but no tokens
def test_byte_table_store_matches_the_loop(record_texts, case_fold):
    config = TokenizerConfig("unicode-word", case_fold)
    corpus = corpus_of(record_texts, config)
    vocabulary, ids, offsets, counts = loop_store(record_texts, config)
    assert corpus.vocabulary == vocabulary
    assert corpus.token_ids.tolist() == ids
    assert corpus.record_offsets.tolist() == offsets
    assert list(corpus.token_counts.entries.items()) == list(counts.items())
    assert corpus.total_tokens == len(ids)
    assert list(corpus.iter_record_tokens()) == [
        tuple(vocabulary[i] for i in ids[a:b]) for a, b in zip(offsets, offsets[1:])]
    assert [tokenize(t, config) for t in record_texts] == [
        loop_tokenize(t, config) for t in record_texts]


def test_store_arrays_are_read_only():
    corpus = corpus_of(["a b", "c"])
    for array in (corpus.token_ids, corpus.record_offsets):
        with pytest.raises(ValueError):
            array[0] = 1


# --- n-grams -----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=6), configs)
def test_ngrams_match_loop_in_first_occurrence_order(record_texts, config):
    corpus = corpus_of(record_texts, config)
    for n in (1, 2, 3, 4, 10**9):
        table = ngrams(corpus, n)
        if n == 1:
            assert dict(table.entries) == dict(corpus.token_counts.entries)
            continue
        oracle = loop_ngrams(corpus, n)
        assert list(table.entries.items()) == list(oracle.items())
        assert table.total == sum(oracle.values())


@pytest.mark.parametrize("n", [2, 9, 15])
def test_ngram_codes_past_int64_are_ranked_first(n):
    # 256 types: 256**8 == 2**64, so from n = 9 on a window's first token
    # would drop out of an unranked int64 code, and these windows would merge.
    words = [f"w{i}" for i in range(256)]
    tail = " ".join(words[10:24])
    record_texts = [" ".join(words), f"w1 {tail}", f"w2 {tail}", f"w1 {tail}", ""]
    rng = np.random.default_rng(7)
    record_texts += [" ".join(rng.choice(words, size=rng.integers(0, 40))) for _ in range(40)]
    corpus = corpus_of(record_texts)
    assert len(corpus.vocabulary) == 256
    assert list(ngrams(corpus, n).entries.items()) == list(loop_ngrams(corpus, n).items())


def assert_distinct_ngrams_match_table(corpus, n):
    table = ngrams(corpus, n)
    for denominator, size in (("total-ngrams", table.total), ("vocabulary", len(corpus.vocabulary))):
        if table.total:
            assert ngram_diversity(corpus, n, denominator) == len(table) / size
        else:
            with pytest.raises(UndefinedValueError, match=f"no {n}-grams"):
                ngram_diversity(corpus, n, denominator)


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=6), configs)
def test_distinct_ngrams_match_the_tuple_table(record_texts, config):
    corpus = corpus_of(record_texts, config)
    for n in (1, 2, 3, 4, 10**9):
        assert_distinct_ngrams_match_table(corpus, n)


@pytest.mark.parametrize("n", [2, 9, 15])
def test_distinct_ngram_codes_past_int64_match_the_tuple_table(n):
    words = [f"w{i}" for i in range(256)]
    tail = " ".join(words[10:24])
    record_texts = [" ".join(words), f"w1 {tail}", f"w2 {tail}", f"w1 {tail}", ""]
    rng = np.random.default_rng(7)
    record_texts += [" ".join(rng.choice(words, size=rng.integers(0, 40))) for _ in range(40)]
    assert_distinct_ngrams_match_table(corpus_of(record_texts), n)


# --- language model and perplexity -------------------------------------------------


def assert_perplexity_matches_loop(lm, corpus):
    rows = loop_logprob_rows(lm, corpus)
    assert _logprob_rows(lm, corpus) == rows
    if rows:
        assert perplexity(lm, corpus) == _aggregate(rows, "")
    else:
        with pytest.raises(UndefinedValueError, match="no tokens"):
            perplexity(lm, corpus)


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, min_size=1, max_size=6), st.lists(texts, max_size=6), configs,
       st.sampled_from([1, 2]), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_perplexity_matches_per_token_loop(train_texts, eval_texts, config, order, smoothing):
    train = corpus_of(train_texts, config)
    lm = train_lm(train, order, smoothing)
    assert_perplexity_matches_loop(lm, train)
    # Another corpus: unseen tokens and contexts go to OOV; smoothing 0 makes them infinite.
    assert_perplexity_matches_loop(lm, corpus_of(eval_texts, config))


def test_perplexity_of_an_oov_heavy_corpus_is_infinite_and_flagged():
    lm = train_lm(corpus_of(["a b a", "b"]), order=2, smoothing=0.0)
    other = corpus_of(["a c", "", "b a"])
    assert_perplexity_matches_loop(lm, other)
    assert perplexity(lm, other).flags == ("infinite",)


@pytest.mark.parametrize("order", [1, 2])
def test_long_records_sum_their_log_probabilities_in_token_order(order):
    # Hundreds of tokens per record: a pairwise sum would differ in the last bits.
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(50)]
    weights = 1.0 / np.arange(1, 51)
    weights /= weights.sum()

    def batch(n_records):
        return [" ".join(rng.choice(words, size=rng.integers(0, 600), p=weights))
                for _ in range(n_records)]

    train, other = corpus_of(batch(20)), corpus_of(batch(20) + ["unseen words here"])
    for smoothing in (0.0, 0.5):
        lm = train_lm(train, order, smoothing)
        assert_perplexity_matches_loop(lm, train)
        assert_perplexity_matches_loop(lm, other)


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, min_size=1, max_size=6), configs)
def test_bigram_lm_starts_and_contexts_match_loop(record_texts, config):
    corpus = corpus_of(record_texts, config)
    lm = train_lm(corpus, order=2)
    starts, contexts = loop_bigram_lm_tables(corpus)
    assert lm.context_counts == contexts
    assert {tok: c for (ctx, tok), c in lm.bigram_counts.items() if ctx == BOS} == starts


# Some records of hundreds of tokens, where a pairwise sum would differ in the last bits.
long_texts = st.lists(st.sampled_from(["ab", "c", "é", "ß", "a1"]), min_size=100,
                      max_size=600).map(" ".join)


def outcome_of(compute):
    """compute()'s result, or the type and message of the error it raises."""
    try:
        return compute()
    except (ValueError, UndefinedValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(texts | long_texts, max_size=6), configs, st.sampled_from([1, 2]),
       st.sampled_from([0.0, 0.5, 1.0, 1e-3, 1e308]))
@example([], TokenizerConfig(), 2, 1.0)  # no records
@example(["", "..."], TokenizerConfig(), 2, 0.0)  # records, but no tokens
def test_self_perplexity_matches_the_general_route(record_texts, config, order, smoothing):
    corpus = corpus_of(record_texts, config)
    want = outcome_of(lambda: perplexity(train_lm(corpus, order, smoothing), corpus))
    assert outcome_of(lambda: _self_perplexity(corpus, order, smoothing)) == want


# --- co-occurrence -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, min_size=1, max_size=6), configs, st.sampled_from(["document", "window"]),
       st.integers(1, 4), st.one_of(st.none(), st.lists(texts, min_size=1, max_size=3)),
       st.integers(0, 3))
def test_cooccurrence_matches_loop(record_texts, config, mode, window, extra, n_vocab_targets):
    corpus = corpus_of(record_texts, config)
    targets = None
    if extra is not None:
        targets = list(corpus.vocabulary[:n_vocab_targets]) + extra  # present and absent terms
    table = build_cooccurrence(corpus, targets, mode, window if mode == "window" else None)
    pairs, terms, n_contexts = loop_cooccurrence(corpus, targets, mode, window)
    assert table.pair_counts == pairs
    assert table.term_counts == terms
    assert table.n_contexts == n_contexts
    for term in corpus.vocabulary:
        co = sorted([b for a, b in pairs if a == term] + [a for a, b in pairs if b == term])
        assert table.co_terms(term) == co
        rows = top_npmi(table, term, k=len(corpus.vocabulary))
        assert sorted(r[0] for r in rows) == co
        assert rows == sorted(rows, key=lambda r: (-r[1], r[0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, min_size=1, max_size=6), configs, st.sampled_from(["document", "window"]),
       st.integers(1, 4), st.lists(st.integers(0, 9), min_size=1, max_size=4), texts)
def test_targeted_table_is_the_untargeted_one_restricted_to_targets(
        record_texts, config, mode, window, picks, absent):
    # A pair of two targets must still count once per context.
    corpus = corpus_of(record_texts, config)
    vocab = corpus.vocabulary
    targets = [vocab[i % len(vocab)] for i in picks] if vocab else []
    window = window if mode == "window" else None
    full = build_cooccurrence(corpus, None, mode, window)
    part = build_cooccurrence(corpus, targets + [absent], mode, window)
    wanted = set(targets) | {absent}
    assert part.pair_counts == {
        pair: c for pair, c in full.pair_counts.items() if wanted & set(pair)}
    assert part.term_counts == full.term_counts
    assert part.n_contexts == full.n_contexts


# --- recurrence gaps and readability -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, max_size=6), configs, texts)
def test_recurrence_gaps_match_loop(record_texts, config, absent):
    corpus = corpus_of(record_texts, config)
    for token in (*corpus.vocabulary, absent):
        assert token_recurrence_gaps(corpus, token) == loop_recurrence_gaps(corpus, token)


# Vowels for the syllable count; case pairs whose lowercase differs in length
# or depends on context (final sigma), titlecase digraphs; and records with no
# words, of punctuation only, or ending without a terminator.
FLESCH_ALPHABET = ALPHABET + list("eEoyY") + ["Σ", "σ", "ς", "ǈ", "ǋ", "ǲ"]
flesch_texts = st.one_of(
    st.text(alphabet=st.sampled_from(FLESCH_ALPHABET), max_size=40),
    st.sampled_from(["", " ", "...", "?! .", "Ab ce", "ΟΔΟΣ ΣΑΣ.", "ǅemal İyi eye"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(flesch_texts, min_size=1, max_size=6), configs)
def test_flesch_matches_per_record_scores(record_texts, config):
    corpus = corpus_of(record_texts, config)
    per_record, skipped = loop_flesch(corpus)
    if not per_record:
        with pytest.raises(UndefinedValueError, match="no scoreable records"):
            flesch_reading_ease(corpus)
        return
    expected = FleschReport(summarize(list(per_record.values())), per_record, skipped)
    assert flesch_reading_ease(corpus) == expected


def test_train_lm_builds_no_tuple_keyed_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tuple-keyed n-gram table was built")

    train, other = corpus_of(["a b a c", "", "c a b", "b"]), corpus_of(["a b", "d a", "c"])
    monkeypatch.setattr(corpus_module, "ngrams", refuse)
    for smoothing in (0.0, 1.0):
        lm = train_lm(train, 2, smoothing)
        assert_perplexity_matches_loop(lm, train)
        assert_perplexity_matches_loop(lm, other)


# --- chunked builds ------------------------------------------------------------------
# The chunk constants hold every example above in one chunk.  These tests shrink
# them to one and to a few units, so each example spans many chunks.

CHUNK_SIZES = [1, 2, 5, 13]
# The record-block constant: one, a few tokens, and its own value.
TOKEN_BLOCKS = [1, 2, 3, corpus_module._TOKEN_BLOCK]


def loop_blocks(sizes, limit):
    """Greedy blocks: a block takes the next item while its sum stays within
    limit, and always takes its first item."""
    blocks, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > limit:
            blocks.append((start, i))
            start, total = i, 0
        total += size
    return blocks + [(start, len(sizes))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=12), st.integers(1, 12))
@example([], 3)  # no items: one empty block
@example([0, 0, 4, 0, 1, 20, 0, 0], 4)  # zero sizes at the edges, an item past the limit
def test_blocks_match_the_greedy_loop(sizes, limit):
    assert list(_blocks(np.array(sizes, dtype=np.int64), limit)) == loop_blocks(sizes, limit)


def test_store_tokenizes_a_chunk_at_a_time(monkeypatch):
    calls = []
    word_stream = corpus_module._word_stream
    monkeypatch.setattr(corpus_module, "_word_stream",
                        lambda texts, config: calls.append(texts) or word_stream(texts, config))
    monkeypatch.setattr(corpus_module, "_STORE_CHUNK_CHARS", 4)
    corpus = corpus_of(["b a", "", "c a b e", "", "d", "e"])
    assert corpus.vocabulary == ("b", "a", "c", "e", "d")
    # A record longer than a chunk is a chunk of its own, even beside an empty record.
    assert calls == [["b a", ""], ["c a b e"], ["", "d", "e"]]
    assert corpus.token_ids.tolist() == [0, 1, 2, 1, 0, 3, 4, 3]
    assert corpus.record_offsets.tolist() == [0, 2, 2, 6, 6, 7, 8]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=150, deadline=None)
@given(record_texts=st.lists(texts | byte_table_texts, max_size=8), config=configs)
@example(record_texts=["a b", "c a", "d"], config=TokenizerConfig())  # types new in later chunks
@example(record_texts=["a", "", "", "b a", ""], config=TokenizerConfig("whitespace"))
@example(record_texts=[], config=TokenizerConfig("character"))  # no records
@example(record_texts=["", " . ", "!?"], config=TokenizerConfig())  # records, but no tokens
def test_chunked_store_matches_the_loop(chunk, record_texts, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_STORE_CHUNK_CHARS", chunk)
        corpus = corpus_of(record_texts, config)
        vocabulary, ids, offsets, counts = loop_store(record_texts, config)
        assert corpus.vocabulary == vocabulary
        assert corpus.token_ids.dtype == np.int32 and corpus.token_ids.tolist() == ids
        assert corpus.record_offsets.dtype == np.int64 and corpus.record_offsets.tolist() == offsets
        assert list(corpus.token_counts.entries.items()) == list(counts.items())
        assert corpus.total_tokens == len(ids)
        assert all(corpus.token_id(t) == i for i, t in enumerate(vocabulary))


def whole_contexts(corpus):
    """Each token's context over the whole corpus at once: the token before
    it, or len(vocabulary), standing for BOS, at a record's first token."""
    ids, offsets = corpus.token_ids, corpus.record_offsets
    contexts = np.empty(ids.size, dtype=np.int64)
    contexts[1:] = ids[:-1]
    contexts[offsets[:-1][np.diff(offsets) > 0]] = len(corpus.vocabulary)
    return contexts


def unique_bigram_table(corpus):
    """_bigram_table by the whole-corpus np.unique call it replaced, and each
    token's index into its codes."""
    n_keys = len(corpus.vocabulary) + 1
    contexts = whole_contexts(corpus)
    codes, which, counts = np.unique(contexts * n_keys + corpus.token_ids,
                                     return_inverse=True, return_counts=True)
    return codes, counts, np.bincount(contexts, minlength=n_keys), which


@pytest.mark.parametrize("block", TOKEN_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(record_texts=st.lists(texts | long_texts, max_size=6), config=configs)
@example(record_texts=[], config=TokenizerConfig())  # no records
@example(record_texts=["", "...", ""], config=TokenizerConfig())  # records, but no tokens
def test_bigram_table_matches_np_unique(block, record_texts, config):
    corpus = corpus_of(record_texts, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
        got = _bigram_table(corpus)
    want = unique_bigram_table(corpus)[:3]
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=150, deadline=None)
@given(record_texts=st.lists(texts, min_size=1, max_size=6), config=configs,
       mode=st.sampled_from(["document", "window"]), window=st.integers(1, 4),
       extra=st.one_of(st.none(), st.lists(texts, min_size=1, max_size=3)),
       n_vocab_targets=st.integers(0, 3))
@example(record_texts=["a b c a", "", "b d", ""], config=TokenizerConfig(), mode="window",
         window=2, extra=None, n_vocab_targets=0)  # untargeted, empty records between windows
@example(record_texts=["", "..."], config=TokenizerConfig(), mode="document", window=1,
         extra=None, n_vocab_targets=0)  # records, but no tokens
def test_chunked_cooccurrence_matches_loop(chunk, record_texts, config, mode, window, extra,
                                           n_vocab_targets):
    corpus = corpus_of(record_texts, config)
    targets = None
    if extra is not None:
        targets = list(corpus.vocabulary[:n_vocab_targets]) + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(association_module, "_COOC_CHUNK_CELLS", chunk)
        table = build_cooccurrence(corpus, targets, mode, window if mode == "window" else None)
    pairs, terms, n_contexts = loop_cooccurrence(corpus, targets, mode, window)
    assert table.pair_counts == pairs
    assert all(type(c) is int for c in (*table.pair_counts.values(), *table.term_counts.values()))
    assert table.term_counts == terms
    assert table.n_contexts == n_contexts


# --- record-block routes ---------------------------------------------------------
# ngram_diversity, the perplexity routes, the Flesch sums and window-mode
# contexts take a block of records at a time.  Each is checked with the block
# constant at one, a few tokens and its own value against the route that held
# the whole corpus at once, kept here.

# Records of no tokens, and records longer than any small block.
block_texts = st.lists(texts | long_texts | st.sampled_from(["", "...", " "]), max_size=8)
NO_TOKENS = ["", "...", " ! "]


def whole_ngram_windows(corpus, n):
    """ngram_windows over the whole corpus at once, as it was written before
    it shared _window_starts with the blocked route."""
    ids, offsets = corpus.token_ids, corpus.record_offsets
    lengths = np.diff(offsets)
    if not lengths.size or n > lengths.max():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    n_windows = ids.size - n + 1
    ends = np.repeat(offsets[1:], lengths)[:n_windows]
    starts = np.flatnonzero(np.arange(n_windows) + n <= ends)
    return starts, corpus_module._window_codes(ids, len(corpus.vocabulary), n, starts)


def whole_ngram_diversity(corpus, n, denominator):
    codes = whole_ngram_windows(corpus, n)[1]
    if not codes.size:
        raise UndefinedValueError(f"corpus has no {n}-grams (all records shorter than {n} tokens)")
    distinct = _distinct(codes)[0].size
    return distinct / (codes.size if denominator == "total-ngrams" else len(corpus.vocabulary))


def assert_blocked_ngram_diversity_matches_whole(corpus, ns):
    for n in ns:
        starts, codes = ngram_windows(corpus, n)
        want_starts, want_codes = whole_ngram_windows(corpus, n)
        assert starts.tolist() == want_starts.tolist() and codes.tolist() == want_codes.tolist()
        for denominator in ("total-ngrams", "vocabulary"):
            want = outcome_of(lambda: whole_ngram_diversity(corpus, n, denominator))
            assert outcome_of(lambda: ngram_diversity(corpus, n, denominator)) == want


@pytest.mark.parametrize("block", TOKEN_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(record_texts=block_texts, config=configs)
@example(record_texts=[], config=TokenizerConfig())  # no records
@example(record_texts=NO_TOKENS, config=TokenizerConfig())  # records, but no tokens
@example(record_texts=["a b c a b c d", "", "b c", ""], config=TokenizerConfig())
# A block that starts past token 0 and holds a record shorter than n before a longer one.
@example(record_texts=["a b c", "d", "e f", "g"], config=TokenizerConfig())
def test_blocked_ngram_diversity_matches_the_whole_corpus_route(block, record_texts, config):
    corpus = corpus_of(record_texts, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
        assert_blocked_ngram_diversity_matches_whole(corpus, (2, 3, 4))


@pytest.mark.parametrize("block", TOKEN_BLOCKS)
def test_ngram_diversity_past_int64_keeps_the_whole_corpus_route(block):
    # 256 types: from n = 8 on, 256 ** n passes int64 and the codes are ranked
    # over the whole corpus; n = 7 still takes the blocks.
    words = [f"w{i}" for i in range(256)]
    tail = " ".join(words[10:24])
    record_texts = [" ".join(words), f"w1 {tail}", f"w2 {tail}", f"w1 {tail}", ""]
    rng = np.random.default_rng(7)
    record_texts += [" ".join(rng.choice(words, size=rng.integers(0, 40))) for _ in range(40)]
    corpus = corpus_of(record_texts)
    assert len(corpus.vocabulary) == 256
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
        assert_blocked_ngram_diversity_matches_whole(corpus, (2, 7, 8, 9, 15))


def whole_self_perplexity(corpus, order, smoothing):
    """_self_perplexity with every per-token array over the whole corpus at
    once, as it was before the record blocks."""
    _check_training(corpus, order, smoothing)
    model = SimpleNamespace(smoothing=float(smoothing), vocab_size=len(corpus.vocabulary))
    if order == 1:
        outcome = corpus.token_ids
        counts, totals = np.bincount(outcome, minlength=model.vocab_size), corpus.total_tokens
    else:
        codes, counts, totals, outcome = unique_bigram_table(corpus)
        totals = totals[codes // (model.vocab_size + 1)]
    probs = _smoothed(model, counts.astype(np.float64), np.asarray(totals, dtype=np.float64))
    distinct, which = np.unique(probs, return_inverse=True)
    logs = np.array([-math.inf if p <= 0.0 else math.log(p) for p in distinct.tolist()])
    logprobs = logs[which][outcome]
    bounds = corpus.record_offsets.tolist()
    rows = {record.id: (float(np.add.accumulate(logprobs[a:b])[-1]), b - a)
            for record, a, b in zip(corpus.records, bounds, bounds[1:]) if b > a}
    return _aggregate(rows, _NO_TOKENS)


@pytest.mark.parametrize("block", TOKEN_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(record_texts=block_texts, config=configs, order=st.sampled_from([1, 2]),
       smoothing=st.sampled_from([0.0, 1.0, 1e308]))
@example(record_texts=[], config=TokenizerConfig(), order=2, smoothing=1.0)  # no records
@example(record_texts=NO_TOKENS, config=TokenizerConfig(), order=2, smoothing=0.0)
def test_blocked_self_perplexity_matches_the_whole_corpus_route(block, record_texts, config,
                                                                order, smoothing):
    corpus = corpus_of(record_texts, config)
    want = outcome_of(lambda: whole_self_perplexity(corpus, order, smoothing))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
        assert outcome_of(lambda: _self_perplexity(corpus, order, smoothing)) == want
        # The general route reads the same blocks through the model's lookups.
        if corpus.n_records:
            lm = train_lm(corpus, order, smoothing)
            assert outcome_of(lambda: perplexity(lm, corpus)) == want


def whole_flesch_counts(corpus):
    """Each record's token count and syllable sum under unicode-word, from one
    running sum over the whole corpus."""
    vocabulary, ids, offsets = corpus.vocabulary, corpus.token_ids, corpus.record_offsets
    per_type = np.fromiter(map(count_syllables, vocabulary), dtype=np.int64,
                           count=len(vocabulary))
    running = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(per_type[ids], out=running[1:])
    sums = running[offsets[1:]] - running[offsets[:-1]]
    return list(zip(np.diff(offsets).tolist(), sums.tolist()))


@pytest.mark.parametrize("block", TOKEN_BLOCKS)
@settings(max_examples=100, deadline=None)
@given(record_texts=st.lists(flesch_texts | long_texts, max_size=8), case_fold=st.booleans())
@example(record_texts=[], case_fold=True)  # no records
@example(record_texts=NO_TOKENS, case_fold=True)  # records, but no tokens
def test_blocked_flesch_sums_match_the_whole_corpus_route(block, record_texts, case_fold):
    corpus = corpus_of(record_texts, TokenizerConfig("unicode-word", case_fold))
    want = whole_flesch_counts(corpus)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_TOKEN_BLOCK", block)
        assert list(_word_and_syllable_counts(corpus)) == want
        per_record, skipped = loop_flesch(corpus)
        if per_record:
            expected = FleschReport(summarize(list(per_record.values())), per_record, skipped)
            assert flesch_reading_ease(corpus) == expected


def whole_context_spans(offsets, window_size):
    """Every window's start and width over the whole corpus at once."""
    lengths = np.diff(offsets)
    window_size = min(window_size, int(lengths.max()))
    n_windows = np.where(lengths > 0, np.maximum(lengths - window_size, 0) + 1, 0)
    starts = np.repeat(offsets[:-1], n_windows) + association_module._ragged_arange(n_windows)
    return starts, np.repeat(np.minimum(lengths, window_size), n_windows)


@pytest.mark.parametrize("chunk", [1, 2, 3, association_module._COOC_CHUNK_CELLS])
@settings(max_examples=100, deadline=None)
@given(record_texts=st.lists(texts | st.sampled_from(NO_TOKENS + ["a b c d a b e c"]),
                            min_size=1, max_size=8),
       config=configs, window=st.integers(1, 5),
       extra=st.one_of(st.none(), st.lists(texts, min_size=1, max_size=3)))
@example(record_texts=NO_TOKENS, config=TokenizerConfig(), window=2, extra=None)
@example(record_texts=["a b c d a", "", "b", "c a b d e f a"], config=TokenizerConfig(),
         window=2, extra=None)  # records longer than a block, beside empty and short ones
def test_blocked_window_contexts_match_the_whole_corpus_route(chunk, record_texts, config,
                                                              window, extra):
    corpus = corpus_of(record_texts, config)
    offsets = corpus.record_offsets
    targets = None if extra is None else list(corpus.vocabulary[:2]) + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(association_module, "_COOC_CHUNK_CELLS", chunk)
        blocks = list(association_module._context_blocks(offsets, window))
        table = build_cooccurrence(corpus, targets, "window", window)
    starts, spans = whole_context_spans(offsets, window)
    assert np.concatenate([s for s, _ in blocks]).tolist() == starts.tolist()
    assert np.concatenate([w for _, w in blocks]).tolist() == spans.tolist()
    assert all(w.sum() <= chunk or w.size == 1 for _, w in blocks)
    pairs, terms, n_contexts = loop_cooccurrence(corpus, targets, "window", window)
    assert (table.pair_counts, table.term_counts, table.n_contexts) == (pairs, terms, n_contexts)
