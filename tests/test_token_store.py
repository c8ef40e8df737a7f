"""The integer-id token store and the array routes that read it, each against
the per-token Python loop it replaced, kept here as the oracle."""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmeter.association import build_cooccurrence, top_npmi
from dmeter.corpus import TOKENIZER_MODES, Corpus, Record, TokenizerConfig, ngrams, tokenize
from dmeter.errors import UndefinedValueError
from dmeter.quality import FleschReport, flesch_reading_ease, flesch_score
from dmeter.tendency import (
    BOS,
    _aggregate,
    _logprob_rows,
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


def loop_flesch(corpus):
    """Per-record scores and skipped ids, each word's syllables counted where it occurs."""
    per_record, skipped = {}, []
    for record in corpus.records:
        try:
            per_record[record.id] = flesch_score(record.text)
        except UndefinedValueError:
            skipped.append(record.id)
    return per_record, tuple(skipped)


# --- the store itself -------------------------------------------------------------


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


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, min_size=1, max_size=6))
def test_flesch_matches_per_record_scores(record_texts):
    corpus = corpus_of(record_texts)
    per_record, skipped = loop_flesch(corpus)
    if not per_record:
        with pytest.raises(UndefinedValueError, match="no scoreable records"):
            flesch_reading_ease(corpus)
        return
    expected = FleschReport(summarize(list(per_record.values())), per_record, skipped)
    assert flesch_reading_ease(corpus) == expected
