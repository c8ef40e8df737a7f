"""Redundancy counting and readability scoring.

Duplicates are exact groups over raw or normalized record text; redundancy
entropy expresses how evenly records spread over duplicate clusters.
Readability is Flesch reading ease with a deterministic orthographic syllable
heuristic (documented English bias; no dictionary).
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import _WORD_RE, Corpus, FrequencyTable
from .diversity import shannon_entropy
from .errors import UndefinedValueError
from .tendency import SummaryStats, summarize

NORMALIZATIONS = ("exact", "fold-and-collapse")


@dataclass(frozen=True)
class RedundancyReport:
    """Duplicate-cluster structure of a corpus under one text normalization."""

    n_records: int
    n_distinct: int
    duplicate_clusters: int
    excess_duplicates: int
    cluster_sizes: tuple          # all cluster sizes, descending
    top_clusters: tuple           # (fingerprint, count, sample text), size >= 2 only
    normalization: str


def _normalize(text: str, normalization: str) -> str:
    if normalization == "exact":
        return text
    return " ".join(text.split()).casefold()


def find_duplicates(corpus: Corpus, normalization: str = "exact", top_cap: int = 10) -> RedundancyReport:
    """Group records by (possibly normalized) text and report the clusters.

    fold-and-collapse case-folds and collapses whitespace runs before
    grouping, so it finds a superset of exact-mode duplicates.  A cluster's
    fingerprint is the SHA-256 of its normalized text, computed only for
    clusters of two or more records, the ones reported.  Cluster ordering is
    descending size, then fingerprint.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}; choose from {NORMALIZATIONS}")
    if top_cap < 0:
        raise ValueError(f"top_cap must be >= 0, got {top_cap}")
    if corpus.n_records == 0:
        raise ValueError("corpus is empty")

    texts = [record.text for record in corpus.records]
    keys = [_normalize(text, normalization) for text in texts]
    sizes = Counter(keys)
    # A later record overwrites an earlier one, so walk backwards to keep the first text.
    first_text = dict(zip(reversed(keys), reversed(texts)))
    dup = sorted(
        ((hashlib.sha256(key.encode("utf-8")).hexdigest(), size, first_text[key])
         for key, size in sizes.items() if size >= 2),
        key=lambda cluster: (-cluster[1], cluster[0]),
    )
    return RedundancyReport(
        n_records=corpus.n_records,
        n_distinct=len(sizes),
        duplicate_clusters=len(dup),
        excess_duplicates=corpus.n_records - len(sizes),
        cluster_sizes=tuple(sorted(sizes.values(), reverse=True)),
        top_clusters=tuple(dup[:top_cap]),
        normalization=normalization,
    )


def redundancy_entropy(report: RedundancyReport) -> float:
    """Entropy of the cluster-size distribution, normalized to [0, 1].

    1 when every record is unique, falling toward 0 as one cluster absorbs
    the corpus.  A single-record corpus is 1 by convention.
    """
    n = report.n_records
    if n < 1:
        raise ValueError("empty report")
    if n == 1:
        return 1.0
    return shannon_entropy(FrequencyTable(dict(enumerate(report.cluster_sizes)))) / math.log(n)


# --- readability ---------------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+(?:\s+|$)")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


def count_syllables(word: str) -> int:
    """Vowel-group heuristic: count vowel clusters, drop a silent trailing
    'e', floor at one syllable."""
    w = word.lower()
    groups = len(_VOWEL_GROUP_RE.findall(w))
    if w.endswith("e"):
        groups -= 1
    return max(1, groups)


def _split_sentences(text: str) -> list[str]:
    parts = _SENTENCE_SPLIT_RE.split(text)
    return [p for p in parts if _WORD_RE.search(p)]


def flesch_score(text: str) -> float:
    """Flesch reading ease of one text.

    206.835 - 1.015 * (words / sentences) - 84.6 * (syllables / words), with
    sentences split on ./!/? runs followed by whitespace or end of text, and
    an unterminated trailing segment counting as a sentence when it has words.
    """
    words = _WORD_RE.findall(text)
    return _score(text, len(words), sum(map(count_syllables, words)))


def _score(text: str, n_words: int, n_syllables: int) -> float:
    """Flesch reading ease of text, given its word count and syllable sum."""
    if not n_words:
        raise UndefinedValueError("no words; readability undefined")
    sentences = _split_sentences(text)
    if not sentences:
        raise UndefinedValueError("no sentences; readability undefined")
    return 206.835 - 1.015 * (n_words / len(sentences)) - 84.6 * (n_syllables / n_words)


class _SyllableCache(dict):
    """word -> count_syllables(word), each word counted once."""

    def __missing__(self, word: str) -> int:
        self[word] = count = count_syllables(word)
        return count


def _word_and_syllable_counts(corpus: Corpus) -> Iterable[tuple[int, int]]:
    """Each record's word count and syllable sum, over the words _WORD_RE finds."""
    if corpus.tokenizer_config.mode == "unicode-word":
        # Here a record's tokens are its words, lowercased when the corpus folds
        # case, and count_syllables lowercases first (str.lower is idempotent).
        # So each type is counted once, and the exact int64 sums are gathered.
        vocabulary, ids, offsets = corpus.vocabulary, corpus.token_ids, corpus.record_offsets
        per_type = np.fromiter(map(count_syllables, vocabulary), dtype=np.int64,
                               count=len(vocabulary))
        running = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(per_type[ids], out=running[1:])
        sums = running[offsets[1:]] - running[offsets[:-1]]
        return zip(np.diff(offsets).tolist(), sums.tolist())
    syllables_of = _SyllableCache().__getitem__
    return ((len(words), sum(map(syllables_of, words)))
            for words in (_WORD_RE.findall(record.text) for record in corpus.records))


@dataclass(frozen=True)
class FleschReport:
    """Corpus-level reading-ease summary over per-record scores."""

    stats: SummaryStats
    per_record: dict              # record id -> score
    skipped_ids: tuple            # records with no words/sentences

    @property
    def n_skipped(self) -> int:
        return len(self.skipped_ids)


def flesch_reading_ease(corpus: Corpus) -> FleschReport:
    """Score every record with at least one word and sentence; summarize.

    Records that cannot be scored are listed as skipped, never imputed.
    Under the unicode-word tokenizer, word counts and syllable sums come from
    the corpus's token store; only the sentence split reads each record.
    """
    per_record = {}
    skipped = []
    for record, (n_words, n_syllables) in zip(corpus.records, _word_and_syllable_counts(corpus)):
        try:
            per_record[record.id] = _score(record.text, n_words, n_syllables)
        except UndefinedValueError:
            skipped.append(record.id)
    if not per_record:
        raise UndefinedValueError("no scoreable records in corpus")
    return FleschReport(
        stats=summarize(list(per_record.values())),
        per_record=per_record,
        skipped_ids=tuple(skipped),
    )
