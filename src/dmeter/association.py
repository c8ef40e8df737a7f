"""Pairwise association: co-occurrence tables, PMI/nPMI, and correlations.

Co-occurrence counts are binary per context (a term pair counts once per
document or window containing both), which keeps nPMI's [-1, 1] bounds exact.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import UndefinedValueError
from .vectors import cosine_similarity

CONTEXT_MODES = ("document", "window")


@dataclass(frozen=True)
class CooccurrenceTable:
    """Binary per-context co-occurrence counts.

    pair_counts keys are sorted term pairs; term_counts is contexts-containing-
    term; n_contexts the total context count.  pair(x,x) is never stored.
    """

    pair_counts: dict
    term_counts: dict
    n_contexts: int
    context_mode: str
    window_size: int | None = None

    def pair_count(self, x: str, y: str) -> int:
        if x == y:
            raise ValueError("self-pairs are not tracked")
        return self.pair_counts.get((x, y) if x <= y else (y, x), 0)

    def term_count(self, term: str) -> int:
        return self.term_counts.get(term, 0)

    def co_terms(self, term: str) -> list[str]:
        """Terms that co-occur with `term` at least once, sorted."""
        return list(self._co_term_index.get(term, ()))

    @cached_property
    def _co_term_index(self) -> dict:
        """term -> its sorted co-terms, built from pair_counts on first use."""
        index: dict = {}
        for a, b in self.pair_counts:
            index.setdefault(a, []).append(b)
            index.setdefault(b, []).append(a)
        for co in index.values():
            co.sort()
        return index


def _contexts(ranks: np.ndarray, offsets: np.ndarray, window_size: int | None):
    """Sorted distinct term ranks of each context: every record when
    window_size is None, else every sliding window, where a non-empty record
    shorter than the window is one context."""
    ranks = ranks.tolist()
    bounds = offsets.tolist()
    for start, end in zip(bounds, bounds[1:]):
        if window_size is None:
            yield sorted(set(ranks[start:end]))
        elif end > start:
            for i in range(start, max(start, end - window_size) + 1):
                yield sorted(set(ranks[i : min(end, i + window_size)]))


def _count_sets(contexts, target_ranks: set | None):
    """Context count, and contexts holding each term and each sorted pair;
    with targets, only pairs touching one."""
    n_contexts = 0
    term_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    for present in contexts:
        n_contexts += 1
        term_counts.update(present)
        pairs = itertools.combinations(present, 2)
        if target_ranks is not None:
            pairs = [p for p in pairs if p[0] in target_ranks or p[1] in target_ranks]
        pair_counts.update(pairs)
    return n_contexts, term_counts, pair_counts


def _document_target_counts(ranks: np.ndarray, offsets: np.ndarray, n_terms: int,
                            target_ranks: set):
    """_count_sets over whole records with targets, as array operations: a
    term's count is its number of distinct (record, term) pairs, and each
    target's pairs are the terms of the records that hold it."""
    n_records = offsets.size - 1
    records = np.repeat(np.arange(n_records), np.diff(offsets))
    # Distinct (record, term) codes by one sort: a bare np.unique hashes,
    # which on this many codes takes tens of times longer.
    codes = np.sort(records * n_terms + ranks)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    records, present = codes // n_terms, codes % n_terms
    term_counts = np.bincount(present, minlength=n_terms)
    pair_counts = {}
    for t in sorted(target_ranks):
        holds = np.zeros(n_records, dtype=bool)
        holds[records[present == t]] = True
        co = np.bincount(present[holds[records]], minlength=n_terms)
        co[t] = 0
        ys = np.flatnonzero(co)
        pairs = zip(np.minimum(ys, t).tolist(), np.maximum(ys, t).tolist())
        pair_counts.update(zip(pairs, co[ys].tolist()))
    nonzero = np.flatnonzero(term_counts)
    return n_records, dict(zip(nonzero.tolist(), term_counts[nonzero].tolist())), pair_counts


def build_cooccurrence(
    corpus: Corpus,
    targets: Sequence[str] | None = None,
    context_mode: str = "document",
    window_size: int | None = None,
) -> CooccurrenceTable:
    """Count contexts containing each term and each term pair.

    Contexts are whole documents or sliding windows of width window_size
    (records shorter than the window form one context).  With targets given,
    only pairs touching a target are kept, which bounds the table size by
    |targets| * vocabulary.
    """
    if context_mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {context_mode!r}; choose from {CONTEXT_MODES}")
    if context_mode == "window":
        if window_size is None or window_size < 1:
            raise ValueError(f"window mode requires window_size >= 1, got {window_size}")
    if corpus.n_records == 0:
        raise ValueError("corpus is empty")
    target_set = None
    if targets is not None:
        target_set = set(targets)
        if not target_set:
            raise ValueError("target set is empty")

    # Count over term ranks, in which a sorted pair of ranks is a sorted pair of terms.
    vocab = corpus.vocabulary
    order = sorted(range(len(vocab)), key=vocab.__getitem__)
    terms = [vocab[i] for i in order]
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[order] = np.arange(len(vocab))
    ranks, offsets = rank[corpus.token_ids], corpus.record_offsets
    target_ranks = None
    if target_set is not None:
        target_ranks = {r for r, term in enumerate(terms) if term in target_set}

    if context_mode == "document" and target_ranks is not None:
        n_contexts, term_counts, pair_counts = _document_target_counts(
            ranks, offsets, len(terms), target_ranks)
    else:
        window = window_size if context_mode == "window" else None
        n_contexts, term_counts, pair_counts = _count_sets(
            _contexts(ranks, offsets, window), target_ranks)
    return CooccurrenceTable(
        pair_counts={(terms[a], terms[b]): c for (a, b), c in pair_counts.items()},
        term_counts={terms[r]: c for r, c in sorted(term_counts.items())},
        n_contexts=n_contexts,
        context_mode=context_mode,
        window_size=window_size if context_mode == "window" else None,
    )


# Smoothed probabilities are (count + alpha) / (n_contexts + 2 alpha): each
# term's presence in a context is a binary event, so the two-outcome
# normalizer keeps p(x,y) <= min(p(x), p(y)) and the nPMI bounds exact.
def _probs(table: CooccurrenceTable, x: str, y: str, smoothing: float):
    if not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing}")
    if smoothing == 0:
        missing = [t for t in (x, y) if t not in table.term_counts]
        if missing:
            raise ValueError(f"terms absent from table with smoothing 0: {missing}")
    if x == y:
        raise ValueError("association of a term with itself is not defined here")
    den = table.n_contexts + 2.0 * smoothing
    px = (table.term_count(x) + smoothing) / den
    py = (table.term_count(y) + smoothing) / den
    pxy = (table.pair_count(x, y) + smoothing) / den
    return px, py, pxy


def pmi(table: CooccurrenceTable, x: str, y: str, smoothing: float = 0.0) -> float:
    """ln(p(x,y) / (p(x) p(y))); -inf when the smoothed joint is zero."""
    px, py, pxy = _probs(table, x, y, smoothing)
    if pxy == 0.0:
        return -math.inf
    return math.log(pxy / (px * py))


def npmi(table: CooccurrenceTable, x: str, y: str, smoothing: float = 0.0) -> float:
    """PMI normalized by -ln p(x,y) to [-1, 1].

    1 at perfect co-occurrence, 0 at independence, -1 when the pair never
    co-occurs (the zero-joint limit).  p(x,y) = 1 has a zero denominator and
    is defined as 1 by continuity.
    """
    px, py, pxy = _probs(table, x, y, smoothing)
    if pxy == 0.0:
        return -1.0
    if pxy >= 1.0:
        return 1.0
    # Capped: at p(x,y) = p(x) = p(y) rounding can land one ulp above 1.
    return min(1.0, math.log(pxy / (px * py)) / (-math.log(pxy)))


def top_npmi(
    table: CooccurrenceTable, target: str, k: int = 20, smoothing: float = 0.0
) -> list[tuple[str, float, int]]:
    """Top-k co-terms of `target` by nPMI: (term, npmi, pair_count) rows.

    Only terms that actually co-occur with the target are ranked.  A target
    with no co-occurrences (or absent entirely) gives an empty list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target not in table.term_counts:
        return []
    rows = [
        (term, npmi(table, target, term, smoothing), table.pair_count(target, term))
        for term in table.co_terms(target)
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation: cosine_similarity of the centred samples."""
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError(f"need at least 2 pairs, got {xs.size}")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    if not (xd.any() and yd.any()):
        raise UndefinedValueError("correlation undefined for zero-variance input")
    return cosine_similarity(xd, yd)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of fractional ranks; ties get their average rank."""
    from scipy.stats import rankdata  # deferred: scipy.stats takes most of a second to import

    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(xs)}")
    return pearson(rankdata(xs, method="average"), rankdata(ys, method="average"))
