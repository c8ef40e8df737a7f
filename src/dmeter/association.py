"""Pairwise association: co-occurrence tables, PMI/nPMI, and correlations.

Co-occurrence counts are binary per context (a term pair counts once per
document or window containing both), which keeps nPMI's [-1, 1] bounds exact.
Every context mode, with targets or without, counts by one array route: a
sorted (context, term) incidence, term counts by np.bincount, and pair counts
from each target's entries expanded against the terms of their own contexts
(with no targets, every term is a target).
"""

from __future__ import annotations

import math
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


def _distinct(codes: np.ndarray):
    """Distinct codes, sorted, and how often each occurs; sorts codes in place.
    One sort: a bare np.unique hashes, which on this many codes is far slower."""
    codes.sort()
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return codes[first], np.diff(first, append=codes.size)


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in lengths, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1:].sum()) - np.repeat(ends - lengths, lengths)


def _incidence(ranks: np.ndarray, offsets: np.ndarray, n_terms: int, window_size: int | None):
    """Context count, and the contexts and terms of the sorted incidence that
    lists each distinct term once per context.  A context is a record when
    window_size is None, else a sliding window, where a non-empty record
    shorter than the window is one context.  (A function of its own, so its
    per-token temporaries are freed before _count expands the pairs.)"""
    lengths = np.diff(offsets)
    if window_size is None:
        n_windows, widths = np.ones_like(lengths), lengths
    else:
        # Clamped first: window_size may be a Python int past any C integer.
        window_size = min(window_size, int(lengths.max()))
        n_windows = np.where(lengths > 0, np.maximum(lengths - window_size, 0) + 1, 0)
        widths = np.minimum(lengths, window_size)
    starts = np.repeat(offsets[:-1], n_windows) + _ragged_arange(n_windows)
    spans = np.repeat(widths, n_windows)
    codes = np.repeat(np.arange(spans.size) * n_terms, spans)
    codes += ranks[np.repeat(starts, spans) + _ragged_arange(spans)]
    incidence, _ = _distinct(codes)
    return spans.size, *np.divmod(incidence, n_terms)


def _count(ranks: np.ndarray, offsets: np.ndarray, n_terms: int, window_size: int | None,
           source: np.ndarray):
    """Context count, contexts holding each term rank, and the sorted codes
    lo * n_terms + hi of the rank pairs lo < hi holding a source term, with the
    contexts holding each."""
    n_contexts, contexts, present = _incidence(ranks, offsets, n_terms, window_size)
    # Each source entry meets every entry of its own context.  A pair is kept
    # once per context: from its smaller term, or from its only source.
    sizes = np.bincount(contexts, minlength=n_contexts)
    held = np.flatnonzero(source[present])
    own = sizes[contexts[held]]
    b = present[np.repeat(np.cumsum(sizes)[contexts[held]] - own, own) + _ragged_arange(own)]
    a = np.repeat(present[held], own)
    keep = (b > a) | ((b < a) & ~source[b])
    a, b = a[keep], b[keep]
    pairs, pair_counts = _distinct(np.minimum(a, b) * n_terms + np.maximum(a, b))
    return n_contexts, np.bincount(present, minlength=n_terms), pairs, pair_counts


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
    source = np.array([target_set is None or term in target_set for term in terms], dtype=bool)
    window = window_size if context_mode == "window" else None
    n_contexts, term_counts, pairs, pair_counts = _count(
        rank[corpus.token_ids], corpus.record_offsets, len(terms), window, source)
    lo, hi = np.divmod(pairs, len(terms))
    present = np.flatnonzero(term_counts)
    return CooccurrenceTable(
        pair_counts={(terms[a], terms[b]): c
                     for a, b, c in zip(lo.tolist(), hi.tolist(), pair_counts.tolist())},
        term_counts=dict(zip([terms[r] for r in present.tolist()],
                             term_counts[present].tolist())),
        n_contexts=n_contexts,
        context_mode=context_mode,
        window_size=window,
    )


def _check_smoothing(smoothing: float) -> None:
    if not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing}")


# Smoothed probabilities are (count + alpha) / (n_contexts + 2 alpha): each
# term's presence in a context is a binary event, so the two-outcome
# normalizer keeps p(x,y) <= min(p(x), p(y)) and the nPMI bounds exact.
def _probs(table: CooccurrenceTable, x: str, y: str, smoothing: float):
    _check_smoothing(smoothing)
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
    with no co-occurrences (or absent entirely) gives an empty list; k and the
    smoothing are checked either way.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_smoothing(smoothing)
    if target not in table.term_counts:
        return []
    rows = [
        (term, npmi(table, target, term, smoothing), table.pair_count(target, term))
        for term in table.co_terms(target)
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def _deviations(xs: np.ndarray) -> np.ndarray:
    """xs minus its mean.  When the sum or a deviation overflows, finite xs
    are first scaled by a power of two, which leaves a correlation unchanged;
    other samples keep their bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        deviations = xs - xs.mean()
    if not np.isfinite(deviations).all() and np.isfinite(xs).all():
        xs = np.ldexp(xs, -(xs.size.bit_length() + 1))  # a sum of n entries stays below max/2
        deviations = xs - xs.mean()
    return deviations


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation: cosine_similarity of the centred samples."""
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError(f"need at least 2 pairs, got {xs.size}")
    xd, yd = _deviations(xs), _deviations(ys)
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
