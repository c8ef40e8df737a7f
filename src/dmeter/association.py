"""Pairwise association: co-occurrence tables, PMI/nPMI, and correlations.

Co-occurrence counts are binary per context (a term pair counts once per
document or window containing both), which keeps nPMI's [-1, 1] bounds exact.
Every context mode, with targets or without, counts by one array route, a
block of contexts at a time: a sorted (context, term) incidence, term counts
by np.bincount, and pair counts from each target's entries expanded against
the terms of their own contexts (with no targets, every term is a target),
tallied block by block into one sorted table (corpus._tally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import Corpus, _blocks, _distinct, _tally
from .errors import UndefinedValueError, check_choice, check_int, check_smoothing
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


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in lengths, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1:].sum()) - np.repeat(ends - lengths, lengths)


# (context, term) codes, or expanded term pairs, that the co-occurrence count
# makes at once: each int64 temporary of a block is 512 KiB.  On the
# benchmark's text-zipf batch A, the targeted document-mode count peaked at
# 28.2 MiB under tracemalloc with the whole corpus as one block, and at 3.9
# MiB with blocks of 2**16 cells (3.4 with 2**15, 6.8 with 2**17), in 0.043
# to 0.057 s (2-vCPU Xeon).
_COOC_CHUNK_CELLS = 1 << 16


def _context_spans(offsets: np.ndarray, window_size: int | None):
    """Where each context of the records whose bounds these offsets are starts
    in the token stream, and how many tokens it spans.  A context is a record
    when window_size is None, else a sliding window, where a non-empty record
    shorter than the window is one context."""
    lengths = np.diff(offsets)
    if window_size is None:
        return offsets[:-1], lengths
    # Clamped first: window_size may be a Python int past any C integer.
    window_size = min(window_size, int(lengths.max()))
    n_windows = np.where(lengths > 0, np.maximum(lengths - window_size, 0) + 1, 0)
    starts = np.repeat(offsets[:-1], n_windows) + _ragged_arange(n_windows)
    return starts, np.repeat(np.minimum(lengths, window_size), n_windows)


def _incidence(ids: np.ndarray, rank: np.ndarray, starts: np.ndarray, spans: np.ndarray):
    """How many distinct terms each of these contexts holds, and those terms
    as ranks (rank[ids]), ascending within each context, context after context."""
    n_terms = rank.size
    codes = np.repeat(np.arange(spans.size) * n_terms, spans)
    codes += rank[ids[np.repeat(starts, spans) + _ragged_arange(spans)]]
    contexts, present = np.divmod(_distinct(codes)[0], n_terms)
    return np.bincount(contexts, minlength=spans.size), present


def _count(ids: np.ndarray, rank: np.ndarray, offsets: np.ndarray, window_size: int | None,
           source: np.ndarray):
    """Context count, contexts holding each term rank, and the sorted codes
    lo * n_terms + hi of the rank pairs lo < hi holding a source term, with the
    contexts holding each.

    The contexts are taken a block at a time (_context_blocks), and each
    block's source entries expanded a block at a time, so no temporary spans
    the corpus; each expansion's pair codes are tallied as it is made (_tally)."""
    n_terms = rank.size
    n_contexts = 0
    term_counts = np.zeros(n_terms, dtype=np.int64)

    def pair_codes():
        nonlocal n_contexts, term_counts
        for starts, spans in _context_blocks(offsets, window_size):
            n_contexts += spans.size
            sizes, present = _incidence(ids, rank, starts, spans)
            term_counts += np.bincount(present, minlength=n_terms)
            # Each source entry meets every entry of its own context.  A pair is
            # kept once per context: from its smaller term, or from its only source.
            ends = np.cumsum(sizes)
            held = np.flatnonzero(source[present])
            context = np.searchsorted(ends, held, side="right")
            own = sizes[context]
            begin = ends[context] - own
            for start, stop in _blocks(own, _COOC_CHUNK_CELLS):
                n = own[start:stop]
                b = present[np.repeat(begin[start:stop], n) + _ragged_arange(n)]
                a = np.repeat(present[held[start:stop]], n)
                keep = (b > a) | ((b < a) & ~source[b])
                a, b = a[keep], b[keep]
                yield np.minimum(a, b) * n_terms + np.maximum(a, b)

    codes, counts = _tally(pair_codes())
    return n_contexts, term_counts, codes, counts


def _context_blocks(offsets: np.ndarray, window_size: int | None):
    """_context_spans of the corpus's contexts, a block of at most
    _COOC_CHUNK_CELLS cells at a time (a longer context is a block of its
    own): the spans are built a block of records of at most that many tokens
    at a time, so window mode holds no start and width per window of the
    corpus."""
    for first, last in _blocks(np.diff(offsets), _COOC_CHUNK_CELLS):
        starts, spans = _context_spans(offsets[first:last + 1], window_size)
        for lo, hi in _blocks(spans, _COOC_CHUNK_CELLS):
            yield starts[lo:hi], spans[lo:hi]


def _pair_dict(terms: list, pairs: np.ndarray, counts: np.ndarray) -> dict:
    """{(terms[lo], terms[hi]): count} of the pair codes lo * len(terms) + hi,
    in code order, built _COOC_CHUNK_CELLS pairs at a time so that no list of
    Python ints spans every pair."""
    table: dict = {}
    term = terms.__getitem__
    for start in range(0, pairs.size, _COOC_CHUNK_CELLS):
        stop = start + _COOC_CHUNK_CELLS
        lo, hi = np.divmod(pairs[start:stop], len(terms))
        table.update(zip(zip(map(term, lo.tolist()), map(term, hi.tolist())),
                         counts[start:stop].tolist()))
    return table


def check_context_options(context_mode: str, window_size: int | None) -> None:
    """ValueError unless build_cooccurrence takes this context mode and window size."""
    check_choice("context mode", context_mode, CONTEXT_MODES)
    if window_size is not None:
        check_int("window_size", window_size)
    if context_mode == "window":
        if window_size is None or window_size < 1:
            raise ValueError(f"window mode requires window_size >= 1, got {window_size}")
    elif window_size is not None:
        raise ValueError(f"window_size is for window mode only, got {window_size} in document mode")


def build_cooccurrence(
    corpus: Corpus,
    targets: Sequence[str] | None = None,
    context_mode: str = "document",
    window_size: int | None = None,
) -> CooccurrenceTable:
    """Count contexts containing each term and each term pair.

    Contexts are whole documents or sliding windows of width window_size
    (records shorter than the window form one context); window_size is for
    window mode only, and giving it in document mode is an error.  With targets given,
    only pairs touching a target are kept, which bounds the table size by
    |targets| * vocabulary.
    """
    check_context_options(context_mode, window_size)
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
    n_contexts, term_counts, pairs, pair_counts = _count(
        corpus.token_ids, rank, corpus.record_offsets, window_size, source)
    present = np.flatnonzero(term_counts)
    return CooccurrenceTable(
        pair_counts=_pair_dict(terms, pairs, pair_counts),
        term_counts=dict(zip([terms[r] for r in present.tolist()],
                             term_counts[present].tolist())),
        n_contexts=n_contexts,
        context_mode=context_mode,
        window_size=window_size,
    )


# Smoothed probabilities are (count + alpha) / (n_contexts + 2 alpha): each
# term's presence in a context is a binary event, so the two-outcome
# normalizer keeps p(x,y) <= min(p(x), p(y)) and the nPMI bounds exact.
def _probs(table: CooccurrenceTable, x: str, y: str, smoothing: float):
    check_smoothing(smoothing)
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


def check_top_npmi_options(k: int, smoothing: float) -> None:
    """ValueError unless top_npmi takes this k and smoothing."""
    check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_smoothing(smoothing)


def top_npmi(
    table: CooccurrenceTable, target: str, k: int = 20, smoothing: float = 0.0
) -> list[tuple[str, float, int]]:
    """Top-k co-terms of `target` by nPMI: (term, npmi, pair_count) rows.

    Only terms that actually co-occur with the target are ranked.  A target
    with no co-occurrences (or absent entirely) gives an empty list; k and the
    smoothing are checked either way.
    """
    check_top_npmi_options(k, smoothing)
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


def _average_ranks(values: Sequence) -> np.ndarray:
    """1-based ranks with each run of ties at its average, as
    scipy.stats.rankdata(method="average") gives them; NaN anywhere makes
    every rank NaN, as rankdata's default does."""
    values = np.asarray(values)
    if values.dtype.kind in "fc" and np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # each tie run's start
    end = np.r_[first[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((first + end + 1) / 2, end - first)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of fractional ranks; ties get their average rank."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(xs)}")
    return pearson(_average_ranks(xs), _average_ranks(ys))
