"""Pairwise association: co-occurrence tables, PMI/nPMI, and correlations.

Co-occurrence counts are binary per context (a term pair counts once per
document or window containing both), which keeps nPMI's [-1, 1] bounds exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import UndefinedValueError

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
        out = []
        for a, b in self.pair_counts:
            if a == term:
                out.append(b)
            elif b == term:
                out.append(a)
        return sorted(out)


def _contexts(corpus: Corpus, context_mode: str, window_size: int | None):
    if context_mode == "document":
        yield from corpus.iter_record_tokens()
        return
    w = window_size
    for toks in corpus.iter_record_tokens():
        if not toks:
            continue
        if len(toks) <= w:
            yield toks
        else:
            for i in range(len(toks) - w + 1):
                yield toks[i : i + w]


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

    pair_counts: Counter = Counter()
    term_counts: Counter = Counter()
    n_contexts = 0
    for ctx in _contexts(corpus, context_mode, window_size):
        n_contexts += 1
        present = sorted(set(ctx))
        term_counts.update(present)
        # present is sorted, so (x, y) is already the pair key.
        for i, x in enumerate(present):
            for y in present[i + 1 :]:
                if target_set is None or x in target_set or y in target_set:
                    pair_counts[(x, y)] += 1
    return CooccurrenceTable(
        pair_counts=dict(pair_counts),
        term_counts=dict(term_counts),
        n_contexts=n_contexts,
        context_mode=context_mode,
        window_size=window_size if context_mode == "window" else None,
    )


# Smoothed probabilities are (count + alpha) / (n_contexts + 2 alpha): each
# term's presence in a context is a binary event, so the two-outcome
# normalizer keeps p(x,y) <= min(p(x), p(y)) and the nPMI bounds exact.
def _probs(table: CooccurrenceTable, x: str, y: str, smoothing: float):
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
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
    """Sample Pearson correlation, clamped to [-1, 1]."""
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError(f"need at least 2 pairs, got {xs.size}")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedValueError("correlation undefined for zero-variance input")
    return float(min(1.0, max(-1.0, float(xd @ yd) / (sx * sy))))


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
