"""Distances and divergences between strings, distributions, and documents.

Levenshtein edit distance, KL divergence over aligned discrete distributions,
earth mover's distance (1-D closed form and the general discrete transportation
problem), and word mover's distance between token bags under an embedding.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import UndefinedValueError
from .vectors import EmbeddingMatrix, euclidean, cosine_distance

EMD_SUPPORT_CAP = 2000


class Distribution:
    """Discrete probability distribution: unique support items, parallel probs."""

    __slots__ = ("_p",)

    def __init__(self, support: Sequence[Hashable], probs: Sequence[float]):
        support = tuple(support)
        probs = tuple(float(p) for p in probs)
        if len(support) != len(probs):
            raise ValueError(f"{len(support)} support items for {len(probs)} probabilities")
        p = dict(zip(support, probs))
        if len(p) != len(support):
            raise ValueError("support items must be unique")
        if any(x < 0 for x in probs):
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
        self._p = p

    @classmethod
    def from_counts(cls, counts) -> "Distribution":
        """Normalize a FrequencyTable or mapping of non-negative counts."""
        entries = getattr(counts, "entries", counts)
        items = sorted(entries, key=repr)
        total = math.fsum(entries[i] for i in items)
        if total <= 0:
            raise ValueError("counts must have positive total")
        return cls(items, [entries[i] / total for i in items])

    @property
    def support(self) -> tuple:
        return tuple(self._p)

    @property
    def probs(self) -> tuple:
        return tuple(self._p.values())

    def prob(self, item, default: float = 0.0) -> float:
        return self._p.get(item, default)

    def as_dict(self) -> dict:
        return dict(self._p)

    def __len__(self) -> int:
        return len(self._p)

    def __repr__(self) -> str:
        return f"Distribution({len(self._p)} items)"


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum insertions + deletions + substitutions converting a to b.

    Accepts strings or any item sequences (tokens).
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(
                prev[j] + 1,          # delete from a
                cur[j - 1] + 1,       # insert into a
                prev[j - 1] + (ca != cb),
            ))
        prev = cur
    return prev[-1]


def kl_divergence(p: Distribution, q: Distribution, smoothing: float = 1e-9) -> float:
    """Sum of p_i * ln(p_i / q'_i) over the union support, in nats.

    q' is q with `smoothing` added to every union-support mass and then
    renormalized.  Terms with p_i = 0 contribute 0.  With smoothing 0 and
    some q mass 0 where p > 0, the divergence is infinite; math.inf is
    returned rather than raising, so callers can flag it.
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    union = list(p.support)
    seen = set(union)
    union.extend(item for item in q.support if item not in seen)

    p_map = p.as_dict()
    q_map = q.as_dict()
    q_masses = [q_map.get(item, 0.0) + smoothing for item in union]
    q_total = math.fsum(q_masses)
    if q_total == 0.0:
        raise ValueError("q has no mass on the union support and smoothing is 0")

    terms = []
    for item, q_mass in zip(union, q_masses):
        p_i = p_map.get(item, 0.0)
        if p_i == 0.0:
            continue
        if q_mass == 0.0:
            return math.inf
        terms.append(p_i * math.log(p_i * q_total / q_mass))
    # KL >= 0 (Gibbs' inequality); a negative sum, as for p = q, is rounding.
    return max(0.0, math.fsum(terms))


def emd_1d(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Optimal-transport distance between two equal-size real samples.

    In one dimension the optimum is the sorted matching: mean |x_(i) - y_(i)|.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("samples must be non-empty")
    if len(xs) != len(ys):
        raise ValueError(f"sample sizes differ ({len(xs)} vs {len(ys)}); use emd_discrete")
    xs_sorted = np.sort(np.asarray(xs, dtype=np.float64))
    ys_sorted = np.sort(np.asarray(ys, dtype=np.float64))
    return float(np.mean(np.abs(xs_sorted - ys_sorted)))


def emd_discrete(p: Distribution, q: Distribution, cost: Callable[[Hashable, Hashable], float]) -> float:
    """Exact minimum-cost flow moving distribution p onto distribution q.

    Minimizes sum f_ij * cost(p_i, q_j) over flows f >= 0 whose row sums are
    p and column sums are q.  Solved as a linear program; supports are capped
    at EMD_SUPPORT_CAP points each because the solve is exact, not approximate.
    """
    from scipy.optimize import linprog  # deferred: scipy.optimize is slow to import
    from scipy.sparse import coo_matrix  # deferred along with it

    n, m = len(p), len(q)
    if n == 0 or m == 0:
        raise ValueError("distributions must have non-empty support")
    if n > EMD_SUPPORT_CAP or m > EMD_SUPPORT_CAP:
        raise ValueError(
            f"support sizes {n}x{m} exceed the exact-solver cap of {EMD_SUPPORT_CAP}; "
            "sample or aggregate the distributions first"
        )

    c = np.empty(n * m, dtype=np.float64)
    for i, pi in enumerate(p.support):
        for j, qj in enumerate(q.support):
            cij = float(cost(pi, qj))
            if not math.isfinite(cij) or cij < 0:
                raise ValueError(f"cost({pi!r}, {qj!r}) = {cij}; must be finite and non-negative")
            c[i * m + j] = cij

    # Equality constraints: row sums = p (n rows), column sums = q (m rows).
    # Drop the final (redundant) column constraint to keep the system full rank.
    # Flow f_ij is variable i * m + j; constraint n + j sums column j down the rows.
    flows = np.arange(n * m).reshape(n, m)
    rows = np.concatenate([np.repeat(np.arange(n), m), np.repeat(np.arange(n, n + m - 1), n)])
    cols = np.concatenate([flows.ravel(), flows[:, : m - 1].T.ravel()])
    a_eq = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n + m - 1, n * m))
    b_eq = np.concatenate([np.asarray(p.probs), np.asarray(q.probs[: m - 1])])

    res = linprog(c, A_eq=a_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    return float(res.fun)


class WmdResult(NamedTuple):
    """Word mover's distance plus the out-of-embedding token counts dropped."""

    distance: float
    dropped_a: int
    dropped_b: int


def word_movers_distance(
    doc_a: Sequence[str],
    doc_b: Sequence[str],
    emb: EmbeddingMatrix,
    ground_cost: str = "euclidean",
) -> WmdResult:
    """Minimum cumulative embedding distance moving doc_a's word bag onto doc_b's.

    Documents are normalized bags of words; tokens without an embedding row
    are dropped and counted in the result.  A document with no embedded
    tokens left has no bag to move, hence no defined distance.
    """
    if ground_cost not in ("euclidean", "cosine"):
        raise ValueError(f"unknown ground cost {ground_cost!r}")
    dist_fn = euclidean if ground_cost == "euclidean" else cosine_distance

    def bag(doc):
        kept = Counter()
        dropped = 0
        for tok in doc:
            if tok in emb:
                kept[tok] += 1
            else:
                dropped += 1
        return kept, dropped

    bag_a, dropped_a = bag(doc_a)
    bag_b, dropped_b = bag(doc_b)
    if not bag_a or not bag_b:
        which = "doc_a" if not bag_a else "doc_b"
        raise UndefinedValueError(f"{which} has no embedded tokens; distance undefined")

    p = Distribution.from_counts(bag_a)
    q = Distribution.from_counts(bag_b)
    if bag_a == bag_b:
        return WmdResult(0.0, dropped_a, dropped_b)
    distance = emd_discrete(p, q, lambda x, y: dist_fn(emb.vector(x), emb.vector(y)))
    return WmdResult(distance, dropped_a, dropped_b)
