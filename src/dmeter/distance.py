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
# euclidean and cosine_distance stay importable from here: bench/layers.py
# counts ground-cost calls through these names.
from .vectors import EmbeddingMatrix, euclidean, cosine_distance  # noqa: F401

EMD_SUPPORT_CAP = 2000
_CHUNK_CELLS = 4_000_000  # floats of row differences held at once in WMD's euclidean costs


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

    Accepts strings or any item sequences (tokens).  Items are matched by hash
    and equality, so they must be hashable.  Myers' bit-vector algorithm (JACM
    1999) as Hyyrö (2001) explains it: the DP column over the shorter sequence
    is held as two bit vectors of its +1 and -1 vertical steps, one bit per
    item, and a Python int is a bit vector of any width.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq: dict = {}  # item -> bit j set where b[j] == item
    for j, item in enumerate(b):
        peq[item] = peq.get(item, 0) | (1 << j)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for item in a:
        eq = peq.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # The carried-in 1: row 0 of the DP rises by one per item of a.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


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


def _check_support_sizes(n: int, m: int) -> None:
    if n == 0 or m == 0:
        raise ValueError("distributions must have non-empty support")
    if n > EMD_SUPPORT_CAP or m > EMD_SUPPORT_CAP:
        raise ValueError(
            f"support sizes {n}x{m} exceed the exact-solver cap of {EMD_SUPPORT_CAP}; "
            "sample or aggregate the distributions first"
        )


def emd_discrete(
    p: Distribution,
    q: Distribution,
    cost: Callable[[Hashable, Hashable], float] | np.ndarray,
) -> float:
    """Exact minimum-cost flow moving distribution p onto distribution q.

    Minimizes sum f_ij * cost_ij over flows f >= 0 whose row sums are p and
    column sums are q.  cost is either a callable cost(p_item, q_item), which
    fills the n×m cost array once, or that array itself, with [i, j] the cost
    from p.support[i] to q.support[j].  Every cost must be finite and
    non-negative.  Solved as a linear program; supports are capped at
    EMD_SUPPORT_CAP points each because the solve is exact, not approximate.
    """
    from scipy.optimize import linprog  # deferred: scipy.optimize is slow to import
    from scipy.sparse import coo_matrix  # deferred along with it

    n, m = len(p), len(q)
    _check_support_sizes(n, m)
    if callable(cost):
        c = np.array([[float(cost(x, y)) for y in q.support] for x in p.support])
    else:
        c = np.asarray(cost, dtype=np.float64)
        if c.shape != (n, m):
            raise ValueError(f"cost array has shape {c.shape}; expected {(n, m)}")
    bad = np.flatnonzero(~(np.isfinite(c) & (c >= 0)))
    if bad.size:
        i, j = divmod(int(bad[0]), m)
        raise ValueError(
            f"cost({p.support[i]!r}, {q.support[j]!r}) = {float(c[i, j])}; "
            "must be finite and non-negative"
        )
    c = c.ravel()

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
    _check_support_sizes(len(p), len(q))  # before the costs, which take time past the cap
    rows_a = np.array([emb.vector(tok) for tok in p.support])
    rows_b = np.array([emb.vector(tok) for tok in q.support])
    if ground_cost == "euclidean":
        costs = _euclidean_costs(rows_a, rows_b)
    else:
        costs = _cosine_costs(rows_a, rows_b)
    return WmdResult(emd_discrete(p, q, costs), dropped_a, dropped_b)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over k of x[..., k] * y[..., k], broadcast over the leading axes.

    Each entry is one BLAS dot, as u @ v and np.linalg.norm take in vectors,
    so the bits match theirs; A @ B.T and einsum sum in other orders."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _euclidean_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """euclidean(a[i], b[j]) for every row pair, as an n×m array, with the
    row differences formed a block of rows at a time."""
    costs = np.empty((len(a), len(b)))
    step = max(1, _CHUNK_CELLS // b.size)
    for start in range(0, len(a), step):
        diff = a[start:start + step, None] - b[None]
        costs[start:start + step] = np.sqrt(_dots(diff, diff))
    return costs


def _cosine_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cosine_distance(a[i], b[j]) for every row pair, as an n×m array."""
    norms_a, norms_b = np.sqrt(_dots(a, a)), np.sqrt(_dots(b, b))
    if (norms_a == 0.0).any() or (norms_b == 0.0).any():
        raise UndefinedValueError("cosine similarity undefined for zero-norm vector")
    sim = _dots(a[:, None], b[None]) / (norms_a[:, None] * norms_b[None])
    # min(1, max(-1, sim)) as cosine_similarity clamps it (a NaN becomes -1 there too).
    sim = np.where(sim > -1.0, sim, -1.0)
    return 1.0 - np.where(sim < 1.0, sim, 1.0)
