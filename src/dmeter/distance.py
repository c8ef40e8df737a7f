"""Distances and divergences between strings, distributions, and documents.

Levenshtein edit distance, KL divergence over aligned discrete distributions,
earth mover's distance (1-D closed form and the general discrete transportation
problem), and word mover's distance between token bags under an embedding.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from collections import Counter
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import UndefinedValueError, check_choice, check_smoothing
# euclidean and cosine_distance stay importable from here: bench/layers.py
# counts ground-cost calls through these names.
from .vectors import EmbeddingMatrix, euclidean, cosine_distance  # noqa: F401
from .vectors import cosine_matrix, euclidean_matrix

EMD_SUPPORT_CAP = 2000
GROUND_COSTS = ("euclidean", "cosine")
_HIGHS_LARGE_COST = 1e15
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()
# A thread keeps its solver only after an LP of at most this many flows.
# clearModel keeps HiGHS's workspace: after one 100×100 solve a kept solver
# held about 0.3 MB more than a deleted one, after 200×200 about 12 MB, after
# 300×300 about 26 MB.  Building a solver takes about 50 µs, under 1% of a
# 100×100 solve (about 9 ms), so past the bound a fresh one costs nothing.
_HIGHS_KEEP_FLOWS = 10_000
_HIGHS_SOLVERS = threading.local()  # .solver: this thread's kept _Highs, or None


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
        if not all(map(math.isfinite, probs)):
            raise ValueError("probabilities must be finite")
        if any(x < 0 for x in probs):
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
        self._p = p

    @classmethod
    def from_counts(cls, counts) -> "Distribution":
        """Normalize a FrequencyTable or mapping of finite non-negative counts.

        A bool count, or an int past the float range, is refused by item.
        Counts whose total passes the float range are normalized scaled by a
        power of two; counts in range keep the plain division's bits.
        """
        entries = getattr(counts, "entries", counts)
        items = sorted(entries, key=repr)
        for item in items:
            count = entries[item]
            if isinstance(count, (bool, np.bool_)):
                raise ValueError(f"count of {item!r} is {count}; must be a number, not a bool")
            try:
                finite = math.isfinite(count)
            except OverflowError:  # an int past the float range
                raise ValueError(f"count of {item!r} is past the float range") from None
            if not finite:
                raise ValueError(f"count of {item!r} is {count}; must be finite")
        values = [entries[i] for i in items]
        try:
            total = math.fsum(values)
        except OverflowError:
            # Every probability is the same for the counts scaled by a power of
            # two; 2**-shift with 2**shift > len(values) brings the total below
            # the float range.
            shift = len(values).bit_length()
            values = [math.ldexp(value, -shift) for value in values]
            total = math.fsum(values)
        if total <= 0:
            raise ValueError("counts must have positive total")
        return cls(items, [value / total for value in values])

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
    returned rather than raising, so callers can flag it.  A finite
    divergence stays finite where a ratio or the total of the smoothed
    masses passes the float range.
    """
    check_smoothing(smoothing)
    union = list(p.support)
    seen = set(union)
    union.extend(item for item in q.support if item not in seen)

    p_map = p.as_dict()
    q_map = q.as_dict()
    q_masses = [q_map.get(item, 0.0) + smoothing for item in union]
    try:
        q_total = math.fsum(q_masses)
    except OverflowError:
        # q' is the same for every mass scaled by a power of two; 2**-shift
        # with 2**shift > len(union) brings the total below the float range.
        shift = len(q_masses).bit_length()
        q_masses = [math.ldexp(mass, -shift) for mass in q_masses]
        q_total = math.fsum(q_masses)

    terms = []
    for item, q_mass in zip(union, q_masses):
        p_i = p_map.get(item, 0.0)
        if p_i == 0.0:
            continue
        if q_mass == 0.0:
            return math.inf
        ratio = p_i * q_total / q_mass
        if ratio == math.inf:  # a tiny q_mass; the ratio's log is in range
            terms.append(p_i * (math.log(p_i * q_total) - math.log(q_mass)))
        else:
            terms.append(p_i * math.log(ratio))
    # KL >= 0 (Gibbs' inequality); a negative sum, as for p = q, is rounding.
    return max(0.0, math.fsum(terms))


def emd_1d(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Optimal-transport distance between two equal-size real samples.

    In one dimension the optimum is the sorted matching: mean |x_(i) - y_(i)|.
    Every sample value must be finite.  Where a difference or their sum passes
    the float range, the samples are scaled by a power of two first, so only
    a distance that is itself past the range comes out as math.inf.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("samples must be non-empty")
    if len(xs) != len(ys):
        raise ValueError(f"sample sizes differ ({len(xs)} vs {len(ys)}); use emd_discrete")
    xs_sorted = np.sort(np.asarray(xs, dtype=np.float64))
    ys_sorted = np.sort(np.asarray(ys, dtype=np.float64))
    if not (np.isfinite(xs_sorted).all() and np.isfinite(ys_sorted).all()):
        raise ValueError("samples must be finite")
    with np.errstate(over="ignore"):
        distance = float(np.mean(np.abs(xs_sorted - ys_sorted)))
    if math.isinf(distance):
        # Samples scaled by 2**-k, with 2**k > 2n, differ by less than the
        # float range over n, so the n differences sum in range; the mean is
        # scaled back after.
        k = xs_sorted.size.bit_length() + 1
        distance = float(np.mean(np.abs(np.ldexp(xs_sorted, -k) - np.ldexp(ys_sorted, -k))))
        try:
            distance = math.ldexp(distance, k)
        except OverflowError:
            distance = math.inf
    return distance


def _check_support_sizes(n: int, m: int) -> None:
    if n > EMD_SUPPORT_CAP or m > EMD_SUPPORT_CAP:
        raise ValueError(
            f"support sizes {n}x{m} exceed the exact-solver cap of {EMD_SUPPORT_CAP}; "
            "sample or aggregate the distributions first"
        )


def _transport_constraints(n: int, m: int):
    """Equality constraints of the n×m transport LP as CSC (indptr, indices).

    Flow f_ij is variable i * m + j.  Constraint i sums row i of the flows,
    constraint n + j sums column j, and the final (redundant) column
    constraint is dropped to keep the system full rank.  So column i * m + j
    holds row i and, when j < m - 1, row n + j: written straight into the
    compressed-column arrays that HiGHS reads.  Every entry is 1, so no
    value array is built here.
    """
    # Column i * m + j starts after i full rows of 2m - 1 entries and j pairs.
    starts = (np.arange(n)[:, None] * (2 * m - 1) + 2 * np.arange(m)).ravel()
    nnz = n * (2 * m - 1)
    indices = np.empty(nnz, dtype=np.int32)
    indices[starts] = np.repeat(np.arange(n), m)
    indices[starts.reshape(n, m)[:, : m - 1] + 1] = np.arange(n, n + m - 1)
    indptr = np.append(starts, nnz).astype(np.int32)
    return indptr, indices


def _highs():
    """scipy's private HiGHS bindings, loaded without scipy.optimize.

    Importing the module by name would first run scipy.optimize's __init__,
    hundreds of modules that take most of a second.  The extension alone is
    found in scipy's package directory and registered in sys.modules under
    its full name, so a later import of scipy.optimize reuses it and the
    bindings are never initialised twice.  Where scipy has no such file, the
    plain import runs, so any error is the one it raises.
    """
    with _HIGHS_LOCK:
        module = sys.modules.get(_HIGHS_MODULE)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [
            os.path.join(d, "optimize", "_highspy") for d in scipy.submodule_search_locations
        ])
        if spec is None:
            from scipy.optimize._highspy import _core
            return _core
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_MODULE] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS_MODULE]
            raise
        return module


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
    Each thread reuses one HiGHS solver across calls of at most
    _HIGHS_KEEP_FLOWS flows.
    """
    highs = _highs()  # scipy's private bindings, under its public solvers; see the README
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
    # HiGHS reads a cost of 1e20 or more as infinite and fails on some near it.
    # The optimum is linear in the costs, so large ones are solved scaled below
    # 1 by a power of two, which is exact.
    peak = c.max()
    exponent = math.frexp(peak)[1] if peak >= _HIGHS_LARGE_COST else 0

    # Row sums = p, column sums = q but the last, over flows in [0, inf): the
    # LP that milp with no integrality hands HiGHS, passed as arrays, without
    # milp's checks or its read-back of a solution and duals that dmeter never
    # uses.  HiGHS reads each array for as many entries as the counts say, so
    # the integrality codes are given, all 0 (continuous), as milp gives them.
    # Presolve is off: it removes next to nothing from a transport LP, and its
    # setup and postsolve cost about a third of each solve.
    b_eq = np.concatenate([np.asarray(p.probs), np.asarray(q.probs[: m - 1])])
    indptr, indices = _transport_constraints(n, m)
    # Each thread reuses one solver, its options set once; a solver of
    # another class than the bindings' _Highs now is replaced.
    solver = getattr(_HIGHS_SOLVERS, "solver", None)
    if type(solver) is not highs._Highs:
        solver = highs._Highs()
        solver.setOptionValue("log_to_console", False)
        solver.setOptionValue("presolve", "off")
    try:
        solver.passModel(
            n * m, n + m - 1, indices.size, highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0, np.ldexp(c, -exponent),
            np.zeros(n * m), np.full(n * m, np.inf), b_eq, b_eq,
            indptr, indices, np.ones(indices.size), np.zeros(n * m, dtype=np.int32),
        )
        solver.run()
        # A failed passModel or run leaves a status other than optimal too.
        status = solver.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"transport solve failed: {solver.modelStatusToString(status)}")
        return math.ldexp(solver.getObjectiveValue(), exponent)
    finally:
        # No model outlives the call; the options and workspace do.
        solver.clearModel()
        _HIGHS_SOLVERS.solver = solver if n * m <= _HIGHS_KEEP_FLOWS else None


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
    check_choice("ground cost", ground_cost, GROUND_COSTS)

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
        costs = euclidean_matrix(rows_a, rows_b)
    else:
        costs = 1.0 - cosine_matrix(rows_a, rows_b)
    return WmdResult(emd_discrete(p, q, costs), dropped_a, dropped_b)

