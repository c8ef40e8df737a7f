"""Edit distance, KL divergence, and optimal-transport distances."""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from dmeter.distance import (
    Distribution,
    emd_1d,
    emd_discrete,
    kl_divergence,
    levenshtein,
    word_movers_distance,
)
from dmeter.errors import UndefinedValueError
from dmeter.vectors import EmbeddingMatrix, cosine_distance, euclidean


# --- independent oracles --------------------------------------------------------


@functools.cache
def recursive_edit_distance(a: str, b: str) -> int:
    """Oracle: the recursive definition, evaluated directly."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        recursive_edit_distance(a[1:], b) + 1,
        recursive_edit_distance(a, b[1:]) + 1,
        recursive_edit_distance(a[1:], b[1:]) + (a[0] != b[0]),
    )


def dp_levenshtein(a, b) -> int:
    """Oracle: the O(|a|*|b|) dynamic program, one row at a time; how
    levenshtein computed before it used bit vectors."""
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


def enumerate_transport_cost(supply, demand, cost_matrix):
    """Oracle: minimum transport cost by enumerating saturation orders.

    At each step pick any (row, col) with remaining supply and demand, ship
    min(supply, demand) along it, and recurse.  Every basic solution of the
    transportation polytope arises from some pick order, so the minimum over
    all orders is the exact optimum.  Feasible only for tiny supports.
    """
    memo = {}

    def best(sup, dem):
        key = (sup, dem)
        if key in memo:
            return memo[key]
        rows = [i for i, s in enumerate(sup) if s > 1e-12]
        cols = [j for j, d in enumerate(dem) if d > 1e-12]
        if not rows or not cols:
            return 0.0
        out = math.inf
        for i in rows:
            for j in cols:
                amount = min(sup[i], dem[j])
                nsup = list(sup)
                ndem = list(dem)
                nsup[i] = round(nsup[i] - amount, 12)
                ndem[j] = round(ndem[j] - amount, 12)
                candidate = amount * cost_matrix[i][j] + best(tuple(nsup), tuple(ndem))
                if candidate < out:
                    out = candidate
        memo[key] = out
        return out

    return best(tuple(round(s, 12) for s in supply), tuple(round(d, 12) for d in demand))


def random_distribution(rng, size):
    probs = rng.dirichlet(np.ones(size))
    return Distribution(range(size), probs)


# --- levenshtein ----------------------------------------------------------------


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert recursive_edit_distance("kitten", "sitting") == 3

    def test_token_sequences(self):
        assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_matches_recursive_oracle_on_random_short_strings(self):
        rng = np.random.default_rng(42)
        alphabet = "abc"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 7)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 7)))
            assert levenshtein(a, b) == recursive_edit_distance(a, b)

    def test_metric_properties(self):
        rng = np.random.default_rng(42)
        alphabet = "abcd"
        for _ in range(300):
            a, b, c = (
                "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
                for _ in range(3)
            )
            dab = levenshtein(a, b)
            assert dab >= 0
            assert dab == levenshtein(b, a)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)
            assert abs(len(a) - len(b)) <= dab <= max(len(a), len(b), 0)


# Few distinct items, so that matches are common; two of them outside the BMP.
_CHARS = "ab\u00e9\U0001f600\U0001d11e"
_WORDS = ["the", "cat", "sat", "on", "mat"]


@st.composite
def _sequence_pairs(draw):
    """Two strings or two token lists, up to 200 items: random, or one an edit
    of the other, so that both long shared runs and scattered matches occur."""
    items = draw(st.sampled_from([st.text(alphabet=_CHARS, max_size=200),
                                  st.lists(st.sampled_from(_WORDS), max_size=200),
                                  st.text(alphabet=_CHARS, min_size=60, max_size=200)]))
    a = draw(items)
    if draw(st.booleans()):
        return a, draw(items)
    cut = draw(st.integers(0, len(a)))
    return a, a[:cut] + draw(items)[:3] + a[cut + draw(st.integers(0, 3)):]


@pytest.mark.parametrize("a, b", [
    ("", ""), ("", "ab"), ("a", ""), ("a", "a"), ("a", "b"), ("abc", "abc"),
    (["x"], ["y"]), ("\U0001f600", "\U0001f600a"), ("ab" * 40, "ba" * 40),
    ("a" * 64, "a" * 65), ("ab" * 65, "b" * 129), (list("xyz" * 50), list("zyx" * 45)),
])
def test_levenshtein_matches_dp_oracle_on_edge_cases(a, b):
    assert levenshtein(a, b) == levenshtein(b, a) == dp_levenshtein(a, b)


@settings(max_examples=200, deadline=None)
@given(_sequence_pairs())
def test_levenshtein_matches_dp_oracle(pair):
    a, b = pair
    assert levenshtein(a, b) == levenshtein(b, a) == dp_levenshtein(a, b)


def test_levenshtein_unhashable_items_rejected():
    with pytest.raises(TypeError, match="unhashable"):
        levenshtein([["a"], ["b"]], [["a"]])


# --- distributions --------------------------------------------------------------


class TestDistribution:
    def test_lookup_and_copy_keep_support_order(self):
        p = Distribution(["b", "a", "c"], [0.5, 0.25, 0.25])
        assert (p.prob("a"), p.prob("zzz"), p.prob("zzz", default=-1.0)) == (0.25, 0.0, -1.0)
        assert p.support == ("b", "a", "c") and p.probs == (0.5, 0.25, 0.25)
        copy = p.as_dict()
        copy["a"] = 1.0
        assert p.prob("a") == 0.25 and list(copy) == ["b", "a", "c"]

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Distribution(["a", "a"], [0.5, 0.5])


# --- KL divergence --------------------------------------------------------------


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Distribution(["a", "b"], [0.5, 0.5])
        assert kl_divergence(p, p, smoothing=0) == 0.0

    def test_half_half_vs_quarter(self):
        p = Distribution(["a", "b"], [0.5, 0.5])
        q = Distribution(["a", "b"], [0.25, 0.75])
        # direct summation oracle
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert kl_divergence(p, q, smoothing=0) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(p, q, smoothing=0) == pytest.approx(0.1438, abs=1e-4)

    def test_disjoint_support_is_infinite(self):
        p = Distribution(["a"], [1.0])
        q = Distribution(["b"], [1.0])
        assert kl_divergence(p, q, smoothing=0) == math.inf

    def test_smoothing_makes_disjoint_finite(self):
        p = Distribution(["a"], [1.0])
        q = Distribution(["b"], [1.0])
        assert math.isfinite(kl_divergence(p, q, smoothing=1e-9))

    def test_asymmetric(self):
        p = Distribution(["a", "b"], [0.9, 0.1])
        q = Distribution(["a", "b"], [0.5, 0.5])
        assert kl_divergence(p, q, 0) != kl_divergence(q, p, 0)

    def test_gibbs_inequality_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            size = int(rng.integers(2, 12))
            p = random_distribution(rng, size)
            q = random_distribution(rng, size)
            assert kl_divergence(p, q, smoothing=0) >= -1e-12
            assert abs(kl_divergence(p, p, smoothing=0)) <= 1e-12

    def test_zero_p_terms_contribute_nothing(self):
        p = Distribution(["a", "b"], [1.0, 0.0])
        q = Distribution(["a", "b"], [0.5, 0.5])
        assert kl_divergence(p, q, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_negative_smoothing_rejected(self):
        p = Distribution(["a"], [1.0])
        with pytest.raises(ValueError):
            kl_divergence(p, p, smoothing=-1e-3)


# --- earth mover's distance -----------------------------------------------------


class TestEmd1d:
    def test_identical_samples(self):
        assert emd_1d([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_shifted_pair(self):
        # both matchings enumerate to the same optimum: 1.0
        assert emd_1d([0, 1], [1, 2]) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            emd_1d([], [])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="emd_discrete"):
            emd_1d([1.0], [1.0, 2.0])


class TestEmdDiscrete:
    def test_identity_flow(self):
        p = Distribution(["a", "b", "c"], [0.2, 0.3, 0.5])
        assert emd_discrete(p, p, lambda x, y: 0.0 if x == y else 1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_point_masses(self):
        p = Distribution([2.0], [1.0])
        q = Distribution([7.5], [1.0])
        assert emd_discrete(p, q, lambda a, b: abs(a - b)) == pytest.approx(5.5, abs=1e-12)

    def test_negative_cost_rejected(self):
        p = Distribution(["a"], [1.0])
        q = Distribution(["b"], [1.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            emd_discrete(p, q, lambda a, b: -1.0)

    def test_symmetry_with_symmetric_cost(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            cost = lambda a, b: abs(a - b) ** 1.5
            assert emd_discrete(p, q, cost) == pytest.approx(
                emd_discrete(q, p, lambda a, b: cost(b, a)), abs=1e-9
            )

    def test_matches_enumeration_oracle_on_small_supports(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            p = random_distribution(rng, n)
            q = random_distribution(rng, m)
            cost_matrix = rng.uniform(0, 5, size=(n, m))
            got = emd_discrete(p, q, lambda a, b: cost_matrix[a][b])
            want = enumerate_transport_cost(p.probs, q.probs, cost_matrix)
            assert got == pytest.approx(want, abs=1e-9)

    def test_agrees_with_closed_form_on_matched_histograms(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            xs = rng.uniform(-5, 5, size=n)
            ys = rng.uniform(-5, 5, size=n)
            p = Distribution(xs, np.full(n, 1.0 / n))
            q = Distribution(ys, np.full(n, 1.0 / n))
            assert emd_discrete(p, q, lambda a, b: abs(a - b)) == pytest.approx(
                emd_1d(xs, ys), abs=1e-9
            )

    def test_support_cap_enforced(self):
        big = Distribution(range(2001), np.full(2001, 1.0 / 2001))
        with pytest.raises(ValueError, match="exceed the exact-solver cap"):
            emd_discrete(big, big, lambda a, b: 0.0)


# --- word mover's distance ------------------------------------------------------


def toy_embedding():
    return EmbeddingMatrix(
        ["cat", "dog", "stone", "wall"],
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]],
    )


class TestWordMoversDistance:
    def test_identical_bags(self):
        emb = toy_embedding()
        result = word_movers_distance(["cat", "dog"], ["dog", "cat"], emb)
        assert result.distance == 0.0
        assert result.dropped_a == result.dropped_b == 0

    def test_single_word_docs(self):
        emb = toy_embedding()
        result = word_movers_distance(["cat"], ["stone"], emb)
        expected = euclidean(emb.vector("cat"), emb.vector("stone"))
        assert result.distance == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        emb = toy_embedding()
        a = ["cat", "cat", "wall"]
        b = ["dog", "stone", "stone"]
        assert word_movers_distance(a, b, emb).distance == pytest.approx(
            word_movers_distance(b, a, emb).distance, abs=1e-12
        )

    def test_out_of_embedding_tokens_dropped_and_counted(self):
        emb = toy_embedding()
        result = word_movers_distance(["cat", "zebra"], ["dog", "qux", "qux"], emb)
        assert result.dropped_a == 1
        assert result.dropped_b == 2

    def test_empty_after_filtering_undefined(self):
        emb = toy_embedding()
        with pytest.raises(UndefinedValueError, match="no embedded tokens"):
            word_movers_distance(["zebra"], ["cat"], emb)

    def test_three_word_docs_match_flow_enumeration(self):
        emb = toy_embedding()
        doc_a = ["cat", "cat", "stone"]
        doc_b = ["dog", "wall", "wall"]
        got = word_movers_distance(doc_a, doc_b, emb).distance

        support_a = ["cat", "stone"]
        support_b = ["dog", "wall"]
        supply = [2 / 3, 1 / 3]
        demand = [1 / 3, 2 / 3]
        cost = [
            [euclidean(emb.vector(x), emb.vector(y)) for y in support_b]
            for x in support_a
        ]
        want = enumerate_transport_cost(supply, demand, cost)
        assert got == pytest.approx(want, abs=1e-9)

    def test_support_cap_enforced(self):
        words = [f"w{i}" for i in range(2001)]
        emb = EmbeddingMatrix(words, np.arange(4002.0).reshape(2001, 2))
        with pytest.raises(ValueError, match="2001x1 exceed the exact-solver cap"):
            word_movers_distance(words, ["w0"], emb)

    def test_unknown_ground_cost_rejected(self):
        with pytest.raises(ValueError, match="unknown ground cost"):
            word_movers_distance(["cat"], ["dog"], toy_embedding(), ground_cost="manhattan")


# --- transport constraints against the nested loops they replaced ---------------


def looped_transport_constraints(n, m):
    """Row-sum then column-sum constraints, one nested loop each: how
    emd_discrete built its constraint matrix before it used array operations."""
    rows, cols = [], []
    for i in range(n):
        for j in range(m):
            rows.append(i)
            cols.append(i * m + j)
    for j in range(m - 1):
        for i in range(n):
            rows.append(n + j)
            cols.append(i * m + j)
    return coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m - 1, n * m)).tocsr()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
def test_emd_matches_looped_constraint_solve(p_counts, q_counts, seed):
    p = Distribution.from_counts(dict(enumerate(p_counts)))
    q = Distribution.from_counts({f"q{j}": c for j, c in enumerate(q_counts)})
    costs = np.random.default_rng(seed).uniform(0.0, 3.0, size=(len(p), len(q)))
    column = {item: j for j, item in enumerate(q.support)}

    def cost(a, b):
        return costs[a, column[b]]

    b_eq = np.concatenate([np.asarray(p.probs), np.asarray(q.probs[: len(q) - 1])])
    res = linprog(costs.ravel(), A_eq=looped_transport_constraints(len(p), len(q)), b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert emd_discrete(p, q, cost) == float(res.fun)


# --- cost arrays against the per-pair cost callbacks they replaced --------------


_BAD_COSTS = (-1.0, -1e-300, math.nan, math.inf, -math.inf)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6),
       st.lists(st.integers(1, 5), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 35), st.sampled_from(_BAD_COSTS)), max_size=2))
def test_emd_cost_array_matches_cost_callable(p_counts, q_counts, seed, bad):
    p = Distribution.from_counts({f"p{i}": c for i, c in enumerate(p_counts)})
    q = Distribution.from_counts({f"q{j}": c for j, c in enumerate(q_counts)})
    costs = np.random.default_rng(seed).uniform(0.0, 3.0, size=(len(p), len(q)))
    costs[0, 0] = -0.0  # non-negative, like 0.0
    for cell, value in bad:
        costs.flat[cell % costs.size] = value
    row = {item: i for i, item in enumerate(p.support)}
    column = {item: j for j, item in enumerate(q.support)}

    def cost(a, b):
        return float(costs[row[a], column[b]])

    outcomes = []
    for route in (cost, costs):
        try:
            outcomes.append(emd_discrete(p, q, route))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if bad:
        first = min(cell % costs.size for cell, _ in bad)
        i, j = divmod(first, len(q))
        assert outcomes[0] == (f"cost({p.support[i]!r}, {q.support[j]!r}) = "
                               f"{float(costs[i, j])}; must be finite and non-negative")


def test_emd_cost_array_shape_checked():
    p = Distribution(["a", "b"], [0.5, 0.5])
    q = Distribution(["c"], [1.0])
    with pytest.raises(ValueError, match=r"cost array has shape \(1, 2\); expected \(2, 1\)"):
        emd_discrete(p, q, np.ones((1, 2)))


def callback_wmd(doc_a, doc_b, emb, ground_cost):
    """Oracle: word mover's distance with the ground cost called once per
    support pair, as word_movers_distance computed it before it built the cost
    array in one operation."""
    dist_fn = euclidean if ground_cost == "euclidean" else cosine_distance
    bag_a = Counter(t for t in doc_a if t in emb)
    bag_b = Counter(t for t in doc_b if t in emb)
    if bag_a == bag_b:
        return 0.0
    p, q = Distribution.from_counts(bag_a), Distribution.from_counts(bag_b)
    return emd_discrete(p, q, lambda x, y: dist_fn(emb.vector(x), emb.vector(y)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndefinedValueError as exc:
        return f"undefined: {exc}"


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 70), st.integers(3, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]), st.booleans(), st.booleans(),
       st.sampled_from(["euclidean", "cosine"]))
def test_wmd_matches_callback_reference(dim, n_words, seed, scale, zero_row, parallel,
                                        ground_cost):
    # Exact ==: each array entry is the same BLAS dot as in the callback.  Up
    # to 70 dimensions, so the dot kernel's unrolled blocks and tails both run.
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_words, dim)) * scale
    if parallel:  # cosines that round past -1 and 1, which both routes clamp
        vectors[1:3] = vectors[0] * rng.uniform(0.1, 10.0, size=(2, 1)) * [[-1.0], [1.0]]
    if zero_row:  # a zero-norm row: cosine is undefined whenever it is in a support
        vectors[-1] = 0.0
    words = [f"w{i}" for i in range(n_words)]
    emb = EmbeddingMatrix(words, vectors)
    # Single words first: each distance is then one ground cost.
    docs = [(["w0"], ["w1"]), (["w0"], ["w2"])] + [
        tuple([str(rng.choice(words))]
              + list(rng.choice(words + ["oov"], size=int(rng.integers(0, 25))))
              for _ in range(2))
        for _ in range(3)
    ]
    for doc_a, doc_b in docs:
        got = _outcome(lambda: word_movers_distance(doc_a, doc_b, emb, ground_cost).distance)
        assert got == _outcome(callback_wmd, doc_a, doc_b, emb, ground_cost)
